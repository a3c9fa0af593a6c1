from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psskit import (
    VecSet,
    build_lattice,
    enumerate_simplices,
    is_positive_basis,
    is_pss,
)
from psskit.errors import PreconditionError
from psskit.genlib import (
    make_cross,
    make_simplex,
    polygon_example,
    random_positive_basis,
)


def s_union_minus_s():
    # 2-simplex together with its negation
    return VecSet(2, [[1, 0], [0, 1], [-1, -1], [-1, 0], [0, -1], [1, 1]])


class TestBuild:
    def test_single_simplex(self):
        lat = build_lattice(make_simplex(2))
        assert [e.subset for e in lat] == [(), (0, 1, 2)]

    def test_cross(self):
        lat = build_lattice(make_cross(2))
        assert len(lat) == 4
        assert [e.subset for e in lat] == [(), (0, 1), (2, 3), (0, 1, 2, 3)]

    def test_embedding_strict_on_doubled_simplex(self):
        X = s_union_minus_s()
        lat = build_lattice(X)
        n_simplices = len(enumerate_simplices(X))
        assert n_simplices == 5  # the two triangles and three opposite pairs
        assert len(lat) < 2**n_simplices
        # the map to simplex subsets stays injective
        keys = [e.simplices for e in lat]
        assert len(set(keys)) == len(keys)

    def test_requires_pss(self):
        with pytest.raises(PreconditionError):
            build_lattice(VecSet(2, [[1, 0], [0, 1]]))


class TestOperations:
    def setup_method(self):
        self.lat = build_lattice(make_cross(2))
        self.s1 = self.lat.element((0, 1))
        self.s2 = self.lat.element((2, 3))

    def test_meet_disjoint(self):
        assert self.lat.meet(self.s1, self.s2).subset == ()

    def test_join(self):
        assert self.lat.join(self.s1, self.s2).subset == (0, 1, 2, 3)

    def test_complement(self):
        assert self.lat.complement(self.s1) == self.s2

    def test_mixed_lattices_rejected(self):
        other = build_lattice(make_cross(2))
        foreign = build_lattice(make_simplex(2)).element((0, 1, 2))
        with pytest.raises(PreconditionError):
            other.meet(self.s1, foreign)


class TestIdentities:
    @settings(max_examples=12, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 30))
    def test_simplex_set_identities(self, d, seed):
        n = seed % d + 1
        X = random_positive_basis(d, n, seed)
        lat = build_lattice(X)
        for a in lat:
            for b in lat:
                meet = lat.meet(a, b)
                join = lat.join(a, b)
                # simplices of the intersection = intersection of simplices
                assert set(meet.simplices) == set(a.simplices) & set(b.simplices)
                # simplices of the union contain the union of simplices
                assert set(join.simplices) >= set(a.simplices) | set(b.simplices)

    @settings(max_examples=12, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 30))
    def test_boolean_laws_on_positive_bases(self, d, seed):
        n = seed % d + 1
        X = random_positive_basis(d, n, seed)
        lat = build_lattice(X)
        simplices = enumerate_simplices(X)
        assert len(lat) == 2 ** len(simplices)
        for a in lat:
            c = lat.complement(a)
            assert lat.complement(c) == a
            assert lat.join(a, c) == lat.top
            assert lat.meet(a, c) == lat.bottom

    def test_bijective_exactly_for_positive_bases(self):
        for X in (make_cross(2), make_simplex(3)):
            assert is_positive_basis(X)
            lat = build_lattice(X)
            assert len(lat) == 2 ** len(enumerate_simplices(X))
        for X in (s_union_minus_s(),):
            assert not is_positive_basis(X)
            lat = build_lattice(X)
            assert len(lat) < 2 ** len(enumerate_simplices(X))


class TestOracle:
    @staticmethod
    def brute_spanning_subsets(X):
        """Every subset of X that positively spans its hull, by LP alone."""
        return {
            sub
            for k in range(len(X) + 1)
            for sub in combinations(X.indices(), k)
            if is_pss(X.subset(sub))
        }

    @pytest.mark.parametrize(
        "make, size",
        [
            (lambda: polygon_example(3), 22),
            (lambda: polygon_example(4), 136),
            # 25 simplices: one union per subset of them would never finish
            (lambda: polygon_example(5), 714),
            (s_union_minus_s, 22),
        ],
        ids=["polygon3", "polygon4", "polygon5", "s_union_minus_s"],
    )
    def test_elements_are_the_positively_spanning_subsets(self, make, size):
        X = make()
        subsets = {e.subset for e in build_lattice(X)}
        assert subsets == self.brute_spanning_subsets(X)
        assert len(subsets) == size

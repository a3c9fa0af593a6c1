import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_lp_calls, vecsets

from psskit import (
    VecSet,
    build_lattice,
    enumerate_simplices,
    is_positive_basis,
    is_pss,
)
from psskit import simplicial
from psskit.errors import PreconditionError
from psskit.simplicial import Simplex, positively_spanning_subsets
from psskit.spanset import _members
from psskit.genlib import (
    example_x9,
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
        assert list(lat) == [(), (0, 1, 2)]

    def test_cross(self):
        lat = build_lattice(make_cross(2))
        assert len(lat) == 4
        assert list(lat) == [(), (0, 1), (2, 3), (0, 1, 2, 3)]

    def test_embedding_strict_on_doubled_simplex(self):
        X = s_union_minus_s()
        lat = build_lattice(X)
        n_simplices = len(enumerate_simplices(X))
        assert n_simplices == 5  # the two triangles and three opposite pairs
        assert len(lat) < 2**n_simplices
        # the map to simplex subsets stays injective
        keys = [lat.simplices(e) for e in lat]
        assert len(set(keys)) == len(keys)

    def test_requires_pss(self):
        with pytest.raises(PreconditionError):
            build_lattice(VecSet(2, [[1, 0], [0, 1]]))

    @pytest.mark.parametrize("make", [lambda: make_cross(6), example_x9], ids=["cross6", "x9"])
    def test_precondition_asks_no_lp(self, make, monkeypatch):
        X = make()  # fresh: no memoized is_pss to read
        calls = count_lp_calls(monkeypatch)
        assert len(build_lattice(X)) == len(positively_spanning_subsets(X))
        assert calls == []

    @settings(max_examples=60, deadline=None)
    @given(vecsets(max_dim=3, max_size=6))
    def test_raises_exactly_when_not_pss(self, X):
        # is_pss asks its LP on a fresh copy of X, whose memo holds nothing
        try:
            build_lattice(X)
        except PreconditionError:
            assert not is_pss(VecSet(X.dim, X.vectors))
        else:
            assert is_pss(VecSet(X.dim, X.vectors))


class TestOperations:
    def setup_method(self):
        self.lat = build_lattice(make_cross(2))
        self.s1 = self.lat.element((0, 1))
        self.s2 = self.lat.element((2, 3))

    def test_meet_disjoint(self):
        assert self.lat.meet(self.s1, self.s2) == ()

    def test_join(self):
        assert self.lat.join(self.s1, self.s2) == (0, 1, 2, 3)

    def test_complement(self):
        assert self.lat.complement(self.s1) == self.s2

    @pytest.mark.parametrize(
        "subset",
        [(0,), (0, 0, 1), (-1,), (-1, 0, 1), (0, 1, 4), (True, 0), ("a",), (0, 1.0)],
        ids=[
            "non-member",
            "repeated",
            "negative",
            "negative-in-member",
            "out-of-range",
            "bool-index",
            "str-index",
            "float-index",
        ],
    )
    def test_element_rejects_what_is_not_a_member(self, subset):
        for take in (
            self.lat.element,
            self.lat.simplices,
            self.lat.complement,
            lambda a: self.lat.meet(self.s1, a),
            lambda a: self.lat.join(a, self.s2),
        ):
            with pytest.raises(PreconditionError):
                take(subset)

    def test_an_element_is_its_sorted_subset(self):
        assert self.lat.element([3, 2]) == self.s2 == (2, 3)
        assert self.lat.simplices((3, 2)) == (1,)
        assert (self.lat.bottom, self.lat.top) == ((), (0, 1, 2, 3))

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
                assert set(lat.simplices(meet)) == set(lat.simplices(a)) & set(lat.simplices(b))
                # simplices of the union contain the union of simplices
                assert set(lat.simplices(join)) >= set(lat.simplices(a)) | set(lat.simplices(b))

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
        subsets = set(build_lattice(X))
        assert subsets == self.brute_spanning_subsets(X)
        assert len(subsets) == size


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 18).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(1, 2**n - 1), max_size=9))
    )
)
def test_closure_order_is_size_then_member_tuple(drawn):
    # the sort key reads masks only; it must give the (size, member tuple) order
    n, masks = drawn
    X = VecSet(1, [[k] for k in range(1, n + 1)])
    fake = [Simplex(_members(m), {}) for m in masks]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplicial, "enumerate_simplices", lambda _: fake)
        order = positively_spanning_subsets(X)
    assert order == sorted(set(order), key=lambda u: (u.bit_count(), _members(u)))
    assert set(masks) <= set(order)


def test_closure_size_on_random_18_in_the_plane():
    # 222 simplices inside the 18-vector guard: the closure must stay
    # linear in its output.  Gated on the count, never on wall time.
    rng = random.Random(3)
    vectors = []
    while len(vectors) < 18:
        v = [rng.randint(-9, 9) for _ in range(2)]
        if any(v) and v not in vectors:
            vectors.append(v)
    X = VecSet(2, vectors)
    assert len(enumerate_simplices(X)) == 222
    assert len(positively_spanning_subsets(X)) == 251_392

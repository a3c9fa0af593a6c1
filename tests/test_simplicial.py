import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psskit import (
    QVec,
    VecSet,
    basis_decomposition,
    enumerate_simplices,
    factorization_condition,
    in_rint_positive_span,
    is_simplex,
    reay_partition,
    sxy_classify,
)
from psskit import simplicial, spanset
from psskit.errors import DimensionMismatchError, PreconditionError, PropertyViolation
from psskit.genlib import (
    AntichainSpec,
    example_x9,
    make_cross,
    make_from_antichain,
    make_simplex,
    random_positive_basis,
)
from psskit.ratlin import rank

from conftest import (
    count_lp_calls,
    oracle_enumerate_simplices,
    oracle_factorization_scan,
    oracle_is_simplex,
    vecsets,
)

F = Fraction

SIMPLEX2 = make_simplex(2)
CROSS2 = make_cross(2)

X9_SIMPLICES = [
    (0, 1, 2),
    (0, 1, 3, 4, 7, 8),
    (2, 5, 6),
    (3, 4, 5),
    (6, 7, 8),
]


class TestIsSimplex:
    def test_opposite_pair_scaled(self):
        S = VecSet(1, [[2], [-6]])
        s = is_simplex(S)
        assert s is not None
        assert s.dependency == {0: F(1), 1: F(1, 3)}

    def test_planar_triple(self):
        s = is_simplex(SIMPLEX2)
        assert s is not None
        assert s.dependency == {0: F(1), 1: F(1), 2: F(1)}

    def test_zero_entry_in_kernel_rejected(self):
        s = is_simplex(VecSet(2, [[1, 0], [0, 1], [-1, 0]]))
        assert s is None

    @settings(max_examples=60, deadline=None)
    @given(vecsets(max_dim=3, max_size=6))
    def test_matches_kernel_sign_oracle(self, X):
        # the set itself, and each of its simplices, which is one
        for S in [X] + [X.subset(s.members) for s in oracle_enumerate_simplices(X)]:
            assert is_simplex(S) == oracle_is_simplex(S)


class TestEnumerate:
    def test_cross(self):
        found = [s.members for s in enumerate_simplices(CROSS2)]
        assert found == [(0, 1), (2, 3)]

    def test_x9(self):
        found = [s.members for s in enumerate_simplices(example_x9())]
        assert found == X9_SIMPLICES
        # the four named triples are present
        for triple in [(0, 1, 2), (3, 4, 5), (6, 7, 8), (2, 5, 6)]:
            assert triple in found

    def test_pointed_pair_has_none(self):
        assert enumerate_simplices(VecSet(2, [[1, 0], [0, 1]])) == []

    @settings(max_examples=40, deadline=None)
    @given(vecsets(max_dim=3, max_size=6))
    def test_cardinality_is_rank_plus_one(self, X):
        for s in enumerate_simplices(X):
            r = rank(X.matrix(s.members))
            assert len(s.members) == r + 1 <= X.dim + 1

    @settings(max_examples=30, deadline=None)
    @given(vecsets(max_dim=3, max_size=6))
    def test_member_structure(self, X):
        # removing any member of a simplex leaves an independent set whose
        # positive span strictly surrounds the removed member's negation
        for s in enumerate_simplices(X):
            for z in s.members:
                rest = [i for i in s.members if i != z]
                sub = X.subset(rest)
                assert sub.rank() == len(rest)
                assert in_rint_positive_span(-X[z], sub)


def _simplex_oracle_sets():
    """Seeded sets, d = 1..6: spanning, pointed, rank-deficient and mixed,
    integer and 16-bit rational, each with a parallel copy of one vector
    and, unless pointed, an antiparallel copy of another."""
    rng = random.Random(8)
    sets = []
    for d in range(1, 7):
        for shape in ("spanning", "pointed", "low rank", "mixed"):
            if shape == "low rank" and d == 1:
                continue
            for scaled in (False, True):
                n = rng.randint(d, d + 2) if d > 1 else 2
                vectors: list[list[int]] = []
                while len(vectors) < n:
                    v = [rng.randint(-3, 3) for _ in range(d)]
                    if shape == "pointed":
                        v[0] = rng.randint(1, 3)  # all in the open half-space
                    if shape == "low rank":
                        v[-1] = 0
                    if any(v) and v not in vectors:
                        vectors.append(v)
                if shape == "spanning":  # close a positive dependency
                    w = [rng.randint(1, 3) for _ in vectors]
                    vectors.append([-sum(c * v[k] for c, v in zip(w, vectors)) for k in range(d)])
                vectors.append([2 * a for a in vectors[0]])
                if shape != "pointed":
                    vectors.append([-3 * a for a in vectors[1]])
                unique = []
                for v in vectors:
                    if any(v) and v not in unique:
                        unique.append(v)
                rng.shuffle(unique)
                if scaled:
                    unique = [
                        [Fraction(rng.randint(1, 2**16), rng.randint(1, 2**16)) * a for a in v]
                        for v in unique
                    ]
                sets.append(VecSet(d, unique))
    return sets


class TestSimplexWalkOracle:
    SETS = _simplex_oracle_sets()

    @pytest.mark.parametrize("X", SETS, ids=lambda X: f"d{X.dim}n{len(X)}r{X.rank()}")
    def test_walk_matches_subset_scan(self, X):
        # members and dependencies, in canonical order
        assert enumerate_simplices(X) == oracle_enumerate_simplices(X)

    @pytest.mark.parametrize("X", SETS, ids=lambda X: f"d{X.dim}n{len(X)}r{X.rank()}")
    def test_is_simplex_matches_kernel_sign_oracle(self, X):
        # the set and every subset small enough to be a simplex, so every
        # simplex the pool holds (see the pool test) is asked as a set
        subsets = [tuple(X.indices())] + [
            c for k in range(1, X.rank() + 2) for c in combinations(X.indices(), k)
        ]
        for c in subsets:
            assert is_simplex(X.subset(c)) == oracle_is_simplex(X.subset(c))

    def test_pool_covers_dimensions_ranks_and_kinds(self):
        assert len(self.SETS) >= 40
        assert {X.dim for X in self.SETS} == set(range(1, 7))
        assert any(X.rank() < X.dim for X in self.SETS)
        assert any(v.denominator > 1 for X in self.SETS for x in X for v in x)
        simplex_counts = [len(oracle_enumerate_simplices(X)) for X in self.SETS]
        assert 0 in simplex_counts and max(simplex_counts) >= 5

    @pytest.mark.parametrize(
        "build, simplices, eliminations",
        [
            # the subset scan asked 3,289 and 492 kernels; reducing every
            # row, not only those past the last member, took 8,736 and
            # 3,672 eliminations
            (lambda: make_cross(6), 6, 1080),
            (lambda: random_positive_basis(6, 3, 1), 3, 478),
        ],
        ids=["cross6", "rpb631"],
    )
    def test_simplices_need_no_kernel(self, build, simplices, eliminations, monkeypatch):
        kernels = count_lp_calls(monkeypatch, names=("kernel_basis", "solve_linear"))
        calls = []
        original = spanset._eliminate

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(spanset, "_eliminate", counted)
        assert len(enumerate_simplices(build())) == simplices
        assert not kernels, "enumerate_simplices ran a kernel or a solve"
        # each extension of an independent set reduces every residual past
        # its new member once
        assert len(calls) == eliminations


class TestFactorization:
    def test_single_simplex(self):
        assert factorization_condition(SIMPLEX2).ok

    def test_cross_exhaustive(self):
        assert factorization_condition(CROSS2).ok
        assert factorization_condition(CROSS2, spanning_only=True).ok

    def test_x9_fails_with_witness(self):
        report = factorization_condition(example_x9())
        assert not report.ok
        Y = set(report.witness_subset)
        S = set(report.witness_simplex.members)
        X = example_x9()
        r = lambda idx: rank(X.matrix(sorted(idx)))
        assert r(Y & S) + r(Y | S) != r(Y) + r(S)
        # the spanning-subset variant fails too
        assert not factorization_condition(example_x9(), spanning_only=True).ok

    def test_rank_identity_matches_subset_scan(self):
        # criterion 02's P breaks the identity; C is positively dependent
        P = VecSet(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, 0], [0, -1, -1]])
        C = VecSet(2, [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]])
        pool = [P, C, SIMPLEX2, CROSS2, make_cross(3), example_x9()]
        pool += [random_positive_basis(d, n, seed) for d in (3, 4) for n in (1, 2, 3) for seed in (0, 1)]
        rng = random.Random(2)
        for _ in range(12):
            d = rng.randint(2, 3)
            vectors = {tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(3, 7))}
            pool.append(VecSet(d, [v for v in sorted(vectors) if any(v)]))
        verdicts = []
        for X in pool:
            report = factorization_condition(X)
            assert (report.ok, report.witness_subset) == oracle_factorization_scan(X), X
            verdicts.append(report.ok)
        assert True in verdicts and False in verdicts
        assert not factorization_condition(P).ok

    def test_scan_without_a_witness_is_a_contradiction(self, monkeypatch):
        # over all subsets the scan runs only once the rank identity has
        # failed, so a scan that finds no witness must not report ok
        monkeypatch.setattr(simplicial, "combinations", lambda pool, k: iter(()))
        with pytest.raises(PropertyViolation, match="no witness"):
            factorization_condition(example_x9())

    def test_repeated_scan_reads_ranks_by_mask(self, monkeypatch):
        # every rank of the scan is read from the memo by its mask: a
        # second scan builds no column tuple at all
        X = make_cross(4)
        assert factorization_condition(X, spanning_only=True).ok
        calls = []
        original = VecSet.matrix
        monkeypatch.setattr(
            VecSet, "matrix", lambda self, *a: calls.append(a) or original(self, *a)
        )
        assert factorization_condition(X, spanning_only=True).ok
        assert calls == []


class TestBasisDecomposition:
    def test_single_simplex(self):
        d = basis_decomposition(SIMPLEX2)
        assert d.basis == (0, 1)
        assert d.pairs == ((2, (0, 1)),)

    def test_cross(self):
        d = basis_decomposition(CROSS2)
        assert d.basis == (0, 2)
        assert d.pairs == ((1, (0,)), (3, (2,)))

    def test_x9_rejected(self):
        with pytest.raises(PreconditionError):
            basis_decomposition(example_x9())

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 4), st.integers(0, 40))
    def test_generated_bases_decompose(self, d, seed):
        from psskit.genlib import random_positive_basis

        n = seed % d + 1
        X = random_positive_basis(d, n, seed)
        dec = basis_decomposition(X)
        assert len(dec.basis) == d
        assert len(dec.pairs) == len(enumerate_simplices(X))
        for x_i, a_i in dec.pairs:
            assert in_rint_positive_span(-X[x_i], X.subset(a_i))


class TestReay:
    def test_single_simplex(self):
        p = reay_partition(make_simplex(3))
        assert p.parts == ((0, 1, 2, 3),)
        assert p.dimensions == (3,)

    def test_cross(self):
        p = reay_partition(make_cross(3))
        assert [len(part) for part in p.parts] == [2, 2, 2]
        assert p.dimensions == (1, 2, 3)

    def test_shared_support(self):
        X = make_from_antichain(AntichainSpec(3, [{1, 2}, {2, 3}]))
        p = reay_partition(X)
        assert [len(part) for part in p.parts] == [3, 2]
        assert p.dimensions == (2, 3)

    def test_prefixes_need_no_lp_and_no_subset(self, monkeypatch):
        # a prefix is a union of certified simplices, so it positively spans
        # its hull and only its rank is read, by mask; an is_pss LP on a
        # sub-VecSet per prefix asked 7 and built 7 on make_cross(8)
        X = make_cross(8)
        basis_decomposition(X)
        calls = count_lp_calls(monkeypatch)
        built = []
        original = VecSet.__init__
        monkeypatch.setattr(
            VecSet, "__init__", lambda self, *a: built.append(a) or original(self, *a)
        )
        assert reay_partition(X).dimensions == tuple(range(1, 9))
        assert calls == [] and built == []


class TestSxy:
    def test_negated_member(self):
        rep = sxy_classify(SIMPLEX2, QVec([-1, 0]))
        assert (rep.exists_swap, rep.all_full_span, rep.neg_outside_skeleton) == (
            False,
            False,
            False,
        )

    def test_interior_direction(self):
        rep = sxy_classify(SIMPLEX2, QVec([2, 1]))
        assert (rep.exists_swap, rep.all_full_span, rep.neg_outside_skeleton) == (
            True,
            True,
            True,
        )

    def test_line_simplex(self):
        S = VecSet(1, [[1], [-1]])
        rep = sxy_classify(S, QVec([-2]))
        assert (rep.exists_swap, rep.all_full_span, rep.neg_outside_skeleton) == (
            True,
            True,
            True,
        )

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            sxy_classify(SIMPLEX2, QVec([1, 0]))  # already a member
        with pytest.raises(PreconditionError):
            sxy_classify(VecSet(2, [[1, 0], [0, 1]]), QVec([1, 1]))  # not a simplex
        S3 = make_simplex(3)
        with pytest.raises(PreconditionError):
            sxy_classify(
                VecSet(3, [[1, 0, 0], [-1, 0, 0]]), QVec([0, 1, 0])
            )  # outside the span
        with pytest.raises(DimensionMismatchError):
            sxy_classify(SIMPLEX2, QVec([1, 1, 1]))  # another dimension

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_flags_agree(self, data):
        d = data.draw(st.integers(1, 3))
        coeffs = data.draw(
            st.lists(
                st.fractions(min_value=F(1, 2), max_value=3, max_denominator=3),
                min_size=d,
                max_size=d,
            )
        )
        S = make_simplex(d, coeffs)
        weights = data.draw(
            st.lists(
                st.fractions(min_value=-2, max_value=2, max_denominator=2),
                min_size=d + 1,
                max_size=d + 1,
            )
        )
        y = QVec.zero(d)
        for v, w in zip(S, weights):
            y = y + v.scale(w)
        if y.is_zero() or S.index_of(y) is not None:
            return
        rep = sxy_classify(S, y)
        assert rep.exists_swap == rep.all_full_span == rep.neg_outside_skeleton


class TestInterEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_on_spanning_sets(self, data):
        from psskit.genlib import random_positive_basis
        from psskit.spanset import is_pss, positively_dependent

        d = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, d))
        X = random_positive_basis(d, n, data.draw(st.integers(0, 99)))
        if data.draw(st.booleans()):
            # mutate into a positively dependent spanning set
            i = data.draw(st.integers(0, len(X) - 1))
            j = data.draw(st.integers(0, len(X) - 1))
            extra = X[i] + X[j]
            if not extra.is_zero() and X.index_of(extra) is None:
                X = VecSet(X.dim, list(X.vectors) + [extra])
        assert is_pss(X)
        indep = not positively_dependent(X).verdict
        # the conditions chain one way: all-subsets => independent =>
        # spanning-subsets; neither converse holds in general
        full = factorization_condition(X).ok
        spanning = factorization_condition(X, spanning_only=True).ok
        if full:
            assert indep
        if indep:
            assert spanning
            basis_decomposition(X)

    def test_spanning_variant_strictly_weaker(self):
        # a positively dependent spanning set on which the restriction to
        # positively spanning subsets loses the violation: the diagonal
        # appended to the planar cross
        X = VecSet(2, [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]])
        from psskit.spanset import positively_dependent

        assert positively_dependent(X).verdict
        assert not factorization_condition(X).ok
        assert factorization_condition(X, spanning_only=True).ok

    def test_all_subsets_variant_strictly_stronger(self):
        # a positive basis with overlapping simplex supports: the spans of
        # Y = {e1, -e1-e2} and S = {e2, e3, -e2-e3} meet in the e2 line
        # although Y and S are disjoint, so the all-subsets condition
        # fails on a positively independent set
        X = VecSet(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, 0], [0, -1, -1]])
        from psskit.spanset import is_positive_basis

        assert is_positive_basis(X)
        report = factorization_condition(X)
        assert not report.ok
        assert factorization_condition(X, spanning_only=True).ok
        basis_decomposition(X)  # the basis split still exists

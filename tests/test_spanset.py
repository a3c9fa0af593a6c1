import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from psskit import (
    QVec,
    VecSet,
    caratheodory_reduce,
    core_contains,
    extract_positive_basis,
    in_rint_positive_span,
    is_positive_basis,
    is_pss,
    linearly_dependent,
    negatively_independent,
    positively_dependent,
    replace_element,
    skeleton_contains,
)
from psskit.errors import (
    DuplicateVectorError,
    PreconditionError,
    ZeroVectorError,
)
from psskit.ratlin import strict_separator
from psskit.conical import enumerate_mns
from psskit.simplicial import enumerate_simplices
from psskit.genlib import example_x9, make_cross

from conftest import (
    apply_map,
    brute_force_membership,
    invertible_maps,
    positive_rats,
    vecsets,
)

F = Fraction

SIMPLEX2 = VecSet(2, [[1, 0], [0, 1], [-1, -1]])
CROSS2 = make_cross(2)
QUAD = VecSet(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, -1]])


class TestConstruction:
    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            VecSet(2, [[1, 0], [0, 0]])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateVectorError):
            VecSet(2, [[1, 0], [1, 0]])


class TestLinearDependence:
    def test_independent_pair(self):
        assert not linearly_dependent(VecSet(2, [[1, 0], [0, 1]])).verdict

    def test_quadruple_dependent_with_reconstruction(self):
        rep = linearly_dependent(QUAD)
        assert rep.verdict
        rebuilt = QVec.zero(3)
        for j, c in rep.witness_coeffs.items():
            rebuilt = rebuilt + QUAD[j].scale(c)
        assert rebuilt == QUAD[rep.witness_index]
        # every element is in the span of the others, so the lowest wins
        assert rep.witness_index == 0

    def test_collinear_pair(self):
        assert linearly_dependent(VecSet(1, [[1], [-2]])).verdict


class TestPositiveDependence:
    def test_quadruple_positively_independent(self):
        assert not positively_dependent(QUAD).verdict

    def test_x9_positively_dependent(self):
        rep = positively_dependent(example_x9())
        assert rep.verdict
        X = example_x9()
        rebuilt = QVec.zero(6)
        for j, c in rep.witness_coeffs.items():
            assert c >= 0
            rebuilt = rebuilt + X[j].scale(c)
        assert rebuilt == X[rep.witness_index]
        # lowest removable element is x3 = x4 + x5 + x8 + x9
        assert rep.witness_index == 2

    def test_cross_positively_independent(self):
        rep = positively_dependent(CROSS2)
        assert not rep.verdict
        # brute-force cross-check of all four membership questions
        for i in CROSS2.indices():
            rest = CROSS2.subset([j for j in CROSS2.indices() if j != i])
            assert not brute_force_membership(CROSS2[i], rest)


class TestNegativeIndependence:
    def test_quadrant(self):
        assert negatively_independent(VecSet(2, [[1, 0], [0, 1]])).kind == "separator"

    def test_antipodal(self):
        assert negatively_independent(VecSet(1, [[1], [-1]])).kind == "infeasible"

    def test_quadruple(self):
        assert negatively_independent(QUAD).kind == "separator"


class TestPss:
    def test_cross_is_pss(self):
        assert is_pss(CROSS2)

    def test_quadrant_is_not(self):
        assert not is_pss(VecSet(2, [[1, 0], [0, 1]]))

    def test_simplex_is_pss(self):
        assert is_pss(SIMPLEX2)

    def test_simplex_is_basis(self):
        assert is_positive_basis(SIMPLEX2)

    def test_x9_not_basis(self):
        assert is_pss(example_x9())
        assert not is_positive_basis(example_x9())

    def test_cross3_is_basis_brute(self):
        cross3 = make_cross(3)
        assert is_positive_basis(cross3)
        for i in cross3.indices():
            rest = cross3.subset([j for j in cross3.indices() if j != i])
            assert not brute_force_membership(cross3[i], rest)


class TestCaratheodory:
    def test_quadruple(self):
        sp = caratheodory_reduce(QVec([1, 1, 1]), QUAD)
        assert len(sp.coeffs) <= 3
        assert all(c > 0 for c in sp.coeffs.values())
        rebuilt = QVec.zero(3)
        for j, c in sp.coeffs.items():
            rebuilt = rebuilt + QUAD[j].scale(c)
        assert rebuilt == QVec([1, 1, 1])

    def test_zero_gets_empty_support(self):
        sp = caratheodory_reduce(QVec.zero(2), SIMPLEX2)
        assert sp.coeffs == {}

    def test_axis_point_on_cross(self):
        sp = caratheodory_reduce(QVec([2, 0]), CROSS2)
        assert sp.coeffs == {0: F(2)}

    def test_outside_rejected(self):
        with pytest.raises(PreconditionError):
            caratheodory_reduce(QVec([0, 0, 1]), VecSet(3, [[1, 0, 0], [0, 1, 0]]))

    @settings(max_examples=40, deadline=None)
    @given(vecsets(max_dim=3, max_size=6), st.data())
    def test_support_negatively_independent(self, X, data):
        weights = data.draw(
            st.lists(
                st.fractions(min_value=0, max_value=2, max_denominator=3),
                min_size=len(X),
                max_size=len(X),
            )
        )
        p = QVec.zero(X.dim)
        for v, w in zip(X, weights):
            p = p + v.scale(w)
        sp = caratheodory_reduce(p, X)
        assert len(sp.coeffs) <= X.rank()
        support = sorted(sp.coeffs)
        if support:
            assert strict_separator([X[i] for i in support]).kind == "separator"
        rebuilt = QVec.zero(X.dim)
        for j, c in sp.coeffs.items():
            assert c > 0
            rebuilt = rebuilt + X[j].scale(c)
        assert rebuilt == p


class TestSkeletonCore:
    def test_ray_is_skeleton(self):
        assert skeleton_contains(QVec([1, 0]), SIMPLEX2)

    def test_interior_not_skeleton(self):
        assert not skeleton_contains(QVec([1, 1]), SIMPLEX2)

    def test_origin_in_skeleton(self):
        assert skeleton_contains(QVec.zero(2), SIMPLEX2)

    def test_core_interior_point(self):
        assert core_contains(QVec([1, 1]), SIMPLEX2)

    def test_core_excludes_rays(self):
        assert not core_contains(QVec([1, 0]), SIMPLEX2)

    def test_negative_diagonal_lies_on_a_ray(self):
        # (-5,-5) is a positive multiple of the member (-1,-1), hence in
        # the skeleton (the positive span of a single vector has a proper
        # linear span), hence outside the core.
        assert skeleton_contains(QVec([-5, -5]), SIMPLEX2)
        assert not core_contains(QVec([-5, -5]), SIMPLEX2)

    def test_core_point_lies_interior_to_some_basis(self):
        # every core sample of a positively independent spanning set falls
        # in the open positive span of a linear basis inside the set
        for X in (SIMPLEX2, CROSS2, make_cross(3)):
            samples = [QVec([1, 1] + [0] * (X.dim - 2)), QVec([-1] * X.dim)]
            for p in samples:
                if not core_contains(p, X):
                    continue
                bases = []
                from itertools import combinations

                for sub in combinations(X.indices(), X.dim):
                    B = X.subset(sub)
                    if B.rank() == X.dim and in_rint_positive_span(p, B):
                        bases.append(sub)
                assert bases, f"core point {p} interior to no basis of {X}"


class TestSkeletonOracle:
    @staticmethod
    def brute_skeleton(p, X):
        # unpruned reference: scan every subset with a proper linear span
        from itertools import combinations

        from psskit.ratlin import column_rank, solve_nonneg

        n, r = len(X), X.rank()
        for k in range(n + 1):
            for sub in combinations(range(n), k):
                if column_rank(X.columns(sub)) >= r:
                    continue
                if solve_nonneg(X.matrix(sub), p).feasible:
                    return True
        return False

    @settings(max_examples=25, deadline=None)
    @given(vecsets(max_dim=3, max_size=5), st.data())
    def test_flat_pruning_matches_full_scan(self, X, data):
        weights = data.draw(
            st.lists(
                st.fractions(min_value=-2, max_value=2, max_denominator=2),
                min_size=len(X),
                max_size=len(X),
            )
        )
        p = QVec.zero(X.dim)
        for v, w in zip(X, weights):
            p = p + v.scale(w)
        assert skeleton_contains(p, X) == self.brute_skeleton(p, X)


class TestExtractOracle:
    def test_output_is_a_brute_force_basis(self):
        from itertools import combinations

        X = VecSet(2, [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]])
        _, kept = extract_positive_basis(X)
        r = X.rank()
        all_bases = [
            sub
            for k in range(len(X) + 1)
            for sub in combinations(X.indices(), k)
            if X.rank(sub) == r and is_positive_basis(X.subset(sub))
        ]
        assert kept in all_bases
        # every other maximal positively independent spanning subset is
        # also a valid answer; the greedy one is just the pinned choice
        assert (0, 1, 2, 3) in all_bases


class TestRintPositiveSpan:
    def test_open_quadrant(self):
        assert in_rint_positive_span(QVec([1, 1]), VecSet(2, [[1, 0], [0, 1]]))

    def test_boundary(self):
        assert not in_rint_positive_span(QVec([1, 0]), VecSet(2, [[1, 0], [0, 1]]))

    def test_outside_span_rejected(self):
        B = VecSet(3, [[1, 0, 0], [0, 1, 0]])
        with pytest.raises(PreconditionError):
            in_rint_positive_span(QVec([1, 2, 1]), B)

    def test_dependent_base_rejected(self):
        with pytest.raises(PreconditionError):
            in_rint_positive_span(QVec([1]), VecSet(1, [[1], [2]]))


class TestReplaceElement:
    def test_swap(self):
        X = VecSet(2, [[1, 0], [0, 1]])
        Y, mapping = replace_element(X, 0, QVec([-1, 0]))
        assert Y.vectors == (QVec([-1, 0]), QVec([0, 1]))
        assert mapping == {0: 0, 1: 1}

    def test_identity_swap(self):
        X = VecSet(1, [[1], [-1]])
        Y, _ = replace_element(X, 0, QVec([1]))
        assert Y == X

    def test_collapse_to_existing(self):
        X = VecSet(2, [[1, 0], [0, 1], [1, 1]])
        Y, mapping = replace_element(X, 0, QVec([1, 1]))
        assert len(Y) == 2
        assert mapping[0] == mapping[2]

    def test_zero_rejected(self):
        with pytest.raises(ZeroVectorError):
            replace_element(CROSS2, 0, QVec.zero(2))


class TestExtractPositiveBasis:
    def test_basis_is_fixed_point(self):
        Y, kept = extract_positive_basis(CROSS2)
        assert kept == (0, 1, 2, 3)
        assert Y == CROSS2

    def test_redundant_diagonal_removed(self):
        X = VecSet(2, [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]])
        Y, kept = extract_positive_basis(X)
        assert kept == (0, 1, 2, 3)
        assert is_positive_basis(Y)

    def test_x9_reduces_to_positive_basis(self):
        X = example_x9()
        Y, kept = extract_positive_basis(X)
        assert is_positive_basis(Y)
        assert Y.rank() == X.rank()
        # the greedy run strips the three cross-simplex elements
        assert kept == (0, 1, 3, 4, 7, 8)

    def test_non_pss_rejected(self):
        with pytest.raises(PreconditionError):
            extract_positive_basis(VecSet(2, [[1, 0], [0, 1]]))


class TestInvariance:
    @settings(max_examples=40, deadline=None)
    @given(vecsets(max_dim=3, max_size=5), st.data())
    def test_positive_rescale_preserves_predicates(self, X, data):
        i = data.draw(st.integers(0, len(X) - 1))
        c = data.draw(positive_rats)
        vectors = list(X.vectors)
        vectors[i] = vectors[i].scale(c)
        try:
            Y = VecSet(X.dim, vectors)
        except DuplicateVectorError:
            assume(False)
        assert linearly_dependent(X).verdict == linearly_dependent(Y).verdict
        assert positively_dependent(X).verdict == positively_dependent(Y).verdict
        assert (
            negatively_independent(X).kind == "separator"
        ) == (negatively_independent(Y).kind == "separator")
        assert is_pss(X) == is_pss(Y)
        assert is_positive_basis(X) == is_positive_basis(Y)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_invertible_map_preserves_predicates(self, data):
        X = data.draw(vecsets(max_dim=3, max_size=5))
        rows = data.draw(invertible_maps(X.dim))
        Y = VecSet(X.dim, [apply_map(rows, v) for v in X])
        assert linearly_dependent(X).verdict == linearly_dependent(Y).verdict
        assert positively_dependent(X).verdict == positively_dependent(Y).verdict
        assert (
            negatively_independent(X).kind == "separator"
        ) == (negatively_independent(Y).kind == "separator")
        assert is_pss(X) == is_pss(Y)
        assert is_positive_basis(X) == is_positive_basis(Y)


class TestSpanningEquivalences:
    @settings(max_examples=40, deadline=None)
    @given(vecsets(max_dim=3, max_size=6))
    def test_three_way(self, X):
        from psskit.ratlin import solve_nonneg

        pss = is_pss(X)
        symmetric = all(
            solve_nonneg(X.matrix(), -X[i]).feasible for i in X.indices()
        )
        covered = set()
        for s in enumerate_simplices(X):
            covered.update(s.members)
        assert pss == symmetric == (covered == set(X.indices()))

    @settings(max_examples=40, deadline=None)
    @given(vecsets(max_dim=3, max_size=6))
    def test_trichotomy(self, X):
        sep = negatively_independent(X).kind == "separator"
        assert sep != bool(enumerate_simplices(X))

    @settings(max_examples=40, deadline=None)
    @given(vecsets(min_dim=2, max_dim=2, max_size=6))
    def test_planar_independence_equivalence(self, X):
        lin = not linearly_dependent(X).verdict
        pos = not positively_dependent(X).verdict
        neg = negatively_independent(X).kind == "separator"
        assert lin == (pos and neg)


class TestStructureMemo:
    def test_edited_results_do_not_reach_the_next_caller(self):
        X = make_cross(3)
        for enumerate_fn in (enumerate_simplices, enumerate_mns):
            first = enumerate_fn(X)
            expected = list(first)
            first.clear()
            assert enumerate_fn(X) == expected
            again = enumerate_fn(X)
            again.append(None)
            again.reverse()
            assert enumerate_fn(X) == expected

    def test_analysis_leaves_equality_and_hash_alone(self):
        X, Y = example_x9(), example_x9()
        assert X is not Y
        is_pss(X)
        positively_dependent(X)
        enumerate_simplices(X)
        X.rank()
        assert X == Y and hash(X) == hash(Y) and repr(X) == repr(Y)
        assert {X: "analysed"}[Y] == "analysed"
        assert pickle.loads(pickle.dumps(X)) == Y

    def test_subset_of_every_index_is_the_set_itself(self):
        X = example_x9()
        assert X.subset(X.indices()) is X
        assert X.subset(reversed(X.indices())) != X

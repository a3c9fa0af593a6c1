import pickle
import random
from fractions import Fraction
from itertools import combinations

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
    DimensionMismatchError,
    DuplicateVectorError,
    PreconditionError,
    PropertyViolation,
    ZeroVectorError,
)
from psskit.ratlin import (
    FeasWitness,
    _dot,
    _primitive,
    _with_combinations,
    solve_linear,
    strict_separator,
)
from psskit.conical import (
    cone_decomposition,
    enumerate_mns,
    max_disjoint_family,
    restrict_frames,
    verify_main_bounds,
)
from psskit.gale import characteristic_basis, nonneg_dependency_basis
from psskit.latticemod import build_lattice
from psskit.simplicial import (
    basis_decomposition,
    enumerate_simplices,
    factorization_condition,
    sxy_classify,
)
from psskit import spanset
from psskit.genlib import example_x9, make_cross, polygon_example, random_positive_basis

from conftest import (
    apply_map,
    brute_force_membership,
    count_lp_calls,
    invertible_maps,
    oracle_rref_rank,
    oracle_extract_positive_basis,
    oracle_is_pss,
    oracle_skeleton_contains,
    positive_rats,
    small_rats,
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

    def test_string_vectors_rejected(self):
        # a string is one rational entry: "12" is not the vector (1, 2)
        with pytest.raises(TypeError):
            VecSet(2, ["12", "34"])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateVectorError):
            VecSet(2, [[1, 0], [1, 0]])

    @pytest.mark.parametrize(
        "dim, vectors",
        [(2.0, [[1, 0], [0, 1], [-1, -1]]), (True, [[1]]), ("2", [[1, 0]]), (0, [])],
        ids=["float", "bool", "str", "zero"],
    )
    def test_dimension_must_be_a_positive_int(self, dim, vectors):
        with pytest.raises(DimensionMismatchError):
            VecSet(dim, vectors)

    # an index outside range(len(X)) must not wrap around or leak IndexError
    def test_subset_rejects_a_negative_index(self):
        with pytest.raises(PreconditionError, match=r"^index -1 not present$"):
            CROSS2.subset([-1])

    def test_rank_rejects_a_negative_index(self):
        with pytest.raises(PreconditionError, match=r"^index -1 not present$"):
            CROSS2.rank([-1, 0])

    def test_matrix_rejects_an_index_past_the_end(self):
        with pytest.raises(PreconditionError, match=r"^index 5 not present$"):
            CROSS2.matrix([5])

    # subset ranks are memoized by mask; the index check comes before the mask
    def test_rank_checks_indices_while_the_memo_holds_other_masks(self):
        X = make_cross(2)
        assert (X.rank(), X.rank([0, 1]), X.rank([0, 2])) == (2, 1, 2)
        with pytest.raises(PreconditionError, match=r"^index -1 not present$"):
            X.rank([-1, 0])
        with pytest.raises(PreconditionError, match=r"^index 4 not present$"):
            X.rank([len(X)])
        with pytest.raises(PreconditionError, match=r"^index True not present$"):
            X.rank([True])

    def test_rank_of_a_repeated_index_is_read_from_the_same_mask(self, monkeypatch):
        X = make_cross(2)
        assert X.rank([0, 2]) == 2
        calls = count_lp_calls(monkeypatch, names=("rank",))
        assert X.rank([2, 0, 0]) == X.rank([0, 2, 2, 0]) == 2
        assert X.rank(range(len(X))) == X.rank() == 2
        assert len(calls) == 1  # the full set; every other mask was held

    def test_rank_reads_a_generator_once(self, monkeypatch):
        X = make_cross(2)
        assert X.rank(i for i in (0, 2)) == 2
        calls = count_lp_calls(monkeypatch, names=("rank",))
        assert X.rank([2, 0]) == 2  # kept under the mask of {0, 2}
        assert X.rank([]) == 0  # the empty mask was not written by a second read
        assert len(calls) == 1


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

    def test_empty_set_separator_lives_in_the_space(self):
        res = negatively_independent(VecSet(3, []))
        assert res.kind == "separator"
        assert res.separator == QVec.zero(3)


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

    def test_runs_one_phase_one(self, monkeypatch):
        calls = count_lp_calls(monkeypatch, names=("_phase_one",))
        x9 = example_x9()
        for p, X in (
            (QVec([1, 1, 1]), QUAD),
            (QVec([2, 0]), CROSS2),
            (QVec.zero(2), SIMPLEX2),
            (sum(x9, QVec.zero(x9.dim)), x9),
        ):
            calls.clear()
            caratheodory_reduce(p, X)
            assert len(calls) == 1

    def test_dependent_basic_solution_is_an_internal_error(self, monkeypatch):
        # a support that is not linearly independent cannot come from a
        # basic solution; the re-check reports it instead of returning it
        witness = FeasWitness(coeffs={0: F(1), 1: F(1), 2: F(1)})
        monkeypatch.setattr(spanset, "solve_nonneg", lambda A, b: witness)
        with pytest.raises(PropertyViolation, match="dependent support"):
            caratheodory_reduce(QVec.zero(2), SIMPLEX2)

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

    def test_point_of_another_dimension_is_refused(self):
        with pytest.raises(DimensionMismatchError):
            skeleton_contains(QVec([1, 0, 0]), SIMPLEX2)

    def test_empty_set_has_an_empty_skeleton(self):
        assert not skeleton_contains(QVec([1, 0]), VecSet(2, []))

    def test_core_interior_point(self):
        assert core_contains(QVec([1, 1]), SIMPLEX2)

    def test_core_excludes_points_outside_the_cone(self):
        assert not core_contains(QVec([-1, 1]), VecSet(2, [[1, 0], [0, 1]]))

    def test_core_excludes_rays(self):
        assert not core_contains(QVec([1, 0]), SIMPLEX2)

    def test_certificate_that_does_not_rebuild_the_point_raises(self, monkeypatch):
        monkeypatch.setattr(spanset, "_dot", lambda xs, ys: _dot(xs, ys) + 1)
        with pytest.raises(PropertyViolation, match="^skeleton certificate does not rebuild the point$"):
            skeleton_contains(QVec([1, 0]), SIMPLEX2)

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

    @pytest.mark.parametrize("build", [lambda: make_cross(5), example_x9], ids=["cross5", "x9"])
    def test_member_stops_the_walk_at_its_first_certificate(self, build, monkeypatch):
        # a member spans a ray of its own: the walk's first step, one
        # reduction of every row past it, finds its certificate, and the
        # walk stops
        X = build()
        X.rank()  # memoized first, so only the walk's eliminations count
        calls = count_lp_calls(monkeypatch, names=("_eliminate",))
        assert skeleton_contains(X[0], X)
        assert len(calls) <= len(X) + 1

    def test_no_answer_walks_every_independent_set_once(self, monkeypatch):
        # a "no" has no certificate to stop at: the full walk, and no more.
        # Each call of the walk yields one independent set, here the
        # sum(C(5, k) 2^k, k <= 4) = 211 of at most rank - 1 members, and
        # reduces only the rows past its last member: 547 eliminations,
        # where reducing every row made 2,310.
        X = make_cross(5)
        X.rank()
        walked = []
        original = spanset._independent_sets
        monkeypatch.setattr(
            spanset,
            "_independent_sets",
            lambda X, rows, size, members=(): walked.append(members)
            or original(X, rows, size, members),
        )
        calls = count_lp_calls(monkeypatch, names=("_eliminate",))
        assert not skeleton_contains(QVec([1] * 5), X)
        assert len(walked) == len(set(walked)) == 211
        assert len(calls) == 547


class TestSkeletonOracle:
    @staticmethod
    def brute_skeleton(p, X):
        # unpruned reference: scan every subset with a proper linear span
        from itertools import combinations

        from psskit.ratlin import rank, solve_nonneg

        n, r = len(X), X.rank()
        for k in range(n + 1):
            for sub in combinations(range(n), k):
                if rank(X.matrix(sub)) >= r:
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

    @settings(max_examples=40, deadline=None)
    @given(vecsets(max_dim=3, max_size=6), st.data())
    def test_early_exit_matches_all_flats_oracle(self, X, data):
        # a nonnegative combination of a random subset puts "yes" answers
        # at every depth of the walk; a random point mostly answers "no"
        if data.draw(st.booleans()):
            chosen = data.draw(st.sets(st.sampled_from(list(X.indices()))))
            p = QVec.zero(X.dim)
            for i in sorted(chosen):
                p = p + X[i].scale(data.draw(positive_rats))
        else:
            p = QVec(data.draw(st.lists(small_rats, min_size=X.dim, max_size=X.dim)))
        assert skeleton_contains(p, X) == oracle_skeleton_contains(p, X)


def _seeded_sets():
    """Integer and 16-bit rational sets, d = 3..6, some of rank below d."""
    rng = random.Random(5)
    out = []
    for d in range(3, 7):
        for rank_ in (d, d - 1, 2):
            for scaled in (False, True):
                n = rng.randint(d + 1, d + 2)
                gens = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rank_)]
                vectors = set()
                while len(vectors) < n:
                    w = [rng.randint(-2, 2) for _ in range(rank_)]
                    v = tuple(sum(c * g[k] for c, g in zip(w, gens)) for k in range(d))
                    if any(v):
                        vectors.add(v)
                vectors = sorted(vectors)
                if scaled:
                    scales = [Fraction(rng.randint(1, 2**16), rng.randint(1, 2**16)) for _ in vectors]
                    vectors = [[c * x for x in v] for v, c in zip(vectors, scales)]
                out.append(VecSet(d, vectors))
    return out


class TestProperFlatsOracle:
    @pytest.mark.parametrize("X", _seeded_sets(), ids=lambda X: f"d{X.dim}n{len(X)}r{X.rank()}")
    def test_echelon_walk_matches_rank_walk(self, X, monkeypatch):
        # skeleton membership read off the echelon walk, with no LP, against
        # one LP per proper flat of the rank walk
        rng = random.Random(repr(X))
        members = rng.sample(range(len(X)), X.rank() - 1)
        on_flat = sum((X[i].scale(rng.randint(1, 3)) for i in members), QVec.zero(X.dim))
        generic = sum((v.scale(rng.randint(-2, 3)) for v in X), QVec.zero(X.dim))
        points = (on_flat, -on_flat, generic, QVec.zero(X.dim))
        calls = count_lp_calls(monkeypatch, names=("_phase_one",))
        answers = [skeleton_contains(p, X) for p in points]
        assert calls == []
        assert answers[0] and answers[-1]
        assert answers == [oracle_skeleton_contains(p, X) for p in points]

    @pytest.mark.parametrize("rows", ["plain", "with combinations"])
    def test_walk_visits_exactly_the_independent_sets(self, rows):
        # the identity block must not be searched for pivots
        for X in (example_x9(), make_cross(3), random_positive_basis(4, 2, 0)):
            plain = [_primitive(v) for v in X]
            start = plain if rows == "plain" else _with_combinations(X)
            seen = [m for m, _ in spanset._independent_sets(X, start, X.rank())]
            want = [
                c
                for k in range(X.rank() + 1)
                for c in combinations(X.indices(), k)
                if oracle_rref_rank(X.matrix(c)) == k
            ]
            assert seen == sorted(want)  # depth first, lexicographic

    def test_ranks_below_dimension_are_covered(self):
        assert {X.dim - X.rank() for X in _seeded_sets()} >= {0, 1, 2, 3, 4}


def _one_lp_pool():
    """Seeded sets, d = 2..6, integer and 16-bit rational, with the points
    skeleton membership is asked about: yes, no and zero."""
    rng = random.Random(6)
    pool = []
    for d in range(2, 7):
        for shape in ("spanning", "pointed", "mixed", "low rank"):
            for scaled in (False, True):
                n = rng.randint(d + 1, d + 2)
                vectors: set[tuple] = set()
                while len(vectors) < n - (shape == "spanning"):
                    v = [rng.randint(-3, 3) for _ in range(d)]
                    if shape == "pointed":
                        v[0] = rng.randint(1, 3)  # all in the open half-space
                    if shape == "low rank":
                        v[-1] = 0
                    if any(v):
                        vectors.add(tuple(v))
                vectors = sorted(vectors)
                if shape == "spanning":  # close a positive dependency
                    w = [rng.randint(1, 3) for _ in vectors]
                    last = tuple(-sum(c * v[k] for c, v in zip(w, vectors)) for k in range(d))
                    if any(last) and last not in vectors:
                        vectors.append(last)
                if scaled:
                    vectors = [
                        [Fraction(rng.randint(1, 2**16), rng.randint(1, 2**16)) * x for x in v]
                        for v in vectors
                    ]
                X = VecSet(d, vectors)
                r = X.rank()
                few = rng.sample(range(len(X)), max(1, r - 1))
                on_flat = sum((X[i].scale(rng.randint(1, 3)) for i in few), QVec.zero(d))
                generic = sum(
                    (v.scale(rng.randint(-2, 3)) for v in X), QVec.zero(d)
                )
                for p in (on_flat, -on_flat, generic, QVec.zero(d)):
                    pool.append((X, p))
    return pool


class TestOneLpOracles:
    POOL = _one_lp_pool()

    def test_is_pss_matches_per_element_oracle(self):
        sets = {X for X, _ in self.POOL}
        verdicts = [is_pss(X) for X in sets]
        assert verdicts == [oracle_is_pss(X) for X in sets]
        assert True in verdicts and False in verdicts

    def test_skeleton_matches_all_flats_oracle(self):
        answers = [skeleton_contains(p, X) for X, p in self.POOL]
        assert answers == [oracle_skeleton_contains(p, X) for X, p in self.POOL]
        assert True in answers and False in answers

    def test_skeleton_asks_no_lp(self, monkeypatch):
        calls = count_lp_calls(monkeypatch)
        for X, p in self.POOL:
            skeleton_contains(p, X)
        assert calls == []

    def test_core_asks_exactly_one_lp(self, monkeypatch):
        calls = count_lp_calls(monkeypatch)
        for X, p in self.POOL:
            calls.clear()
            core_contains(p, X)
            assert len(calls) == 1

    def test_swap_classification_asks_only_the_swap_lps(self, monkeypatch):
        # the swap flag asks one LP per member until one is feasible: |S|
        # when no swap exists; the skeleton flag asks none
        points: dict[VecSet, list[QVec]] = {}
        for X, p in self.POOL:
            points.setdefault(X, []).append(p)
        cases = [
            (S, y)
            for X, ps in points.items()
            for S in [X.subset(s.members) for s in enumerate_simplices(X)[:1]]
            for y in [*(-v for v in S), *X, *ps]
            if not y.is_zero()
            and S.index_of(y) is None
            and solve_linear(S.vectors, y) is not None
        ]
        calls = count_lp_calls(monkeypatch)
        no_swap = 0
        for S, y in cases:
            calls.clear()
            report = sxy_classify(S, y)
            feasible = [k for k, res in enumerate(calls) if res.feasible]
            assert len(calls) == (feasible[0] + 1 if feasible else len(S))
            assert report.exists_swap == bool(feasible)
            no_swap += not feasible
        assert len(cases) > 100 and no_swap > 50

    def test_pool_covers_dimensions_kinds_and_zero_points(self):
        assert {X.dim for X, _ in self.POOL} == {2, 3, 4, 5, 6}
        assert any(v.denominator > 1 for X, _ in self.POOL for x in X for v in x)
        assert any(p.is_zero() for _, p in self.POOL)

    def test_is_pss_runs_exactly_one_lp(self, monkeypatch):
        calls = count_lp_calls(monkeypatch)
        for X in (example_x9(), make_cross(3), VecSet(2, [[1, 0], [0, 1]])):
            calls.clear()
            is_pss(VecSet(X.dim, X.vectors))  # a fresh set: an empty memo
            assert len(calls) == 1


def _dependent_pss_pool():
    """Positive bases of R^d, d = 1..4, each with one to three extra vectors
    of its span, shuffled: positively dependent sets that positively span."""
    rng = random.Random(7)
    pool = []
    for d in range(1, 5):
        for n in range(1, d + 1):
            for seed in range(3):
                B = random_positive_basis(d, n, seed)
                vectors = list(B.vectors)
                for _ in range(rng.randint(1, 3)):
                    v = sum((x.scale(rng.randint(-2, 2)) for x in B), QVec.zero(d))
                    if not v.is_zero() and v not in vectors:
                        vectors.append(v)
                if len(vectors) > len(B):
                    rng.shuffle(vectors)
                    pool.append(VecSet(d, vectors))
    return pool


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

    @pytest.mark.parametrize(
        "X", _dependent_pss_pool(), ids=lambda X: f"d{X.dim}n{len(X)}"
    )
    def test_pass_matches_round_oracle(self, X):
        assert is_pss(X) and positively_dependent(X).verdict
        _, kept = extract_positive_basis(X)
        assert kept == oracle_extract_positive_basis(X)

    def test_pool_spans_every_dimension(self):
        assert {X.dim for X in _dependent_pss_pool()} == {1, 2, 3, 4}

    def test_pass_asks_one_lp_per_element(self, monkeypatch):
        # on x9 the rounds asked 30 LPs, on polygon_example(4) 33, on C 9
        C = VecSet(2, [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]])
        sets = [example_x9(), polygon_example(4), C] + _dependent_pss_pool()
        for X in sets:
            is_pss(X)
            positively_dependent(X)
        calls = count_lp_calls(monkeypatch, ("solve_nonneg",))
        for X in sets:
            calls.clear()
            extract_positive_basis(X)
            assert len(calls) == len(X)


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

    def test_point_of_another_dimension_rejected(self):
        with pytest.raises(DimensionMismatchError):
            in_rint_positive_span(QVec([1]), VecSet(2, [[1, 0], [0, 1]]))


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

    @pytest.mark.parametrize("x", [True, 1.0, -1, 4, "1"], ids=["bool", "float", "negative", "past-end", "str"])
    def test_index_check_is_the_matrix_one(self, x):
        # the same check as CROSS2.matrix([x]): a bool or a float is no index
        with pytest.raises(PreconditionError, match="not present"):
            replace_element(CROSS2, x, QVec([1, 1]))


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

    def test_positive_basis_costs_no_lp_once_its_verdicts_are_known(self, monkeypatch):
        X = random_positive_basis(6, 3, 1)
        assert is_pss(X) and not positively_dependent(X).verdict
        calls = count_lp_calls(monkeypatch, ("solve_nonneg",))
        Y, kept = extract_positive_basis(X)
        assert calls == []
        assert Y is X and kept == tuple(X.indices())


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
        X.rank([0, 1])
        factorization_condition(X)
        assert X == Y and hash(X) == hash(Y) and repr(X) == repr(Y)
        assert {X: "analysed"}[Y] == "analysed"
        assert pickle.loads(pickle.dumps(X)) == Y
        assert pickle.loads(pickle.dumps(X)).rank([0, 1]) == Y.rank([0, 1])

    def test_subset_of_every_index_is_the_set_itself(self):
        X = example_x9()
        assert X.subset(X.indices()) is X
        assert X.subset(reversed(X.indices())) != X



# a set breaking each spanning precondition, with the one message it gets
_BROKEN = {
    "quadrant": (VecSet(2, [[1, 0], [0, 1]]), "set does not positively span its hull"),
    # a simplex that covers part of the set: build_lattice reads this off the masks
    "partial": (VecSet(2, [[1, 0], [-1, 0], [0, 1]]), "set does not positively span its hull"),
    "dependent": (
        VecSet(2, [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]]),
        "set is not a positive basis",
    ),
    "line": (VecSet(2, [[1, 0], [-1, 0]]), "set does not span the full space"),
}
_CALLERS = [
    ("verify_main_bounds", verify_main_bounds, ("quadrant", "dependent", "line")),
    ("basis_decomposition", basis_decomposition, ("quadrant", "dependent", "line")),
    ("cone_decomposition", cone_decomposition, ("quadrant", "line")),
    ("max_disjoint_family", max_disjoint_family, ("quadrant", "line")),
    ("restrict_frames_first", lambda S: restrict_frames(S, S), ("quadrant", "line")),
    ("restrict_frames_second", lambda S: restrict_frames(CROSS2, S), ("quadrant", "line")),
    ("extract_positive_basis", extract_positive_basis, ("quadrant",)),
    ("build_lattice", build_lattice, ("quadrant", "partial")),
    ("nonneg_dependency_basis", nonneg_dependency_basis, ("quadrant",)),
    ("characteristic_basis", characteristic_basis, ("quadrant",)),
]


class TestSpanningPreconditions:
    @pytest.mark.parametrize(
        "call, broken",
        [pytest.param(fn, b, id=f"{name}-{b}") for name, fn, bs in _CALLERS for b in bs],
    )
    def test_each_caller_raises_the_one_message(self, call, broken):
        S, message = _BROKEN[broken]
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            call(S)

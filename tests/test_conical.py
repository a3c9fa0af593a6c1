import gc
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psskit import (
    VecSet,
    cone_decomposition,
    enumerate_mns,
    enumerate_simplices,
    is_cross,
    max_disjoint_family,
    restrict_frames,
    verify_main_bounds,
)
from psskit.errors import PreconditionError, PropertyViolation
from psskit.genlib import (
    AntichainSpec,
    example_x9,
    make_cross,
    make_from_antichain,
    make_simplex,
    polygon_example,
    random_positive_basis,
)
from psskit import conical
from psskit.ratlin import (
    FeasWitness,
    QVec,
    rank,
    solve_linear,
    solve_nonneg,
    strict_separator,
)
from psskit.spanset import (
    extract_positive_basis,
    is_positive_basis,
    is_pss,
    positively_dependent,
    skeleton_contains,
)

from conftest import count_lp_calls, oracle_frames_from_simplices, vecsets


def _from_psskit(obj) -> bool:
    module = getattr(obj, "__module__", None)
    return isinstance(module, str) and module.split(".")[0] == "psskit"


# every full-rank positive basis of the seeded sampler for d = 2..6
RANDOM_BASES = [(d, n, s) for d in range(2, 7) for n in range(1, min(d, 3) + 1) for s in (0, 1, 15)]


def s_union_minus_s():
    return VecSet(2, [[1, 0], [0, 1], [-1, -1], [-1, 0], [0, -1], [1, 1]])


class TestEnumerateMns:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_simplex_has_d_plus_one(self, d):
        X = make_simplex(d)
        frames = enumerate_mns(X)
        assert len(frames) == d + 1
        members = {f.members for f in frames}
        expected = {tuple(c) for c in combinations(range(d + 1), d)}
        assert members == expected

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cross_has_two_power_d(self, d):
        assert len(enumerate_mns(make_cross(d))) == 2**d

    def test_polygon_consecutive_runs(self):
        n = 3
        X = polygon_example(n)
        frames = enumerate_mns(X)
        assert len(frames) == 2 * n
        for f in frames:
            assert len(f.members) == n

    @settings(max_examples=30, deadline=None)
    @given(vecsets(max_dim=3, max_size=5))
    def test_frames_maximal_and_certified(self, X):
        frames = enumerate_mns(X)
        for f in frames:
            for i in f.members:
                assert f.witness.dot(X[i]) >= 1
            for j in X.indices():
                if j not in f.members:
                    bigger = [X[i] for i in f.members] + [X[j]]
                    assert strict_separator(bigger).kind == "infeasible"

    @settings(max_examples=30, deadline=None)
    @given(vecsets(max_dim=3, max_size=5))
    def test_halfspace_duality(self, X):
        # a maximal frame is exactly the strictly positive side of its witness
        for f in enumerate_mns(X):
            positive_side = tuple(
                i for i in X.indices() if f.witness.dot(X[i]) > 0
            )
            assert positive_side == f.members

    @settings(max_examples=20, deadline=None)
    @given(vecsets(max_dim=3, max_size=5))
    def test_matches_brute_force_maximality(self, X):
        # unpruned reference: every subset is tested for a separator, then
        # maximality is read off the full family
        n = len(X)
        family = {
            frozenset(sub)
            for k in range(n + 1)
            for sub in combinations(range(n), k)
            if strict_separator([X[i] for i in sub]).kind == "separator"
        }
        expected = sorted(
            tuple(sorted(fs))
            for fs in family
            if fs and all(j in fs or fs | {j} not in family for j in range(n))
        )
        assert [f.members for f in enumerate_mns(X)] == expected

    @pytest.mark.parametrize(
        "build",
        [
            *(lambda d=d: make_cross(d) for d in (2, 3, 4, 5)),
            *(lambda n=n: polygon_example(n) for n in (3, 4, 5)),
            example_x9,
            *(lambda s=s: random_positive_basis(6, 3, s) for s in (1, 3, 15)),
            lambda: VecSet(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, 0], [0, -1, -1]]),
            lambda: VecSet(2, [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]]),
            lambda: VecSet(3, [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1], [2, 1, 1]]),
        ],
        ids=[
            "cross2", "cross3", "cross4", "cross5", "polygon3", "polygon4", "polygon5",
            "x9", "rpb631", "rpb633", "rpb6315", "P", "C", "pointed",
        ],
    )
    def test_frames_are_the_maximal_simplex_free_sets(self, build):
        # completeness, which the suite's maximality check does not cover
        X = build()
        assert [f.members for f in enumerate_mns(X)] == oracle_frames_from_simplices(X)

    @settings(max_examples=50, deadline=None)
    @given(vecsets(max_dim=3, max_size=7))
    def test_frames_are_the_maximal_simplex_free_sets_random(self, X):
        # the simplex masks prune every extension that holds a simplex, so
        # each LP the walk still asks finds a separator
        with pytest.MonkeyPatch.context() as mp:
            calls = count_lp_calls(mp, names=("strict_separator",))
            frames = [f.members for f in enumerate_mns(X)]
        assert frames == oracle_frames_from_simplices(X)
        assert all(res.kind == "separator" for res in calls)

    @pytest.mark.parametrize(
        "build, frames, lps",
        [
            # not positive bases: the walk asks the LP
            (example_x9, 18, 278),
            (lambda: polygon_example(5), 10, 92),
            # full-rank positive bases: every separator from the basis
            # decomposition, where the walk asked 323, 80, 242 and 728 LPs
            (lambda: random_positive_basis(6, 3, 1), 13, 0),
            (lambda: make_cross(4), 16, 0),
            (lambda: make_cross(5), 32, 0),
            (lambda: make_cross(6), 64, 0),
            # the benchmark's verify_bases ladder, cross 4 above
            *(
                (lambda d=d, n=n: random_positive_basis(d, n, 0), frames, 0)
                for d, n, frames in (
                    (4, 1, 5), (4, 2, 6), (4, 3, 9), (5, 1, 6), (5, 2, 7), (5, 3, 11), (6, 1, 7)
                )
            ),
            (lambda: make_cross(3), 8, 0),
            (lambda: make_simplex(5), 6, 0),
            (lambda: make_simplex(6), 7, 0),
            # 6,560 and 8,190 LPs on the walk's LP route
            (lambda: make_cross(8), 256, 0),
            (lambda: make_simplex(12), 13, 0),
        ],
        ids=[
            "x9", "polygon5", "rpb631", "cross4", "cross5", "cross6",
            "random41", "random42", "random43", "random51", "random52", "random53",
            "random61", "cross3", "simplex5", "simplex6", "cross8", "simplex12",
        ],
    )
    def test_frame_walk_lp_count(self, build, frames, lps, monkeypatch):
        # the walk's separator LPs on a fresh set, at most today's count;
        # none answers "no", as the simplex masks decide those extensions
        X = build()
        calls = count_lp_calls(monkeypatch, names=("strict_separator",))
        assert len(enumerate_mns(X)) == frames
        assert len(calls) <= lps
        assert all(res.kind == "separator" for res in calls)

    @pytest.mark.parametrize("d, n, seed", RANDOM_BASES)
    def test_closed_form_separators_of_a_positive_basis(self, d, n, seed, monkeypatch):
        # the member lists are the maximal simplex-free sets, every witness
        # is scaled to a least product of exactly 1 over its frame, and the
        # cover assigns each vector as on the LP route
        X = random_positive_basis(d, n, seed)
        frames = enumerate_mns(X)
        assert [f.members for f in frames] == oracle_frames_from_simplices(X)
        for f in frames:
            assert min(f.witness.dot(X[i]) for i in f.members) == 1
        cover = cone_decomposition(X)
        monkeypatch.setattr(conical, "is_positive_basis", lambda X: False)
        fresh = VecSet(X.dim, X.vectors)
        assert [f.members for f in enumerate_mns(fresh)] == [f.members for f in frames]
        assert cone_decomposition(fresh).assignment == cover.assignment

    @pytest.mark.parametrize(
        "build",
        [
            *(lambda t=t: random_positive_basis(*t) for t in RANDOM_BASES),
            *(lambda d=d: make_cross(d) for d in (2, 3, 5, 8)),
            *(lambda d=d: make_simplex(d) for d in (3, 6, 12)),
        ],
        ids=[
            *(f"rpb{d}{n}{s}" for d, n, s in RANDOM_BASES),
            "cross2", "cross3", "cross5", "cross8", "simplex3", "simplex6", "simplex12",
        ],
    )
    def test_closed_form_witness_depends_only_on_the_frame(self, build):
        # M is one constant per set, so a rescaled parent witness is the
        # closed form at the child: the walk's path leaves no trace (45 of
        # these frames differed while M was worked out per subset)
        X = build()
        assert X.rank() == X.dim and is_positive_basis(X)
        separate = conical._basis_separator(X)
        for f in enumerate_mns(X):
            assert f.witness == separate(f.mask), f.members

    def test_frame_walk_peak_memory_is_its_output(self):
        # the walk keeps no subset it does not yield, so with the simplices
        # memoized its traced peak stays near the frames it returns
        X = make_cross(6)
        enumerate_simplices(X)
        tracemalloc.start()
        try:
            frames = enumerate_mns(X)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(frames) == 64
        assert peak <= 1.5 * held

    def test_simplex_free_extension_without_separator_is_internal_error(
        self, monkeypatch
    ):
        # C is not a positive basis, so its walk asks the LP
        monkeypatch.setattr(
            "psskit.conical.strict_separator", lambda vectors: FeasWitness()
        )
        with pytest.raises(PropertyViolation, match="without a strict separator"):
            enumerate_mns(VecSet(2, [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]]))

    def test_closed_form_separator_failing_its_recheck_is_internal_error(
        self, monkeypatch
    ):
        # a positive basis solves B^T z = s for each separator; a negated
        # solution gives every member a negative product
        monkeypatch.setattr(
            "psskit.conical.solve_linear",
            lambda columns, rhs: [-c for c in solve_linear(columns, rhs)],
        )
        with pytest.raises(PropertyViolation, match="without a strict separator"):
            enumerate_mns(make_cross(2))

    def test_finished_walk_leaves_no_cyclic_garbage(self):
        # the walks are generators that hold no reference to themselves, so
        # a set, its memo and its frames are freed by reference counting
        # alone, whether the walk runs out ("no") or is abandoned at its
        # first certificate ("yes")
        runs = [
            lambda: enumerate_mns(make_cross(3)),
            lambda: enumerate_simplices(example_x9()),
            lambda: skeleton_contains(QVec([1, 0, 0]), make_cross(3)),
            lambda: skeleton_contains(QVec([1, 1, 1]), make_cross(3)),
        ]
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for run in runs:
                gc.garbage.clear()
                run()
                gc.collect()
                ours = [o for o in gc.garbage if _from_psskit(o)]
                assert ours == []
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()

    def test_enumeration_deterministic(self):
        X = polygon_example(3)
        first = enumerate_mns(X)
        second = enumerate_mns(X)
        assert first == second
        assert cone_decomposition(make_cross(3)) == cone_decomposition(make_cross(3))


class TestMainBounds:
    def test_cross3(self):
        rep = verify_main_bounds(make_cross(3))
        assert (
            rep.simplex_count,
            rep.cardinality,
            rep.frame_count,
            rep.is_cross,
            rep.is_simplex,
        ) == (3, 6, 8, True, False)

    def test_simplex3(self):
        rep = verify_main_bounds(make_simplex(3))
        assert (
            rep.simplex_count,
            rep.cardinality,
            rep.frame_count,
            rep.is_cross,
            rep.is_simplex,
        ) == (1, 4, 4, False, True)

    def test_mixed_basis_strictly_inside(self):
        X = make_from_antichain(AntichainSpec(3, [{1, 2}, {3}]))
        rep = verify_main_bounds(X)
        d = 3
        assert 1 < rep.simplex_count < d
        assert d + 1 < rep.cardinality < 2 * d
        assert d + 1 < rep.frame_count < 2**d
        assert not rep.is_cross and not rep.is_simplex

    def test_rejects_non_basis(self):
        from psskit.genlib import example_x9

        with pytest.raises(PreconditionError):
            verify_main_bounds(example_x9())

    def test_scaled_cross_still_cross(self):
        rep = verify_main_bounds(make_cross(3, [1, 2, 3]))
        assert rep.is_cross and rep.frame_count == 8


class TestConeDecomposition:
    def test_cross2(self):
        # lowest-frame assignment sends e1 and e2 to the first quadrant
        # frame, so the cover has three pointed parts
        cover = cone_decomposition(make_cross(2))
        assert cover.parts == ((0, 2), (3,), (1,))
        assert sorted(i for p in cover.parts for i in p) == [0, 1, 2, 3]

    def test_simplex2_at_most_three(self):
        cover = cone_decomposition(make_simplex(2))
        assert len(cover.parts) <= 3

    def test_extras_land_in_quadrants(self):
        X = VecSet(2, [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-3, -3], [5, -5]])
        cover = cone_decomposition(X)
        assert len(cover.parts) <= 4
        assert sorted(i for p in cover.parts for i in p) == list(range(7))
        for part, frame in zip(cover.parts, cover.frames):
            for i in part:
                assert frame.witness.dot(X[i]) > 0

    def test_rejects_non_pss(self):
        with pytest.raises(PreconditionError):
            cone_decomposition(VecSet(2, [[1, 0], [0, 1]]))

    @pytest.mark.parametrize(
        "X",
        [
            make_cross(2),
            VecSet(3, list(make_cross(3).vectors) + [[1, 1, 1], [-1, 2, -3]]),
            polygon_example(4),
            random_positive_basis(4, 2, 0),
            random_positive_basis(5, 3, 6),
            VecSet(2, [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-3, -3], [5, -5]]),
        ],
    )
    def test_every_element_in_its_first_containing_frame(self, X):
        # the assignment one LP per element and frame would give
        Y, kept = extract_positive_basis(X)
        frames = enumerate_mns(Y)
        cover = cone_decomposition(X)
        for i in X.indices():
            first = next(
                f for f in frames if solve_nonneg(Y.matrix(f.members), X[i]).feasible
            )
            assert cover.frames[cover.assignment[i]] == first

    def test_positive_basis_costs_no_lp_once_its_frames_are_known(self, monkeypatch):
        X = random_positive_basis(5, 3, 6)
        assert is_pss(X) and not positively_dependent(X).verdict and enumerate_mns(X)
        calls = count_lp_calls(monkeypatch)
        cone_decomposition(X)
        assert calls == []


class TestMaxDisjointFamily:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_cross_keeps_everything(self, d):
        fam = max_disjoint_family(make_cross(d))
        assert len(fam) == 2**d

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_cross_computes_no_rank_once_frames_are_known(self, d, monkeypatch):
        # two distinct orthant frames share fewer than d members, and an
        # intersection that small has rank below d without elimination
        X = make_cross(d)
        assert enumerate_mns(X) and X.rank() == d
        calls = count_lp_calls(monkeypatch, names=("rank",))
        assert len(max_disjoint_family(X)) == 2**d
        assert calls == []

    def test_polygon_overlaps_prune(self):
        fam = max_disjoint_family(polygon_example(3))
        assert len(fam) < 6

    @pytest.mark.parametrize("d", [2, 3])
    def test_simplex_keeps_everything(self, d):
        # pairwise frame intersections of a simplex have rank d-1
        assert len(max_disjoint_family(make_simplex(d))) == d + 1

    def test_exhaustive_bound_small(self):
        # brute-force the largest low-overlap family and compare to 2^d
        for X in (make_cross(2), make_simplex(3), polygon_example(3)):
            d = X.dim
            frames = enumerate_mns(X)
            assert len(frames) <= 12
            compatible = {}
            for a in range(len(frames)):
                for b in range(a + 1, len(frames)):
                    common = sorted(
                        frozenset(frames[a].members) & frozenset(frames[b].members)
                    )
                    compatible[(a, b)] = rank(X.matrix(common)) < d
            best = 0
            for mask in range(1 << len(frames)):
                chosen = [k for k in range(len(frames)) if mask >> k & 1]
                if all(
                    compatible[(a, b)]
                    for i, a in enumerate(chosen)
                    for b in chosen[i + 1 :]
                ):
                    best = max(best, len(chosen))
            assert best <= 2**d


class TestRestrictFrames:
    def test_identity(self):
        X = make_cross(2)
        res = restrict_frames(X, X)
        assert res.mapping == (0, 1, 2, 3)
        assert res.collisions == ()
        assert res.forward_holds and res.collisions_full_rank

    def test_cross_plus_diagonal(self):
        X = VecSet(2, [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]])
        res = restrict_frames(X, make_cross(2))
        assert res.forward_holds
        assert sorted(res.mapping) == [0, 1, 2, 3]
        assert all(len(p) >= 1 for p in res.preimages)

    def test_doubled_simplex_forward_failure(self):
        # Y = 2-simplex inside X = Y union -Y: three maximal frames of X
        # trace to singletons of Y, which are not maximal there, so only
        # the extension direction survives on positively dependent X.
        X = s_union_minus_s()
        Y = VecSet(2, [[1, 0], [0, 1], [-1, -1]])
        res = restrict_frames(X, Y)
        assert not res.forward_holds
        failing = [t for t, m in zip(res.traces, res.mapping) if m is None]
        assert failing == [(0,), (1,), (2,)]
        assert res.preimages == ((0,), (1,), (3,))

    def test_frames_sharing_a_trace_collide_at_full_rank(self):
        # (-2,-1) and (2,1) split frame (0,2) of Y = {e1, e2, -e1-e2} into
        # frames 1 and 2 of X, whose common part {e1, -e1-e2} spans R^2
        X = VecSet(2, [[1, 0], [0, 1], [-1, -1], [-2, -1], [2, 1]])
        res = restrict_frames(X, X.subset([0, 1, 2]))
        assert res.traces[1] == res.traces[2] == (0, 2)
        assert res.collisions == ((1, 2, 2),)
        assert res.collisions_full_rank

    def test_three_frames_sharing_a_trace_collide_pairwise(self):
        X = VecSet(2, [[3, 0], [-3, 1], [-3, -1], [3, 2], [-2, 2], [0, -3], [1, -1]])
        res = restrict_frames(X, X.subset([0, 1, 2]))
        assert res.traces[3] == res.traces[4] == res.traces[5]
        assert res.preimages == ((0,), (1,), (3, 4, 5))
        assert res.collisions == ((3, 4, 2), (3, 5, 2), (4, 5, 2))
        assert res.collisions_full_rank

    def test_rejects_non_spanning_subset(self):
        X = s_union_minus_s()
        with pytest.raises(PreconditionError):
            restrict_frames(X, VecSet(2, [[1, 0], [0, 1]]))

    def test_rejects_non_subset(self):
        with pytest.raises(PreconditionError):
            restrict_frames(make_cross(2), make_simplex(2))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 3), st.integers(0, 30))
    def test_positively_independent_case_is_clean(self, d, seed):
        # when X itself is a positive basis both halves of the claim hold
        X = random_positive_basis(d, seed % d + 1, seed)
        res = restrict_frames(X, X)
        assert res.forward_holds and res.collisions_full_rank


def composition_inequality_holds(d: int) -> bool:
    """Check prod(k_i) <= 2^(d-n) over all compositions of d into n parts.

    Pure arithmetic companion fact used by the cardinality bound; verified
    by direct enumeration.  Equality holds exactly when every part is 1
    or 2 (k <= 2^(k-1) is an equality for k in {1, 2}); in particular the
    product from parts of a positive basis reaches the bound only through
    parts of size at most two.
    """

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for n in range(1, d + 1):
        for comp in compositions(d, n):
            prod = 1
            for k in comp:
                prod *= k
            bound = 1 << (d - n)
            if prod > bound:
                return False
            if (prod == bound) != all(k <= 2 for k in comp):
                return False
    return True


class TestFrameLemmas:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 40))
    def test_frames_span_full_rank(self, d, seed):
        X = random_positive_basis(d, seed % d + 1, seed)
        for f in enumerate_mns(X):
            assert rank(X.matrix(f.members)) == d

    @settings(max_examples=15, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 40))
    def test_all_but_one_intersections(self, d, seed):
        X = random_positive_basis(d, seed % d + 1, seed)
        simplices = enumerate_simplices(X)
        frames = enumerate_mns(X)
        members = {frozenset(f.members) for f in frames}
        # forward direction: sets meeting every simplex in all but one
        # element are maximal frames (full subset scan at this size)
        n = len(X)
        for k in range(1, n + 1):
            for sub in combinations(range(n), k):
                fs = frozenset(sub)
                if all(
                    len(fs & set(s.members)) == len(s.members) - 1
                    for s in simplices
                ):
                    assert fs in members
        # converse (needs positive independence)
        assert not positively_dependent(X).verdict
        for f in frames:
            for s in simplices:
                assert len(frozenset(f.members) & set(s.members)) == len(s.members) - 1

    def test_converse_fails_on_doubled_simplex(self):
        X = s_union_minus_s()
        frames = enumerate_mns(X)
        neg_triangle = {3, 4, 5}  # indices of the negated simplex
        hits = []
        for f in frames:
            inter = frozenset(f.members) & neg_triangle
            if len(inter) == 1:
                hits.append(f)
        assert hits, "expected a maximal frame meeting the negated simplex once"
        # the swapped set {x -> -x} is such a frame
        swapped = frozenset({1, 2, 3})  # {e2, -e1-e2} plus -e1
        assert swapped in {frozenset(f.members) for f in frames}

    @pytest.mark.parametrize("d", range(1, 11))
    def test_composition_inequality(self, d):
        assert composition_inequality_holds(d)


class TestIsCross:
    def test_positive_cases(self):
        assert is_cross(make_cross(1))
        assert is_cross(make_cross(3, [2, 1, 5]))

    def test_negative_cases(self):
        assert not is_cross(make_simplex(2))
        assert not is_cross(polygon_example(3))
        assert not is_cross(VecSet(1, [[1], [-1], [2], [-2]]))
        # three 2-simplices and |X| = 2 rank, but e3 has no partner
        e3_unpaired = [[1, 0, 0], [-1, 0, 0], [-2, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]]
        assert not is_cross(VecSet(3, e3_unpaired))

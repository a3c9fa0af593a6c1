"""Acceptance suite: one test per criterion, one printed line per criterion.

Every check is exact (zero tolerance); run with ``pytest -v -s`` to see
the per-criterion lines.

Criterion 2 covers the theorem "X is a positive basis iff X is the union
of at most d simplices and satisfies the factorization condition".  The
library has two variants of that condition (Y over all subsets, or only
over positively spanning subsets), and what holds is a one-way chain:
all-subsets condition => positive independence => spanning-subsets
condition.  Both converses are false, and the test pins one
counterexample for each as exact assertions:

* P = {e1, e2, e3, -e1-e2, -e2-e3} in R^3 is a positive basis with only
  2 simplices, yet Y = {e1, -e1-e2} and S = {e2, e3, -e2-e3} break the
  rank identity (3 != 4), so P fails the all-subsets condition;
* C = {e1, -e1, e2, -e2, (1,1)} in R^2 is positively dependent, yet it
  passes the spanning-subsets condition.

So the theorem holds in one direction per reading.  Read with all
subsets, the "if" direction holds but "only if" fails: P, and 45 of the
150 seeded positive bases, fail the condition.  Read with spanning
subsets, "only if" holds but "if" fails: 26 of the 50 seeded dependent
sets have at most rank(X) simplices (counted as a cover or as
|S(X)|) and still pass it.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from psskit import (
    QVec,
    VecSet,
    basis_decomposition,
    build_lattice,
    caratheodory_reduce,
    cone_decomposition,
    enumerate_mns,
    enumerate_simplices,
    factorization_condition,
    is_locally_equilibrated,
    is_positive_basis,
    is_pss,
    max_disjoint_family,
    negatively_independent,
    linearly_dependent,
    nonneg_dependency_basis,
    positively_dependent,
    restrict_frames,
    sxy_classify,
    verify_gale_theorem,
    verify_main_bounds,
)
from psskit.errors import PreconditionError
from psskit.genlib import (
    AntichainSpec,
    example_x9,
    make_cross,
    make_from_antichain,
    make_simplex,
    polygon_example,
    random_positive_basis,
)
from psskit.ratlin import rank, solve_nonneg, strict_separator

from conftest import brute_force_membership

F = Fraction


def _finish(num: int, label: str, failures: list[str]):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {status} - {label}")
    if failures:
        shown = "\n  ".join(failures[:5])
        raise AssertionError(
            f"criterion {num}: {len(failures)} violation(s)\n  {shown}"
        )


def _positive_basis_pool():
    """150 seeded positive bases with d <= 4 and |X| = d + n <= 8."""
    pool = []
    seed = 0
    for _ in range(15):
        for d in range(1, 5):
            for n in range(1, d + 1):
                pool.append(random_positive_basis(d, n, 1000 + seed))
                seed += 1
    return pool[:150]


def _mutate(X: VecSet, k: int) -> VecSet | None:
    """One extra vector from the positive span: a dependent spanning set."""
    n = len(X)
    i, j = k % n, (k // n + 1) % n
    kind = k % 3
    if kind == 0:
        extra = X[i] + X[j]
    elif kind == 1:
        extra = X[i].scale(2)
    else:
        extra = (X[i] + X[j]).scale(-1)
    if extra.is_zero() or X.index_of(extra) is not None:
        return None
    return VecSet(X.dim, list(X.vectors) + [extra])


def _dependent_pool(bases, count):
    out = []
    k = 0
    while len(out) < count:
        X = _mutate(bases[k % len(bases)], k + 7)
        k += 1
        if X is not None:
            out.append(X)
    return out


def _witness_rebuilds(X: VecSet, rep) -> bool:
    """The positive-dependence witness rebuilds its vector with coefficients >= 0."""
    rebuilt = QVec.zero(X.dim)
    for idx, c in rep.witness_coeffs.items():
        if c < 0:
            return False
        rebuilt = rebuilt + X[idx].scale(c)
    return rebuilt == X[rep.witness_index]


def _breaks_rank_identity(X: VecSet, Y, S) -> bool:
    """rank(Y&S) + rank(Y|S) != rank(Y) + rank(S), i.e. l(Y)&l(S) != l(Y&S)."""
    Y, S = frozenset(Y), frozenset(S)
    r = lambda t: rank(X.matrix(sorted(t)))
    return r(Y & S) + r(Y | S) != r(Y) + r(S)


def test_criterion_01_worked_example_reproduction():
    failures = []
    X = example_x9()
    if X.dim != 6 or len(X) != 9:
        failures.append("shape is not 9 vectors in R^6")
    if X[0] + X[1] + X[7] + X[8] != X[5]:
        failures.append("x6 = x1+x2+x8+x9 does not hold exactly")
    rep = positively_dependent(X)
    if not rep.verdict:
        failures.append("set not reported positively dependent")
    elif not _witness_rebuilds(X, rep):
        failures.append("dependence witness is not a nonnegative rebuild")
    members = [s.members for s in enumerate_simplices(X)]
    for expected in [(0, 1, 2), (3, 4, 5), (6, 7, 8), (2, 5, 6)]:
        if expected not in members:
            failures.append(f"missing simplex {expected}")
    fact = factorization_condition(X)
    if fact.ok:
        failures.append("factorization condition unexpectedly holds")
    elif not _breaks_rank_identity(
        X, fact.witness_subset, fact.witness_simplex.members
    ):
        failures.append("returned witness does not violate the condition")
    _finish(1, "worked 9-vector example reproduced with certificates", failures)


def test_criterion_02_independence_factorization_equivalence():
    failures = []

    # P: a positive basis with 2 simplices that fails the all-subsets test
    P = VecSet(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, 0], [0, -1, -1]])
    if not is_positive_basis(P):
        failures.append("P is not reported a positive basis")
    p_simplices = [s.members for s in enumerate_simplices(P)]
    if p_simplices != [(0, 1, 3), (1, 2, 4)]:
        failures.append(f"P has simplices {p_simplices}, not (0,1,3),(1,2,4)")
    fact = factorization_condition(P)
    if fact.ok:
        failures.append("P passes the all-subsets condition")
    elif not _breaks_rank_identity(
        P, fact.witness_subset, fact.witness_simplex.members
    ):
        failures.append("P's all-subsets witness keeps the rank identity")
    if not _breaks_rank_identity(P, {0, 3}, {1, 2, 4}):
        failures.append("P's pair Y={0,3}, S={1,2,4} keeps the rank identity")
    if not factorization_condition(P, spanning_only=True).ok:
        failures.append("P fails the spanning-subsets condition")

    # C: a positively dependent set that passes the spanning-subsets test
    C = VecSet(2, [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1]])
    rep = positively_dependent(C)
    if not rep.verdict:
        failures.append("C is not reported positively dependent")
    elif not _witness_rebuilds(C, rep):
        failures.append("C's dependence witness is not a nonnegative rebuild")
    if not factorization_condition(C, spanning_only=True).ok:
        failures.append("C fails the spanning-subsets condition")
    if factorization_condition(C).ok:
        failures.append("C passes the all-subsets condition")

    # the chain on the seeded pool, which must refute both converses
    bases = _positive_basis_pool()
    dependents = _dependent_pool(bases, 50)
    bases_not_full = 0
    dependents_spanning = 0
    for k, (tag, X) in enumerate(
        [("basis", B) for B in bases] + [("mutated", M) for M in dependents]
    ):
        indep = not positively_dependent(X).verdict
        full = factorization_condition(X, spanning_only=False).ok
        spanning = factorization_condition(X, spanning_only=True).ok
        flags = (
            f"{tag} #{k} d={X.dim} |X|={len(X)}: independent={indep} "
            f"all-subsets={full} spanning-only={spanning}"
        )
        if full and not indep:
            failures.append(f"{flags}: all-subsets does not imply independent")
        if indep and not spanning:
            failures.append(f"{flags}: independent does not imply spanning-only")
        if tag == "basis" and not full:
            bases_not_full += 1
        if tag == "mutated":
            if indep:
                failures.append(f"{flags}: mutated set is not dependent")
            if spanning:
                dependents_spanning += 1
        if indep:
            try:
                basis_decomposition(X)
            except Exception as exc:  # noqa: BLE001 - report any failure
                failures.append(f"{tag}: decomposition failed on independent set: {exc}")
        else:
            with pytest.raises(PreconditionError):
                basis_decomposition(X)
    if not bases_not_full:
        failures.append("no positive basis in the pool fails all-subsets")
    if not dependents_spanning:
        failures.append("no mutated set in the pool passes spanning-only")
    _finish(
        2,
        "implication chain, both converses refuted on 200 seeded instances "
        f"({bases_not_full} bases fail all-subsets, {dependents_spanning} "
        "dependent sets pass spanning-only)",
        failures,
    )


def test_criterion_03_cardinality_bounds():
    failures = []
    for d in range(1, 6):
        cross_rep = verify_main_bounds(make_cross(d))
        if cross_rep.frame_count != 2**d or not cross_rep.is_cross:
            failures.append(f"cross d={d}: frames {cross_rep.frame_count}")
        simplex_rep = verify_main_bounds(make_simplex(d))
        if simplex_rep.frame_count != d + 1 or not simplex_rep.is_simplex:
            failures.append(f"simplex d={d}: frames {simplex_rep.frame_count}")
    seed = 0
    for d in range(1, 6):
        for n in range(1, d + 1):
            for _ in range(2):
                X = random_positive_basis(d, n, 3000 + seed)
                seed += 1
                try:
                    rep = verify_main_bounds(X)
                except Exception as exc:  # noqa: BLE001
                    failures.append(f"bounds violated for d={d} n={n}: {exc}")
                    continue
                if not (1 <= rep.simplex_count <= d):
                    failures.append(f"simplex count {rep.simplex_count} outside [1,{d}]")
                if not (d + 1 <= rep.cardinality <= 2 * d):
                    failures.append(f"cardinality {rep.cardinality} outside bounds")
                if not (d + 1 <= rep.frame_count <= 2**d):
                    failures.append(f"frame count {rep.frame_count} outside bounds")
    _finish(3, "cardinality and frame bounds with equality characterisations", failures)


def test_criterion_04_lattice_isomorphism():
    failures = []
    instances = (
        [make_simplex(d) for d in range(1, 5)]
        + [make_cross(d) for d in range(1, 5)]
        + [
            make_from_antichain(AntichainSpec(3, [{1, 2}, {2, 3}])),
            make_from_antichain(AntichainSpec(4, [{1, 2}, {3}, {4}])),
            make_from_antichain(AntichainSpec(4, [{1, 2, 3}, {3, 4}])),
        ]
        + [random_positive_basis(4, 4, s) for s in range(3)]
    )
    for X in instances:
        simplices = enumerate_simplices(X)
        if len(simplices) > 4:
            failures.append("instance outside the stated simplex budget")
            continue
        lat = build_lattice(X)
        if len(lat) != 2 ** len(simplices):
            failures.append(
                f"lattice size {len(lat)} != 2^{len(simplices)} on a positive basis"
            )
            continue
        elements = list(lat)
        for a in elements:
            c = lat.complement(a)
            if lat.complement(c) != a:
                failures.append("complement not an involution")
            if lat.join(a, c) != lat.top or lat.meet(a, c) != lat.bottom:
                failures.append("complement laws fail")
        for a in elements:
            for b in elements:
                if lat.meet(a, b) != lat.meet(b, a) or lat.join(a, b) != lat.join(b, a):
                    failures.append("commutativity fails")
                if lat.join(a, lat.meet(a, b)) != a:
                    failures.append("absorption fails")
                if lat.complement(lat.join(a, b)) != lat.meet(
                    lat.complement(a), lat.complement(b)
                ):
                    failures.append("de Morgan fails")
                ordered = set(a.subset) <= set(b.subset)
                embedded = set(a.simplices) <= set(b.simplices)
                if ordered != embedded:
                    failures.append("order does not match simplex-set order")
        if len(elements) <= 16:
            for a in elements:
                for b in elements:
                    for c in elements:
                        lhs = lat.meet(a, lat.join(b, c))
                        rhs = lat.join(lat.meet(a, b), lat.meet(a, c))
                        if lhs != rhs:
                            failures.append("distributivity fails")
    _finish(4, "boolean lattice isomorphic to the simplex powerset", failures)


def test_criterion_05_pointedness_trichotomy_and_planar_equivalence():
    rng = random.Random(20240501)
    failures = []
    produced = 0
    while produced < 500:
        d = rng.randint(1, 3)
        size = rng.randint(1, 8)
        vectors = []
        seen = set()
        for _ in range(size):
            v = tuple(
                F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)
            )
            if any(c != 0 for c in v) and v not in seen:
                seen.add(v)
                vectors.append(QVec(v))
        if not vectors:
            continue
        X = VecSet(d, vectors)
        produced += 1
        sep = negatively_independent(X)
        simplices = enumerate_simplices(X)
        if (sep.kind == "separator") == bool(simplices):
            failures.append(f"trichotomy not exclusive/exhaustive on {X}")
            continue
        if sep.kind == "separator":
            if any(sep.separator.dot(v) < 1 for v in X):
                failures.append("separator fails its inequalities")
        else:
            s = simplices[0]
            acc = QVec.zero(d)
            for i, c in s.dependency.items():
                if c <= 0:
                    failures.append("simplex dependency not strictly positive")
                acc = acc + X[i].scale(c)
            if not acc.is_zero():
                failures.append("simplex dependency does not vanish")
        if d == 2:
            lin = not linearly_dependent(X).verdict
            pos = not positively_dependent(X).verdict
            neg = sep.kind == "separator"
            if lin != (pos and neg):
                failures.append(f"planar equivalence fails on {X}")
    _finish(5, "separator/simplex trichotomy and planar independence", failures)


def test_criterion_06_conic_caratheodory():
    rng = random.Random(77)
    failures = []
    instances = [make_cross(2), make_cross(3), make_simplex(3), example_x9()]
    for _ in range(36):
        d = rng.randint(1, 3)
        size = rng.randint(2, 8)
        vectors = []
        seen = set()
        for _ in range(size):
            v = tuple(F(rng.randint(-2, 2), rng.randint(1, 2)) for _ in range(d))
            if any(c != 0 for c in v) and v not in seen:
                seen.add(v)
                vectors.append(QVec(v))
        if vectors:
            instances.append(VecSet(d, vectors))
    reductions = 0
    for X in instances:
        points = []
        for _ in range(2):
            p = QVec.zero(X.dim)
            for v in X:
                p = p + v.scale(F(rng.randint(0, 2), rng.randint(1, 2)))
            points.append(p)
        points.append(X[0] + X[len(X) - 1])
        for p in points:
            member = solve_nonneg(X.matrix(), p).feasible
            if len(X) <= 8:
                if member != brute_force_membership(p, X):
                    failures.append("membership disagrees with support search")
            if not member:
                with pytest.raises(PreconditionError):
                    caratheodory_reduce(p, X)
                continue
            sp = caratheodory_reduce(p, X)
            reductions += 1
            if len(sp.coeffs) > X.dim:
                failures.append("support exceeds the ambient dimension")
            if len(sp.coeffs) > X.rank():
                failures.append("support exceeds the rank")
            if any(c <= 0 for c in sp.coeffs.values()):
                failures.append("non-strictly-positive reduced coefficient")
            rebuilt = QVec.zero(X.dim)
            for i, c in sp.coeffs.items():
                rebuilt = rebuilt + X[i].scale(c)
            if rebuilt != p:
                failures.append("reduced combination is not exact")
            support = sorted(sp.coeffs)
            if support and strict_separator(
                [X[i] for i in support]
            ).kind != "separator":
                failures.append("reduced support is not negatively independent")
    assert reductions >= 100
    _finish(6, f"conic support reduction ({reductions} exact reductions)", failures)


def test_criterion_07_pointed_cover():
    failures = []
    bases = []
    seed = 0
    for _ in range(9):
        for d in range(1, 5):
            for n in range(1, d + 1):
                bases.append(random_positive_basis(d, n, 5000 + seed))
                seed += 1
    pool = []
    k = 0
    while len(pool) < 100:
        X = _mutate(bases[k % len(bases)], k + 3)
        k += 1
        if X is not None:
            pool.append(X)
    for X in pool:
        if not is_pss(X) or X.rank() != X.dim:
            failures.append("pool instance is not a full-dimensional spanning set")
            continue
        cover = cone_decomposition(X)
        if len(cover.parts) > 2**X.dim:
            failures.append(f"{len(cover.parts)} parts exceed 2^{X.dim}")
        covered = sorted(i for part in cover.parts for i in part)
        if covered != list(X.indices()):
            failures.append("parts do not partition the set")
        for part, frame in zip(cover.parts, cover.frames):
            for i in part:
                if frame.witness.dot(X[i]) <= 0:
                    failures.append("part member not strictly separated")
    _finish(7, "pointed covers of 100 seeded spanning sets", failures)


def test_criterion_08_low_overlap_family_bound():
    failures = []

    def collinear_extras(d):
        vectors = list(make_cross(d).vectors)
        vectors.append(vectors[0].scale(2))
        vectors.append(vectors[0].scale(-2))
        return VecSet(d, vectors)

    equality_instances = [make_cross(d) for d in range(1, 5)] + [
        collinear_extras(2),
        collinear_extras(3),
    ]
    bound_instances = equality_instances + [
        make_simplex(d) for d in range(1, 5)
    ] + [polygon_example(3), polygon_example(4)] + [
        random_positive_basis(3, n, s) for n in range(1, 4) for s in range(2)
    ]
    for X in bound_instances:
        fam = max_disjoint_family(X)
        if len(fam) > 2**X.dim:
            failures.append(f"greedy family of {len(fam)} exceeds 2^{X.dim}")
        for a in range(len(fam)):
            for b in range(a + 1, len(fam)):
                common = sorted(frozenset(fam[a].members) & frozenset(fam[b].members))
                if rank(X.matrix(common)) >= X.dim:
                    failures.append("kept frames overlap at full rank")
    for X in equality_instances:
        fam = max_disjoint_family(X)
        if len(fam) != 2**X.dim:
            failures.append(
                f"equality case returned {len(fam)} != 2^{X.dim} "
                f"(cross/collinear-extras instance)"
            )
    for X in bound_instances:
        frames = enumerate_mns(X)
        if len(frames) > 12:
            continue
        compatible = {}
        for a in range(len(frames)):
            for b in range(a + 1, len(frames)):
                common = sorted(
                    frozenset(frames[a].members) & frozenset(frames[b].members)
                )
                compatible[(a, b)] = rank(X.matrix(common)) < X.dim
        best = 0
        for mask in range(1 << len(frames)):
            chosen = [k for k in range(len(frames)) if mask >> k & 1]
            if all(
                compatible[(a, b)]
                for i, a in enumerate(chosen)
                for b in chosen[i + 1 :]
            ):
                best = max(best, len(chosen))
        if best > 2**X.dim:
            failures.append("exhaustive family search exceeds the bound")
    _finish(8, "low-overlap frame families bounded by 2^d", failures)


def test_criterion_09_gale_point_classes():
    failures = []
    instances = (
        [make_cross(d) for d in range(1, 5)]
        + [make_simplex(d) for d in range(1, 5)]
        + [
            make_from_antichain(AntichainSpec(3, [{1, 2}, {2, 3}])),
            make_from_antichain(AntichainSpec(4, [{1, 2}, {3}, {4}])),
            make_from_antichain(AntichainSpec(4, [{1, 2, 3}, {3, 4}])),
            make_from_antichain(AntichainSpec(4, [{1, 2, 3, 4}])),
        ]
    )
    for X in instances:
        if not is_locally_equilibrated(X):
            failures.append("instance unexpectedly not locally equilibrated")
            continue
        basis = nonneg_dependency_basis(X)
        expected = len(X) - X.rank()
        if len(basis) != expected:
            failures.append(f"nonnegative basis size {len(basis)} != {expected}")
        if any(not v.is_nonnegative() for v in basis):
            failures.append("nonnegative basis carries a negative entry")
        if basis and rank([v.coeffs for v in basis]) != len(basis):
            failures.append("nonnegative basis is linearly dependent")
        for v in basis:
            acc = QVec.zero(X.dim)
            for i in X.indices():
                acc = acc + X[i].scale(v[i])
            if not acc.is_zero():
                failures.append("basis element is not a dependency")
        rep = verify_gale_theorem(X)
        if not rep.ok:
            failures.append(f"point classes split membership classes: {rep.violations}")
    try:
        verify_gale_theorem(make_cross(2, [2, 1]))
        failures.append("rescaled cross was not rejected")
    except PreconditionError:
        pass
    _finish(9, "Gale point classes equal simplex membership classes", failures)


def test_criterion_10_supporting_lemma_suites():
    failures = []

    # swap trichotomy on generated simplices with in-span samples
    rng = random.Random(4242)
    for _ in range(40):
        d = rng.randint(1, 3)
        coeffs = [F(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(d)]
        S = make_simplex(d, coeffs)
        for _ in range(3):
            y = QVec.zero(d)
            for v in S:
                y = y + v.scale(F(rng.randint(-2, 2), rng.randint(1, 2)))
            if y.is_zero() or S.index_of(y) is not None:
                continue
            rep = sxy_classify(S, y)
            if not (rep.exists_swap == rep.all_full_span == rep.neg_outside_skeleton):
                failures.append(f"swap flags disagree for {S} with {y}")

    # frames meet every simplex in all but one element, and conversely
    for seed in range(12):
        d = seed % 3 + 1
        X = random_positive_basis(d, seed % d + 1, 9000 + seed)
        simplices = enumerate_simplices(X)
        frames = enumerate_mns(X)
        frame_sets = {frozenset(f.members) for f in frames}
        for f in frames:
            for s in simplices:
                if len(frozenset(f.members) & set(s.members)) != len(s.members) - 1:
                    failures.append("converse fails on a positively independent set")
        for k in range(1, len(X) + 1):
            for sub in combinations(range(len(X)), k):
                fs = frozenset(sub)
                if all(
                    len(fs & set(s.members)) == len(s.members) - 1
                    for s in simplices
                ):
                    if fs not in frame_sets:
                        failures.append("forward direction missed a frame")
        for f in frames:
            if rank(X.matrix(f.members)) != X.rank():
                failures.append("a maximal frame does not span the hull")

    # the doubled simplex: the converse genuinely fails there
    doubled = VecSet(2, [[1, 0], [0, 1], [-1, -1], [-1, 0], [0, -1], [1, 1]])
    neg_side = {3, 4, 5}
    hits = [
        f
        for f in enumerate_mns(doubled)
        if len(frozenset(f.members) & neg_side) == 1
    ]
    if not hits:
        failures.append("doubled-simplex counterexample not reproduced")

    # frame restriction: the extension direction always holds; the trace
    # direction holds on positive bases and fails on the doubled simplex
    for seed in range(6):
        d = seed % 3 + 1
        Y = random_positive_basis(d, seed % d + 1, 9900 + seed)
        X = _mutate(Y, seed + 1)
        if X is None:
            continue
        res = restrict_frames(X, Y)
        if any(len(p) < 1 for p in res.preimages):
            failures.append("a frame of the subset lost its preimage")
        ident = restrict_frames(Y, Y)
        if not (ident.forward_holds and ident.collisions_full_rank):
            failures.append("identity restriction not clean")
    simplex_part = VecSet(2, [[1, 0], [0, 1], [-1, -1]])
    res = restrict_frames(doubled, simplex_part)
    if res.forward_holds:
        failures.append(
            "trace direction unexpectedly held on the doubled simplex "
            "(it is provably false there; see decisions ledger)"
        )
    if any(len(p) < 1 for p in res.preimages):
        failures.append("extension direction failed on the doubled simplex")

    _finish(10, "swap, frame-intersection, rank and restriction lemmas", failures)

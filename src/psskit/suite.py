"""Runnable property suite: every structure theorem checked on one input.

Each check is deterministic, exact, and either applicable to the input or
skipped with a reason.  The CLI `verify` command feeds an input set
through :func:`run_property_suite` and fails when any applicable check
fails.  A check whose result, or whose applicability, fails its own
re-check (a ``PropertyViolation``) fails, with the message as its detail.
"""

from dataclasses import dataclass
from functools import reduce
from operator import or_

from .conical import (
    cone_decomposition,
    enumerate_mns,
    max_disjoint_family,
    verify_main_bounds,
)
from .errors import PropertyViolation
from .gale import (
    is_locally_equilibrated,
    nonneg_dependency_basis,
    verify_gale_theorem,
)
from .latticemod import build_lattice
from .ratlin import QVec
from .simplicial import (
    basis_decomposition,
    enumerate_simplices,
    factorization_condition,
)
from .spanset import (
    VecSet,
    _is_dependency,
    _mask,
    _members,
    caratheodory_reduce,
    is_positive_basis,
    is_pss,
    positively_dependent,
    negatively_independent,
)

# Bounds the check's L·s mask work (each element against each simplex), not
# element objects: unbounded, it took 8.9 s on an 18-vector set in R^2 with
# 251,392 elements and 222 simplices, closure memoized (Python 3.11).
_LATTICE_LIMIT = 12


@dataclass(frozen=True)
class SuiteCheck:
    name: str
    applicable: bool
    passed: bool
    detail: str


def _check_gen_equivalence(X: VecSet) -> tuple[bool, str]:
    pss = is_pss(X)
    covered = reduce(or_, (s.mask for s in enumerate_simplices(X)), 0)
    union = covered == (1 << len(X)) - 1
    return pss == union, f"pss={pss} simplex_union={union}"


def _check_trichotomy(X: VecSet) -> tuple[bool, str]:
    sep = negatively_independent(X).kind == "separator"
    has_simplex = bool(enumerate_simplices(X))
    return sep != has_simplex, f"separator={sep} simplex={has_simplex}"


def _check_simplex_members(X: VecSet) -> tuple[bool, str]:
    # rank >= |S| - 1 and a strictly positive dependency leave S a kernel
    # spanned by it: every remainder S - z is independent, and over it -x_z
    # has the positive coordinates l_i / l_z.  One rank per simplex.
    for s in enumerate_simplices(X):
        z = s.members[0]
        if X._rank(s.mask) < len(s.members) - 1:
            return False, f"simplex {s.members}: removing {z} leaves dependence"
        positive = s.dependency.keys() == set(s.members) and min(s.dependency.values()) > 0
        if not positive or not _is_dependency(X, s.dependency):
            return False, f"simplex {s.members}: {z} not interior over the rest"
    return True, "every member interior over an independent remainder"


def _check_inter(X: VecSet) -> tuple[bool, str]:
    # The three conditions form a strict one-way chain:
    # all-subsets span condition => positive independence => spanning-
    # subsets span condition.  Both converses fail on concrete sets
    # (an overlapping-support basis breaks the first, the planar cross
    # plus a diagonal breaks the second), so only the implications are
    # checked.
    indep = not positively_dependent(X).verdict
    full = factorization_condition(X, spanning_only=False).ok
    spanning = factorization_condition(X, spanning_only=True).ok
    if full and not indep:
        return False, "all-subsets condition holds on a positively dependent set"
    if indep and not spanning:
        return False, "independent set fails the spanning-subsets condition"
    if indep and X.rank() == X.dim:
        basis_decomposition(X)  # raises on any structural violation
        return True, "chain holds and decomposition constructible"
    return True, f"independent={indep} full={full} spanning={spanning}"


def _check_main_bounds(X: VecSet) -> tuple[bool, str]:
    report = verify_main_bounds(X)
    return True, (
        f"n={report.simplex_count} card={report.cardinality} "
        f"frames={report.frame_count}"
    )


def _check_lattice(X: VecSet) -> tuple[bool, str]:
    # The empty set and each a | s (s a simplex) are elements, and each a is
    # the union of the simplices inside it: so a -> its simplices maps the
    # unions of simplices one to one, and onto 2^S when a positive basis has
    # 2^s; join, meet and complement are then its preimages of set ops.
    lattice = build_lattice(X)
    masks = [s.mask for s in lattice.all_simplices]
    if 0 not in lattice._masks:
        return False, "the empty set is not an element"
    for a in lattice.elements:
        if a != reduce(or_, (s for s in masks if not s & ~a), 0):
            return False, f"element {_members(a)} is not the union of its simplices"
        for s in masks:
            if a | s not in lattice._masks:
                return False, f"join {_members(a | s)} of an element and a simplex is missing"
    if is_positive_basis(X) and len(lattice) != 1 << len(masks):
        return False, f"positive basis lattice has {len(lattice)} != {1 << len(masks)}"
    return True, f"{len(lattice)} elements"


def _check_caratheodory(X: VecSet) -> tuple[bool, str]:
    samples = [*X, sum(X, QVec.zero(X.dim))]
    r = X.rank()
    for p in samples:  # each lies in the positive span by construction
        sp = caratheodory_reduce(p, X)
        if len(sp.coeffs) > r:
            return False, f"support {len(sp.coeffs)} exceeds rank {r}"
        if any(c <= 0 for c in sp.coeffs.values()):
            return False, "non-positive coefficient in reduced support"
    return True, "reductions stay within rank with positive coefficients"


def _check_mainext(X: VecSet) -> tuple[bool, str]:
    cover = cone_decomposition(X)
    seen = sorted(i for part in cover.parts for i in part)
    if seen != list(X.indices()):
        return False, "parts do not cover the set exactly"
    if len(cover.parts) > (1 << X.dim):
        return False, "more than 2^d parts"
    return True, f"{len(cover.parts)} pointed parts"


def _check_max_family(X: VecSet) -> tuple[bool, str]:
    fam = max_disjoint_family(X)
    return len(fam) <= (1 << X.dim), f"greedy family of {len(fam)}"


def _check_frame_rank(X: VecSet) -> tuple[bool, str]:
    # each witness is re-checked by multiplication, whichever route built it
    r = X.rank()
    for frame in enumerate_mns(X):
        if X._rank(frame.mask) != r:
            return False, f"frame {frame.members} spans below rank {r}"
        below = [i for i in frame.members if frame.witness.dot(X[i]) < 1]
        if below:
            return False, f"frame {frame.members}: witness below 1 on {below[0]}"
    return True, "every maximal frame spans the hull"


def _check_maxind(X: VecSet) -> tuple[bool, str]:
    # A set is pointed iff it holds no simplex, so a frame is maximal iff
    # it holds none and every excluded element completes one with it.  On
    # a full-rank positively independent set, a frame through the linear
    # basis B of the decomposition meets every simplex in all but one
    # element.  On every set, every frame does when the simplices are
    # pairwise disjoint (a missing member completes only that simplex).
    # With overlapping simplices a frame may miss two members, as on
    # random_positive_basis(6, 3, 15) and on every frame of x9.
    simplices = [s.mask for s in enumerate_simplices(X)]
    frames = [(f.members, f.mask) for f in enumerate_mns(X)]
    for members, fs in frames:
        held = next((s for s in simplices if not s & ~fs), None)
        if held is not None:
            return False, f"frame {members} holds simplex {_members(held)}"
        for j in X.indices():
            if not fs >> j & 1 and not any(s & ~fs == 1 << j for s in simplices):
                return False, f"frame {members} stays pointed with {j}"

    def missed_twice(fs: int) -> tuple[int, ...] | None:
        return next((_members(s) for s in simplices if (s & ~fs).bit_count() > 1), None)

    if X.rank() == X.dim and not positively_dependent(X).verdict:
        B = _mask(basis_decomposition(X).basis)
        if not any(not B & ~fs and missed_twice(fs) is None for _, fs in frames):
            return False, f"every frame through the basis {_members(B)} misses two"
    missed = [(members, s) for members, fs in frames if (s := missed_twice(fs))]
    if not missed:
        return True, "frames meet every simplex in all but one element"
    if sum(s.bit_count() for s in simplices) == reduce(or_, simplices, 0).bit_count():
        members, s = missed[0]
        return False, f"frame {members} misses two of {s}"
    return True, (
        f"{len(missed)} of {len(frames)} frames miss two members of an "
        "overlapping simplex; every frame is maximal"
    )


def _check_gale_basis(X: VecSet) -> tuple[bool, str]:
    basis = nonneg_dependency_basis(X)
    expected = len(X) - X.rank()
    if len(basis) != expected:
        return False, f"nonnegative basis of size {len(basis)} != {expected}"
    return True, f"nonnegative dependency basis of size {len(basis)}"


def _check_gale_points(X: VecSet) -> tuple[bool, str]:
    report = verify_gale_theorem(X)
    if not report.ok:
        i, j = report.violations[0]
        return False, f"pair ({i},{j}) splits point and membership classes"
    return True, "point classes equal membership classes"


def _full(X: VecSet) -> bool:
    return X.rank() == X.dim


def _few_simplices(X: VecSet) -> bool:
    return len(enumerate_simplices(X)) <= _LATTICE_LIMIT


def run_property_suite(X: VecSet) -> list[SuiteCheck]:
    # A check runs when all its conditions hold of X, decided inside its own
    # ``try``: a failed re-check there fails each check that needs it.
    plan = [
        ("spanning_equivalence", (), _check_gen_equivalence),
        ("pointed_trichotomy", (), _check_trichotomy),
        ("simplex_member_structure", (), _check_simplex_members),
        ("independence_factorization", (is_pss,), _check_inter),
        ("cardinality_bounds", (is_positive_basis, _full), _check_main_bounds),
        ("lattice_boolean_laws", (is_pss, _few_simplices), _check_lattice),
        ("conic_caratheodory", (), _check_caratheodory),
        ("pointed_cover", (is_pss, _full), _check_mainext),
        ("overlap_family_bound", (is_pss, _full), _check_max_family),
        ("frame_full_rank", (is_pss,), _check_frame_rank),
        ("frame_simplex_intersections", (is_pss,), _check_maxind),
        ("nonnegative_dependency_basis", (is_pss,), _check_gale_basis),
        ("gale_point_classes", (is_pss, is_locally_equilibrated), _check_gale_points),
    ]
    results = []
    for name, conditions, fn in plan:
        try:
            if not all(holds(X) for holds in conditions):
                results.append(SuiteCheck(name, False, True, "not applicable"))
                continue
            passed, detail = fn(X)
        except PropertyViolation as exc:
            passed, detail = False, str(exc)
        results.append(SuiteCheck(name, True, passed, detail))
    return results


def suite_passed(checks: list[SuiteCheck]) -> bool:
    return all(c.passed for c in checks if c.applicable)

"""Runnable property suite: every structure theorem checked on one input.

Each check is deterministic, exact, and either applicable to the input or
skipped with a reason.  The CLI `verify` command feeds an input set
through :func:`run_property_suite` and fails when any applicable check
fails.
"""

from dataclasses import dataclass

from .conical import (
    cone_decomposition,
    enumerate_mns,
    max_disjoint_family,
    verify_main_bounds,
)
from .gale import (
    is_locally_equilibrated,
    nonneg_dependency_basis,
    verify_gale_theorem,
)
from .latticemod import build_lattice
from .ratlin import QVec, column_rank, solve_nonneg
from .simplicial import (
    basis_decomposition,
    enumerate_simplices,
    factorization_condition,
)
from .spanset import (
    VecSet,
    caratheodory_reduce,
    in_rint_positive_span,
    is_positive_basis,
    is_pss,
    positively_dependent,
    negatively_independent,
)

_LATTICE_LIMIT = 12


@dataclass(frozen=True)
class SuiteCheck:
    name: str
    applicable: bool
    passed: bool
    detail: str


def _check_gen_equivalence(X: VecSet) -> tuple[bool, str]:
    pss = is_pss(X)
    covered = set()
    for s in enumerate_simplices(X):
        covered.update(s.members)
    union = covered == set(X.indices())
    return pss == union, f"pss={pss} simplex_union={union}"


def _check_trichotomy(X: VecSet) -> tuple[bool, str]:
    sep = negatively_independent(X).kind == "separator"
    has_simplex = bool(enumerate_simplices(X))
    return sep != has_simplex, f"separator={sep} simplex={has_simplex}"


def _check_simplex_members(X: VecSet) -> tuple[bool, str]:
    for s in enumerate_simplices(X):
        for z in s.members:
            rest = [i for i in s.members if i != z]
            sub = X.subset(rest)
            if sub.rank() != len(rest):
                return False, f"simplex {s.members}: removing {z} leaves dependence"
            if not in_rint_positive_span(-X[z], sub):
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
    lattice = build_lattice(X)
    for a in lattice:
        if a.subset != tuple(
            sorted(set().union(*[lattice.all_simplices[j].members for j in a.simplices]))
            if a.simplices
            else ()
        ):
            return False, f"element {a.subset} is not the union of its simplices"
    basis = is_positive_basis(X)
    expected = 1 << len(lattice.all_simplices)
    if basis and len(lattice) != expected:
        return False, f"positive basis lattice has {len(lattice)} != {expected}"
    for a in lattice:
        for b in lattice:
            m = lattice.meet(a, b)
            j = lattice.join(a, b)
            if not (set(m.subset) <= set(a.subset) & set(b.subset)):
                return False, "meet escapes the intersection"
            if set(j.subset) != set(a.subset) | set(b.subset):
                return False, "join is not the union"
    if basis:
        for a in lattice:
            c = lattice.complement(a)
            if lattice.complement(c) != a:
                return False, "complement is not an involution"
            if lattice.join(a, c) != lattice.top or lattice.meet(a, c) != lattice.bottom:
                return False, "complement laws fail"
    return True, f"{len(lattice)} elements"


def _check_caratheodory(X: VecSet) -> tuple[bool, str]:
    samples = [X[i] for i in X.indices()]
    total = QVec.zero(X.dim)
    for v in X:
        total = total + v
    samples.append(total)
    r = X.rank()
    for p in samples:
        if not solve_nonneg(X.matrix(), p).feasible:
            continue
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
    r = X.rank()
    for frame in enumerate_mns(X):
        if column_rank(X.columns(frame.members)) != r:
            return False, f"frame {frame.members} spans below rank {r}"
    return True, "every maximal frame spans the hull"


def _check_maxind(X: VecSet) -> tuple[bool, str]:
    simplices = enumerate_simplices(X)
    frames = enumerate_mns(X)
    if not positively_dependent(X).verdict:
        for frame in frames:
            fs = frame.member_set()
            for s in simplices:
                if len(fs & set(s.members)) != len(s.members) - 1:
                    return False, f"frame {frame.members} misses two of {s.members}"
    return True, "frames meet every simplex in all but one element"


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


def run_property_suite(X: VecSet) -> list[SuiteCheck]:
    pss = is_pss(X)
    full = X.rank() == X.dim
    basis = pss and is_positive_basis(X)
    equilibrated = is_locally_equilibrated(X)
    lattice_ok = pss and len(enumerate_simplices(X)) <= _LATTICE_LIMIT

    plan = [
        ("spanning_equivalence", True, _check_gen_equivalence),
        ("pointed_trichotomy", True, _check_trichotomy),
        ("simplex_member_structure", True, _check_simplex_members),
        ("independence_factorization", pss, _check_inter),
        ("cardinality_bounds", basis and full, _check_main_bounds),
        ("lattice_boolean_laws", lattice_ok, _check_lattice),
        ("conic_caratheodory", True, _check_caratheodory),
        ("pointed_cover", pss and full, _check_mainext),
        ("overlap_family_bound", pss and full, _check_max_family),
        ("frame_full_rank", pss, _check_frame_rank),
        ("frame_simplex_intersections", pss, _check_maxind),
        ("nonnegative_dependency_basis", pss, _check_gale_basis),
        ("gale_point_classes", pss and equilibrated, _check_gale_points),
    ]
    results = []
    for name, applicable, fn in plan:
        if not applicable:
            results.append(SuiteCheck(name, False, True, "not applicable"))
            continue
        passed, detail = fn(X)
        results.append(SuiteCheck(name, True, passed, detail))
    return results


def suite_passed(checks: list[SuiteCheck]) -> bool:
    return all(c.passed for c in checks if c.applicable)

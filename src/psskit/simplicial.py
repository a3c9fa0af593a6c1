"""Simplex detection, enumeration and structure theorems.

A *simplex* here is a minimal subset whose positive span contains the
origin; equivalently a subset S with rank |S| - 1 whose one-dimensional
kernel has a strictly positive representative.  On positive bases the
simplices factor through a linear basis B (each simplex meets B in all but
one element), which yields the disjoint partition with telescoping
dimensions and the swap trichotomy implemented below.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations
from operator import or_

from .errors import PreconditionError, PropertyViolation
from .ratlin import QVec, solve_linear, solve_nonneg
from .ratlin import _with_combinations
from .spanset import (
    VecSet,
    _independent_sets,
    _is_dependency,
    _mask,
    _members,
    _memoized,
    _require,
    replace_element,
    skeleton_contains,
)


@dataclass(frozen=True)
class Simplex:
    """A minimal positively dependent subset with its dependency.

    ``dependency`` maps member index to a strictly positive coefficient,
    normalised so the smallest member index carries coefficient 1; the
    weighted sum of the members is exactly zero.  Both are re-checked
    where the simplex is made, in ``enumerate_simplices``.
    """

    members: tuple[int, ...]
    dependency: dict[int, Fraction]

    def __contains__(self, i: int) -> bool:
        return i in self.dependency

    @cached_property  # not a field: ==, hash and repr ignore it
    def mask(self) -> int:
        return _mask(self.members)


SimplexSet = list[Simplex]


@dataclass(frozen=True)
class BasisDecomposition:
    """A linear basis B plus the off-basis elements and their supports.

    ``pairs`` lists (x_i, A_i): x_i is the one element of its simplex not
    in B, and A_i is the rest of that simplex, a subset of B whose positive
    span strictly contains -x_i in its relative interior.  The A_i form an
    antichain.
    """

    basis: tuple[int, ...]
    pairs: tuple[tuple[int, tuple[int, ...]], ...]


@dataclass(frozen=True)
class ReayPartition:
    """Disjoint parts with telescoping positive-span dimensions."""

    parts: tuple[tuple[int, ...], ...]
    dimensions: tuple[int, ...]


@dataclass(frozen=True)
class FactorizationReport:
    """Outcome of the span-intersection test, with a counterexample."""

    ok: bool
    witness_subset: tuple[int, ...] | None = None
    witness_simplex: Simplex | None = None


@dataclass(frozen=True)
class SwapReport:
    """The three equivalent flags of the simplex/extra-vector trichotomy."""

    exists_swap: bool
    all_full_span: bool
    neg_outside_skeleton: bool


def is_simplex(S: VecSet) -> Simplex | None:
    """The simplex structure of S as a whole, or None.

    A simplex is minimal, so no proper subset of it is one: S is a simplex
    exactly when it is its own only simplex, and the walk's dependency,
    normalised to 1 on the smallest member, is then S's.
    """
    simplices = enumerate_simplices(S)
    if [s.members for s in simplices] == [tuple(S.indices())]:
        return simplices[0]
    return None


@_memoized
def enumerate_simplices(X: VecSet) -> SimplexSet:
    """All simplex subsets of X, in canonical member order.

    A simplex C minus its largest member j is independent and spans j, so
    the walk over independent sets meets C once, with j's head reduced to
    zero.  The tail then holds C's one dependency up to scale, and C is a
    simplex exactly when every member's coefficient is nonzero with j's
    sign.  A larger independent set gives its extra member coefficient 0.
    Each dependency is re-checked (positive, and ``_is_dependency``) before
    returning; a failure raises PropertyViolation.
    """
    d = X.dim
    simplices: SimplexSet = []
    for members, residuals in _independent_sets(X, _with_combinations(X), X.rank()):
        for j in range(members[-1] + 1, len(X)) if members else ():
            head, tail = residuals[j][:d], residuals[j][d:]
            if not any(head) and all(tail[i] * tail[j] > 0 for i in members):
                C = members + (j,)
                simplices.append(Simplex(C, {i: Fraction(tail[i], tail[C[0]]) for i in C}))
    simplices.sort(key=lambda s: s.members)
    for s in simplices:
        if min(s.dependency.values()) <= 0 or not _is_dependency(X, s.dependency):
            raise PropertyViolation(f"simplex {s.members}: dependency does not re-check")
    return simplices


@_memoized
def positively_spanning_subsets(X: VecSet) -> list[int]:
    """All subsets of X that positively span a linear subspace, as masks.

    These are exactly the unions of simplex subsets (the empty union gives
    the empty set spanning the null space), collected as the union closure
    of the simplex masks: O(simplices * subsets found) ORs.  Ordered by
    size, then by member tuple: within one size, ascending member tuples
    are descending masks with their n bits reversed.
    """
    unions = {0}
    for m in [s.mask for s in enumerate_simplices(X)]:
        unions.update([u | m for u in unions])
    width = f"0{len(X)}b"
    return sorted(unions, key=lambda u: (u.bit_count(), -int(format(u, width)[::-1], 2)))


def factorization_condition(
    X: VecSet, spanning_only: bool = False
) -> FactorizationReport:
    """Check span(Y) meet span(S) = span(Y intersect S) for every simplex S.

    Y runs over every subset of X, or only over the positively spanning
    subsets when ``spanning_only`` is set.  Span equality is decided by the
    exact rank identity rank(Y&S) + rank(Y|S) = rank(Y) + rank(S).

    Over all subsets the condition holds iff rank(X-S) + rank(S) = rank(X)
    for every simplex S: by the modular law span(Y) meet span(S) =
    (span(Y-S) meet span(S)) + span(Y&S), and span(Y-S) lies in span(X-S),
    while Y = X-S is itself a subset.  The subset scan runs only when that
    identity fails, to report its first witness in scan order; a scan that
    finds none contradicts it and raises PropertyViolation.
    """
    simplices = enumerate_simplices(X)
    masks = [s.mask for s in simplices]
    n = len(X)
    rk, everything = X._rank, (1 << n) - 1
    if not spanning_only and all(rk(everything ^ S) + rk(S) == rk(everything) for S in masks):
        return FactorizationReport(True)
    if spanning_only:
        subsets = positively_spanning_subsets(X)
    else:
        subsets = (_mask(c) for k in range(n + 1) for c in combinations(range(n), k))
    for Y in subsets:
        for s, S in zip(simplices, masks):
            if rk(Y & S) + rk(Y | S) != rk(Y) + rk(S):
                return FactorizationReport(False, _members(Y), s)
    if not spanning_only:
        raise PropertyViolation("rank identity fails but the subset scan finds no witness")
    return FactorizationReport(True)


@_memoized
def basis_decomposition(X: VecSet) -> BasisDecomposition:
    """Split a full-dimensional positive basis into B and off-basis pairs.

    Every simplex of a positive basis owns at least one private element
    (a member of no other simplex); the highest-index private element of
    each simplex is taken as its x_i and the rest as A_i.  All structural
    invariants are re-checked before returning, once per set; the simplex
    dependencies, which put each x_i interior to A_i, come certified.
    """
    _require(X, basis=True, full=True)
    d = X.dim
    simplices = enumerate_simplices(X)
    n = len(simplices)
    owners = Counter(i for s in simplices for i in s.members)
    pairs: list[tuple[int, tuple[int, ...]]] = []
    for s in simplices:
        private = [i for i in s.members if owners[i] == 1]
        if not private:
            raise PropertyViolation("simplex of a positive basis has no private element")
        x_i = max(private)
        a_i = tuple(i for i in s.members if i != x_i)
        pairs.append((x_i, a_i))
    basis = tuple(sorted(set(i for _, a in pairs for i in a)))

    # re-check every structural invariant
    if not 1 <= n <= d:
        raise PropertyViolation("simplex count outside [1, d]")
    if X.rank(basis) != len(basis) or len(basis) != d:
        raise PropertyViolation("union of supports is not a linear basis")
    off = tuple(x for x, _ in pairs)
    if sorted(basis + off) != list(X.indices()):
        raise PropertyViolation("decomposition does not partition the set")
    for i, (_, a_i) in enumerate(pairs):
        for j, (_, a_j) in enumerate(pairs):
            if i != j and set(a_i) <= set(a_j):
                raise PropertyViolation("supports fail the antichain property")
    if any((s.mask & ~_mask(basis)).bit_count() != 1 for s in simplices):
        raise PropertyViolation("a simplex misses the basis in two elements")
    return BasisDecomposition(basis, tuple(pairs))


def reay_partition(X: VecSet) -> ReayPartition:
    """Disjoint cover X_1, ..., X_n with telescoping span dimensions.

    Orders the supports A_i so residuals are non-increasing (largest
    residual first, ties by simplex order), strips earlier elements, and
    attaches each x_i.  The first k parts are the union of k simplices,
    which positively spans its hull (their dependencies sum positive on
    it) of dimension sum |X_i| - k: read by mask, verified before returning.
    """
    decomp = basis_decomposition(X)
    remaining = list(range(len(decomp.pairs)))
    used: set[int] = set()
    parts: list[tuple[int, ...]] = []
    while remaining:
        best = max(
            remaining,
            key=lambda i: (len(set(decomp.pairs[i][1]) - used), -i),
        )
        x_i, a_i = decomp.pairs[best]
        fresh = tuple(sorted(set(a_i) - used))
        if not fresh:
            raise PropertyViolation("empty residual inside a positive basis")
        parts.append(fresh + (x_i,))
        used.update(a_i)
        remaining.remove(best)

    sizes = [len(p) for p in parts]
    if any(sizes[i] < sizes[i + 1] for i in range(len(sizes) - 1)) or min(sizes) < 2:
        raise PropertyViolation("part sizes are not non-increasing or too small")
    dims = tuple(X._rank(prefix) for prefix in accumulate(map(_mask, parts), or_))
    if any(dim != sum(sizes[:k]) - k for k, dim in enumerate(dims, start=1)):
        raise PropertyViolation("prefix dimension does not telescope")
    return ReayPartition(tuple(parts), dims)


def sxy_classify(S: VecSet, y: QVec) -> SwapReport:
    """Classify an extra in-span vector y against a simplex S.

    Reports three flags: whether some member x of S becomes a nonnegative
    combination after the swap x -> y, whether every simplex of S + {y}
    spans the same space as S, and whether -y avoids the skeleton of S.
    The three agree on every tested input; each is computed independently
    so the equivalence stays checkable.
    """
    simplex = is_simplex(S)
    if simplex is None:
        raise PreconditionError("base set is not a simplex")
    if y.is_zero():
        raise PreconditionError("extra vector must be nonzero")
    if S.index_of(y) is not None:
        raise PreconditionError("extra vector already belongs to the simplex")
    if solve_linear(S.vectors, y) is None:
        raise PreconditionError("extra vector outside the span of the simplex")

    exists_swap = any(
        solve_nonneg(replace_element(S, i, y)[0].vectors, S[i]).feasible
        for i in S.indices()
    )

    extended = VecSet(S.dim, list(S.vectors) + [y])
    base_rank = S.rank()
    simplices = enumerate_simplices(extended)
    all_full = all(extended._rank(r.mask) == base_rank for r in simplices)

    neg_outside = not skeleton_contains(-y, S)
    return SwapReport(exists_swap, all_full, neg_outside)

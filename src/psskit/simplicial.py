"""Simplex detection, enumeration and structure theorems.

A *simplex* here is a minimal subset whose positive span contains the
origin; equivalently a subset S with rank |S| - 1 whose one-dimensional
kernel has a strictly positive representative.  On positive bases the
simplices factor through a linear basis B (each simplex meets B in all but
one element), which yields the disjoint partition with telescoping
dimensions and the swap trichotomy implemented below.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import PreconditionError, PropertyViolation
from .ratlin import QVec, column_rank, kernel_basis, solve_linear, solve_nonneg
from .spanset import (
    VecSet,
    _memoized,
    in_rint_positive_span,
    is_positive_basis,
    is_pss,
    replace_element,
    skeleton_contains,
)


@dataclass(frozen=True)
class Simplex:
    """A minimal positively dependent subset with its dependency.

    ``dependency`` maps member index to a strictly positive coefficient,
    normalised so the smallest member index carries coefficient 1; the
    weighted sum of the members is exactly zero.
    """

    members: tuple[int, ...]
    dependency: dict[int, Fraction]

    def __contains__(self, i: int) -> bool:
        return i in self.dependency

    def member_set(self) -> frozenset:
        return frozenset(self.members)


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


def _simplex_on(X: VecSet, sub: tuple[int, ...]) -> Simplex | None:
    """The simplex on the members ``sub`` of X, or None.

    ``sub`` is a simplex exactly when its kernel is one-dimensional with a
    representative that is nonzero and of one sign in every coordinate;
    this is equivalent to minimality of the positive zero-combination.
    """
    kern = kernel_basis(X.matrix(sub))
    if len(kern) != 1:
        return None
    v = list(kern[0])
    if any(c == 0 for c in v):
        return None
    if v[0] < 0:
        v = [-c for c in v]
    if any(c < 0 for c in v):
        return None
    lead = v[0]
    return Simplex(sub, {i: c / lead for i, c in zip(sub, v)})


def is_simplex(S: VecSet) -> Simplex | None:
    """The simplex structure of S as a whole, or None."""
    return _simplex_on(S, tuple(S.indices()))


@_memoized
def enumerate_simplices(X: VecSet) -> SimplexSet:
    """All simplex subsets of X, in canonical member order.

    Scans subsets of size 2 .. rank(X)+1 (a simplex has cardinality one
    more than its rank, so nothing larger can qualify).
    """
    n = len(X)
    r = X.rank()
    found: list[Simplex] = []
    for k in range(2, min(n, r + 1) + 1):
        for sub in combinations(range(n), k):
            simplex = _simplex_on(X, sub)
            if simplex is not None:
                found.append(simplex)
    found.sort(key=lambda s: s.members)
    return found


def positively_spanning_subsets(X: VecSet) -> list[tuple[int, ...]]:
    """All subsets of X that positively span a linear subspace.

    These are exactly the unions of simplex subsets (the empty union gives
    the empty set spanning the null space), collected as the union closure
    of the simplices: O(simplices * subsets found) set unions.
    """
    unions = {frozenset()}
    for s in enumerate_simplices(X):
        members = s.member_set()
        unions |= {u | members for u in unions}
    return sorted((tuple(sorted(u)) for u in unions), key=lambda t: (len(t), t))


def factorization_condition(
    X: VecSet, spanning_only: bool = False
) -> FactorizationReport:
    """Check span(Y) meet span(S) = span(Y intersect S) exhaustively.

    Runs over every subset Y of X, or only over the positively spanning
    subsets when ``spanning_only`` is set, against every simplex S.  Span
    equality is decided by the exact rank identity
    rank(Y&S) + rank(Y|S) = rank(Y) + rank(S).
    """
    simplices = enumerate_simplices(X)
    n = len(X)
    rank_memo: dict[tuple[int, ...], int] = {}

    def r(indices: frozenset) -> int:
        key = tuple(sorted(indices))
        if key not in rank_memo:
            rank_memo[key] = column_rank(X.columns(key))
        return rank_memo[key]

    if spanning_only:
        subsets = [frozenset(t) for t in positively_spanning_subsets(X)]
    else:
        subsets = [
            frozenset(c) for k in range(n + 1) for c in combinations(range(n), k)
        ]
    for Y in subsets:
        for s in simplices:
            S = frozenset(s.members)
            if r(Y & S) + r(Y | S) != r(Y) + r(S):
                return FactorizationReport(False, tuple(sorted(Y)), s)
    return FactorizationReport(True)


def basis_decomposition(X: VecSet) -> BasisDecomposition:
    """Split a full-dimensional positive basis into B and off-basis pairs.

    Every simplex of a positive basis owns at least one private element
    (a member of no other simplex); the highest-index private element of
    each simplex is taken as its x_i and the rest as A_i.  All structural
    invariants are re-checked before returning.
    """
    if not is_positive_basis(X):
        raise PreconditionError("set is not a positive basis")
    d = X.dim
    if X.rank() != d:
        raise PreconditionError("positive basis does not span the full space")
    simplices = enumerate_simplices(X)
    n = len(simplices)
    pairs: list[tuple[int, tuple[int, ...]]] = []
    for idx, s in enumerate(simplices):
        others = set()
        for jdx, t in enumerate(simplices):
            if jdx != idx:
                others.update(t.members)
        private = [i for i in s.members if i not in others]
        if not private:
            raise PropertyViolation("simplex of a positive basis has no private element")
        x_i = max(private)
        a_i = tuple(i for i in s.members if i != x_i)
        pairs.append((x_i, a_i))
    basis = tuple(sorted(set(i for _, a in pairs for i in a)))

    # re-check every structural invariant
    if not 1 <= n <= d:
        raise PropertyViolation("simplex count outside [1, d]")
    if column_rank(X.columns(basis)) != len(basis) or len(basis) != d:
        raise PropertyViolation("union of supports is not a linear basis")
    off = tuple(x for x, _ in pairs)
    if sorted(basis + off) != list(X.indices()):
        raise PropertyViolation("decomposition does not partition the set")
    for x_i, a_i in pairs:
        if not in_rint_positive_span(-X[x_i], X.subset(a_i)):
            raise PropertyViolation("off-basis element not interior to its support")
    for i, (_, a_i) in enumerate(pairs):
        for j, (_, a_j) in enumerate(pairs):
            if i != j and set(a_i) <= set(a_j):
                raise PropertyViolation("supports fail the antichain property")
    bset = set(basis)
    for s in simplices:
        if len(bset.intersection(s.members)) != len(s.members) - 1:
            raise PropertyViolation("a simplex misses the basis in two elements")
    return BasisDecomposition(basis, tuple(pairs))


def reay_partition(X: VecSet) -> ReayPartition:
    """Disjoint cover X_1, ..., X_n with telescoping span dimensions.

    Orders the supports A_i so residuals are non-increasing (largest
    residual first, ties by simplex order), strips earlier elements, and
    attaches each x_i.  The union of the first k parts positively spans a
    linear subspace of dimension sum |X_i| - k; verified before returning.
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
    dims: list[int] = []
    prefix: list[int] = []
    for k, part in enumerate(parts, start=1):
        prefix.extend(part)
        sub = X.subset(sorted(prefix))
        if not is_pss(sub):
            raise PropertyViolation("prefix union does not span a linear subspace")
        dim = sub.rank()
        if dim != sum(sizes[:k]) - k:
            raise PropertyViolation("prefix dimension does not telescope")
        dims.append(dim)
    return ReayPartition(tuple(parts), tuple(dims))


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
    if solve_linear(S.columns(), list(y)) is None:
        raise PreconditionError("extra vector outside the span of the simplex")

    exists_swap = False
    for i in S.indices():
        swapped, _ = replace_element(S, i, y)
        if solve_nonneg(swapped.matrix(), S[i]).feasible:
            exists_swap = True
            break

    extended = VecSet(S.dim, list(S.vectors) + [y])
    base_rank = S.rank()
    all_full = all(
        column_rank(extended.columns(r.members)) == base_rank
        for r in enumerate_simplices(extended)
    )

    neg_outside = not skeleton_contains(-y, S)
    return SwapReport(exists_swap, all_full, neg_outside)

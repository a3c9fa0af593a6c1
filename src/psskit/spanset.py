"""Core predicates on finite vector sets.

A :class:`VecSet` is an indexed set of distinct nonzero rational vectors.
The predicates here decide linear, positive and negative (in)dependence,
whether a set positively spans its linear hull, membership in the skeleton
and core of the positive span, and perform support reduction of positive
combinations down to at most ``rank`` many vectors.

All functions are pure; every witness they return reconstructs exactly.
As a structure of a set (rank, verdicts, simplices, frames) depends on the
set alone, it is computed once per :class:`VecSet` and kept in its memo.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps

from .errors import (
    DimensionMismatchError,
    DuplicateVectorError,
    PreconditionError,
    ZeroVectorError,
)
from .ratlin import (
    FeasWitness,
    QMat,
    QVec,
    column_rank,
    kernel_basis,
    solve_linear,
    solve_nonneg,
    strict_separator,
    _phase_one,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class VecSet:
    """Indexed finite set of distinct nonzero vectors in R^dim."""

    dim: int
    vectors: tuple[QVec, ...]

    def __init__(self, dim: int, vectors):
        vectors = tuple(v if isinstance(v, QVec) else QVec(v) for v in vectors)
        if dim < 1:
            raise DimensionMismatchError(f"dimension must be positive, got {dim}")
        seen: dict[tuple, int] = {}
        for i, v in enumerate(vectors):
            if v.dim != dim:
                raise DimensionMismatchError(
                    f"vector {i} has dimension {v.dim}, expected {dim}", index=i
                )
            if v.is_zero():
                raise ZeroVectorError(f"vector {i} is zero", index=i)
            if v.entries in seen:
                raise DuplicateVectorError(
                    f"vector {i} duplicates vector {seen[v.entries]}", index=i
                )
            seen[v.entries] = i
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "vectors", vectors)
        # not a dataclass field: equality, hashing and repr ignore it
        object.__setattr__(self, "_memo", {})

    def __len__(self) -> int:
        return len(self.vectors)

    def __getitem__(self, i: int) -> QVec:
        return self.vectors[i]

    def __iter__(self):
        return iter(self.vectors)

    def indices(self) -> range:
        return range(len(self.vectors))

    def matrix(self, indices=None) -> QMat:
        idx = list(self.indices() if indices is None else indices)
        if not idx:
            return QMat(self.dim, 0, [])
        return QMat.from_columns([list(self.vectors[i]) for i in idx])

    def columns(self, indices=None) -> list[list[Fraction]]:
        idx = self.indices() if indices is None else indices
        return [list(self.vectors[i]) for i in idx]

    def subset(self, indices) -> "VecSet":
        idx = list(indices)
        if idx == list(self.indices()):
            return self  # the same set, sharing its memo
        return VecSet(self.dim, [self.vectors[i] for i in idx])

    def index_of(self, v: QVec) -> int | None:
        for i, w in enumerate(self.vectors):
            if w == v:
                return i
        return None

    def rank(self, indices=None) -> int:
        if indices is None:
            return _full_rank(self)
        return column_rank(self.columns(indices))


def _memoized(fn):
    """Compute ``fn(X)`` once per set; lists go out as copies callers may edit."""
    key = f"{fn.__module__}.{fn.__qualname__}"  # a name keeps sets picklable

    @wraps(fn)
    def once(X: VecSet):
        if key not in X._memo:
            X._memo[key] = fn(X)
        result = X._memo[key]
        return list(result) if isinstance(result, list) else result

    return once


@_memoized
def _full_rank(X: VecSet) -> int:
    return column_rank(X.columns())


@dataclass(frozen=True)
class DependenceReport:
    """Verdict of a dependence test plus a reconstructing witness.

    When ``verdict`` is true, ``witness_coeffs`` maps the other indices to
    coefficients that rebuild the witness vector exactly: with nonnegative
    coefficients in the positive case, signed ones in the linear case.
    """

    verdict: bool
    witness_index: int | None = None
    witness_coeffs: dict[int, Fraction] | None = None


@dataclass(frozen=True)
class SpanPoint:
    """A point of the positive span with a strictly positive support."""

    point: QVec
    coeffs: dict[int, Fraction]


# ----------------------------------------------------------------------
# dependence predicates


def linearly_dependent(X: VecSet) -> DependenceReport:
    """Linear dependence, witnessed by the lowest-index redundant vector."""
    n = len(X)
    if X.rank() == n:
        return DependenceReport(False)
    for i in X.indices():
        rest = [j for j in X.indices() if j != i]
        sol = solve_linear(X.columns(rest), list(X[i]))
        if sol is not None:
            coeffs = {j: sol[k] for k, j in enumerate(rest)}
            return DependenceReport(True, i, coeffs)
    raise RuntimeError("rank deficient set without a dependent element")


@_memoized
def positively_dependent(X: VecSet) -> DependenceReport:
    """Whether some x is a nonnegative combination of the other vectors.

    The witness is the lowest such index, decided by one exact feasibility
    question per element.
    """
    for i in X.indices():
        rest = [j for j in X.indices() if j != i]
        res = solve_nonneg(X.matrix(rest), X[i])
        if res.feasible:
            coeffs = {j: res.coeffs[k] for k, j in enumerate(rest)}
            return DependenceReport(True, i, coeffs)
    return DependenceReport(False)


def negatively_independent(X: VecSet) -> FeasWitness:
    """Separator certificate when the set spans a pointed cone.

    Returns a ``separator`` witness z with z.x >= 1 for every x when no
    element's negation lies in the positive span of the rest; otherwise
    ``infeasible`` (an equivalent certificate is a minimal positively
    dependent subset, exposed by the simplicial module).
    """
    return strict_separator(list(X.vectors))


@_memoized
def is_pss(X: VecSet) -> bool:
    """Whether the positive span of X equals its linear span.

    Equivalent to: the negation of every element lies back in the positive
    span.  The test is relative to the linear hull of X, not to the full
    ambient space; full-dimensionality is a separate rank check.
    """
    M = X.matrix()
    for i in X.indices():
        if not solve_nonneg(M, -X[i]).feasible:
            return False
    return True


def is_positive_basis(X: VecSet) -> bool:
    """A positively independent set that positively spans its hull."""
    return is_pss(X) and not positively_dependent(X).verdict


# ----------------------------------------------------------------------
# support reduction


def _nonneg_dependency(X: VecSet, support: list[int]) -> list[Fraction] | None:
    """A nontrivial nonnegative zero-combination on ``support``, or None.

    Normalised so the coefficients sum to one; deterministic.  Existence is
    equivalent to the support not being negatively independent.
    """
    cols = [list(X[i]) + [_ONE] for i in support]
    rhs = [_ZERO] * X.dim + [_ONE]
    return _phase_one(cols, rhs)


def caratheodory_reduce(x: QVec, X: VecSet) -> SpanPoint:
    """Rewrite x over at most rank(X) vectors with strictly positive weights.

    Requires x to lie in the positive span of X (checked).  Starting from
    any exact nonnegative representation, the loop repeatedly cancels a
    dependency of the current support at its minimal-ratio index: first
    nonnegative dependencies while the support is not negatively
    independent, then signed ones until the support is linearly
    independent.  The zero vector gets the empty representation.
    """
    res = solve_nonneg(X.matrix(), x)
    if not res.feasible:
        raise PreconditionError("point is not in the positive span of the set")
    coeffs = {i: c for i, c in res.coeffs.items() if c != 0}
    while True:
        support = sorted(coeffs)
        if column_rank(X.columns(support)) == len(support):
            break
        dep_list = _nonneg_dependency(X, support)
        if dep_list is None:
            kern = _kernel_vector(X, support)
            if not any(c > 0 for c in kern):
                kern = [-c for c in kern]
            dep_list = kern
        dep = dict(zip(support, dep_list))
        ratio_idx = None
        best = None
        for i in support:
            if dep[i] > 0:
                r = coeffs[i] / dep[i]
                if best is None or r < best:
                    best = r
                    ratio_idx = i
        for i in support:
            coeffs[i] -= best * dep[i]
        coeffs = {i: c for i, c in coeffs.items() if c != 0}
        assert ratio_idx not in coeffs
    rebuilt = QVec.zero(X.dim)
    for i, c in coeffs.items():
        if c < 0:
            raise RuntimeError("reduction produced a negative coefficient")
        rebuilt = rebuilt + X[i].scale(c)
    if rebuilt != x:
        raise RuntimeError("reduction lost exactness")
    return SpanPoint(x, coeffs)


def _kernel_vector(X: VecSet, support: list[int]) -> list[Fraction]:
    return list(kernel_basis(X.matrix(support))[0])


# ----------------------------------------------------------------------
# skeleton and core


def _proper_flats(X: VecSet) -> list[tuple[int, ...]]:
    """Inclusion-maximal subsets spanning each proper subspace hit by X.

    Every subset with a proper linear span is contained in the closure of
    one of its linear bases, so testing positive-span membership on these
    flats alone decides skeleton membership.
    """
    n = len(X)
    r = X.rank()
    closures: set[tuple[int, ...]] = set()

    def close(indices: tuple[int, ...]) -> tuple[int, ...]:
        if not indices:
            return ()
        cols = X.columns(indices)
        base_rank = len(indices)
        members = []
        for j in range(n):
            if j in indices or column_rank(cols + [list(X[j])]) == base_rank:
                members.append(j)
        return tuple(members)

    def walk(current: tuple[int, ...], start: int):
        closures.add(close(current))
        if len(current) >= r - 1:
            return
        for j in range(start, n):
            cand = current + (j,)
            if column_rank(X.columns(cand)) == len(cand):
                walk(cand, j + 1)

    walk((), 0)
    return sorted(closures, key=lambda t: (len(t), t))


def skeleton_contains(p: QVec, X: VecSet) -> bool:
    """Membership of p in some positive span over a proper-span subset."""
    if p.dim != X.dim:
        raise DimensionMismatchError("point dimension mismatch")
    if X.rank() == 0:
        return False
    for flat in _proper_flats(X):
        if not flat:
            if p.is_zero():
                return True
            continue
        if solve_nonneg(X.matrix(flat), p).feasible:
            return True
    return False


def core_contains(p: QVec, X: VecSet) -> bool:
    """Membership in the positive span but outside the skeleton."""
    if not solve_nonneg(X.matrix(), p).feasible:
        return False
    return not skeleton_contains(p, X)


def in_rint_positive_span(p: QVec, B: VecSet) -> bool:
    """Whether p has strictly positive coordinates over the basis B.

    B must be linearly independent and must linearly span p; both are
    checked and violations raise :class:`PreconditionError`.
    """
    if B.rank() != len(B):
        raise PreconditionError("base set is linearly dependent")
    sol = solve_linear(B.columns(), list(p))
    if sol is None:
        raise PreconditionError("point lies outside the linear span of the base set")
    return all(c > 0 for c in sol)


# ----------------------------------------------------------------------
# set surgery


def replace_element(A: VecSet, x: int, y: QVec) -> tuple[VecSet, dict[int, int]]:
    """The set with the vector at index x swapped for y, plus an index map.

    Set semantics: if y already occurs elsewhere the result shrinks by one.
    The map sends every retained old index (and x) to its new position.
    """
    if not 0 <= x < len(A):
        raise PreconditionError(f"index {x} not present")
    if y.is_zero():
        raise ZeroVectorError("replacement vector is zero")
    out: list[QVec] = []
    index_map: dict[int, int] = {}
    for i in A.indices():
        v = y if i == x else A[i]
        hit = next((k for k, w in enumerate(out) if w == v), None)
        if hit is None:
            index_map[i] = len(out)
            out.append(v)
        else:
            index_map[i] = hit
    return VecSet(A.dim, out), index_map


def extract_positive_basis(X: VecSet) -> tuple[VecSet, tuple[int, ...]]:
    """A positive basis inside X with the same linear span.

    Requires X to positively span its hull.  Repeatedly deletes the
    highest-index element that is a nonnegative combination of the others;
    each deletion keeps the positive span intact, so the loop ends in a
    positively independent set spanning the same space.  Returns the basis
    and the retained indices of X.
    """
    if not is_pss(X):
        raise PreconditionError("set does not positively span its hull")
    kept = list(X.indices())
    while True:
        removable = []
        for i in kept:
            rest = [j for j in kept if j != i]
            if solve_nonneg(X.matrix(rest), X[i]).feasible:
                removable.append(i)
        if not removable:
            break
        kept.remove(max(removable))
    return X.subset(kept), tuple(kept)

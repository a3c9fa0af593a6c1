"""Core predicates on finite vector sets.

A :class:`VecSet` is an indexed set of distinct nonzero rational vectors.
The predicates here decide linear, positive and negative (in)dependence,
whether a set positively spans its linear hull, membership in the skeleton
and core of the positive span, and perform support reduction of positive
combinations down to at most ``rank`` many vectors.

All functions are pure; every witness they return reconstructs exactly.
As a structure of a set (the rank of each subset, verdicts, simplices,
frames, the union closure of the simplices) depends on the set alone, it
is computed once per :class:`VecSet` and kept in its memo.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps

from .errors import (
    DimensionMismatchError,
    DuplicateVectorError,
    PreconditionError,
    PropertyViolation,
    ZeroVectorError,
)
from .ratlin import (
    FeasWitness,
    QVec,
    rank,
    solve_linear,
    solve_nonneg,
    strict_separator,
    _dot,
    _eliminate,
    _with_combinations,
)


@dataclass(frozen=True)
class VecSet:
    """Indexed finite set of distinct nonzero vectors in R^dim."""

    dim: int
    vectors: tuple[QVec, ...]

    def __init__(self, dim: int, vectors):
        vectors = tuple(v if isinstance(v, QVec) else QVec(v) for v in vectors)
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise DimensionMismatchError(f"dimension must be a positive int, got {dim!r}")
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

    def matrix(self, indices=None) -> tuple[QVec, ...]:
        """The vectors at ``indices`` (all by default): a matrix's columns.
        An index not an int in ``range(len(self))`` raises PreconditionError."""
        if indices is None:
            return self.vectors
        for i in (indices := tuple(indices)):
            if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < len(self):
                raise PreconditionError(f"index {i!r} not present")
        return tuple(self.vectors[i] for i in indices)

    def subset(self, indices) -> "VecSet":
        idx = list(indices)
        if idx == list(self.indices()):
            return self  # the same set, sharing its memo
        return VecSet(self.dim, self.matrix(idx))

    def index_of(self, v: QVec) -> int | None:
        for i, w in enumerate(self.vectors):
            if w == v:
                return i
        return None

    def rank(self, indices=None) -> int:
        """The rank of the vectors at ``indices`` (all by default), read by
        their mask after ``matrix`` checks each index (a generator once)."""
        if indices is None:
            return self._rank((1 << len(self)) - 1)
        self.matrix(indices := tuple(indices))
        return self._rank(_mask(indices))

    def _rank(self, mask: int) -> int:
        """The rank of the subset ``mask``, unchecked: the one place a subset
        rank is computed, once per set and mask, and kept in the memo."""
        if mask not in self._memo:
            self._memo[mask] = rank([v for i, v in enumerate(self.vectors) if mask >> i & 1])
        return self._memo[mask]


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


def _mask(indices) -> int:
    """A subset as an int with bit i set for each index i; a repeat ORs
    the same bit again, so it cannot carry into another index."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def _members(mask: int) -> tuple[int, ...]:
    """The indices of the bits set in ``mask``, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _is_dependency(X: VecSet, coeffs: dict[int, Fraction]) -> bool:
    """Whether ``coeffs``, a weight per index of X (unchecked), weight its
    vectors to zero: the one dependency re-check, one ``_dot`` a coordinate."""
    weights = list(coeffs.values())
    return not any(_dot(row, weights) for row in zip(*(X[i].entries for i in coeffs)))


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
        sol = solve_linear(X.matrix(rest), X[i])
        if sol is not None:
            coeffs = {j: sol[k] for k, j in enumerate(rest)}
            return DependenceReport(True, i, coeffs)
    raise PropertyViolation("rank deficient set without a dependent element")


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
    if not X.vectors:  # no constraint: the zero vector of the space separates
        return FeasWitness(separator=QVec.zero(X.dim))
    return strict_separator(X.vectors)


@_memoized
def is_pss(X: VecSet) -> bool:
    """Whether the positive span of X equals its linear span.

    One LP: -sum(X) lies in the positive span iff some lambda >= 1 has
    sum(lambda_j x_j) = 0, and then -x_i = sum_{j != i} (lambda_j /
    lambda_i) x_j lies there for every i.  The test is relative to the
    linear hull of X, not to the full ambient space; full-dimensionality
    is a separate rank check.
    """
    return solve_nonneg(X.vectors, -sum(X, QVec.zero(X.dim))).feasible


def is_positive_basis(X: VecSet) -> bool:
    """A positively independent set that positively spans its hull."""
    return is_pss(X) and not positively_dependent(X).verdict


def _require(X: VecSet, basis: bool = False, full: bool = False) -> None:
    """The one check of the spanning preconditions: PreconditionError
    unless X positively spans its hull and, when asked, is a positive
    basis and spans the full space."""
    if not is_pss(X):
        raise PreconditionError("set does not positively span its hull")
    if basis and positively_dependent(X).verdict:
        raise PreconditionError("set is not a positive basis")
    if full and X.rank() != X.dim:
        raise PreconditionError("set does not span the full space")


# ----------------------------------------------------------------------
# support reduction


def caratheodory_reduce(x: QVec, X: VecSet) -> SpanPoint:
    """Rewrite x over at most rank(X) vectors with strictly positive weights.

    Requires x to lie in the positive span of X (checked).  The phase-I LP
    returns a basic feasible solution, whose nonzero coefficients sit on
    columns of a basis and so on linearly independent vectors: they are
    the rewrite.  Positivity and independence are re-checked.  The zero
    vector gets the empty representation.
    """
    res = solve_nonneg(X.vectors, x)
    if not res.feasible:
        raise PreconditionError("point is not in the positive span of the set")
    coeffs = {i: c for i, c in res.coeffs.items() if c != 0}
    if any(c < 0 for c in coeffs.values()):
        raise PropertyViolation("basic solution has a negative coefficient")
    if X.rank(sorted(coeffs)) != len(coeffs):
        raise PropertyViolation("basic solution has a dependent support")
    return SpanPoint(x, coeffs)


# ----------------------------------------------------------------------
# skeleton and core


def _independent_sets(X: VecSet, rows, size: int, members=()):
    """Yield ``(members, residuals)`` for each independent subset of X of
    at most ``size`` elements, depth first in lexicographic order.

    ``rows`` holds one integer row per vector, its first ``X.dim`` entries
    the vector; each row past the last member is reduced against an
    echelon form of ``members`` (none at the top call).  These are the
    residuals yielded: a residual with a nonzero head extends the set, a
    zero one lies in its span.  The rows up to the last member are left as
    they were, since neither the walk nor its callers read them again.
    Rows past ``len(X)`` are reduced alike but never chosen as members.  A
    subset's extensions are reduced only when the walk is resumed past it,
    so a caller that stops early pays for no more.
    """
    yield members, rows
    if len(members) == size:
        return
    for j in range(members[-1] + 1 if members else 0, len(X)):
        row = rows[j]
        pc = next((c for c in range(X.dim) if row[c]), None)
        if pc is not None:
            reduced = rows[: j + 1] + [_eliminate(v, row, pc) for v in rows[j + 1 :]]
            yield from _independent_sets(X, reduced, size, members + (j,))


def skeleton_contains(p: QVec, X: VecSet) -> bool:
    """Membership of p in some positive span over a proper-span subset.

    By conic Carathéodory such a p lies in the positive span of an
    independent set of at most rank(X) - 1 members, with unique
    coefficients there.  One walk to that depth reduces p's row, put last;
    where its head is zero, its tail t gives p = -sum(t_i / t_p x_i),
    and p is in the skeleton iff t_i t_p <= 0 on every member of some such
    set.  The walk stops at the first such certificate, which is re-checked
    by multiplication.
    """
    if p.dim != X.dim:
        raise DimensionMismatchError("point dimension mismatch")
    if (r := X.rank()) == 0:
        return False
    d = X.dim
    for members, residuals in _independent_sets(X, _with_combinations([*X, p]), r - 1):
        t = residuals[-1]  # p's row: t[-1] is its own tail entry
        if not any(t[:d]) and all(t[d + i] * t[-1] <= 0 for i in members):
            break
    else:
        return False
    coeffs = {i: Fraction(-t[d + i], t[-1]) for i in members}
    vectors = X.matrix(coeffs)
    if any(c < 0 for c in coeffs.values()) or any(
        _dot([x[k] for x in vectors], coeffs.values()) != p[k] for k in range(d)
    ):
        raise PropertyViolation("skeleton certificate does not rebuild the point")
    return True


def core_contains(p: QVec, X: VecSet) -> bool:
    """Membership in the positive span but outside the skeleton."""
    if not solve_nonneg(X.vectors, p).feasible:
        return False
    return not skeleton_contains(p, X)


def in_rint_positive_span(p: QVec, B: VecSet) -> bool:
    """Whether p has strictly positive coordinates over the basis B.

    B must be linearly independent and must linearly span p; both are
    checked and violations raise :class:`PreconditionError`.
    """
    if B.rank() != len(B):
        raise PreconditionError("base set is linearly dependent")
    sol = solve_linear(B.vectors, p)
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
    A.matrix([x])  # PreconditionError unless x is an index of A
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

    Requires X to positively span its hull.  One descending pass drops i
    when X[i] lies in the positive span of the others still kept.  A drop
    keeps the positive span, and cone membership only shrinks with the
    kept set, so no kept element becomes removable later.  The result is
    what repeatedly deleting the highest-index removable element leaves:
    each such element is the next one the pass meets.  Returns the basis
    and the retained indices of X.
    """
    _require(X)
    if not positively_dependent(X).verdict:
        return X, tuple(X.indices())  # nothing is removable
    kept = list(X.indices())
    for i in reversed(X.indices()):
        rest = [j for j in kept if j != i]
        if solve_nonneg(X.matrix(rest), X[i]).feasible:
            kept = rest
    return X.subset(kept), tuple(kept)

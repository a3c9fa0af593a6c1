"""Exact rational linear algebra and linear-feasibility decisions.

Everything here is exact; there is no floating point anywhere, so every
predicate built on top of this module is an exact dichotomy.  Elimination
(rank, kernel, linear solve) runs fraction-free over the integers and
creates a ``fractions.Fraction`` only for the entries it returns.
Feasibility questions are decided by a phase-I simplex method over
``Fraction`` with Bland's anti-cycling rule, which makes every answer
deterministic and returns an explicit certificate that can be re-checked by
multiplication.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatchError, ZeroVectorError

Rat = Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _to_rat(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


@dataclass(frozen=True)
class QVec:
    """Immutable rational vector."""

    entries: tuple[Fraction, ...]

    def __init__(self, entries):
        object.__setattr__(self, "entries", tuple(_to_rat(e) for e in entries))

    @classmethod
    def zero(cls, dim: int) -> "QVec":
        return cls((_ZERO,) * dim)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, k: int) -> Fraction:
        return self.entries[k]

    def __add__(self, other: "QVec") -> "QVec":
        return QVec(a + b for a, b in zip(self.entries, other.entries, strict=True))

    def __sub__(self, other: "QVec") -> "QVec":
        return QVec(a - b for a, b in zip(self.entries, other.entries, strict=True))

    def __neg__(self) -> "QVec":
        return QVec(-a for a in self.entries)

    def scale(self, c) -> "QVec":
        c = _to_rat(c)
        return QVec(c * a for a in self.entries)

    def dot(self, other: "QVec") -> Fraction:
        return sum(
            (a * b for a, b in zip(self.entries, other.entries, strict=True)), _ZERO
        )

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def __repr__(self) -> str:
        return "QVec(" + ", ".join(str(a) for a in self.entries) + ")"


@dataclass(frozen=True)
class QMat:
    """Immutable rational matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(_to_rat(e) for e in entries)
        if len(entries) != rows * cols:
            raise DimensionMismatchError(
                f"matrix needs {rows * cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_rows(cls, rows) -> "QMat":
        rows = [list(r) for r in rows]
        m = len(rows)
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise DimensionMismatchError("ragged rows")
        return cls(m, n, [e for r in rows for e in r])

    @classmethod
    def from_columns(cls, columns) -> "QMat":
        columns = [list(c) for c in columns]
        n = len(columns)
        m = len(columns[0]) if columns else 0
        if any(len(c) != m for c in columns):
            raise DimensionMismatchError("ragged columns")
        return cls(m, n, [columns[j][i] for i in range(m) for j in range(n)])

    def row(self, i: int) -> list[Fraction]:
        return list(self.entries[i * self.cols : (i + 1) * self.cols])

    def column(self, j: int) -> list[Fraction]:
        return [self.entries[i * self.cols + j] for i in range(self.rows)]

    def row_lists(self) -> list[list[Fraction]]:
        return [self.row(i) for i in range(self.rows)]

    def column_lists(self) -> list[list[Fraction]]:
        return [self.column(j) for j in range(self.cols)]


@dataclass(frozen=True)
class FeasWitness:
    """Outcome of a feasibility question, with a re-checkable certificate.

    Exactly one payload is present:

    * ``coefficients`` -- a nonnegative solution, as a map column index -> Rat
    * ``separator``    -- a vector z with z.x >= 1 for every input vector
    * neither          -- the instance is infeasible
    """

    kind: str  # "coefficients" | "separator" | "infeasible"
    coeffs: dict[int, Fraction] | None = None
    separator: QVec | None = None

    def __post_init__(self):
        payloads = (self.coeffs is not None, self.separator is not None)
        expected = {
            "coefficients": (True, False),
            "separator": (False, True),
            "infeasible": (False, False),
        }
        if self.kind not in expected or payloads != expected[self.kind]:
            raise ValueError(f"inconsistent witness: kind={self.kind!r}")

    @classmethod
    def coefficients(cls, coeffs: dict[int, Fraction]) -> "FeasWitness":
        return cls("coefficients", coeffs=dict(coeffs))

    @classmethod
    def of_separator(cls, z: QVec) -> "FeasWitness":
        return cls("separator", separator=z)

    @classmethod
    def infeasible(cls) -> "FeasWitness":
        return cls("infeasible")

    @property
    def feasible(self) -> bool:
        return self.kind != "infeasible"


# ----------------------------------------------------------------------
# Integer elimination


def _integer_row(row) -> list[int]:
    """The row times the lcm of its denominators."""
    scale = lcm(*(v.denominator for v in row))
    return [v.numerator * (scale // v.denominator) for v in row]


def _primitive(v) -> list[int]:
    """The positive multiple of v with coprime integer entries."""
    w = _integer_row(v)
    g = gcd(*w)
    return [a // g for a in w]


def _eliminate(v: list[int], row: list[int], pc: int) -> list[int]:
    """Clear entry ``pc`` of v with ``row`` (nonzero there), gcd divided out."""
    f = v[pc]
    if not f:
        return v
    p = row[pc]
    w = [p * a - f * b for a, b in zip(v, row)]
    g = gcd(*w)
    return [a // g for a in w] if g > 1 else w


def _reduce(rows, width: int) -> list[list[int] | None]:
    """Reduce each integer row, in order, against the pivot rows before it.

    A row left with a nonzero entry among its first ``width`` becomes a
    pivot and gives None; any other row gives its reduced form.  A reduced
    row is the primitive part of the Bareiss row (Bareiss, Math. Comp. 22,
    1968), so its entries stay within the same integer minors.
    """
    pivots: list[tuple[list[int], int]] = []
    out: list[list[int] | None] = []
    for v in rows:
        for row, pc in pivots:
            v = _eliminate(v, row, pc)
        pc = next((c for c in range(width) if v[c]), None)
        if pc is None:
            out.append(v)
        else:
            pivots.append((v, pc))
            out.append(None)
    return out


def _with_combinations(vectors) -> list[list[int]]:
    """Each vector's integer row followed by its row of the identity.  As
    reduction keeps a row's head the combination of the vectors given by
    its tail, a zero head leaves a dependency in the tail."""
    n = len(vectors)
    eye = [[0] * k + [1] + [0] * (n - 1 - k) for k in range(n)]
    return [_primitive([*v, *e]) for v, e in zip(vectors, eye)]


def rank(M: QMat) -> int:
    """Exact rank over the rationals."""
    return _reduce([_integer_row(r) for r in M.row_lists()], M.cols).count(None)


def column_rank(columns) -> int:
    """Rank of a list of equal-length column vectors (no QMat required)."""
    # the rank of the transpose: each column is reduced as a row
    rows = [_integer_row(c) for c in columns]
    if any(len(r) != len(rows[0]) for r in rows):
        raise DimensionMismatchError("ragged columns")
    return _reduce(rows, len(rows[0]) if rows else 0).count(None)


def kernel_basis(M: QMat) -> list[QVec]:
    """Basis of the right kernel {v : Mv = 0}.

    Each basis vector is scaled so that its first nonzero entry equals 1,
    and the vectors are ordered by their free column, so the output is a
    canonical function of the input.
    """
    out = []
    for v in _reduce(_with_combinations(M.column_lists()), M.rows):
        if v is not None:  # a free column: the tail is its dependency
            tail = v[M.rows :]
            first = next(x for x in tail if x)
            out.append(QVec(Fraction(x, first) for x in tail))
    return out


def solve_linear(columns, rhs) -> list[Fraction] | None:
    """One exact solution of ``sum_j x_j columns[j] = rhs`` or None.

    Free variables are set to zero, so the answer is deterministic: the
    reduced right-hand side's tail c gives x_j = -c_j / c_rhs.  A column
    of another length than rhs raises ``DimensionMismatchError``.
    """
    rhs, columns = list(rhs), list(columns)
    if any(len(c) != len(rhs) for c in columns):
        raise DimensionMismatchError(f"rhs has dimension {len(rhs)}, a column does not")
    v = _reduce(_with_combinations([*columns, rhs]), len(rhs))[-1]
    if v is None:  # a pivot: rhs lies outside the span of the columns
        return None
    return [Fraction(-c, v[-1]) for c in v[len(rhs) : -1]]


# ----------------------------------------------------------------------
# Phase-I simplex


def _phase_one(rows: list[list[Fraction]], rhs: list[Fraction], n: int):
    """Find x >= 0 with ``sum_j rows[i][j] x_j = rhs[i]`` for every i, else None.

    Phase-I simplex over exact rationals.  The tableau holds the n real
    columns and the right-hand side, plus a bottom row of reduced costs and
    minus the objective (the sum of the artificials), which every pivot
    updates like any other row.  The artificials are basis labels n..n+m-1
    only: an artificial never needs to re-enter, since once no real reduced
    cost is negative, a positive objective proves infeasibility and a zero
    objective leaves only degenerate pivots, which do not move x.  Bland's
    rule: the entering column is the lowest-index negative reduced cost, the
    leaving row is the minimum ratio with ties broken by lowest basic label.
    """
    T = [
        list(row) + [b] if b >= 0 else [-v for v in row] + [-b]
        for row, b in zip(rows, rhs)
    ]
    m = len(T)
    T.append([-sum(col) for col in zip(*T)] if T else [_ZERO] * (n + 1))
    basis = list(range(n, n + m))
    while (enter := next((j for j in range(n) if T[m][j] < 0), None)) is not None:
        leave = None
        best = None
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                ratio = T[i][-1] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave is None:  # objective is bounded below by 0, cannot happen
            raise RuntimeError("phase-I simplex detected unboundedness")
        piv = T[leave][enter]
        if piv != 1:
            T[leave] = [v / piv for v in T[leave]]
        prow = T[leave]
        for i in range(m + 1):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [a - f * b for a, b in zip(T[i], prow)]
        basis[leave] = enter

    if T[m][-1] != 0:
        return None
    x = [_ZERO] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][-1]
    return x


def solve_nonneg(A: QMat, b: QVec) -> FeasWitness:
    """Decide whether ``b`` is a nonnegative combination of A's columns.

    Returns a ``coefficients`` witness (exact, re-checkable) when feasible
    and ``infeasible`` otherwise.  Deterministic for identical inputs.
    """
    if b.dim != A.rows:
        raise DimensionMismatchError(
            f"matrix has {A.rows} rows but rhs has dimension {b.dim}"
        )
    x = _phase_one(A.row_lists(), list(b), A.cols)
    if x is None:
        return FeasWitness.infeasible()
    for i in range(A.rows):
        acc = sum((x[j] * A.entries[i * A.cols + j] for j in range(A.cols)), _ZERO)
        if acc != b[i]:
            raise RuntimeError("simplex returned an invalid certificate")
    return FeasWitness.coefficients({j: x[j] for j in range(A.cols)})


def strict_separator(vectors: list[QVec]) -> FeasWitness:
    """Find z with z.x >= 1 for every x, or certify there is none.

    Since the constraint set is a homogeneous cone, z.x >= 1 for all x is
    equivalent to the existence of a vector with z.x > 0 for all x.  The
    search is an exact phase-I feasibility problem in z = u - v, u, v >= 0
    with one surplus variable per input vector.
    """
    vectors = list(vectors)
    for i, x in enumerate(vectors):
        if x.is_zero():
            raise ZeroVectorError("zero vector admits no strict separator", index=i)
    if not vectors:
        return FeasWitness.of_separator(QVec.zero(0))
    d = vectors[0].dim
    if any(x.dim != d for x in vectors):
        raise DimensionMismatchError("vectors of different dimensions")
    m = len(vectors)
    rows = [
        list(x) + [-v for v in x] + [-_ONE if k == i else _ZERO for k in range(m)]
        for i, x in enumerate(vectors)
    ]
    x = _phase_one(rows, [_ONE] * m, 2 * d + m)
    if x is None:
        return FeasWitness.infeasible()
    z = QVec(x[k] - x[d + k] for k in range(d))
    for v in vectors:
        if z.dot(v) < 1:
            raise RuntimeError("simplex returned an invalid separator")
    return FeasWitness.of_separator(z)

"""Exact rational linear algebra and linear-feasibility decisions.

Everything here is exact; there is no floating point anywhere, so every
predicate built on top of this module is an exact dichotomy.  A matrix is
the sequence of its columns, each a ``QVec`` or a sequence of exact
rationals.  Elimination (rank, kernel, linear solve) runs fraction-free
over the integers and creates a ``fractions.Fraction`` only for the
entries it returns.  Feasibility questions are decided by a phase-I
simplex method with Bland's anti-cycling rule, which makes every answer
deterministic and returns an explicit certificate that can be re-checked
by multiplication; a free coordinate is priced in both signs from one
stored column.  ``Fraction`` arithmetic remains only in its pivots
(the ratio test and the row updates): the simplex's initial cost row,
every dot product and every certificate re-check is one ``_dot``, which
adds the products over a common denominator in plain ints and makes one
``Fraction`` at the end.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatchError, PropertyViolation, ZeroVectorError

_ZERO = Fraction(0)
_ONE = Fraction(1)
_MINUS_ONE = Fraction(-1)


def _to_rat(value) -> Fraction:
    """The one conversion of a caller's entry: a ``Fraction``, an ``int`` or
    a string holding an integer, a decimal or ``p/q``.  An exponent is
    refused before it is expanded: ``"1e999999999"`` would be a
    10^9-digit integer."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("expected an exact rational, got bool")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"no exponents: write {value!r} as an integer, a decimal or p/q")
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _dot(xs, ys) -> Fraction:
    """``sum(x * y for x, y in zip(xs, ys, strict=True))``, exactly.

    The entries are exact rationals (``Fraction`` or ``int``).  The products
    are added over one common denominator in plain ints, and one normalised
    ``Fraction`` is made at the end, so the value equals the ``Fraction``
    sum without a ``Fraction`` and a gcd per term.  A zero sum is the
    module's ``_ZERO``, made once.  Unequal lengths raise ``ValueError``.
    """
    num, den = 0, 1
    for x, y in zip(xs, ys, strict=True):
        n = x.numerator * y.numerator
        if n:
            d = x.denominator * y.denominator
            if den % d:
                g = gcd(den, d)
                num = num * (d // g) + n * (den // g)
                den = den // g * d
            else:
                num += n * (den // d)
    return Fraction(num, den) if num else _ZERO


@dataclass(frozen=True, slots=True)
class QVec:
    """Immutable rational vector.

    A tuple of ``Fraction``s becomes the entries as it is; any other
    sequence of exact rationals is converted into a new tuple.
    """

    entries: tuple[Fraction, ...]

    def __init__(self, entries):
        if isinstance(entries, (str, bytes)):
            raise TypeError("a string is one rational entry, not a vector")
        if type(entries) is not tuple or any(type(e) is not Fraction for e in entries):
            entries = tuple(_to_rat(e) for e in entries)
        object.__setattr__(self, "entries", entries)

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
        return _dot(self.entries, other.entries)

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def __repr__(self) -> str:
        return "QVec(" + ", ".join(str(a) for a in self.entries) + ")"


@dataclass(frozen=True)
class FeasWitness:
    """Outcome of a feasibility question, with a re-checkable certificate.

    At most one payload is present, and it is the whole answer:

    * ``coeffs``    -- a nonnegative solution, column index -> Fraction
    * ``separator`` -- a vector z with z.x >= 1 for every input vector
    * neither       -- the instance is infeasible

    ``kind`` and ``feasible`` are read off the payloads by ``is not None``:
    the empty solution ``{}`` and the separator ``QVec([])`` are answers.
    """

    coeffs: dict[int, Fraction] | None = None
    separator: QVec | None = None

    def __post_init__(self):
        if self.coeffs is not None and self.separator is not None:
            raise ValueError("a witness holds coefficients or a separator, not both")

    @property
    def kind(self) -> str:
        if self.coeffs is not None:
            return "coefficients"
        return "infeasible" if self.separator is None else "separator"

    @property
    def feasible(self) -> bool:
        return self.coeffs is not None or self.separator is not None


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


def _columns(columns) -> tuple[list[QVec], int]:
    """The columns as ``QVec``s, and their common length (0 for none).

    The one input check of every entry below: a column of another length
    raises ``DimensionMismatchError``, an inexact entry ``TypeError``.
    """
    cols = [c if isinstance(c, QVec) else QVec(c) for c in columns]
    m = len(cols[0]) if cols else 0
    for c in cols:
        if len(c) != m:
            raise DimensionMismatchError(f"vectors of lengths {m} and {len(c)}")
    return cols, m


def rank(columns) -> int:
    """Exact rank of a sequence of columns over the rationals."""
    # the rank of the transpose: each column is reduced as a row
    cols, m = _columns(columns)
    return _reduce([_integer_row(c) for c in cols], m).count(None)


def kernel_basis(columns) -> list[QVec]:
    """Basis of the right kernel {v : sum_j v_j columns[j] = 0}.

    Each basis vector is scaled so that its first nonzero entry equals 1,
    and the vectors are ordered by their free column, so the output is a
    canonical function of the input.
    """
    cols, m = _columns(columns)
    out = []
    for v in _reduce(_with_combinations(cols), m):
        if v is not None:  # a free column: the tail is its dependency
            tail = v[m:]
            first = next(x for x in tail if x)
            out.append(QVec(Fraction(x, first) for x in tail))
    return out


def solve_linear(columns, rhs) -> list[Fraction] | None:
    """One exact solution of ``sum_j x_j columns[j] = rhs`` or None.

    Free variables are set to zero, so the answer is deterministic: the
    reduced right-hand side's tail c gives x_j = -c_j / c_rhs.
    """
    cols, m = _columns([*columns, rhs])
    v = _reduce(_with_combinations(cols), m)[-1]
    if v is None:  # a pivot: rhs lies outside the span of the columns
        return None
    return [Fraction(-c, v[-1]) for c in v[m:-1]]


# ----------------------------------------------------------------------
# Phase-I simplex


def _phase_one(rows: list[list[Fraction]], rhs: list[Fraction], n: int, free: int = 0):
    """Find x >= 0 with ``sum_j rows[i][j] x_j = rhs[i]`` for every i, else None.

    Phase-I simplex over exact rationals.  The tableau holds the n stored
    columns and the right-hand side, plus a bottom row of reduced costs and
    minus the objective (the sum of the artificials), which every pivot
    updates like any other row, in place and only on the pivot row's
    nonzero columns: the others would subtract zero, so the values and
    Bland's pivot path are those of a full-row update.  The first ``free``
    columns are free coordinates: column k stands for u_k (label k) and
    v_k = -u_k (label free + k), whose column each row operation keeps at
    minus column k, so it is not stored; any other column j has label
    j + free, and x is indexed by labels.  The artificials are labels
    n+free.. only: an artificial never needs to re-enter, since once no real
    reduced cost is negative, a positive objective proves infeasibility and
    a zero objective leaves only degenerate pivots, which do not move x.
    Bland's rule: the entering label is the lowest with a negative reduced
    cost, the leaving row the minimum ratio, ties to the lowest basic label.
    """
    T = [
        list(row) + [b] if b >= 0 else [-v for v in row] + [-b]
        for row, b in zip(rows, rhs)
    ]
    m = len(T)
    minus = (-1,) * m
    T.append([_dot(col, minus) for col in zip(*T)] if T else [_ZERO] * (n + 1))
    cost = T[m]
    basis = list(range(n + free, n + free + m))

    def labels():  # the labels with a negative reduced cost, lowest first
        yield from (k for k in range(free) if cost[k] < 0)
        yield from (free + k for k in range(free) if cost[k] > 0)
        yield from (j + free for j in range(free, n) if cost[j] < 0)

    while (enter := next(labels(), None)) is not None:
        k = enter if enter < free else enter - free  # its stored column
        col = [-row[k] for row in T] if k < free <= enter else [row[k] for row in T]
        leave = None
        best = None
        for i in range(m):
            a = col[i]
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
            raise PropertyViolation("phase-I simplex detected unboundedness")
        prow = T[leave]
        piv = col[leave]
        cols = [j for j, v in enumerate(prow) if v]
        if piv != 1:
            for j in cols:
                prow[j] /= piv
        for i, row in enumerate(T):
            f = col[i]
            if f and i != leave:
                for j in cols:
                    row[j] -= f * prow[j]
        basis[leave] = enter

    if cost[-1] != 0:
        return None
    x = [_ZERO] * (n + free)
    for i in range(m):
        if basis[i] < n + free:
            x[basis[i]] = T[i][-1]
    return x


def solve_nonneg(columns, b) -> FeasWitness:
    """Decide whether ``b`` is a nonnegative combination of the columns.

    Returns a ``coefficients`` witness (exact, re-checkable) when feasible
    and ``infeasible`` otherwise.  Deterministic for identical inputs.
    """
    cols, m = _columns([*columns, b])
    b = cols.pop()
    rows = [[c.entries[i] for c in cols] for i in range(m)]
    x = _phase_one(rows, list(b), len(cols))
    if x is None:
        return FeasWitness()
    if any(_dot(row, x) != bi for row, bi in zip(rows, b)):
        raise PropertyViolation("simplex returned an invalid certificate")
    return FeasWitness(coeffs=dict(enumerate(x)))


def strict_separator(vectors) -> FeasWitness:
    """Find z with z.x >= 1 for every x, or certify there is none.

    Since the constraint set is a homogeneous cone, z.x >= 1 for all x is
    equivalent to the existence of a vector with z.x > 0 for all x.  The
    search is a phase-I problem on the tableau [x | -I], with z free (priced
    as z = u - v, u, v >= 0) and one surplus variable per input vector.
    """
    vectors, d = _columns(vectors)
    for i, x in enumerate(vectors):
        if x.is_zero():
            raise ZeroVectorError(f"vector {i} is zero: no strict separator", index=i)
    m = len(vectors)
    rows = [
        list(x) + [_MINUS_ONE if k == i else _ZERO for k in range(m)]
        for i, x in enumerate(vectors)
    ]
    x = _phase_one(rows, [_ONE] * m, d + m, free=d)
    if x is None:
        return FeasWitness()
    z = QVec(x[k] - x[d + k] for k in range(d))
    if any(z.dot(v) < 1 for v in vectors):
        raise PropertyViolation("simplex returned an invalid separator")
    return FeasWitness(separator=z)

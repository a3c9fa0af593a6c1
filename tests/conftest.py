"""Shared strategies and brute-force oracles for the property suites."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import strategies as st

from psskit import QVec, VecSet
from psskit.ratlin import FeasWitness, _phase_one, kernel_basis, solve_nonneg

small_rats = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=4
)
positive_rats = st.fractions(
    min_value=Fraction(1, 4), max_value=Fraction(4), max_denominator=4
)


def qvecs(dim: int):
    return (
        st.tuples(*([small_rats] * dim))
        .filter(lambda t: any(c != 0 for c in t))
        .map(QVec)
    )


@st.composite
def vecsets(draw, min_dim=1, max_dim=3, min_size=1, max_size=6):
    d = draw(st.integers(min_dim, max_dim))
    size = draw(st.integers(min_size, max_size))
    vectors = draw(
        st.lists(qvecs(d), min_size=size, max_size=size, unique_by=lambda v: v.entries)
    )
    return VecSet(d, vectors)


@st.composite
def invertible_maps(draw, d):
    """Random unimodular-ish rational matrix: product of elementary ops."""
    rows = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, d - 1))
        j = draw(st.integers(0, d - 1))
        c = draw(small_rats)
        if i == j:
            continue
        for k in range(d):
            rows[i][k] += c * rows[j][k]
    scale_axis = draw(st.integers(0, d - 1))
    scale = draw(positive_rats)
    for k in range(d):
        rows[scale_axis][k] *= scale
    return rows


def apply_map(rows, v: QVec) -> QVec:
    return QVec(
        sum((rows[i][k] * v[k] for k in range(len(v))), Fraction(0))
        for i in range(len(rows))
    )


# ----------------------------------------------------------------------
# independent oracles


def oracle_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over ``Fraction`` in place; (rows, pivot columns).

    The library's elimination before it became fraction-free, kept as the
    differential oracle for ``ratlin``'s integer core.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots: list[int] = []
    pr = 0
    for c in range(n):
        hit = next((i for i in range(pr, m) if rows[i][c] != 0), None)
        if hit is None:
            continue
        rows[pr], rows[hit] = rows[hit], rows[pr]
        pv = rows[pr][c]
        if pv != 1:
            rows[pr] = [v / pv for v in rows[pr]]
        for i in range(m):
            if i != pr and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pr])]
        pivots.append(c)
        pr += 1
        if pr == m:
            break
    return rows, pivots


def oracle_rref_rank(columns) -> int:
    columns = [[Fraction(x) for x in c] for c in columns]
    if not columns:
        return 0
    rows = [[c[i] for c in columns] for i in range(len(columns[0]))]
    return len(oracle_rref(rows)[1])


def oracle_proper_flats(X: VecSet) -> list[tuple[int, ...]]:
    """All proper flats of X, of every rank, by one rank elimination per
    test: the walk ``spanset`` used before it walked an incremental integer
    echelon and kept only the hyperplane flats."""
    n = len(X)
    r = oracle_rref_rank(X.matrix())
    closures: set[tuple[int, ...]] = set()

    def close(indices: tuple[int, ...]) -> tuple[int, ...]:
        if not indices:
            return ()
        cols = X.matrix(indices)
        base_rank = len(indices)
        members = []
        for j in range(n):
            if j in indices or oracle_rref_rank([*cols, X[j]]) == base_rank:
                members.append(j)
        return tuple(members)

    def walk(current: tuple[int, ...], start: int):
        closures.add(close(current))
        if len(current) >= r - 1:
            return
        for j in range(start, n):
            cand = current + (j,)
            if oracle_rref_rank(X.matrix(cand)) == len(cand):
                walk(cand, j + 1)

    walk((), 0)
    return sorted(closures, key=lambda t: (len(t), t))


def oracle_enumerate_simplices(X: VecSet) -> list:
    """All simplices by the subset scan ``simplicial.enumerate_simplices``
    ran before it walked the independent sets: one kernel per subset of
    size 2 .. rank + 1, kept when it is one vector with positive entries."""
    from psskit.simplicial import Simplex

    n = len(X)
    found = []
    for k in range(2, min(n, oracle_rref_rank(X.matrix()) + 1) + 1):
        for sub in combinations(range(n), k):
            kern = kernel_basis(X.matrix(sub))
            if len(kern) == 1 and all(c > 0 for c in kern[0]):
                found.append(Simplex(sub, dict(zip(sub, kern[0]))))
    return sorted(found, key=lambda s: s.members)


def oracle_frames_from_simplices(X: VecSet) -> list[tuple[int, ...]]:
    """The maximal simplex-free index sets of X, by an include/exclude
    recursion on the simplex masks.  A subset has a strict separator iff it
    has no nonzero nonnegative dependency (Gordan), whose support holds a
    simplex, so these are the maximal pointed frames."""
    from psskit.simplicial import enumerate_simplices

    simplices = [sum(1 << i for i in s.members) for s in enumerate_simplices(X)]
    n = len(X)
    found = []

    def free(m: int) -> bool:
        return not any(s & ~m == 0 for s in simplices)

    def walk(j: int, chosen: int) -> None:
        if j == n:
            if all(chosen >> k & 1 or not free(chosen | 1 << k) for k in range(n)):
                found.append(tuple(k for k in range(n) if chosen >> k & 1))
            return
        if free(chosen | 1 << j):
            walk(j + 1, chosen | 1 << j)
        walk(j + 1, chosen)

    walk(0, 0)
    return sorted(found)


def oracle_is_simplex(S: VecSet):
    """The simplex structure of S by its kernel, as ``simplicial.is_simplex``
    decided it before it read the walk's simplices: S is a simplex when its
    kernel is one vector with all entries positive (``kernel_basis`` scales
    the first to 1), and that vector is the dependency."""
    from psskit.simplicial import Simplex

    kern = kernel_basis(S.matrix())
    if len(kern) != 1 or any(c <= 0 for c in kern[0]):
        return None
    return Simplex(tuple(S.indices()), dict(zip(S.indices(), kern[0])))


def oracle_is_pss(X: VecSet) -> bool:
    """Positive spanning by one LP per element: every -x in the positive
    span, as ``spanset.is_pss`` decided it before it took one LP."""
    M = X.matrix()
    return all(solve_nonneg(M, -v).feasible for v in X)


def oracle_skeleton_contains(p: QVec, X: VecSet) -> bool:
    """Skeleton membership with one LP per proper flat of every rank, as
    ``spanset.skeleton_contains`` decided it before it read the answer off
    the independent-set walk with no LP: p lies in the positive span of
    some proper-span subset, and so of the flat that subset spans."""
    if X.rank() == 0:
        return False
    return any(
        p.is_zero() if not flat else solve_nonneg(X.matrix(flat), p).feasible
        for flat in _cached_proper_flats(X)
    )


def oracle_extract_positive_basis(X: VecSet) -> tuple[int, ...]:
    """The kept indices of a positive basis inside a positively spanning X,
    by rounds, as ``spanset.extract_positive_basis`` found them before its
    single pass: each round asks every kept element's LP and deletes the
    highest-index removable one."""
    kept = list(X.indices())
    while True:
        removable = [
            i
            for i in kept
            if solve_nonneg(X.matrix([j for j in kept if j != i]), X[i]).feasible
        ]
        if not removable:
            return tuple(kept)
        kept.remove(max(removable))


def oracle_phase_one(columns, rhs) -> tuple[list[Fraction] | None, bool]:
    """Phase-I simplex with an explicit artificial block and a separate
    reduced-cost vector, as ``ratlin._phase_one`` ran it before it kept the
    real columns only: (x or None, whether an artificial re-entered).

    Bland's rule scans the artificial columns too, so an artificial
    re-enters once no real reduced cost is negative and some artificial's
    is.
    """
    m = len(rhs)
    n = len(columns)
    T: list[list[Fraction]] = []
    for i in range(m):
        coef = [Fraction(columns[j][i]) for j in range(n)]
        bi = Fraction(rhs[i])
        if bi < 0:
            coef = [-a for a in coef]
            bi = -bi
        row = coef + [Fraction(0)] * m + [bi]
        row[n + i] = Fraction(1)
        T.append(row)
    basis = list(range(n, n + m))
    r = [Fraction(0)] * (n + m)
    for j in range(n):
        r[j] = -sum((T[i][j] for i in range(m)), Fraction(0))
    reentered = False
    while True:
        enter = next((j for j in range(n + m) if r[j] < 0), None)
        if enter is None:
            break
        reentered |= enter >= n
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
        piv = T[leave][enter]
        T[leave] = [v / piv for v in T[leave]]
        prow = T[leave]
        for i in range(m):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [a - f * b for a, b in zip(T[i], prow)]
        f = r[enter]
        r = [a - f * b for a, b in zip(r, prow)]
        basis[leave] = enter
    objective = sum((T[i][-1] for i in range(m) if basis[i] >= n), Fraction(0))
    if objective != 0:
        return None, reentered
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = T[i][-1]
    return x, reentered


def oracle_strict_separator(vectors) -> FeasWitness:
    """``ratlin.strict_separator`` on the split tableau [x | -x | -I] for
    z = u - v, as it ran before ``_phase_one`` priced the free coordinates
    in both signs: the mirrored block is stored and updated like any other
    column."""
    vectors = [QVec(v) for v in vectors]
    d, m = (len(vectors[0]) if vectors else 0), len(vectors)
    surplus = [[Fraction(-int(k == i)) for k in range(m)] for i in range(m)]
    rows = [list(x) + [-v for v in x] + s for x, s in zip(vectors, surplus)]
    x = _phase_one(rows, [Fraction(1)] * m, 2 * d + m)
    if x is None:
        return FeasWitness()
    return FeasWitness(separator=QVec(x[k] - x[d + k] for k in range(d)))


@lru_cache(maxsize=64)
def _cached_proper_flats(X: VecSet) -> list[tuple[int, ...]]:
    return oracle_proper_flats(X)


def oracle_factorization_scan(X: VecSet) -> tuple[bool, tuple[int, ...] | None]:
    """The all-subsets factorization condition by the plain subset scan:
    (holds, first failing subset in scan order)."""
    from psskit.simplicial import enumerate_simplices

    simplices = [frozenset(s.members) for s in enumerate_simplices(X)]

    def r(indices) -> int:
        return oracle_rref_rank(X.matrix(sorted(indices)))

    n = len(X)
    for k in range(n + 1):
        for c in combinations(range(n), k):
            Y = frozenset(c)
            for S in simplices:
                if r(Y & S) + r(Y | S) != r(Y) + r(S):
                    return False, c
    return True, None


def oracle_rank(columns) -> int:
    """Rank as the largest size of a subset with nonzero minor/kernel-free.

    Independent of the production elimination: checks subsets by testing
    that the homogeneous system over the subset has only the zero solution
    (via a kernel computation on a transposed staircase built by hand).
    """
    cols = [list(c) for c in columns]
    n = len(cols)
    best = 0
    for k in range(1, n + 1):
        hit = False
        for sub in combinations(range(n), k):
            if _independent(cols, sub):
                hit = True
                break
        if hit:
            best = k
        else:
            break
    return best


def _independent(cols, sub) -> bool:
    chosen = [list(cols[j]) for j in sub]
    m = len(chosen[0])
    # forward elimination without normalisation
    work = [row[:] for row in chosen]
    used_rows: set[int] = set()
    for vec in work:
        pivot = next(
            (i for i in range(m) if i not in used_rows and vec[i] != 0), None
        )
        if pivot is None:
            return False
        used_rows.add(pivot)
        for other in work:
            if other is not vec and other[pivot] != 0:
                f = other[pivot] / vec[pivot]
                for i in range(m):
                    other[i] -= f * vec[i]
    return True


def brute_force_nonneg_zero_combo(X: VecSet) -> bool:
    """Whether some nonempty subset carries a strictly positive dependency."""
    n = len(X)
    for k in range(1, n + 1):
        for sub in combinations(range(n), k):
            kern = kernel_basis(X.matrix(sub))
            if len(kern) != 1:
                continue
            v = list(kern[0])
            if all(c > 0 for c in v) or all(c < 0 for c in v):
                return True
    return False


def brute_force_membership(p: QVec, X: VecSet, support_limit=None) -> bool:
    """Membership of p in the positive span, by support enumeration.

    Tries every support of size at most ``support_limit`` (default: rank),
    solving the square-ish system exactly; independent of the LP used in
    production code.
    """
    from psskit.ratlin import solve_linear

    if p.is_zero():
        return True
    limit = X.rank() if support_limit is None else support_limit
    n = len(X)
    for k in range(1, limit + 1):
        for sub in combinations(range(n), k):
            sol = solve_linear(X.matrix(sub), p)
            if sol is not None and all(c >= 0 for c in sol):
                return True
    return False


def count_lp_calls(monkeypatch, names=("solve_nonneg", "strict_separator")) -> list:
    """Count the calls of ``ratlin``'s entry points ``names`` (by default
    the LPs) from every psskit module that bound them, the package's own
    namespace included; the returned list gets each call's result."""
    import sys

    from psskit import ratlin

    calls = []
    for name in names:
        original = getattr(ratlin, name)

        def counted(*args, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            calls.append(result)
            return result

        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "psskit" and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.fixture
def x9_columns():
    from psskit import example_x9

    X = example_x9()
    return [list(v) for v in X]

"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the benchmark seed.  The answer each input
should get is known by construction, or is computed here by small reference
routines (fraction-free integer elimination and a brute-force simplex scan)
that share no code with psskit, so the checker never trusts the function it
is checking.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import gcd, lcm


def rng_for(seed, *tags) -> random.Random:
    """Independent deterministic stream for one input, keyed by its tags."""
    return random.Random("/".join(str(t) for t in (seed,) + tags))


# ----------------------------------------------------------------------
# reference exact linear algebra (integer Bareiss elimination)


def _integral(vectors) -> list[list[int]]:
    """Each vector scaled by the lcm of its denominators.

    Positive scaling of single vectors keeps rank, kernel supports and the
    signs of every kernel vector, so simplex structure survives.
    """
    out = []
    for v in vectors:
        scale = lcm(*(Fraction(x).denominator for x in v))
        out.append([int(Fraction(x) * scale) for x in v])
    return out


def _bareiss_rank(rows: list[list[int]]) -> int:
    m = [list(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    r, prev = 0, 1
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                m[i][j] = (m[r][c] * m[i][j] - m[i][c] * m[r][j]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
        if r == nrows:
            break
    return r


def _det(square: list[list[int]]) -> int:
    m = [list(r) for r in square]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def ref_rank(vectors) -> int:
    """Rank of a list of rational vectors."""
    cols = _integral(vectors)
    if not cols:
        return 0
    return _bareiss_rank([list(row) for row in zip(*cols)])


def _simplex_dependency(cols: list[list[int]]) -> tuple[int, ...] | None:
    """The one-signed kernel vector of k columns of rank k-1, or None.

    Computed by Cramer's rule on k-1 independent coordinate rows.
    """
    k = len(cols)
    rows = [list(r) for r in zip(*cols)]
    if _bareiss_rank(rows) != k - 1:
        return None
    for pick in combinations(range(len(rows)), k - 1):
        sub = [rows[i] for i in pick]
        if _bareiss_rank(sub) != k - 1:
            continue
        v = tuple(
            (-1) ** j * _det([[r[c] for c in range(k) if c != j] for r in sub])
            for j in range(k)
        )
        if all(x > 0 for x in v) or all(x < 0 for x in v):
            return v
        return None
    return None


def ref_simplices(vectors) -> list[tuple[int, ...]]:
    """Member tuples of every simplex subset, in canonical (sorted) order."""
    cols = _integral(vectors)
    n = len(cols)
    r = ref_rank(vectors)
    found = []
    for k in range(2, min(n, r + 1) + 1):
        for sub in combinations(range(n), k):
            if _simplex_dependency([cols[i] for i in sub]) is not None:
                found.append(sub)
    return sorted(found)


def ref_lattice_size(simplices) -> int:
    """Number of distinct unions of simplices, by union closure."""
    unions = {0}
    for s in simplices:
        mask = sum(1 << i for i in s)
        unions |= {u | mask for u in unions}
    return len(unions)


def primitive(v) -> tuple[int, ...]:
    """Canonical representative of the open ray through v."""
    ints = _integral([v])[0]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return tuple(x // g for x in ints)


# ----------------------------------------------------------------------
# query_stream: sets whose class is known by construction

CALLS = (
    "is_pss",
    "is_positive_basis",
    "positively_dependent",
    "negatively_independent",
    "caratheodory_reduce",
    "solve_nonneg",
    "rank",
    "skeleton_contains",
)

BASIS = "basis"  # full-dimensional positive basis
BASIS_PLUS = "basis+extra"  # positive basis plus extra vectors
POINTED = "pointed"  # extreme rays of a pointed cone, first coordinate > 0
POINTED_PLUS = "pointed+interior"  # pointed, one vector interior to the cone
CLASSES = (BASIS, BASIS_PLUS, POINTED, POINTED_PLUS)

# call -> (classes answering "yes", classes answering "no")
_YES_NO = {
    "is_pss": ((BASIS, BASIS_PLUS), (POINTED, POINTED_PLUS)),
    "is_positive_basis": ((BASIS,), (BASIS_PLUS, POINTED, POINTED_PLUS)),
    "positively_dependent": ((BASIS_PLUS, POINTED_PLUS), (BASIS, POINTED)),
    "negatively_independent": ((POINTED, POINTED_PLUS), (BASIS, BASIS_PLUS)),
    "solve_nonneg": (CLASSES, (POINTED, POINTED_PLUS)),
    "skeleton_contains": (CLASSES, (POINTED, POINTED_PLUS)),
}

SMALL = 4  # bound on |entry| of the small-integer kind
_SPHERE_RADIUS2 = {2: 5, 3: 5, 4: 4, 5: 5}  # |y|^2 of the pointed-cone points


@dataclass(frozen=True)
class Query:
    """One library call on a fresh set, with its expected answer.

    ``expected`` is a bool for yes/no calls, the rank for ``rank`` and None
    for ``caratheodory_reduce`` (its output is checked by multiplication).
    """

    call: str
    dim: int
    kind: str  # "int" (|entry| <= 4) or "q16" (16-bit rational scalings)
    cls: str
    vectors: tuple[tuple[Fraction, ...], ...]
    point: tuple[Fraction, ...] | None
    columns: tuple[int, ...] | None
    expected: object


@cache
def _sphere_points(m: int) -> tuple[tuple[int, ...], ...]:
    r2 = _SPHERE_RADIUS2[m]
    return tuple(y for y in product(range(-2, 3), repeat=m) if sum(c * c for c in y) == r2)


def _positive_basis(rng, d: int, extra: int) -> list[list[int]]:
    """Standard basis plus ``extra`` off-basis vectors -sum_{j in A} w_j e_j.

    The supports A form an antichain in which every support keeps a private
    coordinate and together they cover all coordinates, which makes the set
    a positive basis of R^d for any positive weights.
    """
    coords = list(range(d))
    rng.shuffle(coords)
    cuts = sorted(rng.sample(range(1, d), extra - 1))
    blocks = [set(coords[a:b]) for a, b in zip([0] + cuts, cuts + [d])]
    for _ in range(d):
        k, j = rng.randrange(extra), rng.randrange(d)
        cand = [set(b) for b in blocks]
        cand[k].add(j)
        if all(c - set().union(*(o for o in cand if o is not c)) for c in cand):
            blocks = cand
    vectors = [[int(i == k) for i in range(d)] for k in range(d)]
    for block in blocks:
        vectors.append([-rng.randint(1, SMALL) if i in block else 0 for i in range(d)])
    return vectors


def _add_extras(rng, d: int, vectors: list[list[int]], count: int) -> None:
    seen = {primitive(v) for v in vectors}
    while count:
        v = [rng.randint(-SMALL, SMALL) for _ in range(d)]
        if any(v) and primitive(v) not in seen:
            seen.add(primitive(v))
            vectors.append(v)
            count -= 1


def _mix(rng, vectors: list[list[int]], first_row: int) -> list[list[int]]:
    """Random invertible integer map keeping entries small.

    Negates and permutes coordinates from ``first_row`` on and applies a
    few shears x_i += s * x_j (i >= first_row), each kept only while every
    entry stays within SMALL.  Rows below ``first_row`` are left alone, so
    pointed sets keep their positive first coordinate.
    """
    d = len(vectors[0])
    rows = list(range(first_row, d))
    perm = rows[:]
    rng.shuffle(perm)
    signs = {i: rng.choice((1, -1)) for i in rows}
    out = []
    for v in vectors:
        w = list(v)
        for i, src in zip(rows, perm):
            w[i] = signs[i] * v[src]
        out.append(w)
    for _ in range(d):
        i, j = rng.choice(rows), rng.randrange(d)
        if i == j:
            continue
        s = rng.choice((1, -1))
        cand = [list(w) for w in out]
        for w in cand:
            w[i] += s * w[j]
        if all(abs(x) <= SMALL for w in cand for x in w):
            out = cand
    return out


def _pointed(rng, d: int, n: int, interior: bool) -> list[list[int]]:
    """Points (1, y) with y on an integer sphere, so every one is extreme.

    With ``interior`` one vector is the sum of two others: it lies inside
    the cone and makes the set positively dependent.  Redrawn until the set
    has full rank.
    """
    pool = _sphere_points(d - 1)
    while True:
        ys = rng.sample(pool, n - 1 if interior else n)
        vectors = [[1, *y] for y in ys]
        if interior:
            a, b = rng.sample(ys, 2)
            vectors.append([2, *(p + q for p, q in zip(a, b))])
        if ref_rank(vectors) == d:
            return vectors


def _q16(rng) -> Fraction:
    return Fraction(rng.randint(1 << 15, (1 << 16) - 1), rng.randint(1 << 15, (1 << 16) - 1))


def _combo(rng, vectors, support, kind) -> tuple[Fraction, ...]:
    d = len(vectors[0])
    acc = [Fraction(0)] * d
    for i in support:
        c = Fraction(rng.randint(1, SMALL)) if kind == "int" else _q16(rng)
        acc = [a + c * x for a, x in zip(acc, vectors[i])]
    return tuple(acc)


def _spread(j: int, component: int, m: int) -> int:
    """Low-discrepancy choice among m values for the j-th query of a call.

    Weyl sequences with distinct irrational steps spread each value nearly
    in proportion over the queries of a pass.
    """
    return int((j * _WEYL[component]) % 1.0 * m)


_WEYL = tuple(x**0.5 % 1.0 for x in (2, 3, 5, 7, 11))

# Queries a pass: 64 of each call.  The stream repeats the same templates
# every pass, with fresh sets.
PASS = 64 * len(CALLS)


def make_query(seed, k: int) -> Query:
    """The k-th query of the stream.

    The call, the coefficient kind, the wanted answer, the class, the
    dimension and the size depend only on k's place in its pass, so every
    pass of every seed has the same mix; the vectors and every number come
    from the seed and k.
    """
    rng = rng_for(seed, "query", k)
    call = CALLS[k % len(CALLS)]
    j = k % PASS // len(CALLS)
    kind = ("int", "q16")[_spread(j, 0, 2)]
    yes = _spread(j, 1, 2) == 0
    if call in _YES_NO:
        choices = _YES_NO[call][0 if yes else 1]
    else:
        choices = CLASSES
    cls = choices[_spread(j, 2, len(choices))]
    skeleton = call == "skeleton_contains"
    d = 3 + _spread(j, 3, 3 if skeleton else 4)
    hi = d + 2 if skeleton else 2 * d + 2
    lo = d + 2 if cls in (BASIS_PLUS, POINTED_PLUS) else d + 1
    if cls == BASIS:
        hi = min(hi, 2 * d)
    n = lo + _spread(j, 4, hi - lo + 1)

    if cls == BASIS:
        ints = _mix(rng, _positive_basis(rng, d, n - d), 0)
    elif cls == BASIS_PLUS:
        base = _positive_basis(rng, d, rng.randint(1, min(d, n - 1 - d)))
        _add_extras(rng, d, base, n - len(base))
        ints = _mix(rng, base, 0)
    else:
        ints = _mix(rng, _pointed(rng, d, n, cls == POINTED_PLUS), 1)
    rng.shuffle(ints)
    if kind == "int":
        vectors = tuple(tuple(Fraction(x) for x in v) for v in ints)
    else:
        scales = [_q16(rng) for _ in ints]
        vectors = tuple(tuple(s * x for x in v) for v, s in zip(ints, scales))

    point = columns = None
    expected = None
    if call == "caratheodory_reduce":
        point = _combo(rng, vectors, rng.sample(range(n), rng.randint(1, n)), kind)
    elif call == "rank":
        columns = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        expected = ref_rank([vectors[i] for i in columns])
    elif call in ("solve_nonneg", "skeleton_contains"):
        # "no" points are negated cone points of a pointed set: outside the
        # cone, hence outside every positive span over a subset.  "yes"
        # points of skeleton_contains use at most d-1 vectors, so their
        # support spans a proper subspace.
        top = n if call == "solve_nonneg" else d - 1
        point = _combo(rng, vectors, rng.sample(range(n), rng.randint(1, top)), kind)
        if not yes:
            point = tuple(-x for x in point)
        expected = yes
    else:
        expected = yes
    return Query(call, d, kind, cls, vectors, point, columns, expected)


# ----------------------------------------------------------------------
# enumerate_dense: low-dimensional integer sets with many simplices


@dataclass(frozen=True)
class DenseSet:
    """A positively spanning integer set with its reference structure."""

    vectors: tuple[tuple[int, ...], ...]
    simplices: tuple[tuple[int, ...], ...]
    lattice_size: int


def dense_set(seed, d: int, n: int, s: int) -> DenseSet:
    """First seeded set of n distinct rays in Z^d, |entry| <= 4, that
    positively spans R^d and has exactly s simplices."""
    rng = rng_for(seed, "dense", d, n, s)
    while True:
        rays: dict[tuple[int, ...], tuple[int, ...]] = {}
        while len(rays) < n:
            v = tuple(rng.randint(-SMALL, SMALL) for _ in range(d))
            if any(v):
                rays.setdefault(primitive(v), v)
        vectors = tuple(rays.values())
        if ref_rank(vectors) != d:
            continue
        simplices = ref_simplices(vectors)
        if len(simplices) != s or set().union(*simplices) != set(range(n)):
            continue
        return DenseSet(vectors, tuple(simplices), ref_lattice_size(simplices))

"""Deterministic and seeded instance generators.

Factories for the named families used throughout the test suites:
crosses, simplices, positive bases built from antichains of basis
supports, the nine-vector worked example, near-regular antipodal polygon
configurations, and a seeded random positive-basis sampler.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, PropertyViolation
from .ratlin import QVec, _to_rat
from .spanset import VecSet, is_positive_basis

_ONE = Fraction(1)


@dataclass(frozen=True)
class AntichainSpec:
    """Supports for the off-basis elements of a positive basis.

    ``subsets`` are nonempty subsets of {1..d}, at most d of them,
    jointly covering {1..d} (otherwise some basis direction would sit in
    no simplex and the output could not positively span).  Each subset
    must additionally keep a *private* coordinate outside the union of
    the others: a subset covered by the rest makes its off-basis element
    a nonnegative combination of the remaining vectors, for any choice
    of positive weights, so the construction would lose positive
    independence.  The private-coordinate condition implies the pairwise
    antichain property.  ``weights`` optionally assigns a positive
    rational to each (subset position, coordinate) pair.
    """

    d: int
    subsets: tuple[frozenset, ...]
    weights: dict[tuple[int, int], Fraction] | None = None

    def __init__(self, d, subsets, weights=None):
        subsets = tuple(frozenset(s) for s in subsets)
        if not 1 <= len(subsets) <= d:
            raise PreconditionError(f"need between 1 and {d} subsets")
        covered = set()
        for k, s in enumerate(subsets):
            if not s:
                raise PreconditionError(f"subset {k} is empty")
            if not s <= set(range(1, d + 1)):
                raise PreconditionError(f"subset {k} leaves {{1..{d}}}")
            covered |= s
        if covered != set(range(1, d + 1)):
            raise PreconditionError("subsets must cover every coordinate")
        a = _without_private_coordinate(subsets)
        if a is not None:
            raise PreconditionError(
                f"subset {a} has no private coordinate; the construction "
                "would be positively dependent"
            )
        if weights is not None:
            weights = {k: _to_rat(v) for k, v in weights.items()}
            for (k, j), w in weights.items():
                if w <= 0:
                    raise PreconditionError(f"weight for subset {k}, axis {j} not positive")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "subsets", subsets)
        object.__setattr__(self, "weights", weights)


def _without_private_coordinate(subsets) -> int | None:
    """The first subset covered by the union of the others, else None."""
    for a, s in enumerate(subsets):
        if s <= set().union(*(t for b, t in enumerate(subsets) if b != a)):
            return a
    return None


def _unit(d: int, k: int) -> QVec:
    return QVec(_ONE if i == k else Fraction(0) for i in range(d))


def make_cross(d: int, scales=None) -> VecSet:
    """The 2d-element set {e_i, -a_i e_i} for positive scales a_i.

    Vectors come in adjacent pairs: e_1, -a_1 e_1, e_2, -a_2 e_2, ...
    """
    if d < 1:
        raise PreconditionError("dimension must be positive")
    scales = [_ONE] * d if scales is None else [_to_rat(s) for s in scales]
    if len(scales) != d:
        raise PreconditionError("need one scale per dimension")
    if any(s <= 0 for s in scales):
        raise PreconditionError("scales must be positive")
    vectors = []
    for k in range(d):
        e = _unit(d, k)
        vectors.append(e)
        vectors.append(e.scale(-scales[k]))
    return VecSet(d, vectors)


def make_simplex(d: int, coeffs=None) -> VecSet:
    """The (d+1)-element simplex {e_1, ..., e_d, -sum(c_i e_i)}, c_i > 0."""
    if d < 1:
        raise PreconditionError("dimension must be positive")
    coeffs = [_ONE] * d if coeffs is None else [_to_rat(c) for c in coeffs]
    if len(coeffs) != d:
        raise PreconditionError("need one coefficient per dimension")
    if any(c <= 0 for c in coeffs):
        raise PreconditionError("coefficients must be positive")
    vectors = [_unit(d, k) for k in range(d)]
    vectors.append(QVec(-c for c in coeffs))
    return VecSet(d, vectors)


def make_from_antichain(spec: AntichainSpec) -> VecSet:
    """A positive basis realised from an antichain of basis supports.

    Takes the standard basis and appends, for each subset A_i, the vector
    -sum of the weighted basis elements over A_i.  The output is always a
    positive basis of R^d (asserted before returning).
    """
    d = spec.d
    vectors = [_unit(d, k) for k in range(d)]
    for k, subset in enumerate(spec.subsets):
        entries = [Fraction(0)] * d
        for j in subset:
            w = _ONE
            if spec.weights is not None:
                w = spec.weights.get((k, j), _ONE)
            entries[j - 1] = -w
        vectors.append(QVec(entries))
    X = VecSet(d, vectors)
    if not is_positive_basis(X):
        raise PropertyViolation("antichain construction missed a positive basis")
    return X


def example_x9() -> VecSet:
    """The nine-vector configuration in ambient dimension six.

    Bit-exact reproduction: three disjoint triple simplices plus the
    cross-cutting triple {x3, x6, x7}, and the positive dependence
    x6 = x1 + x2 + x8 + x9.
    """
    rows = [
        (1, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0),
        (-1, -1, 0, 0, 0, 0),
        (0, 0, -1, 0, -1, 0),
        (0, 0, 0, -1, -1, 0),
        (0, 0, 1, 1, 2, 0),
        (1, 1, -1, -1, -2, 0),
        (-1, -1, 1, 1, 0, 1),
        (0, 0, 0, 0, 2, -1),
    ]
    return VecSet(6, [QVec(r) for r in rows])


def polygon_example(n: int) -> VecSet:
    """2n planar vectors in n antipodal pairs, nearly equally spaced.

    Points are taken on the rational unit circle via the tangent
    half-angle parametrisation; floating point only proposes the sample
    angles, every stored coordinate and every later decision is exact.
    Antipodality is exact by construction.  The half-angle samples must be
    strictly increasing, so the n directions are distinct in [0, pi): every
    pointed subset then lies in a run of n consecutive vectors, and the
    maximal pointed frames are exactly those 2n runs.
    """
    if n < 1:
        raise PreconditionError("need at least one antipodal pair")
    ts = []
    for k in range(n):
        t = Fraction(math.tan(k * math.pi / (2 * n))).limit_denominator(10**6)
        ts.append(t)
    if sorted(set(ts)) != ts:
        raise PropertyViolation("half-angle samples failed to be increasing")
    upper = []
    for t in ts:
        den = 1 + t * t
        upper.append(QVec(((1 - t * t) / den, 2 * t / den)))
    vectors = upper + [-p for p in upper]
    return VecSet(2, vectors)


def random_positive_basis(d: int, n: int, seed) -> VecSet:
    """Seeded positive basis of R^d that is a union of n simplices.

    Antichain sampler: shuffle {1..d} and cut it into n nonempty blocks
    (disjoint supports, so every block owns all its coordinates), then
    try a few seeded augmentations, each adding one coordinate to one
    subset and kept only when every subset still has a private
    coordinate.  Weights are uniform over rationals with numerator and
    denominator in 1..7.  Identical (d, n, seed) triples yield identical
    sets.
    """
    if not 1 <= n <= d:
        raise PreconditionError("need 1 <= n <= d")
    rng = random.Random(f"{d}:{n}:{seed}")
    coords = list(range(1, d + 1))
    rng.shuffle(coords)
    cuts = sorted(rng.sample(range(1, d), n - 1)) if n > 1 else []
    blocks = []
    prev = 0
    for c in cuts + [d]:
        blocks.append(set(coords[prev:c]))
        prev = c
    subsets = [set(b) for b in blocks]

    for _ in range(2 * d):
        k = rng.randrange(n)
        missing = sorted(set(range(1, d + 1)) - subsets[k])
        if not missing:
            continue
        j = rng.choice(missing)
        candidate = [set(s) for s in subsets]
        candidate[k] = candidate[k] | {j}
        if _without_private_coordinate(candidate) is None:
            subsets = candidate
    weights = {}
    for k in range(n):
        for j in sorted(subsets[k]):
            weights[(k, j)] = Fraction(rng.randint(1, 7), rng.randint(1, 7))
    spec = AntichainSpec(d, [frozenset(s) for s in subsets], weights)
    return make_from_antichain(spec)

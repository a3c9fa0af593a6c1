"""Maximal pointed-cone frames and conical decompositions.

A subset of a vector set is *negatively independent* exactly when a single
hyperplane strictly separates it from the origin, i.e. it spans a pointed
cone.  This module enumerates the maximal such subsets, checks the
cardinality bounds they satisfy on positive bases, decomposes an arbitrary
positively spanning set into at most 2^d pointed parts, and relates the
frames of a set to the frames of a positively spanning subset.
"""

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import mul

from .errors import PreconditionError, PropertyViolation
from .ratlin import QVec, solve_linear, solve_nonneg, strict_separator
from .simplicial import basis_decomposition, enumerate_simplices, is_simplex
from .spanset import (
    VecSet,
    _mask,
    _members,
    _memoized,
    _require,
    extract_positive_basis,
    is_positive_basis,
)

_ONE = Fraction(1)


@dataclass(frozen=True)
class ConeFrame:
    """A maximal negatively independent subset with its separator."""

    members: tuple[int, ...]
    witness: QVec

    @cached_property  # not a field: ==, hash and repr ignore it
    def mask(self) -> int:
        return _mask(self.members)


@dataclass(frozen=True)
class ConeCover:
    """A cover of a vector set by negatively independent parts.

    ``parts[k]`` lists the indices assigned to the k-th used frame, and
    ``frames[k]`` is that frame (over the extracted positive basis), whose
    witness strictly separates the whole part from the origin.
    ``assignment`` maps every index of the input to its part.
    """

    parts: tuple[tuple[int, ...], ...]
    frames: tuple[ConeFrame, ...]
    assignment: dict[int, int]


@dataclass(frozen=True)
class MainBoundsReport:
    """Cardinality data of a full-dimensional positive basis."""

    dimension: int
    simplex_count: int
    cardinality: int
    frame_count: int
    is_cross: bool
    is_simplex: bool


@dataclass(frozen=True)
class FrameRestriction:
    """The checked restriction behaviour of frames under a spanning subset.

    ``traces[k]`` is the intersection of the k-th frame of X with Y, in
    Y indices, and ``mapping[k]`` the index of the equal frame of Y when
    the trace is maximal there (None otherwise: the forward claim can
    fail on positively dependent X, so it is reported, not assumed).
    ``preimages[a]`` lists the X-frames whose trace equals the a-th frame
    of Y; the extension argument guarantees at least one.  ``collisions``
    holds (k1, k2, rank of the intersection) for distinct X-frames with
    equal traces.  ``forward_holds`` / ``collisions_full_rank`` flag the
    two halves of the restriction claim on this input.
    """

    traces: tuple[tuple[int, ...], ...]
    mapping: tuple[int | None, ...]
    preimages: tuple[tuple[int, ...], ...]
    collisions: tuple[tuple[int, int, int], ...]
    forward_holds: bool
    collisions_full_rank: bool


def _scaled_extension(z: QVec, x: QVec) -> QVec | None:
    """Reuse a separator for one more vector by rescaling, if possible."""
    t = z.dot(x)
    if t >= 1:
        return z
    if t > 0:
        return z.scale(_ONE / t)
    return None


def _basis_separator(X: VecSet) -> Callable[[int], QVec | None]:
    """The separator of each simplex-free subset of a full-rank positive
    basis X, in closed form from its basis decomposition, with no LP.

    Each simplex A_i + {x_i} meets the linear basis B in A_i, and its
    dependency gives x_i = -sum(c_a b_a) over A_i with c_a = l_a / l_x_i
    > 0.  With mu_i and sigma_i the least and the sum of these c_a, one
    M = max(sigma_i / mu_i) serves the whole set (l_x_i cancels in the
    ratio).  The z with z.b_a = 1 on F & B and -M on B - F is
    sum(s_a w_a) over the dual vectors w_a of B (w_a.b_c = 1 if a = c,
    else 0), solved once per set and scaled by their common denominator
    den into integer columns; with M = p/q, each coordinate of z is one
    integer sum of (q or -p) den w_a over den q.  For x_i in a
    simplex-free F, A_i is not inside F, so
    z.x_i >= (M + 1) mu_i - sigma_i >= mu_i > 0.  Every product z.x over
    F is re-checked: the least must be positive, and z is scaled by it,
    so that the least is exactly 1, the ``strict_separator`` contract.  A
    subset whose re-check fails gets None.  As M is fixed, the witness
    depends only on F, not on the walk that reached it.
    """
    B = basis_decomposition(X).basis
    columns = [[X[a][k] for a in B] for k in range(X.dim)]  # B^T's columns
    held = [[l for a, l in s.dependency.items() if a in B] for s in enumerate_simplices(X)]
    m = max(sum(ls) / min(ls) for ls in held)
    duals = [solve_linear(columns, [int(a == c) for c in B]) for a in B]
    den = lcm(*(w.denominator for dual in duals for w in dual))
    rows = [[w.numerator * (den // w.denominator) for w in ws] for ws in zip(*duals)]
    p, q = m.numerator, m.denominator

    def separate(mask: int) -> QVec | None:
        signs = [q if mask >> a & 1 else -p for a in B]
        z = QVec(tuple(Fraction(sum(map(mul, signs, row)), den * q) for row in rows))
        low = min(z.dot(X[i]) for i in _members(mask))
        return z.scale(1 / low) if low > 0 else None

    return separate


def _frames(
    X: VecSet,
    simplices: list[int],
    closing: list[list[int]],
    separate: Callable[[int], QVec | None],
    mask: int,
    witness: QVec,
):
    """Yield ``(mask, separator)`` for each frame among the pointed
    extensions of ``mask`` by larger indices, depth first (canonical order).

    ``closing[j]`` holds the masks of the simplices whose largest member
    is j: as ``mask`` is simplex-free and below j, these are the only
    simplices that adding j can complete.  So a childless subset is a
    frame when each smaller non-member completes one of ``simplices``.
    A simplex-free extension whose parent's separator does not rescale
    takes ``separate``'s, which must find one.
    """
    childless = True
    for j in range(mask.bit_length(), len(X)):
        grown = mask | 1 << j
        if any(s & ~grown == 0 for s in closing[j]):
            continue
        childless = False
        w = _scaled_extension(witness, X[j])
        if w is None:
            w = separate(grown)
            if w is None:
                raise PropertyViolation("simplex-free subset without a strict separator")
        yield from _frames(X, simplices, closing, separate, grown, w)
    if childless and all(
        mask >> j & 1 or any(s & ~mask == 1 << j for s in simplices)
        for j in range(mask.bit_length())
    ):
        yield mask, witness


@_memoized
def enumerate_mns(X: VecSet) -> list[ConeFrame]:
    """All maximal negatively independent subsets, canonically ordered.

    Candidate sets grow by ascending index.  A subset spans a pointed cone
    iff it holds no simplex (Gordan's alternative: the support of a
    nonnegative dependency holds a positive circuit), so the memoized
    simplex masks decide which extensions are pruned, with no LP.  A
    simplex-free extension rescales its parent's separator when it can.
    Otherwise a full-rank positive basis builds one in closed form from its
    basis decomposition (``_basis_separator``), and any other set asks one
    LP; either must find a separator.  The frames are the maximal
    simplex-free subsets, so the walk yields a subset only when every
    vector it leaves out completes a simplex with it.
    """
    simplices = [s.mask for s in enumerate_simplices(X)]
    closing = [[s for s in simplices if s.bit_length() == j + 1] for j in range(len(X))]
    separate = (
        _basis_separator(X)
        if X.rank() == X.dim and is_positive_basis(X)
        else lambda mask: strict_separator([X[i] for i in _members(mask)]).separator
    )
    frames = _frames(X, simplices, closing, separate, 0, QVec.zero(X.dim))
    return [ConeFrame(_members(mask), witness) for mask, witness in frames]


def is_cross(X: VecSet) -> bool:
    """Whether X is a union of opposite-pair simplices over a linear basis.

    That is |X| = 2 rank(X) with the 2-member simplices covering X: a
    vector with two opposite partners would leave fewer than rank(X)
    lines through the origin to span X.
    """
    if len(X) != 2 * X.rank():
        return False
    pairs = [s.members for s in enumerate_simplices(X) if len(s.members) == 2]
    return {i for p in pairs for i in p} == set(X.indices())


def verify_main_bounds(X: VecSet) -> MainBoundsReport:
    """Counts for a full-dimensional positive basis, with bounds enforced.

    Reports the number of simplices n, the cardinality, and the number of
    maximal pointed frames, and checks 1 <= n <= d, d+1 <= |X| <= 2d and
    d+1 <= frames <= 2^d, with the upper bounds attained exactly on
    crosses and the lower ones exactly on simplices.
    """
    _require(X, basis=True, full=True)
    d = X.dim
    n = len(enumerate_simplices(X))
    card = len(X)
    frames = len(enumerate_mns(X))
    cross = is_cross(X)
    simplex = is_simplex(X) is not None
    checks = [
        1 <= n <= d,
        d + 1 <= card <= 2 * d,
        d + 1 <= frames <= (1 << d),
        (n == d) == cross,
        (card == 2 * d) == cross,
        (frames == (1 << d)) == cross,
        (n == 1) == simplex,
        (card == d + 1) == simplex,
        (frames == d + 1) == simplex,
    ]
    if not all(checks):
        raise PropertyViolation(
            f"cardinality bounds violated: d={d} n={n} card={card} frames={frames}"
        )
    return MainBoundsReport(d, n, card, frames, cross, simplex)


def cone_decomposition(X: VecSet) -> ConeCover:
    """Cover X by at most 2^d negatively independent parts.

    Extracts a positive basis Y inside X, enumerates the maximal pointed
    frames of Y, and assigns every element of X to the first frame whose
    positive span contains it.  A member of Y needs no LP: a maximal
    frame's positive span holds no member of Y outside the frame, since
    adding that member would keep the cone pointed.  Each part inherits
    the frame's separator, re-checked strictly against every assigned
    vector.
    """
    _require(X, full=True)
    d = X.dim
    Y, kept = extract_positive_basis(X)
    in_y = {i: a for a, i in enumerate(kept)}
    frames = enumerate_mns(Y)

    def holds(frame: ConeFrame, i: int) -> bool:
        if i in in_y:
            return bool(frame.mask >> in_y[i] & 1)
        # a failing separator rules membership out without an LP
        return (
            frame.witness.dot(X[i]) > 0
            and solve_nonneg(Y.matrix(frame.members), X[i]).feasible
        )

    groups: dict[int, list[int]] = {}
    for i in X.indices():
        target = next((k for k, f in enumerate(frames) if holds(f, i)), None)
        if target is None:
            raise PropertyViolation("element escaped every maximal frame")
        groups.setdefault(target, []).append(i)
    used = sorted(groups)
    for k in used:
        if any(frames[k].witness.dot(X[i]) <= 0 for i in groups[k]):
            raise PropertyViolation("part member not strictly separated")
    if len(used) > (1 << d):
        raise PropertyViolation("more than 2^d parts")
    return ConeCover(
        tuple(tuple(groups[k]) for k in used),
        tuple(frames[k] for k in used),
        {i: part for part, k in enumerate(used) for i in groups[k]},
    )


def max_disjoint_family(X: VecSet) -> list[ConeFrame]:
    """A maximal greedy family of frames with low-dimensional overlaps.

    Walks the frames in canonical order and keeps one whenever its
    intersection with every kept frame has rank below d, as one of fewer
    than d members has without elimination.  Any such family has at most
    2^d members, which is asserted for the greedy one.
    """
    _require(X, full=True)
    d = X.dim
    kept: list[ConeFrame] = []
    for frame in enumerate_mns(X):
        meets = (frame.mask & f.mask for f in kept)
        if all(m.bit_count() < d or X._rank(m) < d for m in meets):
            kept.append(frame)
    if len(kept) > (1 << d):
        raise PropertyViolation("family exceeds 2^d")
    return kept


def restrict_frames(X: VecSet, Y: VecSet) -> FrameRestriction:
    """Relate the maximal frames of X to those of a spanning subset Y.

    Y must be a subset of X and both must positively span the full space.
    Every frame of Y arises as the Y-trace of some frame of X (checked;
    this direction always holds).  The converse claim, that every trace
    is again maximal in Y, holds when X is positively independent but can
    fail otherwise; the result records where it does instead of assuming
    it.  Frames of X sharing one trace are reported with the exact rank
    of their intersection.
    """
    d = X.dim
    if Y.dim != d:
        raise PreconditionError("ambient dimensions differ")
    y_to_x = []
    for j in Y.indices():
        i = X.index_of(Y[j])
        if i is None:
            raise PreconditionError("second set is not a subset of the first")
        y_to_x.append(i)
    for S in (X, Y):
        _require(S, full=True)

    frames_x = enumerate_mns(X)
    frames_y = enumerate_mns(Y)
    y_frame = {f.members: a for a, f in enumerate(frames_y)}
    x_index_of_y = {i: j for j, i in enumerate(y_to_x)}

    traces = [
        tuple(sorted(x_index_of_y[i] for i in f.members if i in x_index_of_y))
        for f in frames_x
    ]
    mapping = [y_frame.get(tr) for tr in traces]
    forward_holds = all(m is not None for m in mapping)

    by_trace: dict[tuple[int, ...], list[int]] = {}
    for k, tr in enumerate(traces):
        by_trace.setdefault(tr, []).append(k)
    preimages = [tuple(by_trace.get(f.members, ())) for f in frames_y]
    if not all(preimages):
        raise PropertyViolation(
            "frame of the subset has no preimage; the extension argument guarantees one"
        )
    collisions = [
        (k1, k2, X._rank(frames_x[k1].mask & frames_x[k2].mask))
        for tr in sorted(by_trace)
        for k1, k2 in combinations(by_trace[tr], 2)
    ]
    full_rank = all(rk == d for _, _, rk in collisions)
    return FrameRestriction(
        tuple(traces),
        tuple(mapping),
        tuple(preimages),
        tuple(collisions),
        forward_holds,
        full_rank,
    )


"""Maximal pointed-cone frames and conical decompositions.

A subset of a vector set is *negatively independent* exactly when a single
hyperplane strictly separates it from the origin, i.e. it spans a pointed
cone.  This module enumerates the maximal such subsets, checks the
cardinality bounds they satisfy on positive bases, decomposes an arbitrary
positively spanning set into at most 2^d pointed parts, and relates the
frames of a set to the frames of a positively spanning subset.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, PropertyViolation
from .ratlin import QVec, column_rank, solve_nonneg, strict_separator
from .simplicial import enumerate_simplices, is_simplex as simplex_structure
from .spanset import VecSet, _memoized, extract_positive_basis, is_positive_basis, is_pss

_ONE = Fraction(1)


@dataclass(frozen=True)
class ConeFrame:
    """A maximal negatively independent subset with its separator."""

    members: tuple[int, ...]
    witness: QVec

    def member_set(self) -> frozenset:
        return frozenset(self.members)


@dataclass(frozen=True)
class ConeCover:
    """A cover of a vector set by negatively independent parts.

    ``parts[k]`` lists the indices assigned to the k-th used frame,
    ``frames[k]`` is that frame (over the extracted positive basis), and
    ``witnesses[k]`` strictly separates the whole part from the origin.
    ``assignment`` maps every index of the input to its part.
    """

    parts: tuple[tuple[int, ...], ...]
    frames: tuple[ConeFrame, ...]
    witnesses: tuple[QVec, ...]
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


@_memoized
def enumerate_mns(X: VecSet) -> list[ConeFrame]:
    """All maximal negatively independent subsets, canonically ordered.

    Candidate sets grow by ascending index; a subset without a strict
    separator cannot extend, which prunes the search to the negatively
    independent family.  Maximality is then checked element-wise: a member
    of the family is maximal when no excluded vector keeps it in the
    family.
    """
    n = len(X)
    family: dict[frozenset, QVec] = {}

    def explore(members: tuple[int, ...], witness: QVec):
        family[frozenset(members)] = witness
        start = members[-1] + 1 if members else 0
        for j in range(start, n):
            w = _scaled_extension(witness, X[j])
            if w is None:
                res = strict_separator([X[i] for i in members] + [X[j]])
                if res.kind != "separator":
                    continue
                w = res.separator
            explore(members + (j,), w)

    explore((), QVec.zero(X.dim))
    frames = []
    for fs, witness in family.items():
        if not fs:
            if n > 0:
                continue
            frames.append(ConeFrame((), witness))
            continue
        if all(j in fs or fs | {j} not in family for j in range(n)):
            frames.append(ConeFrame(tuple(sorted(fs)), witness))
    frames.sort(key=lambda f: f.members)
    return frames


def _antiparallel(x: QVec, y: QVec) -> bool:
    """Whether y is a negative positive-multiple of x."""
    k = next(i for i, c in enumerate(x) if c != 0)
    if y[k] == 0:
        return False
    alpha = -(y[k] / x[k])
    if alpha <= 0:
        return False
    return y == x.scale(-alpha)


def is_cross(X: VecSet) -> bool:
    """Whether X is a union of opposite-pair simplices over a linear basis."""
    r = X.rank()
    if len(X) != 2 * r:
        return False
    unpaired = set(X.indices())
    reps = []
    while unpaired:
        i = min(unpaired)
        partner = next(
            (j for j in unpaired if j != i and _antiparallel(X[i], X[j])), None
        )
        if partner is None:
            return False
        unpaired -= {i, partner}
        reps.append(i)
    return column_rank(X.columns(reps)) == r


def verify_main_bounds(X: VecSet) -> MainBoundsReport:
    """Counts for a full-dimensional positive basis, with bounds enforced.

    Reports the number of simplices n, the cardinality, and the number of
    maximal pointed frames, and checks 1 <= n <= d, d+1 <= |X| <= 2d and
    d+1 <= frames <= 2^d, with the upper bounds attained exactly on
    crosses and the lower ones exactly on simplices.
    """
    if not is_positive_basis(X):
        raise PreconditionError("set is not a positive basis")
    d = X.dim
    if X.rank() != d:
        raise PreconditionError("positive basis does not span the full space")
    n = len(enumerate_simplices(X))
    card = len(X)
    frames = len(enumerate_mns(X))
    cross = is_cross(X)
    simplex = simplex_structure(X) is not None
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
    positive span contains it.  Each part inherits the frame's separator,
    re-checked strictly against every assigned vector.
    """
    if not is_pss(X):
        raise PreconditionError("set does not positively span its hull")
    d = X.dim
    if X.rank() != d:
        raise PreconditionError("set does not span the full space")
    Y, kept = extract_positive_basis(X)
    frames = enumerate_mns(Y)
    assignment: dict[int, int] = {}
    groups: dict[int, list[int]] = {}
    for i in X.indices():
        target = None
        for k, frame in enumerate(frames):
            if frame.witness.dot(X[i]) <= 0:
                continue  # separator would fail, membership impossible
            sub = Y.matrix(frame.members)
            if solve_nonneg(sub, X[i]).feasible:
                target = k
                break
        if target is None:
            raise PropertyViolation("element escaped every maximal frame")
        assignment[i] = target
        groups.setdefault(target, []).append(i)

    used = sorted(groups)
    parts = []
    part_frames = []
    witnesses = []
    renumber = {}
    for new_k, k in enumerate(used):
        renumber[k] = new_k
        part = tuple(groups[k])
        z = frames[k].witness
        for i in part:
            if z.dot(X[i]) <= 0:
                raise PropertyViolation("part member not strictly separated")
        parts.append(part)
        part_frames.append(frames[k])
        witnesses.append(z)
    assignment = {i: renumber[k] for i, k in assignment.items()}
    if len(parts) > (1 << d):
        raise PropertyViolation("more than 2^d parts")
    return ConeCover(tuple(parts), tuple(part_frames), tuple(witnesses), assignment)


def max_disjoint_family(X: VecSet) -> list[ConeFrame]:
    """A maximal greedy family of frames with low-dimensional overlaps.

    Walks the frames in canonical order and keeps one whenever its
    intersection with every kept frame has rank below the dimension.  Any
    such family has at most 2^d members; the greedy one is a witness and
    the bound is asserted for it.
    """
    if not is_pss(X):
        raise PreconditionError("set does not positively span its hull")
    d = X.dim
    if X.rank() != d:
        raise PreconditionError("set does not span the full space")
    kept: list[ConeFrame] = []
    for frame in enumerate_mns(X):
        ok = True
        for other in kept:
            common = sorted(frame.member_set() & other.member_set())
            if column_rank(X.columns(common)) >= d:
                ok = False
                break
        if ok:
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
    for S, nm in ((X, "first"), (Y, "second")):
        if not is_pss(S) or S.rank() != d:
            raise PreconditionError(f"{nm} set does not positively span the space")

    frames_x = enumerate_mns(X)
    frames_y = enumerate_mns(Y)
    y_members = {f.member_set(): a for a, f in enumerate(frames_y)}
    x_index_of_y = {i: j for j, i in enumerate(y_to_x)}

    traces: list[tuple[int, ...]] = []
    mapping: list[int | None] = []
    for frame in frames_x:
        inter = frozenset(
            x_index_of_y[i] for i in frame.members if i in x_index_of_y
        )
        traces.append(tuple(sorted(inter)))
        mapping.append(y_members.get(inter))
    forward_holds = all(m is not None for m in mapping)

    preimages = []
    for a in range(len(frames_y)):
        pre = tuple(k for k, target in enumerate(mapping) if target == a)
        if not pre:
            raise PropertyViolation(
                "frame of the subset has no preimage; the extension "
                "argument guarantees one"
            )
        preimages.append(pre)

    collisions = []
    full_rank = True
    by_trace: dict[tuple[int, ...], list[int]] = {}
    for k, tr in enumerate(traces):
        by_trace.setdefault(tr, []).append(k)
    for tr in sorted(by_trace):
        group = by_trace[tr]
        for u in range(len(group)):
            for v in range(u + 1, len(group)):
                k1, k2 = group[u], group[v]
                common = sorted(
                    frames_x[k1].member_set() & frames_x[k2].member_set()
                )
                rk = column_rank(X.columns(common))
                if rk != d:
                    full_rank = False
                collisions.append((k1, k2, rk))
    return FrameRestriction(
        tuple(traces),
        tuple(mapping),
        tuple(preimages),
        tuple(collisions),
        forward_holds,
        full_rank,
    )


def composition_inequality_holds(d: int) -> bool:
    """Check prod(k_i) <= 2^(d-n) over all compositions of d into n parts.

    Pure arithmetic companion fact used by the cardinality bound; verified
    by direct enumeration.  Equality holds exactly when every part is 1
    or 2 (k <= 2^(k-1) is an equality for k in {1, 2}); in particular the
    product from parts of a positive basis reaches the bound only through
    parts of size at most two.
    """

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(1, total - parts + 2):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    for n in range(1, d + 1):
        for comp in compositions(d, n):
            prod = 1
            for k in comp:
                prod *= k
            bound = 1 << (d - n)
            if prod > bound:
                return False
            if (prod == bound) != all(k <= 2 for k in comp):
                return False
    return True

"""The three workloads: inputs from the seed, operations, and their checks.

Every workload is a closed loop with one client: the runner issues the next
operation only when the previous one has returned.  An operation is a
closure the runner times; its check judges the output afterwards, outside
the timed region.  The operations of a workload come in passes: the same
list over and over for ``verify_bases`` and ``enumerate_dense``, successive
slices of one long stream for ``query_stream``.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, repeat
from pathlib import Path
from typing import Callable

import checks
import inputs


@dataclass(frozen=True)
class Op:
    """An operation the runner times, and the check that judges its output."""

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    deadline_s: float
    answers_no: bool = False  # a yes/no call whose expected answer is "no"
    q16: bool = False  # input scaled by rationals with 16-bit terms


def _write_input(path: Path, vectors) -> str:
    """Serialise a vector set in the CLI's JSON format, rationals as strings."""
    data = {"dim": len(vectors[0]), "vectors": [[str(Fraction(x)) for x in v] for v in vectors]}
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _cli(pk, argv: list[str]) -> Callable[[], tuple[int, str]]:
    """In-process ``psskit <argv>``; returns (exit code, stdout)."""

    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = pk.cli.main(argv)
        return code, out.getvalue()

    return call


def _vectors(X) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(v.entries) for v in X)


# Generator seed of the ladder's random bases.  The ladder is the same for
# every benchmark seed, which only orders each pass: drawing the bases from
# the seed, or changing their coordinates, moves single verify times by up
# to 25 % (structure and Bland pivot paths), and with 16 verifies a pass
# that moved the tail percentile by 40 % from seed to seed.
LADDER_SEED = 0


def _tail_quantile(ops_per_pass: int, ops_from_top: float) -> float:
    """The percentile that lies ``ops_from_top`` operations below the top.

    In a workload of whole passes over a fixed list, each operation holds
    the same share of the samples, so a percentile sits at a fixed place in
    the list sorted by cost.  Putting it in the middle of one operation's
    samples (a half-integer place) instead of between two operations keeps
    it from jumping between them with the machine's noise.
    """
    return 1 - ops_from_top / ops_per_pass


class VerifyBases:
    """``verify`` over a ladder of full-dimensional positive bases (and x9)."""

    name = "verify_bases"
    # 11 verifies a pass.  The median then sits in the middle of the 6th
    # cheapest one's samples, and the tail in the middle of the 3rd most
    # costly one's: 10 to 15 samples beyond it at the four to six passes
    # of a 30 s run here.
    tail_quantile = _tail_quantile(11, 2.5)
    deadline_s = 60.0

    def __init__(self, pk, seed, workdir: Path):
        # Bases whose verify takes at most about 1.2 s here, so that a run
        # holds several passes and each verify several samples.
        ladder = [
            (f"random d={d} n={n}", pk.random_positive_basis(d, n, LADDER_SEED), n, None)
            for d, n in ((4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3), (6, 1))
        ]
        ladder += [(f"cross d={d}", pk.make_cross(d), d, 2**d) for d in (3, 4)]
        ladder += [(f"simplex d={d}", pk.make_simplex(d), 1, d + 1) for d in (5, 6)]
        inputs.rng_for(seed, "ladder").shuffle(ladder)
        self.pass_ops = [self._op(pk, workdir, *item) for item in ladder]
        self.warmup = [self._op(pk, workdir, "cross d=2", pk.make_cross(2), 2, 4)]
        self.trace_ops = self.pass_ops

    def _op(self, pk, workdir, label, X, simplices, frames) -> Op:
        name = label.replace(" ", "_").replace("=", "")
        return Op(
            f"verify {label}",
            _cli(pk, ["verify", _write_input(workdir / f"{name}.json", _vectors(X))]),
            lambda out: checks.check_verify(out, simplices, frames),
            self.deadline_s,
        )

    def passes(self):
        return repeat(self.pass_ops)


# Dense sets: (dimension, vectors, exact simplex count), drawn once with
# DENSE_SEED.  As for the ladder, the benchmark seed only orders each pass:
# the lattice scan costs about 2^s and the frame walk depends on the
# structure and on the coordinates.
DENSE_SEED = 0
DENSE_TARGETS = ((2, 9, 18), (3, 9, 16), (2, 8, 14), (3, 8, 12))
DENSE_COMMANDS = ("analyze", "simplices", "mns", "lattice")


class EnumerateDense:
    """``analyze``, ``simplices``, ``mns`` and ``lattice`` on sets with many simplices."""

    name = "enumerate_dense"
    # 32 operations a pass; the tail sits in the middle of the 3rd most
    # costly one's samples (analyze on the (3, 9, 16) set here): 10 to 12
    # samples beyond it at the four or five passes of a 30 s run here.
    tail_quantile = _tail_quantile(32, 2.5)
    deadline_s = 20.0

    def __init__(self, pk, seed, workdir: Path):
        self.pk = pk
        items = []
        for d, n, s in DENSE_TARGETS:
            D = inputs.dense_set(DENSE_SEED, d, n, s)
            items.append((f"dense_d{d}_n{n}_s{s}", D.vectors, False, None))
        for k in (3, 4):
            items.append((f"polygon{k}", _vectors(pk.polygon_example(k)), False, 2 * k))
        for d in (3, 4):
            items.append((f"cross{d}", _vectors(pk.make_cross(d)), True, 2**d))
        self.pass_ops = [op for item in items for op in self._ops(workdir, *item)]
        inputs.rng_for(seed, "dense").shuffle(self.pass_ops)
        self.warmup = self._ops(workdir, "cross2", _vectors(pk.make_cross(2)), True, 4)
        self.trace_ops = self.pass_ops

    def _ops(self, workdir, label, vectors, cross, frames) -> list[Op]:
        path = _write_input(workdir / f"{label}.json", vectors)
        simplices = inputs.ref_simplices(vectors)
        size = inputs.ref_lattice_size(simplices)
        judge = {
            "analyze": lambda out: checks.check_analyze(out, vectors, simplices, size, cross, frames),
            "simplices": lambda out: checks.check_simplices(out, vectors, simplices),
            "mns": lambda out: checks.check_mns(out, vectors, frames),
            "lattice": lambda out: checks.check_lattice(out, simplices, size),
        }
        return [
            Op(f"{cmd} {label}", _cli(self.pk, [cmd, path]), judge[cmd], self.deadline_s)
            for cmd in DENSE_COMMANDS
        ]

    def passes(self):
        return repeat(self.pass_ops)


class QueryStream:
    """Single library calls, each on a fresh seeded set of known class."""

    name = "query_stream"
    # Four or five passes of 512 queries fit a 30 s run here: 20 to 25
    # samples beyond p99.
    tail_quantile = 0.99
    deadline_s = 60.0
    # Passes generated in set-up: room for a program about twice as fast as
    # today's before the stream wraps around and repeats its sets.
    stream_passes = 9

    def __init__(self, pk, seed, workdir: Path):
        self.stream = [
            self._op(pk, inputs.make_query(seed, k))
            for k in range(self.stream_passes * inputs.PASS)
        ]
        self.warmup = [self._op(pk, inputs.make_query(f"{seed}-warmup", k)) for k in range(8)]
        self.trace_ops = self.stream[: inputs.PASS]

    def _op(self, pk, q: inputs.Query) -> Op:
        X = pk.VecSet(q.dim, q.vectors)
        fn_name = q.call
        if q.call in ("caratheodory_reduce", "skeleton_contains"):
            args = (pk.QVec(q.point), X)
        elif q.call == "solve_nonneg":
            args = (X.matrix(), pk.QVec(q.point))
        elif q.call == "rank":
            args = (X.matrix(q.columns),)
        else:
            args = (X,)

        def call():
            return getattr(pk, fn_name)(*args)

        return Op(
            f"{q.call} {q.cls} d={q.dim} n={len(q.vectors)} {q.kind}",
            call,
            lambda out: checks.check_query(q, out),
            self.deadline_s,
            answers_no=q.expected is False,
            q16=q.kind == "q16",
        )

    def passes(self):
        for start in count(0, inputs.PASS):
            start %= len(self.stream)
            yield self.stream[start : start + inputs.PASS]


WORKLOADS = {w.name: w for w in (VerifyBases, QueryStream, EnumerateDense)}

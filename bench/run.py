"""psskit benchmark runner.

    python3 bench/run.py --workload verify_bases --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from the seed, times operations in whole
passes for up to ``--seconds`` seconds, checks every output afterwards and
prints a summary followed, on the last line, by one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` one fixed pass runs
untraced and then traced, and the metrics are the per-layer ones derived
from the spans.  End-to-end times are in reference seconds: wall time
scaled by the host's speed, sampled through each operation (see
hostspeed.py); the summary also prints the wall-clock figures.  See
bench/README.md for the metrics and workloads.
"""

import argparse
import gc
import importlib
import json
import math
import resource
import signal
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import hostspeed

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_ROUNDS = 3

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class DeadlineExceeded(Exception):
    """An operation ran past its workload's per-operation deadline."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


@dataclass
class Record:
    label: str
    latency_s: float
    status: str  # "ok", "deadline", "raised ...", or why the check failed
    wrong: bool  # the output contradicts its check (not merely a failure)
    output_bytes: int
    answers_no: bool
    q16: bool


def load_psskit():
    """Import psskit afresh from this checkout's src/ directory."""
    src = ROOT / "src"
    if not (src / "psskit" / "__init__.py").is_file():
        raise SystemExit(f"error: no psskit sources under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "psskit" or m.startswith("psskit.")]:
        del sys.modules[name]
    pk = importlib.import_module("psskit")
    importlib.import_module("psskit.cli")
    if Path(pk.__file__).resolve().parent != (src / "psskit").resolve():
        raise SystemExit(f"error: imported psskit from {pk.__file__}, not {src}")
    return pk


def execute(op) -> tuple[object, str, float]:
    """Run one operation under its deadline: (output, status, seconds)."""
    t0 = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
        try:
            out = op.call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "ok"
    except DeadlineExceeded:
        out, status = None, "deadline"
    except Exception as exc:  # the run goes on; the failure is counted
        out, status = None, f"raised {type(exc).__name__}: {exc}"
    return out, status, perf_counter() - t0


def judge(op, out, status, latency) -> Record:
    """Check an output after timing; a failed check becomes the status."""
    size, wrong = 0, False
    if status == "ok":
        try:
            reason = op.check(out)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            reason = f"malformed output: {exc!r}"
        if reason:
            status, wrong = reason, not isinstance(reason, checks.Refused)
        if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], str):
            size = len(out[1].encode())
    return Record(op.label, latency, status, wrong, size, op.answers_no, op.q16)


def run_ops(ops) -> tuple[list[Record], float]:
    start = perf_counter()
    timed = [(op, *execute(op)) for op in ops]
    elapsed = perf_counter() - start
    return [judge(op, out, status, dt) for op, out, status, dt in timed], elapsed


def set_up(workload_cls, seed):
    """One full set-up: import, inputs, serialisation and warm-up.

    Returns its time in reference seconds (see hostspeed.py), the workload
    and the warm-up records.
    """
    clock = hostspeed.HostClock()
    clock.start()
    try:
        t0 = perf_counter()
        pk = load_psskit()
        workdir = WORK / workload_cls.name
        workdir.mkdir(parents=True, exist_ok=True)
        workload = workload_cls(pk, seed, workdir)
        warm, _ = run_ops(workload.warmup)
        t1 = perf_counter()
    finally:
        clock.stop()
    return clock.scaled(t0, t1), workload, warm


def timed_passes(workload, seconds: float) -> tuple[list, int, float, hostspeed.HostClock]:
    """Whole passes while at least half of the next is expected to fit in ``seconds``.

    Whole passes keep every operation's share of the samples fixed, so
    percentiles do not depend on where a run happened to stop.  The run
    holds ``seconds`` divided by the pass time, rounded to the nearest
    whole pass, so it ends within half a pass of ``seconds``.  Returns the
    timed operations with the ``perf_counter()`` readings around each, the
    number of passes, the elapsed wall time and the clock that scales them.
    """
    clock = hostspeed.HostClock()
    clock.start()
    try:
        timed, passes = [], 0
        start = perf_counter()
        last = 0.0
        for ops in workload.passes():
            if passes and perf_counter() - start + last / 2 > seconds:
                break
            p0 = perf_counter()
            for op in ops:
                t0 = perf_counter()
                out, status, _ = execute(op)
                timed.append((op, out, status, t0, perf_counter()))
            last = perf_counter() - p0
            passes += 1
        elapsed = perf_counter() - start
    finally:
        clock.stop()
    return timed, passes, elapsed, clock


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(workload_cls, seed, seconds: float, setup_times, workload):
    timed, passes, elapsed, clock = timed_passes(workload, seconds)
    records = [judge(op, out, status, clock.scaled(t0, t1)) for op, out, status, t0, t1 in timed]
    ok = sum(r.status == "ok" for r in records)
    # A failed operation misses every latency limit.
    lat = sorted(r.latency_s * 1e3 if r.status == "ok" else math.inf for r in records)
    wall = [t1 - t0 for _, _, _, t0, t1 in timed]
    wall_lat = sorted(dt * 1e3 if r.status == "ok" else math.inf for r, dt in zip(records, wall))
    n = len(lat)
    q = workload_cls.tail_quantile
    beyond = n - math.ceil(q * n)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ok / sum(r.latency_s for r in records),
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": nearest_rank(lat, q),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(
        f"{workload_cls.name} seed={seed}: {passes} passes, {n} ops in {elapsed:.2f} s; "
        f"tail is p{100 * q:.1f} with {beyond} of {n} samples beyond; "
        f"fail_ratio={(n - ok) / n:.4f}; {answer_shares(records)}"
    )
    print(
        f"host slowness {statistics.median(c[2] for c in clock.calibrations):.2f} "
        f"(median of {len(clock.calibrations)} calibrations); "
        f"wall clock: ops_per_s={ok / sum(wall):.4g} "
        f"latency_p50_ms={statistics.median(wall_lat):.4g} latency_tail_ms={nearest_rank(wall_lat, q):.4g}"
    )
    return records, values


def answer_shares(records) -> str:
    no = sum(r.answers_no for r in records)
    q16 = sum(r.q16 for r in records)
    return f"no answers {no}/{len(records)}, 16-bit inputs {q16}/{len(records)}"


def traced(ops, spans_path: Path):
    """Run ``ops`` untraced, then traced: (records of both, per-layer values)."""
    from tracing import Tracer

    plain, t_plain = run_ops(ops)
    gc.collect()
    tracer = Tracer()
    tracer.install()
    try:
        timed = []
        start = perf_counter()
        for i, op in enumerate(ops):
            tracer.op_id = i
            timed.append((op, *execute(op)))
        t_traced = perf_counter() - start
    finally:
        tracer.uninstall()
    records = [judge(op, out, status, dt) for op, out, status, dt in timed]
    tracer.write(spans_path)
    values = tracer.layer_metrics()
    values["cli.output_bytes"] = sum(r.output_bytes for r in records)
    values["trace_overhead"] = t_plain / t_traced
    print(
        f"traced {len(ops)} ops, {len(tracer.start)} spans in {spans_path.name}; "
        f"untraced {t_plain:.2f} s, traced {t_traced:.2f} s"
    )
    return plain + records, values


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload_cls = workloads.WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)
    setup_times, workload, warm = [], None, []
    for _ in range(SETUP_ROUNDS):
        # Every round starts from the same heap: the last round's workload
        # would otherwise lengthen the garbage collector's passes.
        workload = warm = None
        gc.collect()
        dt, workload, warm = set_up(workload_cls, args.seed)
        setup_times.append(dt)
    gc.collect()  # set-up garbage is not the timed operations' cost
    bad_warm = [r for r in warm if r.status != "ok"]
    if bad_warm:
        print(f"warm-up failed: {bad_warm[0].label}: {bad_warm[0].status}", file=sys.stderr)
        return 1

    if args.trace:
        records, values = traced(workload.trace_ops, WORK / f"spans-{workload_cls.name}.tsv")
        units = layer_units()
    else:
        records, values = end_to_end(workload_cls, args.seed, args.seconds, setup_times, workload)
        units = END_TO_END
    failed = [r for r in records if r.status != "ok"]
    for r in failed[:5]:
        print(f"failed: {r.label}: {r.status}")
    for name, unit in units.items():
        print(f"  {name:42s} {values[name]:14.6g} {unit}")
    result = {
        "correct": not any(r.wrong for r in records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def layer_units() -> dict[str, str]:
    units = {
        "ratlin.lp_calls": "count",
        "ratlin.lp_self_s": "s",
        "ratlin.lp_no_ratio": "ratio",
        "ratlin.elim_calls": "count",
        "ratlin.elim_self_s": "s",
        "ratlin.max_bits": "bits",
        "ratlin.errors": "count",
        "spanset.calls": "count",
        "spanset.self_s": "s",
        "spanset.is_pss_calls": "count",
        "spanset.skeleton_self_s": "s",
        "simplicial.enum_calls": "count",
        "simplicial.enum_self_s": "s",
        "simplicial.elim_per_simplex": "ratio",
        "simplicial.factorization_calls": "count",
        "simplicial.factorization_self_s": "s",
        "simplicial.decomp_self_s": "s",
        "latticemod.build_calls": "count",
        "latticemod.build_self_s": "s",
        "latticemod.us_per_element": "us",
        "conical.mns_calls": "count",
        "conical.mns_self_s": "s",
        "conical.frame_yield": "ratio",
        "conical.cover_self_s": "s",
        "gale.calls": "count",
        "gale.self_s": "s",
        "suite.self_s": "s",
    }
    for check in checks.SUITE_CHECKS.values():
        units[f"suite.check_s.{check}"] = "s"
    units.update({"cli.parse_s": "s", "cli.self_s": "s", "cli.output_bytes": "bytes"})
    units["trace_overhead"] = "ratio"
    return units


if __name__ == "__main__":
    sys.exit(main())

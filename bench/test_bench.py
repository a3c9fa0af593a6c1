"""Self-tests of the benchmark.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import signal
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import pytest

import hostspeed
import inputs
import run
import workloads

SEED = 3


@pytest.fixture(scope="module")
def pk():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield run.load_psskit()
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def built(pk, tmp_path_factory):
    root = tmp_path_factory.mktemp("work")
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        (root / name).mkdir()
        out[name] = cls(pk, SEED, root / name)
    return out


def _small_ops(built):
    """A cheap, fixed op list touching every workload."""
    verify = [op for op in built["verify_bases"].pass_ops if op.label in ("verify cross d=3", "verify random d=4 n=1")]
    dense = [op for op in built["enumerate_dense"].pass_ops if "cross3" in op.label or "s12" in op.label]
    return verify + dense + built["query_stream"].stream[:48]


COUNTERS = ("count", "bits", "bytes")


def test_traced_counters_repeat(built, tmp_path):
    units = run.layer_units()
    first_records, first = run.traced(_small_ops(built), tmp_path / "a.tsv")
    second_records, second = run.traced(_small_ops(built), tmp_path / "b.tsv")
    assert all(r.status == "ok" for r in first_records + second_records)
    exact = [k for k, u in units.items() if u in COUNTERS] + [
        "ratlin.lp_no_ratio",
        "simplicial.elim_per_simplex",
        "conical.frame_yield",
    ]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    assert first["ratlin.lp_calls"] > 0 and first["simplicial.enum_calls"] > 0
    assert first["suite.check_s.cardinality_bounds"] > 0
    assert set(first) == set(units)
    header, *lines = (tmp_path / "a.tsv").read_text().splitlines()
    assert header.split("\t") == ["span", "name", "start_ns", "end_ns", "parent", "op"]
    assert len(lines) > 100


def test_second_seed_changes_inputs_not_mix(pk, tmp_path):
    a = [inputs.make_query(1, k) for k in range(200)]
    b = [inputs.make_query(2, k) for k in range(200)]
    mix = lambda qs: [(q.call, q.kind, q.cls, q.dim, len(q.vectors), type(q.expected)) for q in qs]
    assert mix(a) == mix(b)
    assert sum(x.vectors != y.vectors for x, y in zip(a, b)) > 190
    no = [q.expected is False for q in a if isinstance(q.expected, bool)]
    assert 0.4 < sum(no) / len(no) < 0.6
    assert sum(q.kind == "q16" for q in a) / len(a) == pytest.approx(0.5, abs=0.1)
    for cls in (workloads.VerifyBases, workloads.EnumerateDense):
        orders = [[op.label for op in cls(pk, seed, tmp_path).pass_ops] for seed in (1, 2)]
        assert orders[0] != orders[1] and sorted(orders[0]) == sorted(orders[1])


def test_query_classes_hold(pk):
    """The by-construction classes agree with psskit on a sample."""
    for k in range(0, 96, 5):
        q = inputs.make_query(SEED, k)
        X = pk.VecSet(q.dim, q.vectors)
        assert max(abs(Fraction(x)) for v in q.vectors for x in v) <= 4 or q.kind == "q16"
        assert pk.is_pss(X) is (q.cls in (inputs.BASIS, inputs.BASIS_PLUS))
        assert pk.is_positive_basis(X) is (q.cls == inputs.BASIS)
        assert pk.positively_dependent(X).verdict is (q.cls in (inputs.BASIS_PLUS, inputs.POINTED_PLUS))
        assert X.rank() == q.dim


def test_reference_simplices_agree(pk):
    for d, n, s in workloads.DENSE_TARGETS[2:]:
        D = inputs.dense_set(SEED, d, n, s)
        X = pk.VecSet(d, D.vectors)
        assert [t.members for t in pk.enumerate_simplices(X)] == list(D.simplices)
        assert len(pk.build_lattice(X)) == D.lattice_size


def _output(op):
    out, status, _ = run.execute(op)
    assert status == "ok" and op.check(out) is None
    return out


def _retext(out, edit):
    code, text = out
    report = json.loads(text)
    edit(report)
    return code, json.dumps(report)


def test_checker_rejects_tampered_certificates(built):
    dense = {op.label: op for op in built["enumerate_dense"].pass_ops}

    mns = dense["mns cross3"]
    out = _output(mns)
    bad = _retext(out, lambda r: r["frames"][0]["witness"].__setitem__(0, "0"))
    assert mns.check(bad)

    simplices = dense["simplices cross3"]
    out = _output(simplices)
    bad = _retext(out, lambda r: r["simplices"][0]["dependency"].__setitem__("0", "2"))
    assert simplices.check(bad)

    lattice = dense["lattice cross3"]
    out = _output(lattice)
    bad = _retext(out, lambda r: r["elements"][-1]["simplices"].pop())
    assert lattice.check(bad)

    verify = next(op for op in built["verify_bases"].pass_ops if op.label == "verify cross d=3")
    out = _output(verify)
    assert verify.check((1, out[1]))
    assert verify.check(_retext(out, lambda r: r.__setitem__("passed", False)))
    assert run.judge(verify, (0, '{"command": "verify"}'), "ok", 0.1).wrong

    queries = built["query_stream"].stream
    sep = next(op for op in queries if op.label.startswith("negatively_independent pointed"))
    result = _output(sep)
    flipped = SimpleNamespace(kind="separator", separator=result.separator.scale(-1))
    assert sep.check(flipped)

    dep = next(op for op in queries if op.label.startswith("positively_dependent basis+extra"))
    result = _output(dep)
    coeffs = dict(result.witness_coeffs)
    key = next(k for k, c in coeffs.items() if c)
    coeffs[key] += 1
    assert dep.check(replace(result, witness_coeffs=coeffs))

    car = next(op for op in queries if op.label.startswith("caratheodory_reduce"))
    result = _output(car)
    coeffs = {i: c * 2 for i, c in result.coeffs.items()}
    assert car.check(replace(result, coeffs=coeffs))


def test_deadline_stops_a_hung_operation():
    def spin():
        while True:
            pass

    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        op = workloads.Op("spin", spin, lambda out: None, 0.2)
        out, status, seconds = run.execute(op)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert status == "deadline" and out is None and 0.2 <= seconds < 2


def test_clock_scales_each_gap_between_calibrations():
    clock = hostspeed.HostClock()
    clock.calibrations = [(0.0, 1.0, 1.0), (2.0, 3.0, 3.0), (4.0, 5.0, 1.0)]
    clock._ends = [1.0, 3.0, 5.0]
    # 0.5 s before and 1 s after the middle calibration, each at slowness 2;
    # the calibration's own second counts as no time.
    assert clock.scaled(1.5, 4.0) == pytest.approx(0.75)
    assert clock.scaled(3.0, 3.5) == pytest.approx(0.25)


def test_clock_calibrates_during_work():
    clock = hostspeed.HostClock()
    clock.start()
    t0 = perf_counter()
    while perf_counter() - t0 < 10 * hostspeed.EVERY_S:
        pass
    t1 = perf_counter()
    clock.stop()
    assert len(clock.calibrations) > 4  # the profiling timer fired
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL
    assert 0 < clock.scaled(t0, t1) < 10 * (t1 - t0)


def test_metric_tables_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_every_workload_warms_up():
    # Last: set-up re-imports psskit, which would strand the modules the
    # ops built above hold.
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        for cls in workloads.WORKLOADS.values():
            seconds, workload, warm = run.set_up(cls, SEED)
            assert warm and all(r.status == "ok" for r in warm), cls.name
            assert seconds > 0
    finally:
        signal.signal(signal.SIGALRM, previous)

"""Self-tests of the benchmark harness.

Run from the root of a checkout:  python3 -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# -- percentile rule ---------------------------------------------------
def test_percentile_is_nearest_rank():
    data = [5, 1, 4, 2, 3, 10, 9, 8, 7, 6]
    assert measure.percentile(data, 50) == 5
    assert measure.percentile(data, 90) == 9
    assert measure.percentile(data, 91) == 10
    assert measure.percentile(data, 100) == 10
    assert measure.percentile([3.5], 90) == 3.5


def test_end_to_end_takes_each_op_at_its_median():
    script = {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4, "e": 1.0}
    loop = measure.Loop(passes=3)
    for p in range(3):
        for name, seconds in script.items():
            stalled = seconds * (10 if (p, name) == (1, "b") else 1)
            loop.results.append(measure.OpResult(name, stalled, True, rows=100))
    e2e = measure.end_to_end(loop)
    assert e2e["op_p50_s"] == 0.3
    assert e2e["op_p90_s"] == 1.0
    assert e2e["ops_per_s"] == pytest.approx(5 / 2.0)
    assert e2e["rows_per_s"] == pytest.approx(500 / 2.0)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        measure.percentile([], 50)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 0)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 101)


# -- self time ---------------------------------------------------------
class Clock:
    def __init__(self, times):
        self._times = iter(times)

    def __call__(self):
        return next(self._times)


def nested_trace():
    # op [0, 10] > main [1, 9] > read_spectrum [2, 5] > read_table [3, 4]
    #                          > hilbert_transform [6, 8]
    tracer = spans.Tracer(Clock([0, 1, 2, 3, 4, 5, 6, 8, 9, 10]))
    op = tracer.open("extract", "bench")
    main = tracer.open("main", "cli")
    outer = tracer.open("read_spectrum", "fileio")
    inner = tracer.open("read_table", "fileio")
    tracer.close(inner)
    tracer.close(outer)
    hilbert = tracer.open("hilbert_transform", "dispersion")
    tracer.close(hilbert)
    tracer.close(main)
    tracer.close(op)
    return tracer


def test_self_time_subtracts_direct_children_only():
    tracer = nested_trace()
    assert spans.self_times(tracer.spans) == [2, 3, 2, 1, 2]
    assert [s[4] for s in tracer.spans] == [-1, 0, 1, 2, 1]


def test_layer_self_time_and_shares():
    m = spans.layer_metrics(nested_trace().spans, passes=1, op_seconds=10.0)
    assert m["cli.self_s"] == 3 and m["cli.main_self_s"] == 3
    assert m["fileio.self_s"] == 3
    assert m["fileio.read_s"] == 3  # the outer reader only, not both
    assert m["dispersion.self_s"] == 2 and m["dispersion.share"] == pytest.approx(0.2)
    assert m["dispersion.hilbert_calls"] == 1
    assert m["ops.unattributed_s"] == 2


def test_layer_metrics_are_per_pass():
    one = spans.layer_metrics(nested_trace().spans, passes=1, op_seconds=10.0)
    two = spans.layer_metrics(nested_trace().spans, passes=2, op_seconds=5.0)
    assert two["fileio.self_s"] == one["fileio.self_s"] / 2
    assert two["fileio.share"] == one["fileio.share"]


def test_spans_must_close_in_order():
    tracer = spans.Tracer(Clock(range(10)))
    outer = tracer.open("a", "core")
    tracer.open("b", "core")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_wrappers_count_rows_once_and_restore_originals(tmp_path):
    import tauspec.cli  # noqa: F401
    from tauspec import fileio

    path = tmp_path / "s.csv"
    x = np.linspace(1.0, 2.0, 7)
    workloads.write_csv(path, workloads.SPECTRUM_HEADER, [x, x, -x])
    original = fileio.read_spectrum
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert fileio.read_spectrum is not original
        fileio.read_spectrum(str(path))
    finally:
        tracer.uninstall()
    assert fileio.read_spectrum is original
    names = [s[0] for s in tracer.spans]
    assert "read_spectrum" in names and "read_table" in names
    m = spans.layer_metrics(tracer.spans, passes=1, op_seconds=1.0)
    assert m["fileio.read_rows"] == 7
    assert m["fileio.read_mb"] == path.stat().st_size / 1e6


# -- inputs ------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(tmp_path, name):
    build, _ = workloads.WORKLOADS[name]

    def digest(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        args = (d, seed, None) if name == "cli_session" else (d, seed)
        return build(*args).inputs_digest

    first, again, other = digest(7, "a"), digest(7, "b"), digest(8, "c")
    assert first == again
    assert first != other


# -- failures ----------------------------------------------------------
def test_failed_ops_are_counted_never_dropped():
    state = {"n": 0}

    def drifting():
        state["n"] += 1
        return state["n"]

    def wrong(_):
        raise measure.CheckFailed("wrong output")

    ops = [
        measure.Op("fine", lambda: 1, lambda out: "same", rows_read=10),
        measure.Op("raises", lambda: 1 / 0, lambda out: "x"),
        measure.Op("bad_output", lambda: 1, wrong),
        measure.Op("drifts", drifting, str),
    ]
    loop = measure.run_loop(ops, 0.0, {})
    assert loop.passes == measure.MIN_PASSES == 3
    assert [r.name for r in loop.results] == [op.name for op in ops] * 3
    e2e = measure.end_to_end(loop)
    # raises and bad_output fail on every pass; drifts fails on the
    # passes whose output differs from its first
    assert (e2e["attempted"], e2e["failed"]) == (12, 8)
    assert e2e["failed_ops_ratio"] == pytest.approx(8 / 12)
    assert e2e["ok_ops_ratio"] == pytest.approx(4 / 12)


def test_checks_reject_wrong_outputs(tmp_path):
    with pytest.raises(measure.CheckFailed):
        workloads.check_kk_text("# tauspec:kk v1\nnodes=5\nresidual_max=5.0e-01\n", 5)
    energies = np.linspace(0.5, 2.5, 11)
    table = tmp_path / "b.csv"
    trans = workloads.barrier_transmission(energies, 2.0, 1.0)
    cols = [energies, trans * 1.001, energies, energies, energies]
    workloads.write_csv(table, "energy,transmission,phase,tau1,tau2", cols)
    with pytest.raises(measure.CheckFailed):
        workloads.check_barrier_file(table, energies, 2.0, 1.0)
    cols[1] = trans
    workloads.write_csv(table, "energy,transmission,phase,tau1,tau2", cols)
    workloads.check_barrier_file(table, energies, 2.0, 1.0)


# -- BENCHMARK.json agrees with the code ---------------------------------
def test_benchmark_json_matches_reported_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    traced = spans.layer_metrics(nested_trace().spans, passes=1, op_seconds=10.0)
    names = list(traced) + list(run.TRACE_OVERHEAD)
    assert [m["name"] for m in doc["per_layer"]] == names
    assert all(m["unit"] == spans.unit_of(m["name"]) for m in doc["per_layer"])

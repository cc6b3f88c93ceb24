"""The aggregation of scripts/bench_snapshot.py, on synthetic run records."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bench_snapshot",
                                               ROOT / "scripts" / "bench_snapshot.py")
bench_snapshot = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_snapshot)


def run(seed, ops, correct=True, op_median_s=None, **extra):
    return {"seed": seed, "correct": correct, "attempted": 10, "failed": 0 if correct else 1,
            "replace_existing_4m_s": 1e-3 * seed, "op_median_s": op_median_s or {"a": 1 / ops},
            "metrics": {"ops_per_s": ops, **extra}}


def test_median_and_quartiles_over_the_runs():
    runs = [run(seed, ops) for seed, ops in zip(range(1, 6), [5.0, 1.0, 4.0, 2.0, 3.0])]
    record = bench_snapshot.summarise(runs)
    assert record["metrics"] == {"ops_per_s": {"q1": 2.0, "median": 3.0, "q3": 4.0}}
    assert [r["seed"] for r in record["runs"]] == [1, 2, 3, 4, 5]


def test_quartiles_interpolate_between_runs():
    assert bench_snapshot.quartiles([1.0, 2.0, 3.0, 4.0]) == pytest.approx(
        {"q1": 1.75, "median": 2.5, "q3": 3.25})


def test_one_run_is_its_own_median_and_quartiles():
    assert bench_snapshot.quartiles([7.5]) == {"q1": 7.5, "median": 7.5, "q3": 7.5}


def test_failed_runs_are_kept_and_a_missing_metric_is_skipped():
    runs = [run(1, 2.0, rows_per_s=10.0), run(2, 4.0, correct=False)]
    record = bench_snapshot.summarise(runs)
    assert record["runs"][1] == {"seed": 2, "correct": False, "attempted": 10, "failed": 1,
                                 "replace_existing_4m_s": 2e-3, "op_median_s": {"a": 0.25}}
    assert record["metrics"]["ops_per_s"]["median"] == 3.0
    assert record["metrics"]["rows_per_s"] == {"q1": 10.0, "median": 10.0, "q3": 10.0}


def test_calibration_times_a_rename_over_an_existing_file(tmp_path):
    timings = bench_snapshot.calibrate(tmp_path)
    assert set(timings) == {"fft_2e20_complex_s", "python_loop_1e6_s",
                            "python_import_numpy_s", "replace_existing_4m_s"}
    assert all(value > 0 for value in timings.values())
    assert list((tmp_path / ".bench_work").iterdir()) == []


def test_numpy_import_time_is_the_median_of_seven_fresh_processes(monkeypatch):
    commands = []
    monkeypatch.setattr(bench_snapshot.subprocess, "run",
                        lambda argv, **options: commands.append((argv, options)))
    monkeypatch.setattr(bench_snapshot, "_times", lambda func, repeats=7: [
        func() or t for t in (5.0, 1.0, 4.0, 2.0, 3.0, 7.0, 6.0)[:repeats]])
    assert bench_snapshot.import_numpy_time() == 4.0
    assert commands == [([sys.executable, "-c", "import numpy"], {"check": True})] * 7


BETTER = {"ops_per_s": "higher", "op_p50_s": "lower"}


def test_pairs_won_count_the_better_side_and_no_ties():
    change = [run(1, 5.0, op_p50_s=0.1), run(2, 3.0, op_p50_s=0.3), run(3, 4.0)]
    parent = [run(1, 4.0, op_p50_s=0.2), run(2, 3.0, op_p50_s=0.2), run(3, 5.0, op_p50_s=0.1)]
    assert bench_snapshot.pairs_won(change, parent, BETTER) == {"ops_per_s": 1, "op_p50_s": 1}


def test_table_reads_parent_to_change():
    change = [run(seed, ops) for seed, ops in zip((11, 12, 13), [30.0, 33.0, 32.0])]
    parent = [run(seed, ops) for seed, ops in zip((11, 12, 13), [6.0, 5.0, 7.0])]
    lines = bench_snapshot.table("bulk_tables", change, parent, BETTER)
    assert lines == [
        "bulk_tables (3 pairs, all correct: True, failed ops: 0)",
        "  ops_per_s: 6 [5.5, 6.5] -> 32 (+433.3%, 3/3)",
        "  seed 11: ops_per_s 6 -> 30, replace_existing_4m_s 0.011 -> 0.011",
        "  seed 12: ops_per_s 5 -> 33, replace_existing_4m_s 0.012 -> 0.012",
        "  seed 13: ops_per_s 7 -> 32, replace_existing_4m_s 0.013 -> 0.013",
    ]


def test_op_table_reads_each_op_parent_to_change():
    """Per op, in script order: the parent's median [quartiles] of its runs'
    op medians -> the change's median, and the pairs in which the change's
    op was faster; an op that only one side ran gets no row."""
    parent = [run(seed, 1.0, op_median_s={"kk": kk, "tau": tau, "gone": 1.0})
              for seed, kk, tau in ((1, 0.06, 0.03), (2, 0.07, 0.029), (3, 0.05, 0.031))]
    change = [run(seed, 1.0, op_median_s={"kk": kk, "tau": tau, "new": 1.0})
              for seed, kk, tau in ((1, 0.07, 0.011), (2, 0.06, 0.012), (3, 0.05, 0.01))]
    assert bench_snapshot.op_table(change, parent) == [
        "  op median times (s):",
        "    kk: 0.06 [0.055, 0.065] -> 0.06 (+0.0%, 1/3)",
        "    tau: 0.03 [0.0295, 0.0305] -> 0.011 (-63.3%, 3/3)",
    ]


def test_against_alternates_the_trees_and_records_both(tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": [{"name": name, "better": better, "bound": 0.25}
                                          for name, better in BETTER.items()]}))
    order = []

    def fake_run(checkout, workload, seed, seconds):
        order.append((workload, seed, checkout.name))
        ops = {"new": 2.0, "old": 1.0}[checkout.name] * seed
        return {"python": "3", "src_digest": checkout.name}, run(seed, ops)

    monkeypatch.setattr(bench_snapshot, "ROOT", tmp_path)
    monkeypatch.setattr(bench_snapshot, "WORKLOADS", ("w",))
    monkeypatch.setattr(bench_snapshot, "bench_run", fake_run)
    monkeypatch.setattr(bench_snapshot, "calibrate", lambda checkout: {})
    monkeypatch.setattr(bench_snapshot, "commit_of", lambda checkout: checkout.name * 2)
    assert bench_snapshot.main(["9", "--checkout", str(tmp_path / "new"), "--against",
                                str(tmp_path / "old"), "--seeds", "21", "22", "23"]) == 0
    assert order == [("w", 21, "old"), ("w", 21, "new"), ("w", 22, "new"),
                     ("w", 22, "old"), ("w", 23, "old"), ("w", 23, "new")]
    snapshot = json.loads((tmp_path / "BENCH_9.json").read_text())
    assert (snapshot["commit"], snapshot["src_digest"], snapshot["seeds"]) == (
        "newnew", "new", [21, 22, 23])
    against = snapshot["against"]
    assert (against["commit"], against["src_digest"]) == ("oldold", "old")
    assert against["workloads"]["w"]["pairs_won"] == {"ops_per_s": 3, "op_p50_s": 0}
    assert against["workloads"]["w"]["metrics"]["ops_per_s"]["median"] == 22.0
    assert snapshot["workloads"]["w"]["metrics"]["ops_per_s"]["median"] == 44.0
    out = capsys.readouterr().out
    assert "  ops_per_s: 22 [21.5, 22.5] -> 44 (+100.0%, 3/3)" in out
    # 3 pairs won of 3, medians apart by more than [21.5, 22.5]; op_p50_s
    # is in no run, so it gets no verdict
    assert "  verdicts: ops_per_s gain\n" in out
    assert ("  op median times (s):\n"
            "    a: 0.04545 [0.04447, 0.04654] -> 0.02273 (-50.0%, 3/3)\n") in out
    assert snapshot["workloads"]["w"]["runs"][0]["op_median_s"] == {"a": 1 / 42}
    assert against["workloads"]["w"]["verdicts"] == {"ops_per_s": "gain"}


def test_seeds_need_a_comparison(capsys):
    with pytest.raises(SystemExit) as info:
        bench_snapshot.main(["9", "--seeds", "21"])
    assert info.value.code == 2
    assert "--seeds needs --against" in capsys.readouterr().err


def test_each_run_starts_without_a_bytecode_cache(tmp_path, monkeypatch):
    cache = tmp_path / "src" / "tauspec" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "cli.cpython-311.pyc").write_bytes(b"")
    result = {"correct": True, "attempted": 1, "failed": 0,
              "metrics": {"ops_per_s": {"value": 1.0}}}

    def fake_subprocess(argv, cwd, **options):
        assert not cache.exists()
        results = cwd / ".bench_work" / "results"
        results.mkdir(parents=True)
        (results / "w-seed1-trace0.json").write_text(json.dumps({"op_median_s": {"op": 0.5}}))
        return subprocess.CompletedProcess(argv, 0, 'env {"src_digest": "x"}\n'
                                           + json.dumps(result) + "\n", "")

    monkeypatch.setattr(bench_snapshot, "replace_time", lambda checkout: 0.1)
    monkeypatch.setattr(bench_snapshot.subprocess, "run", fake_subprocess)
    env, record = bench_snapshot.bench_run(tmp_path, "w", 1, 1.0)
    assert env == {"src_digest": "x"}
    assert record["metrics"] == {"ops_per_s": 1.0}
    assert record["op_median_s"] == {"op": 0.5}


def quart(q1, median, q3):
    return {"q1": q1, "median": median, "q3": q3}


@pytest.mark.parametrize("new, old, won, better, said", [
    # 9 pairs of 10 and medians apart by more than the parent's spread
    (quart(0, 85.0, 0), quart(78.0, 80.0, 81.0), 9, "higher", "gain"),
    (quart(0, 0.09, 0), quart(0.095, 0.1, 0.102), 10, "lower", "gain"),
    # 8 pairs of 10 are not enough, nor is a gap inside the spread
    (quart(0, 85.0, 0), quart(78.0, 80.0, 81.0), 8, "higher", "within bound"),
    (quart(0, 85.0, 0), quart(75.0, 80.0, 86.0), 10, "higher", "within bound"),
    # beyond the bound of 0.25, in the worse direction
    (quart(0, 59.0, 0), quart(79.0, 80.0, 81.0), 0, "higher", "worse"),
    (quart(0, 0.13, 0), quart(0.099, 0.1, 0.101), 0, "lower", "worse"),
    (quart(0, 61.0, 0), quart(79.0, 80.0, 81.0), 0, "higher", "within bound"),
    # a parent spread wider than the bound, and runs that do not separate
    (quart(0, 4.0, 0), quart(3.5, 4.5, 6.1), 4, "higher", "unresolved"),
    (quart(0, 3.2, 0), quart(3.5, 4.5, 6.1), 2, "higher", "unresolved"),
    # ... while runs that do separate are judged
    (quart(0, 1.5, 0), quart(3.5, 4.5, 6.1), 0, "higher", "worse"),
    (quart(0, 9.0, 0), quart(3.5, 4.5, 6.1), 10, "higher", "gain"),
])
def test_verdict_per_metric(new, old, won, better, said):
    assert bench_snapshot.verdict(new, old, won, 10, better, 0.25) == said


def test_verdicts_judge_each_metric_both_sides_report():
    metrics = {"ops_per_s": {"better": "higher", "bound": 0.25},
               "op_p50_s": {"better": "lower", "bound": 0.25},
               "rows_per_s": {"better": "higher", "bound": 0.25}}
    change = [run(seed, 90.0 + seed, op_p50_s=0.1) for seed in range(10)]
    parent = [run(seed, 80.0 + seed % 2, op_p50_s=0.1) for seed in range(10)]
    assert bench_snapshot.verdicts(change, parent, metrics) == {
        "ops_per_s": "gain", "op_p50_s": "within bound"}

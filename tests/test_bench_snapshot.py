"""The aggregation of scripts/bench_snapshot.py, on synthetic run records."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("bench_snapshot",
                                               ROOT / "scripts" / "bench_snapshot.py")
bench_snapshot = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_snapshot)


def run(seed, ops, correct=True, **extra):
    return {"seed": seed, "correct": correct, "attempted": 10, "failed": 0 if correct else 1,
            "replace_existing_4m_s": 1e-3 * seed, "metrics": {"ops_per_s": ops, **extra}}


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
                                 "replace_existing_4m_s": 2e-3}
    assert record["metrics"]["ops_per_s"]["median"] == 3.0
    assert record["metrics"]["rows_per_s"] == {"q1": 10.0, "median": 10.0, "q3": 10.0}


def test_calibration_times_a_rename_over_an_existing_file(tmp_path):
    timings = bench_snapshot.calibrate(tmp_path)
    assert set(timings) == {"fft_2e20_complex_s", "python_loop_1e6_s",
                            "replace_existing_4m_s"}
    assert all(value > 0 for value in timings.values())
    assert list((tmp_path / ".bench_work").iterdir()) == []

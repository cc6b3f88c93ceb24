#!/usr/bin/env python3
"""Write one benchmark snapshot, BENCH_<N>.json, at the root of this checkout.

Usage: bench_snapshot.py N [--checkout DIR]

Runs ``bench/run.py --trace 0`` of the checkout DIR (default: this one)
once per workload and seed, over seeds 1 to 5 and for the
``run_seconds`` of BENCHMARK.json, workload by workload, and writes:

- the commit of DIR and the ``src_digest`` its runs report;
- the environment of its first run, less the fields of one run;
- per workload, each run's seed, ``correct``, ``attempted``,
  ``failed`` and the rename time taken just before it (below), and the
  median and quartiles of each end-to-end metric over the runs
  (``statistics.quantiles``, inclusive method);
- three calibration timings of seven repeats, taken before the runs:
  the best time of a complex FFT of 2**20 points and of a pure-Python
  loop of 10**6 additions, and the rename time: the median time of a
  4 MiB file written and renamed over an existing one in DIR's
  ``.bench_work``, as each output of a verb is.  Snapshots from
  different machines or sessions compare as ratios to these.  The
  rename time shows a file system that flushes on such a rename and how
  fast the flush is, which sets the pace of ``bulk_tables`` and moves no
  CPU timing; a host's flush can halve its speed and recover within
  minutes, hence a rename time per run.  It is a median because a rename
  over a file that was itself just written can skip the flush.

A run that prints no result stops the snapshot with exit code 1 and
writes nothing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("cli_session", "bulk_tables", "kernel_sweep")
SEEDS = (1, 2, 3, 4, 5)
# Fields of the environment that belong to one run, not to the snapshot.
RUN_FIELDS = {"workload", "seed", "seconds", "trace", "tauspec_file"}


def _times(func, repeats: int = 7) -> list:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        func()
        times.append(time.perf_counter() - t0)
    return times


def _replace_existing(directory: Path) -> None:
    new, target = directory / ".calibration.new", directory / ".calibration"
    new.write_bytes(bytes(4 << 20))  # about the size of a bulk_tables output
    os.replace(new, target)


def replace_time(checkout: Path) -> float:
    work = checkout / ".bench_work"
    work.mkdir(exist_ok=True)
    _replace_existing(work)  # so that each timed rename replaces a file
    median = statistics.median(_times(lambda: _replace_existing(work)))
    (work / ".calibration").unlink()
    return median


def calibrate(checkout: Path) -> dict:
    import numpy as np
    x = np.random.default_rng(0).standard_normal(1 << 20) * (1 + 1j)
    return {"fft_2e20_complex_s": min(_times(lambda: np.fft.fft(x))),
            "python_loop_1e6_s": min(_times(lambda: sum(range(10**6)))),
            "replace_existing_4m_s": replace_time(checkout)}


def quartiles(values) -> dict:
    """Median and quartiles of ``values``; a single value is all three."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(runs) -> dict:
    """The record of one workload from its runs, each a dict of ``seed``,
    ``correct``, ``attempted``, ``failed``, ``replace_existing_4m_s`` and
    ``metrics`` (name -> value)."""
    names = list(dict.fromkeys(name for run in runs for name in run["metrics"]))
    return {
        "runs": [{key: run[key] for key in ("seed", "correct", "attempted", "failed",
                                            "replace_existing_4m_s")} for run in runs],
        "metrics": {name: quartiles([run["metrics"][name] for run in runs
                                     if name in run["metrics"]]) for name in names},
    }


def bench_run(checkout: Path, workload: str, seed: int, seconds: float):
    """(environment, run) of one ``bench/run.py`` run, from its printed
    ``env`` line and its last line, with the rename time just before it."""
    replace_s = replace_time(checkout)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
    if proc.returncode or env is None:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    result = json.loads(lines[-1])
    return env, {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                 "failed": result["failed"], "replace_existing_4m_s": replace_s,
                 "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write BENCH_<N>.json.")
    parser.add_argument("number", type=int)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    commit = subprocess.run(["git", "-C", str(args.checkout), "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=True).stdout.strip()
    snapshot = {"commit": commit, "seeds": list(SEEDS), "seconds": seconds,
                "calibration": calibrate(args.checkout), "workloads": {}}
    digests = set()
    try:
        for workload in WORKLOADS:
            runs = []
            for seed in SEEDS:
                env, run = bench_run(args.checkout, workload, seed, seconds)
                digests.add(env["src_digest"])
                snapshot.setdefault("environment", {k: v for k, v in env.items()
                                                    if k not in RUN_FIELDS | {"src_digest"}})
                runs.append(run)
                print(f"{workload} seed {seed}: ops_per_s {run['metrics']['ops_per_s']:.4g}",
                      flush=True)
            snapshot["workloads"][workload] = summarise(runs)
    except RuntimeError as exc:
        print(f"bench_snapshot: {exc}", file=sys.stderr)
        return 1
    snapshot["src_digest"] = digests.pop() if len(digests) == 1 else sorted(digests)
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

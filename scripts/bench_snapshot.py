#!/usr/bin/env python3
"""Write one benchmark snapshot, BENCH_<N>.json, at the root of this checkout.

Usage: bench_snapshot.py N [--checkout DIR] [--against OTHER [--seeds S ...]]

Runs ``bench/run.py --trace 0`` of the checkout DIR (default: this one)
once per workload and seed, over seeds 1 to 5 and for the
``run_seconds`` of BENCHMARK.json, workload by workload, with DIR's
``src/tauspec/__pycache__`` removed before each run, and writes:

- the commit of DIR and the ``src_digest`` its runs report;
- the environment of its first run, less the fields of one run;
- per workload, each run's seed, ``correct``, ``attempted``,
  ``failed`` and the rename time taken just before it (below), and the
  median and quartiles of each end-to-end metric over the runs
  (``statistics.quantiles``, inclusive method);
- four calibration timings of seven repeats, taken before the runs:
  the best time of a complex FFT of 2**20 points and of a pure-Python
  loop of 10**6 additions, the median wall time of a fresh
  ``python -c "import numpy"``, the floor of a ``cli_session`` op, and
  the rename time: the median time of a
  4 MiB file written and renamed over an existing one in DIR's
  ``.bench_work``, as each output of a verb once was.  Snapshots from
  different machines or sessions compare as ratios to these.  The
  rename time describes the host: a file system that flushes a file's
  data on such a rename, and how fast the flush is, which moves no CPU
  timing and can halve or recover within minutes, hence a rename time
  per run.  tauspec swaps its outputs into place and pays no such flush.
  It is a median because a rename over a file that was itself just
  written can skip the flush.

With ``--against OTHER``, the checkout OTHER (the parent of a change, say)
runs each seed too, alternating with DIR: OTHER first on the first seed,
DIR first on the next, and so on.  The snapshot then also holds, under
``against``, OTHER's commit, ``src_digest``, runs and quartiles, and per
end-to-end metric the pairs (runs of one seed) in which DIR did better
than OTHER, ties counting for neither.  The script prints the table
OTHER -> DIR of each metric: OTHER's median and quartiles, DIR's median,
the change in per cent and the pairs won, then each pair's ``ops_per_s``
and rename times, and last a verdict per metric, also kept under
``against`` (see ``verdict``).  ``--seeds`` runs other seeds than 1 to 5, so that a
claimed gain can be shown on seeds not used while the change was built;
only a comparison takes it.

A run that prints no result stops the snapshot with exit code 1 and
writes nothing.
"""

import argparse
import json
import os
import shutil
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


def import_numpy_time() -> float:
    return statistics.median(_times(lambda: subprocess.run(
        [sys.executable, "-c", "import numpy"], check=True)))


def calibrate(checkout: Path) -> dict:
    import numpy as np
    x = np.random.default_rng(0).standard_normal(1 << 20) * (1 + 1j)
    return {"fft_2e20_complex_s": min(_times(lambda: np.fft.fft(x))),
            "python_loop_1e6_s": min(_times(lambda: sum(range(10**6)))),
            "python_import_numpy_s": import_numpy_time(),
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


def pairs_won(runs, against, better: dict) -> dict:
    """Per metric of ``better`` (name -> "higher" or "lower"), the number of
    runs in ``runs`` better than the run of ``against`` at the same place;
    a tie or a metric missing from either run counts for neither."""
    won = {}
    for name, direction in better.items():
        sign = 1 if direction == "higher" else -1
        won[name] = sum(sign * (run["metrics"][name] - other["metrics"][name]) > 0
                        for run, other in zip(runs, against)
                        if name in run["metrics"] and name in other["metrics"])
    return won


def verdict(new: dict, old: dict, won: int, pairs: int, better: str, bound: float) -> str:
    """The verdict on one metric, from DIR's and OTHER's median and
    quartiles (``new``, ``old``), the pairs DIR won of ``pairs``, the
    direction that is better and the metric's bound in BENCHMARK.json:

    - "gain": DIR won 9 pairs in 10 or more, and its median is better than
      OTHER's by more than OTHER's quartile spread;
    - "unresolved": OTHER's spread is wider than the bound, and the
      medians are no further apart than that spread;
    - "worse": DIR's median is worse than OTHER's by more than the bound;
    - "within bound": anything else.
    """
    spread = old["q3"] - old["q1"]
    gained = (new["median"] - old["median"]) * (1 if better == "higher" else -1)
    separate = abs(gained) > spread
    if gained > 0 and separate and won >= 0.9 * pairs:
        return "gain"
    if spread > bound * abs(old["median"]) and not separate:
        return "unresolved"
    if -gained > bound * abs(old["median"]):
        return "worse"
    return "within bound"


def verdicts(runs, against, metrics: dict) -> dict:
    """Per end-to-end metric of ``metrics`` (name -> its BENCHMARK.json
    entry) that both sides report, the verdict on DIR's ``runs`` against
    OTHER's (``against``)."""
    new, old = summarise(runs)["metrics"], summarise(against)["metrics"]
    won = pairs_won(runs, against, {name: m["better"] for name, m in metrics.items()})
    return {name: verdict(new[name], old[name], won[name], len(runs), m["better"], m["bound"])
            for name, m in metrics.items() if name in new and name in old}


def table(workload: str, runs, against, better: dict) -> list:
    """The lines OTHER -> DIR of one workload, from the runs of DIR and of
    OTHER (``against``) in pairs: per metric of ``better``, OTHER's median
    and quartiles, DIR's median, the change and the pairs DIR won; then per
    pair, each side's ops_per_s and rename time."""
    new, old = summarise(runs)["metrics"], summarise(against)["metrics"]
    both = runs + against
    lines = [f"{workload} ({len(runs)} pairs, all correct: "
             f"{all(run['correct'] for run in both)}, failed ops: "
             f"{sum(run['failed'] for run in both)})"]
    for name, won in pairs_won(runs, against, better).items():
        if name not in new or name not in old:
            continue
        base, median = old[name]["median"], new[name]["median"]
        change = f"{100 * (median / base - 1):+.1f}%" if base else "n/a"
        lines.append(f"  {name}: {base:.4g} [{old[name]['q1']:.4g}, {old[name]['q3']:.4g}]"
                     f" -> {median:.4g} ({change}, {won}/{len(runs)})")
    for run, other in zip(runs, against):
        lines.append(f"  seed {run['seed']}: ops_per_s {other['metrics']['ops_per_s']:.4g} -> "
                     f"{run['metrics']['ops_per_s']:.4g}, replace_existing_4m_s "
                     f"{other['replace_existing_4m_s']:.4g} -> "
                     f"{run['replace_existing_4m_s']:.4g}")
    return lines


def bench_run(checkout: Path, workload: str, seed: int, seconds: float):
    """(environment, run) of one ``bench/run.py`` run, from its printed
    ``env`` line and its last line, with no bytecode cache of ``tauspec``
    left from an earlier run, and the rename time just before it."""
    shutil.rmtree(checkout / "src" / "tauspec" / "__pycache__", ignore_errors=True)
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


def commit_of(checkout: Path) -> str:
    return subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=True).stdout.strip()


def one_digest(digests: set):
    return digests.pop() if len(digests) == 1 else sorted(digests)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write BENCH_<N>.json.")
    parser.add_argument("number", type=int)
    parser.add_argument("--checkout", type=Path, default=ROOT)
    parser.add_argument("--against", type=Path,
                        help="another checkout, run in pairs with --checkout")
    parser.add_argument("--seeds", type=int, nargs="+",
                        help="the seeds of a comparison (default 1 to 5)")
    args = parser.parse_args(argv)
    if args.seeds and not args.against:
        parser.error("--seeds needs --against: a snapshot runs seeds 1 to 5")
    seeds = args.seeds or list(SEEDS)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    metrics = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    better = {name: metric["better"] for name, metric in metrics.items()}
    # The trees in the order of the first pair: OTHER, then DIR.
    trees = {"against": args.against, "checkout": args.checkout} if args.against else {
        "checkout": args.checkout}
    snapshot = {"commit": commit_of(args.checkout), "seeds": seeds, "seconds": seconds,
                "calibration": calibrate(args.checkout), "workloads": {}}
    if args.against:
        snapshot["against"] = {"commit": commit_of(args.against), "workloads": {}}
    digests = {side: set() for side in trees}
    lines = []
    try:
        for workload in WORKLOADS:
            runs = {side: [] for side in trees}
            for pair, seed in enumerate(seeds):
                for side in list(trees)[::-1] if pair % 2 else trees:
                    env, run = bench_run(trees[side], workload, seed, seconds)
                    digests[side].add(env["src_digest"])
                    if side == "checkout":
                        snapshot.setdefault("environment", {
                            k: v for k, v in env.items() if k not in RUN_FIELDS | {"src_digest"}})
                    runs[side].append(run)
                    label = f" ({side})" if args.against else ""
                    print(f"{workload} seed {seed}{label}: ops_per_s "
                          f"{run['metrics']['ops_per_s']:.4g}", flush=True)
            snapshot["workloads"][workload] = summarise(runs["checkout"])
            if args.against:
                judged = verdicts(runs["checkout"], runs["against"], metrics)
                snapshot["against"]["workloads"][workload] = {
                    **summarise(runs["against"]),
                    "pairs_won": pairs_won(runs["checkout"], runs["against"], better),
                    "verdicts": judged}
                lines += table(workload, runs["checkout"], runs["against"], better)
                lines.append("  verdicts: " + "; ".join(f"{name} {said}"
                                                        for name, said in judged.items()))
    except RuntimeError as exc:
        print(f"bench_snapshot: {exc}", file=sys.stderr)
        return 1
    snapshot["src_digest"] = one_digest(digests["checkout"])
    if args.against:
        snapshot["against"]["src_digest"] = one_digest(digests["against"])
        print(f"{args.against} -> {args.checkout}: median [quartiles] -> median "
              "(change, pairs won)", *lines, sep="\n")
    out = ROOT / f"BENCH_{args.number}.json"
    out.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

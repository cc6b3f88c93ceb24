#!/usr/bin/env python3
"""tauspec benchmark.

Usage (from the root of a checkout):

    python3 bench/run.py --workload {cli_session,bulk_tables,kernel_sweep}
                         --seed N --seconds S --trace {0,1}

One client in one process runs the workload's op script in whole passes
(a closed loop) for ``--seconds``, checks every op's output, and prints
the metrics as a table, then one JSON line as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` the first half of the time runs untraced and the second
half under the span tracer (``spans.py``); the metrics are the
per-layer ones plus the tracing overhead, the difference between the
two halves.  Spans are written to ``.bench_work/traces/`` and a full
record of every run, with its environment, to ``.bench_work/results/``.

The tree measured is always ``src/`` of this checkout: it goes first on
the path of this process and of every child, and the run stops with
exit code 2, printing no result, if ``tauspec`` is imported from
anywhere else.
"""

import os

# Pinned before numpy loads, here and in every child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_ROUNDS = 3
# Each half of a traced run needs only pass means, so two passes do;
# this keeps a traced cli_session run well inside 180 s.
TRACE_MIN_PASSES = 2

# Units of the end-to-end metrics, in the order they are printed.
END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "rows_per_s": "rows/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ops_ratio": "ratio",
}

TRACE_OVERHEAD = ("trace.overhead_s", "trace.overhead_pct")


class SetupError(Exception):
    """The checkout cannot be measured (no src tree, wrong tauspec)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def probe(env: dict) -> dict:
    """Import tauspec.cli in a fresh process, as every cli op will."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--probe"], env=env, cwd=str(ROOT),
        capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise SetupError(f"child import of tauspec failed: {proc.stdout}{proc.stderr}".strip())
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_in_process() -> float:
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import tauspec
        import tauspec.cli  # noqa: F401
    except ImportError as exc:
        raise SetupError(f"cannot import tauspec from {SRC}: {exc}") from exc
    import_s = time.perf_counter() - t0
    if not Path(tauspec.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"tauspec imported from {tauspec.__file__}, not {SRC}")
    return import_s


def setup(name: str, seed: int, workdir: Path, env: dict):
    """Build the inputs SETUP_ROUNDS times; keep the last round's plan.

    A round is input generation plus one fresh-process import of
    tauspec.cli, which also proves children import this tree.
    """
    build, _ = workloads.WORKLOADS[name]
    times = []
    for r in range(SETUP_ROUNDS):
        round_dir = workdir / f"round{r}"
        round_dir.mkdir(parents=True)
        t0 = time.perf_counter()
        if name == "cli_session":
            spawner = workloads.Spawner(sys.executable, env, str(round_dir), HERE / "child.py")
            plan = build(round_dir, seed, spawner)
        else:
            spawner = None
            plan = build(round_dir, seed)
        found = probe(env)
        times.append(time.perf_counter() - t0)
        if r < SETUP_ROUNDS - 1:
            shutil.rmtree(round_dir)
    return plan, spawner, statistics.median(times), found


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(args, tauspec_file: str) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": git_commit(),
        "src_digest": src_digest(),
        "tauspec_file": tauspec_file,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB


def traced_loop(plan, seconds, digests, spawner, trace_dir):
    """Run the loop under the tracer; op spans wrap each op."""
    tracer = spans.Tracer()
    op_id = [0]

    @contextlib.contextmanager
    def on_op(_index, op):
        op_id[0] += 1
        tracer.op = op_id[0]
        span = tracer.open(op.name, "bench")
        try:
            yield
        finally:
            tracer.close(span)
            child = spawner.take_spans() if spawner is not None else None
            if child is not None and child.exists():
                merge_child(tracer, child, span)
            tracer.op = -1

    if spawner is not None:
        spawner.trace_dir = trace_dir
    else:
        tracer.install()
    try:
        loop = measure.run_loop(plan.ops, seconds, digests, on_op, TRACE_MIN_PASSES)
    finally:
        tracer.uninstall()
        if spawner is not None:
            spawner.trace_dir = None
    return loop, tracer


def merge_child(tracer, path: Path, parent: int) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    path.unlink()
    base = len(tracer.spans)
    for name, layer, start, end, par, _op, counts in doc["spans"]:
        tracer.add_span(name, layer, start, end, base + par if par >= 0 else parent,
                        tracer.op, counts)


def run(args) -> tuple[dict, dict]:
    if not (SRC / "tauspec" / "__init__.py").is_file():
        raise SetupError(f"no tauspec source tree at {SRC}")
    _, in_process = workloads.WORKLOADS[args.workload]
    env = child_env()
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        plan, spawner, setup_s, found = setup(args.workload, args.seed, workdir, env)
        import_s = import_in_process() if in_process else None
        digests: dict = {}
        record = {"env": environment(args, found["file"]), "setup_s": setup_s,
                  "inputs_digest": plan.inputs_digest}
        if not args.trace:
            loop = measure.run_loop(plan.ops, args.seconds, digests)
            e2e = measure.end_to_end(loop)
            e2e["setup_s"] = setup_s
            e2e["peak_rss_mb"] = peak_rss_mb(in_process)
            metrics = {name: e2e[name] for name in END_TO_END}
            loops = [loop]
            record["failed_ops_ratio"] = e2e["failed_ops_ratio"]
        else:
            plain = measure.run_loop(plan.ops, args.seconds / 2, digests,
                                     min_passes=TRACE_MIN_PASSES)
            trace_dir = WORK / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            traced, tracer = traced_loop(plan, args.seconds / 2, digests, spawner, workdir)
            op_s = sum(r.seconds for r in traced.results) / traced.passes
            plain_s = sum(r.seconds for r in plain.results) / plain.passes
            metrics = spans.layer_metrics(tracer.spans, traced.passes, op_s)
            if in_process:
                metrics["cli.import_s"] = import_s
            overhead_s, overhead_pct = TRACE_OVERHEAD
            metrics[overhead_s] = op_s - plain_s
            metrics[overhead_pct] = 100.0 * (op_s - plain_s) / plain_s
            tracer.dump(str(trace_dir / f"{args.workload}-seed{args.seed}.json"),
                        {"env": record["env"], "passes": traced.passes})
            loops = [plain, traced]
        results = [r for loop in loops for r in loop.results]
        failed = [r for r in results if not r.ok]
        record.update({
            "passes": [loop.passes for loop in loops],
            "wall_s": [loop.wall_s for loop in loops],
            "samples": len(results),
            "op_median_s": {name: statistics.median(r.seconds for r in results if r.name == name)
                            for name in dict.fromkeys(r.name for r in results)},
            "errors": sorted({f"{r.name}: {r.error}" for r in failed})[:20],
            "metrics": metrics,
        })
        summary = {"correct": not failed, "attempted": len(results), "failed": len(failed),
                   "metrics": metrics}
        return summary, record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary, record = run(args)
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print("env " + json.dumps(record["env"], sort_keys=True))
    for error in record["errors"]:
        print(f"FAILED {error}")
    metrics = {name: {"value": value, "unit": END_TO_END.get(name) or spans.unit_of(name)}
               for name, value in summary["metrics"].items()}
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:16.6g} {m['unit']}")
    if not args.trace:
        print(f"{'failed_ops_ratio':34s} {record['failed_ops_ratio']:16.6g} ratio")
    print(f"{summary['attempted']} ops in {record['passes']} passes, {summary['failed']} failed; "
          f"record in {out.relative_to(ROOT)}")
    print(json.dumps({"correct": summary["correct"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Closed-loop measurement: one client runs the workload script in
passes, checks every op's output, and summarises latencies.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable


class CheckFailed(Exception):
    """An op ran but its output is wrong."""


@dataclass
class Op:
    """One operation of a workload script.

    ``run`` does the tauspec work and returns whatever ``check`` needs;
    it raises on a nonzero exit or an exception.  ``check`` verifies the
    output and returns a digest of it, which must repeat on every pass.
    Rows are the csv data rows the op reads and writes.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], str]
    rows_read: int = 0
    rows_written: int = 0


@dataclass
class OpResult:
    name: str
    seconds: float
    ok: bool
    rows: int
    error: str = ""


@dataclass
class Loop:
    """Results of one measurement loop."""

    results: list[OpResult] = field(default_factory=list)
    passes: int = 0
    wall_s: float = 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it.  It always returns a sample,
    never an interpolation between two ops of different kinds.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


MIN_PASSES = 3


def run_loop(ops: list[Op], seconds: float, digests: dict, on_op=None,
             min_passes: int = MIN_PASSES) -> Loop:
    """Run whole passes over ``ops`` until ``seconds`` have elapsed and
    at least ``min_passes`` passes are done; with three, every op has a
    median that one stalled call cannot move.

    Every op is timed, then checked outside the timed region.  An op that
    raises, fails its check, or yields a digest different from the first
    pass (``digests`` carries them between loops) counts as failed; it is
    never dropped.  ``on_op(index, op)`` returns a context manager that
    wraps the timed call, which is how the tracer opens op spans.
    """
    loop = Loop()
    start = time.perf_counter()
    while loop.passes < min_passes or time.perf_counter() - start < seconds:
        for index, op in enumerate(ops):
            error = ""
            t0 = time.perf_counter()
            try:
                if on_op is None:
                    out = op.run()
                else:
                    with on_op(index, op):
                        out = op.run()
            except Exception as exc:  # a failed op is counted, not fatal
                out, error = None, f"{type(exc).__name__}: {exc}"
            seconds_op = time.perf_counter() - t0
            if not error:
                try:
                    digest = op.check(out)
                    if digests.setdefault(op.name, digest) != digest:
                        error = "output differs from the first pass"
                except Exception as exc:
                    error = f"check: {type(exc).__name__}: {exc}"
            loop.results.append(
                OpResult(op.name, seconds_op, not error, op.rows_read + op.rows_written, error)
            )
        loop.passes += 1
    loop.wall_s = time.perf_counter() - start
    return loop


def end_to_end(loop: Loop) -> dict:
    """End-to-end numbers of a loop.

    Each op of the script is taken at its median latency over the
    passes, so one stalled call (another tenant, a page-cache miss)
    moves no metric.  Throughputs are one pass of the script at those
    medians; p50 and p90 are nearest-rank percentiles of them.  Check
    time is excluded: it is the client's, not tauspec's.
    """
    by_op: dict[str, list[OpResult]] = {}
    for r in loop.results:
        by_op.setdefault(r.name, []).append(r)
    medians = [statistics.median(r.seconds for r in rs) for rs in by_op.values()]
    pass_s = sum(medians)
    rows = sum(rs[0].rows for rs in by_op.values())
    attempted = len(loop.results)
    failed = sum(1 for r in loop.results if not r.ok)
    return {
        "ops_per_s": len(medians) / pass_s,
        "op_p50_s": percentile(medians, 50),
        "op_p90_s": percentile(medians, 90),
        "rows_per_s": rows / pass_s,
        "ok_ops_ratio": (attempted - failed) / attempted,
        "failed_ops_ratio": failed / attempted,
        "attempted": attempted,
        "failed": failed,
    }

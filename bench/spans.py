"""In-memory span tracer for the tauspec benchmark.

The tracer wraps the public functions of each tauspec module from the
outside (nothing in ``src/`` knows about it) and records one span per
call: name, layer, start, end, parent span and op id.  Spans stay in
memory until ``dump`` writes them out at the end of a run.

A layer's self time is the duration of its spans minus the part of
each span that its direct children cover.  The per-layer metrics the
benchmark reports are all derived from the span list by
``layer_metrics``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# Layers are named after the tauspec modules; ``bench`` marks the op
# spans the benchmark itself opens around each operation.
LAYERS = ("cli", "fileio", "core", "extract", "dispersion", "scatter1d", "physics")
_MODULE_LAYER = {f"tauspec.{name}": name for name in LAYERS}

# FFT entry points counted while a span is open.  scipy.fft is patched
# only once some tauspec code has imported it.
_FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")


class Tracer:
    """Span recorder.

    Each span is a list ``[name, layer, start, end, parent, op, counts]``;
    ``parent`` is the index of the enclosing span or -1, ``counts`` is
    None or a dict of exact counts recorded at that boundary.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self._patched: list[tuple[object, str, object]] = []
        self._fft_modules: set[str] = set()

    # -- recording -----------------------------------------------------
    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, layer, self.clock(), None, parent, self.op, None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")

    def count(self, key: str, value, index: int | None = None) -> None:
        """Add ``value`` to a count on span ``index`` (default: innermost)."""
        if index is None:
            if not self._stack:
                return
            index = self._stack[-1]
        span = self.spans[index]
        if span[6] is None:
            span[6] = {}
        span[6][key] = span[6].get(key, 0) + value

    def add_span(self, name, layer, start, end, parent=-1, op=-1, counts=None) -> int:
        """Append a finished span, e.g. one recorded by another process."""
        self.spans.append([name, layer, start, end, parent, op, counts])
        return len(self.spans) - 1

    # -- wrapping ------------------------------------------------------
    def install(self) -> None:
        """Wrap the public functions of every tauspec module.

        Every module attribute that refers to an original function is
        replaced, so calls through ``from .core import model_tau`` in
        another module are traced as well.
        """
        originals = {}
        for modname, layer in _MODULE_LAYER.items():
            module = sys.modules.get(modname)
            if module is None:
                continue
            # cli has no __all__: its one public function is main
            names = getattr(module, "__all__", None) or ["main"]
            for name in names:
                obj = getattr(module, name, None)
                if callable(obj) and getattr(obj, "__module__", None) == modname:
                    if isinstance(obj, type):
                        init = obj.__dict__.get("__post_init__")
                        if init is not None:
                            wrapped = self._wrap(init, name, layer, modname)
                            self._patched.append((obj, "__post_init__", init))
                            obj.__post_init__ = wrapped
                    else:
                        originals[id(obj)] = (obj, self._wrap(obj, name, layer, modname))
        for modname, module in list(sys.modules.items()):
            if modname != "tauspec" and not modname.startswith("tauspec."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])
        self._patch_fft()

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()
        self._fft_modules.clear()

    def _wrap(self, func, name: str, layer: str, modname: str):
        counter = _COUNTERS.get((modname, name))
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if len(tracer._fft_modules) < 2:
                tracer._patch_fft()
            index = tracer.open(name, layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.close(index)
            if counter is not None:
                counter(tracer, index, args, kwargs, result)
            return result

        return traced

    def _patch_fft(self) -> None:
        for modname in ("numpy.fft", "scipy.fft"):
            module = sys.modules.get(modname)
            if module is None or modname in self._fft_modules:
                continue
            self._fft_modules.add(modname)
            for name in _FFT_NAMES:
                func = getattr(module, name, None)
                if func is not None:
                    self._patched.append((module, name, func))
                    setattr(module, name, self._count_fft(func))

    def _count_fft(self, func):
        tracer = self

        @functools.wraps(func)
        def counted(x, *args, **kwargs):
            result = func(x, *args, **kwargs)
            tracer.count("fft_calls", 1)
            tracer.count("fft_points", int(getattr(result, "size", 0)))
            return result

        return counted

    # -- output --------------------------------------------------------
    def dump(self, path: str, extra: dict | None = None) -> None:
        doc = dict(extra or {})
        doc["fields"] = ["name", "layer", "start", "end", "parent", "op", "counts"]
        doc["spans"] = self.spans
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
        os.replace(tmp, path)


# -- exact counts recorded at call boundaries --------------------------------
# Rows come from the tables themselves; bytes are file sizes on disk;
# Hilbert nodes are the transformed array length, padding included.
def _table_rows(obj) -> int:
    grid = getattr(obj, "grid", None)
    if grid is not None:
        return len(grid)
    if isinstance(obj, tuple) and len(obj) == 2 and isinstance(obj[1], list):
        return int(len(obj[1][0]))  # read_table: (header, columns)
    return 0


def _nested(tracer, index) -> bool:
    """True inside another fileio call, which counts the file itself."""
    parent = tracer.spans[index][4]
    return parent >= 0 and tracer.spans[parent][1] == "fileio"


def _count_read(tracer, index, args, kwargs, result):
    if _nested(tracer, index):
        return
    path = args[0] if args else kwargs.get("path")
    tracer.count("read_bytes", os.path.getsize(path), index)
    tracer.count("read_rows", _table_rows(result), index)


def _count_write_table(tracer, index, args, kwargs, result):
    if _nested(tracer, index):
        return
    path = args[0] if args else kwargs.get("path")
    table = args[1] if len(args) > 1 else next(iter(kwargs.values()))
    rows = _table_rows(table) or len(table)
    tracer.count("write_bytes", os.path.getsize(path), index)
    tracer.count("write_rows", rows, index)


def _count_write_file(tracer, index, args, kwargs, result):
    if _nested(tracer, index):
        return
    path = args[0] if args else kwargs.get("path")
    tracer.count("write_bytes", os.path.getsize(path), index)


def _count_hilbert_nodes(tracer, index, args, kwargs, result):
    tracer.count("hilbert_nodes", int(getattr(result, "size", 0)), index)


_COUNTERS = {
    ("tauspec.dispersion", "hilbert_transform"): _count_hilbert_nodes,
    ("tauspec.fileio", "read_table"): _count_read,
    ("tauspec.fileio", "read_spectrum"): _count_read,
    ("tauspec.fileio", "read_temporal"): _count_read,
    ("tauspec.fileio", "read_artifact"): _count_read,
    ("tauspec.fileio", "load_model"): _count_read,
    ("tauspec.fileio", "write_spectrum"): _count_write_table,
    ("tauspec.fileio", "write_temporal"): _count_write_table,
    ("tauspec.fileio", "write_barrier_table"): _count_write_table,
    ("tauspec.fileio", "write_artifact"): _count_write_file,
    ("tauspec.fileio", "save_model"): _count_write_file,
}

_READERS = {"read_table", "read_spectrum", "read_temporal", "read_artifact",
            "load_model", "detect_format"}
_WRITERS = {"write_spectrum", "write_temporal", "write_barrier_table",
            "write_artifact", "save_model"}
_SUM_RULES = {"frequency_sum_rule", "sum_rule_scale", "time_sum_rule"}


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


def _outermost(spans, index, layer) -> bool:
    parent = spans[index][4]
    return parent < 0 or spans[parent][1] != layer


def layer_metrics(spans, passes: int, op_seconds: float) -> dict:
    """Per-layer metrics from a span list.

    Times and counts are per pass of the workload script, so runs of
    different length compare directly; ``op_seconds`` is the traced op
    time per pass, the base of every ``share``.  ``cli.import_s`` is
    per import of ``tauspec.cli``.
    """
    own = self_times(spans)
    per = 1.0 / passes
    layer_self = {layer: 0.0 for layer in LAYERS}
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    totals: dict[str, float] = {}
    imports = []
    for i, s in enumerate(spans):
        name, layer = s[0], s[1]
        if layer in layer_self:
            layer_self[layer] += own[i]
        if name == "import":
            imports.append(s[3] - s[2])
        key = f"{layer}.{name}"
        calls[key] = calls.get(key, 0) + 1
        inclusive[key] = inclusive.get(key, 0.0) + (s[3] - s[2])
        if layer == "fileio" and _outermost(spans, i, layer):
            bucket = "read" if name in _READERS else "write" if name in _WRITERS else None
            if bucket:
                totals[bucket + "_s"] = totals.get(bucket + "_s", 0.0) + s[3] - s[2]
        if layer == "scatter1d" and _outermost(spans, i, layer) and name != "find_resonance":
            totals["sweep_s"] = totals.get("sweep_s", 0.0) + s[3] - s[2]
        if layer == "physics" and _outermost(spans, i, layer):
            totals["model_eval_s"] = totals.get("model_eval_s", 0.0) + s[3] - s[2]
        if layer == "dispersion" and name in _SUM_RULES and _outermost(spans, i, layer):
            totals["sum_rule_s"] = totals.get("sum_rule_s", 0.0) + s[3] - s[2]
        if s[6]:
            for k, v in s[6].items():
                if k.startswith("fft"):
                    k = f"{name}.{k}"
                totals[k] = totals.get(k, 0) + v

    def inc(key):
        return inclusive.get(key, 0.0) * per

    def tot(key):
        return totals.get(key, 0) * per

    base = op_seconds if op_seconds > 0 else float("nan")
    out = {}
    import_s = sum(imports) / len(imports) if imports else 0.0
    main_self = sum(own[i] for i, s in enumerate(spans) if s[1] == "cli" and s[0] == "main")
    out["cli.import_s"] = import_s
    out["cli.import_share"] = sum(imports) * per / base
    out["cli.main_self_s"] = main_self * per
    read_s, write_s = tot("read_s"), tot("write_s")
    read_rows, write_rows = tot("read_rows"), tot("write_rows")
    out["fileio.read_s"] = read_s
    out["fileio.write_s"] = write_s
    out["fileio.read_rows"] = read_rows
    out["fileio.write_rows"] = write_rows
    out["fileio.read_mb"] = tot("read_bytes") / 1e6
    out["fileio.write_mb"] = tot("write_bytes") / 1e6
    out["fileio.read_rows_per_s"] = read_rows / read_s if read_s > 0 else 0.0
    out["fileio.write_rows_per_s"] = write_rows / write_s if write_s > 0 else 0.0
    out["core.reconstruct_s"] = inc("core.reconstruct")
    out["core.model_tau_s"] = inc("core.model_tau")
    out["core.model_tau_calls"] = calls.get("core.model_tau", 0) * per
    out["extract.extract_temporal_s"] = inc("extract.extract_temporal")
    out["physics.model_eval_s"] = tot("model_eval_s")
    hilbert_calls = calls.get("dispersion.hilbert_transform", 0)
    out["dispersion.hilbert_transform_s"] = inc("dispersion.hilbert_transform")
    out["dispersion.hilbert_calls"] = hilbert_calls * per
    out["dispersion.hilbert_nodes"] = tot("hilbert_nodes")
    out["dispersion.ffts_per_hilbert"] = (
        totals.get("hilbert_transform.fft_calls", 0) / hilbert_calls if hilbert_calls else 0.0
    )
    out["dispersion.fft_points_per_hilbert"] = (
        totals.get("hilbert_transform.fft_points", 0) / hilbert_calls if hilbert_calls else 0.0
    )
    out["dispersion.kk_residual_s"] = inc("dispersion.kk_residual")
    out["dispersion.tau_kk_residual_s"] = inc("dispersion.tau_kk_residual")
    out["dispersion.winding_number_s"] = inc("dispersion.winding_number")
    out["dispersion.sum_rule_s"] = tot("sum_rule_s")
    out["scatter1d.s_matrix_calls"] = calls.get("scatter1d.s_matrix", 0) * per
    out["scatter1d.s_matrix_s"] = inc("scatter1d.s_matrix")
    out["scatter1d.sweep_s"] = tot("sweep_s")
    out["scatter1d.find_resonance_s"] = inc("scatter1d.find_resonance")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] * per
        out[f"{layer}.share"] = layer_self[layer] * per / base
    out["ops.op_s"] = op_seconds
    out["ops.unattributed_s"] = op_seconds - sum(layer_self.values()) * per
    out["trace.spans"] = len(spans) * per
    return out


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "rows/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("share"):
        return "ratio"
    return "count"

"""Every input the tauspec command line refuses, each written once.

A case gives its input files (name -> text or bytes), the argv of
``python -m tauspec``, the exit code and the whole of stderr less its
last newline: a string to match exactly or, where the interpreter words
the message, a compiled pattern to match in full.  The files are written
to an empty directory that the argv names them in, so stderr names them
as the argv does.  A refused run prints nothing on stdout and leaves no
file but its inputs.

``tests/test_cli.py`` runs every case in process through ``cli.main``,
and ``scripts/identity.py`` runs each as its case ``refused-<name>`` in
fresh interpreters against two source trees, so this module imports
nothing from tauspec.  A new guard is one entry here.
"""

import json
import math
import re
from typing import NamedTuple

SPECTRUM = "omega,re,im"
TEMPORAL = "omega,tau1,tau2"
BARRIER = "energy,transmission,phase,tau1,tau2"

BLASCHKE = {"type": "blaschke", "resonances": [[1.0, 0.2]]}
OSCILLATOR = {"type": "oscillator", "omega0": 1.0, "gamma": 0.1}
BARRIER_DOC = {"type": "barrier", "segments": [[2.0, 1.0]]}
# One document of each kind, by kind.
KINDS = {
    "blaschke": BLASCHKE,
    "oscillator": OSCILLATOR,
    "lorentz": {"type": "lorentz", "plasma_frequency": 2.0, "omega0": 1.0, "gamma": 0.1},
    "breit_wigner": {"type": "breit_wigner", "omega0": 1.0, "gamma": 0.1},
    "photon": {"type": "photon", "k_abs": 1.0, "eta": 1e-2},
    "barrier": BARRIER_DOC,
}


class Refusal(NamedTuple):
    files: dict
    argv: tuple
    code: int
    stderr: str | re.Pattern


def rows(header: str, *lines: str) -> str:
    return header + "\n" + "".join(line + "\n" for line in lines)


def model_file(doc) -> dict:
    """``m.json`` holding ``doc``: a document, or raw JSON text or bytes."""
    return {"m.json": doc if isinstance(doc, (str, bytes)) else json.dumps(doc)}


def _bad_byte_table(count: int) -> bytes:
    """A spectrum table of ``count`` rows with the byte 0xe9 in the third
    row from the end, after the "1." of its re cell."""
    lines = [b"%d.0,1.0,0.0\n" % i for i in range(count)]
    lines[-3] = b"%d.0,1.\xe9,0.0\n" % (count - 3)
    return SPECTRUM.encode() + b"\n" + b"".join(lines)


MODEL = ("model", "m.json", "--from", "0.5", "--to", "1.5", "--points", "11", "-o", "m")
EXTRACT = ("extract", "s.csv", "-o", "t.csv")
# The verbs that read one spectrum table.
SPECTRUM_VERBS = {"extract": EXTRACT, "kk": ("kk", "s.csv"), "report": ("report", "s.csv")}
INFINITE_IM = rows(SPECTRUM, "0,1,0", "1,1,0", "2,1,-Infinity", "3,1,0")
# 4 rows put the bad byte on line 3; 3001 rows, past the first 8 kB decoded.
BAD_BYTE_LINE = {4: (3, 6), 3001: (3000, 9)}


def _model(doc, stderr, code=2) -> Refusal:
    return Refusal(model_file(doc), MODEL, code, stderr)


def _extract(table, stderr, code=2, flags=()) -> Refusal:
    return Refusal({"s.csv": table}, (*flags, *EXTRACT), code, stderr)


CASES = {
    # model documents, read field by field
    "model-float-field": _model(
        {**OSCILLATOR, "omega0": "abc"},
        "error: m.json: omega0: could not convert string to float: 'abc'"),
    "model-resonance-entry": _model(
        {"type": "blaschke", "resonances": [[1, 0.2], [2, "x"]]},
        "error: m.json: resonances[1]: could not convert string to float: 'x'"),
    "model-scale-entry": _model(
        {**BLASCHKE, "scale": ["a", 0]},
        "error: m.json: scale: could not convert string to float: 'a'"),
    "model-segment-entry": _model(
        {"type": "barrier", "segments": [[1, "w"]]},
        "error: m.json: segments[0]: could not convert string to float: 'w'"),
    "model-segment-shape": _model(
        {"type": "barrier", "segments": [[1, 0.5], [2]]},
        "error: m.json: segments[1] must be a two-element list"),
    "model-segments-number": _model(
        {"type": "barrier", "segments": 5},
        "error: m.json: segments must be a list of [width, height] pairs"),
    "model-segment-nested": _model(
        {"type": "barrier", "segments": [[1, [2]]]},
        re.compile(r"error: m\.json: segments\[0\]: .*not 'list'")),
    "model-integer-field": _model(
        {**BLASCHKE, "p": "one"}, "error: m.json: p: could not convert string to float: 'one'"),
    "model-gamma-range": _model(
        {**OSCILLATOR, "gamma": 5}, "error: m.json: gamma must satisfy 0 < gamma < 2 omega0"),
    "model-unknown-field": _model(
        {**OSCILLATOR, "x": 1}, "error: m.json: unknown field 'x' for model type 'oscillator'"),
    "model-missing-field": _model(
        {"type": "oscillator", "omega0": 1.0},
        "error: m.json: missing field 'gamma' for model type 'oscillator'"),
    "model-type-list": _model(
        {**OSCILLATOR, "type": ["oscillator"]},
        "error: m.json: unknown model type ['oscillator'] (known: barrier, blaschke, "
        "breit_wigner, lorentz, oscillator, photon)"),
    "model-omega0-list": _model(
        {**OSCILLATOR, "omega0": [1]}, re.compile(r"error: m\.json: omega0: .*not 'list'")),
    "model-omega0-null": _model(
        {**OSCILLATOR, "omega0": None},
        re.compile(r"error: m\.json: omega0: .*not 'NoneType'")),
    "model-resonances-number": _model(
        {"type": "blaschke", "resonances": 5}, "error: m.json: 'int' object is not iterable"),
    "model-p-fraction": _model(
        {**BLASCHKE, "p": 1.5},
        "error: m.json: p must be an integer of magnitude below 2**53, got 1.5"),
    "model-prefactor_sign-fraction": _model(
        {**BLASCHKE, "prefactor_sign": 1.5},
        "error: m.json: prefactor_sign must be an integer of magnitude below 2**53, got 1.5"),
    "model-omega0-past-float-range": _model(
        {**OSCILLATOR, "omega0": 10**400},
        "error: m.json: omega0: int too large to convert to float"),
    "model-p-past-float-range": _model(
        {**BLASCHKE, "p": 10**400}, "error: m.json: p: int too large to convert to float"),
    "model-p-past-2**53": _model(
        {**BLASCHKE, "p": 2**53 + 1},
        "error: m.json: p must be an integer of magnitude below 2**53, got 9007199254740993"),
    # A field that is not finite (JSON's Infinity or NaN, or a string float()
    # reads as one) is refused as its document loads, in every model kind.
    **{f"winding-resonance-{name}": Refusal(
        model_file({"type": "blaschke", "resonances": [[value, 0.1]]}),
        ("winding", "m.json", "--rect", "0", "2", "0.02", "1"), 2,
        f"error: m.json: resonances[0] must be finite, got {name}")
       for name, value in (("inf", math.inf), ("nan", math.nan))},
    "model-scale-nan": _model(
        {**BLASCHKE, "scale": [1.0, math.nan]}, "error: m.json: scale must be finite, got nan"),
    "model-p-inf": _model(
        {**BLASCHKE, "p": math.inf}, "error: m.json: p must be finite, got inf"),
    "model-omega0-inf": _model(
        {**OSCILLATOR, "omega0": math.inf}, "error: m.json: omega0 must be finite, got inf"),
    "model-plasma_frequency-nan": _model(
        {**KINDS["lorentz"], "plasma_frequency": math.nan},
        "error: m.json: plasma_frequency must be finite, got nan"),
    "model-gamma0-negative-inf": _model(
        {**KINDS["breit_wigner"], "gamma0": -math.inf},
        "error: m.json: gamma0 must be finite, got -inf"),
    "model-eta-string-inf": _model(
        {**KINDS["photon"], "eta": "inf"}, "error: m.json: eta must be finite, got 'inf'"),
    "barrier-segment-inf": Refusal(
        model_file({"type": "barrier", "segments": [[math.inf, 1.0]]}),
        ("barrier", *MODEL[1:-1], "b.csv"), 2,
        "error: m.json: segments[0] must be finite, got inf"),
    "model-large-p": _model(
        {**BLASCHKE, "p": 2000}, "error: m.json: model is not finite on [0.5, 1.5]"),
    "model-truncated-json": _model(
        '{"type": "oscillator",\n',
        "error: m.json: Expecting property name enclosed in double quotes: "
        "line 2 column 1 (char 23)"),
    "model-undecodable": _model(
        b'{"type": "oscillator",\n "omega0": 1.0, "gamma": 0.2,\n "x": "\xe9"}\n',
        "error: m.json: line 3: 'utf-8' codec can't decode byte 0xe9 in position 7: "
        "invalid continuation byte"),
    # model and barrier flags
    "model-points-past-cap": Refusal(
        model_file(BLASCHKE),
        ("model", "m.json", "--from", "0.5", "--to", "1.5", "--points", "10000001", "-o", "m"),
        2, "error: --points 10000001 exceeds the cap of 10000000"),
    "model-two-points": Refusal(
        model_file(BLASCHKE),
        ("model", "m.json", "--from", "0", "--to", "1", "--points", "2", "-o", "m"),
        2, "error: grid needs at least 3 nodes"),
    "model-missing-flag": Refusal(
        model_file(BLASCHKE), ("model", "m.json", "--from", "0", "--to", "1"), 2,
        re.compile(r"usage: tauspec model .*\ntauspec model: error: the following arguments "
                   r"are required: --points, -o/--output", re.DOTALL)),
    # A negative number with an exponent is a value; any other dash word is an option.
    "model-unknown-option": Refusal(
        model_file(BLASCHKE), (*MODEL, "-x"), 2,
        re.compile(r"usage: tauspec .*\ntauspec: error: unrecognized arguments: -x",
                   re.DOTALL)),
    # A bound that is no finite number, with or without a sign, is refused
    # before the grid is built.
    "model-from-inf": Refusal(
        model_file(BLASCHKE), ("model", "m.json", "--from", "inf", *MODEL[4:]), 2,
        "error: --from/--to bounds must be finite"),
    "model-from-negative-inf": Refusal(
        model_file(BLASCHKE), ("model", "m.json", "--from", "-inf", *MODEL[4:]), 2,
        "error: --from/--to bounds must be finite"),
    "model-to-negative-nan": Refusal(
        model_file(BLASCHKE), ("model", "m.json", "--from", "0.5", "--to", "-NaN", *MODEL[6:]),
        2, "error: --from/--to bounds must be finite"),
    "barrier-to-inf": Refusal(
        model_file(BARRIER_DOC),
        ("barrier", "m.json", "--from", "0.5", "--to", "inf", "--points", "11", "-o", "b.csv"),
        2, "error: --from/--to bounds must be finite"),
    "barrier-kind": Refusal(
        model_file(OSCILLATOR), ("barrier", *MODEL[1:-1], "b.csv"), 2,
        "error: m.json: barrier needs a potential-profile model"),
    # barrier on each other kind; "barrier-kind" is the oscillator's case.
    **{f"barrier-kind-{kind}": Refusal(
        model_file(doc), ("barrier", *MODEL[1:-1], "b.csv"), 2,
        "error: m.json: barrier needs a potential-profile model")
       for kind, doc in KINDS.items() if kind not in ("oscillator", "barrier")},
    "barrier-points-past-cap": Refusal(
        model_file(BARRIER_DOC),
        ("barrier", "m.json", "--from", "0.5", "--to", "1.5", "--points", "10000001",
         "-o", "b.csv"),
        2, "error: --points 10000001 exceeds the cap of 10000000"),
    "barrier-node-at-top": Refusal(
        model_file(BARRIER_DOC),
        ("barrier", "m.json", "--from", "0.1", "--to", "3.0", "--points", "30", "-o", "b.csv"),
        4, "error: energy within 1e-12 of segment height 1"),
    "barrier-opaque": Refusal(
        model_file({"type": "barrier", "segments": [[80.0, 1.0]]}),
        ("barrier", "m.json", "--from", "0.4", "--to", "0.6", "--points", "3", "-o", "b.csv"),
        3, "error: transmission too small to differentiate"),
    "barrier-phase-overflow": Refusal(
        model_file({"type": "barrier", "segments": [[1e300, 0.0]]}),
        ("barrier", "m.json", "--from", "1e299", "--to", "1e300", "--points", "3",
         "-o", "b.csv"),
        2, "error: k*width is not finite in segment 0 (width 1e+300, height 0)"),
    # winding
    "winding-kind": Refusal(
        model_file(OSCILLATOR), ("winding", "m.json", "--rect", "0", "2", "-1", "1"), 2,
        "error: m.json: winding needs a pole-zero model"),
    # winding on each other kind; "winding-kind" is the oscillator's case.
    **{f"winding-kind-{kind}": Refusal(
        model_file(doc), ("winding", "m.json", "--rect", "0", "2", "-1", "1"), 2,
        "error: m.json: winding needs a pole-zero model")
       for kind, doc in KINDS.items() if kind not in ("oscillator", "blaschke")},
    "winding-edge-through-zero": Refusal(
        model_file(BLASCHKE), ("winding", "m.json", "--rect", "0", "2", "0.1", "1"), 4,
        "error: contour edge within 1e-6 of a zero or pole"),
    "winding-bounds-unordered": Refusal(
        model_file(BLASCHKE), ("winding", "m.json", "--rect", "2", "0", "0.02", "1"), 2,
        "error: rectangle bounds must be ordered"),
    "winding-bound-infinite": Refusal(
        model_file(BLASCHKE), ("winding", "m.json", "--rect", "0", "2", "0.02", "inf"), 2,
        "error: --rect bounds must be finite"),
    "winding-bound-negative-inf": Refusal(
        model_file(BLASCHKE), ("winding", "m.json", "--rect", "0", "2", "-inf", "1"), 2,
        "error: --rect bounds must be finite"),
    "winding-area-overflows": Refusal(
        model_file(BLASCHKE), ("winding", "m.json", "--rect", "0", "2", "0.02", "1e200"), 2,
        "error: contour area overflows"),
    "winding-unresolved": Refusal(
        model_file(BLASCHKE),
        ("winding", "m.json", "--rect", "0", "2", "0.02", "1e3", "-o", "w.txt"), 3,
        "error: winding count 1.016202604786e+00 is 1.620e-02 from an integer, past 0.001; "
        "raise --samples (at most 100000)"),
    "winding-unresolved-at-cap": Refusal(
        model_file(BLASCHKE),
        ("winding", "m.json", "--rect", "0", "2", "0.02", "1e7", "--samples", "100000"), 3,
        "error: winding count 9.894621346535e-01 is 1.054e-02 from an integer, past 0.001; "
        "--samples is at its cap"),
    "winding-few-samples": Refusal(
        model_file(BLASCHKE),
        ("winding", "m.json", "--rect", "0", "2", "0.02", "1", "--samples", "8"), 2,
        "error: --samples 8 is below the minimum of 16"),
    "winding-samples-past-cap": Refusal(
        model_file(BLASCHKE),
        ("winding", "m.json", "--rect", "0", "2", "-1", "1", "--samples", "100001",
         "-o", "w.txt"),
        2, "error: --samples 100001 exceeds the cap of 100000"),
    # extract: the table as read, then the stencil's guards
    "extract-bad-cell": _extract(
        rows(SPECTRUM, "0.5,1.0,0.0", "", "0.6,x,0.0"),
        "error: s.csv: line 4: could not convert string to float: 'x'"),
    "extract-bad-cell-after-whitespace": _extract(
        rows(SPECTRUM, "0,1,2", "   ", "1,x,4"),
        "error: s.csv: line 4: could not convert string to float: 'x'"),
    "extract-ragged-row": _extract(
        rows(SPECTRUM, "0.5,1.0,0.0", "0.6,1.0"),
        "error: s.csv: line 3: row has 2 fields, expected 3"),
    "extract-decreasing-grid": _extract(
        rows(SPECTRUM, "2.0,1.0,0.0", "1.0,1.0,0.0", "0.5,1.0,0.0"),
        "error: s.csv: grid must be strictly increasing"),
    "extract-repeated-omega": _extract(
        rows(SPECTRUM, "0,1,0", "1,1,0", "1,1,0", "2,1,0"),
        "error: s.csv: grid must be strictly increasing"),
    **{f"extract-{cell}-sample": _extract(
        rows(SPECTRUM, "0.0,1.0,0.0", f"0.5,{cell},0.0", "1.0,1.0,0.0", "1.5,1.0,0.0"),
        "error: s.csv: spectrum contains non-finite values") for cell in ("nan", "inf")},
    "extract-temporal-input": _extract(
        rows(TEMPORAL, "0,1,0", "1,1,0", "2,1,0"),
        "error: s.csv: expected header 'omega,re,im', got 'omega,tau1,tau2'"),
    "extract-zero-modulus": _extract(
        rows(SPECTRUM, "0,1,0", "1,0,0", "2,1,0", "3,1,0", "4,1,0"),
        "error: s.csv: |S| below 1e-12 at node 1", code=3),
    "extract-zero-modulus-node-5": _extract(
        rows(SPECTRUM, *(f"{k / 10},{int(k != 5)},0" for k in range(11))),
        "error: s.csv: |S| below 1e-12 at node 5", code=3),
    "extract-order-4-too-few-nodes": _extract(
        rows(SPECTRUM, "0,1,0", "1,1,0", "2,1,0", "3,1,0"),
        "error: s.csv: order-4 derivative needs at least 5 nodes", flags=("--stencil", "4")),
    "extract-order-4-non-uniform": _extract(
        rows(SPECTRUM, "0,1,0", "1,1,0", "3,1,0", "4,1,0", "5,1,0", "6,1,0"),
        "error: s.csv: order-4 derivative requires a uniform grid", flags=("--stencil", "4")),
    # extract, kk and report on one spectrum table each
    **{f"{verb}-infinite-im": Refusal(
        {"s.csv": INFINITE_IM}, argv, 2, "error: s.csv: spectrum contains non-finite values")
       for verb, argv in SPECTRUM_VERBS.items()},
    **{f"{verb}-bad-byte-{count}": Refusal(
        {"s.csv": _bad_byte_table(count)}, argv, 2,
        f"error: s.csv: line {line}: 'utf-8' codec can't decode byte 0xe9 in position "
        f"{column}: invalid continuation byte")
       for verb, argv in SPECTRUM_VERBS.items()
       for count, (line, column) in BAD_BYTE_LINE.items()},
    # kk
    "kk-non-uniform": Refusal(
        {"s.csv": rows(SPECTRUM, "0,1,0", "1,1,0", "3,1,0", "4,1,0")}, ("kk", "s.csv"), 2,
        "error: s.csv: hilbert_transform needs a uniform grid"),
    "kk-tau-through-origin": Refusal(
        {"t.csv": rows(TEMPORAL, "0,1,0", "1,1,0", "2,1,0", "3,1,0")}, ("kk", "t.csv"), 2,
        "error: t.csv: extension needs a strictly positive grid"),
    "kk-tau-far-from-origin": Refusal(
        {"t.csv": rows(TEMPORAL, "1000.0,1,0", "1000.125,1,0", "1000.25,1,0")},
        ("kk", "t.csv"), 2,
        "error: t.csv: zero-filling to the origin needs 8000 steps per side for 3 nodes "
        "(limit 8 per node)"),
    "kk-tau-far-from-origin-11-nodes": Refusal(
        {"t.csv": rows(TEMPORAL, *(f"{1000 + 0.125 * k},1,0" for k in range(11)))},
        ("kk", "t.csv"), 2,
        "error: t.csv: zero-filling to the origin needs 8000 steps per side for 11 nodes "
        "(limit 8 per node)"),
    "kk-model-input": Refusal(
        model_file(BLASCHKE), ("kk", "m.json"), 2,
        "error: m.json: kk needs a spectrum or tau table"),
    "kk-missing-file": Refusal(
        {}, ("kk", "nope.csv"), 2, "error: [Errno 2] No such file or directory: 'nope.csv'"),
    # sumrule: a guard that compares the two tables names both
    "sumrule-grid-mismatch": Refusal(
        {"s.csv": rows(SPECTRUM, "0.5,1,0", "1.0,1,0", "1.5,1,0"),
         "t.csv": rows(TEMPORAL, "0.5,1,0", "1.0,1,0", "1.5,1,0", "2.0,1,0")},
        ("sumrule", "--spectrum", "s.csv", "--tau", "t.csv"), 2,
        "error: s.csv, t.csv: sum rule needs matching spectrum and tau grids"),
    "sumrule-origin-in-grid": Refusal(
        {"s.csv": rows(SPECTRUM, "-1,1,0", "0,1,0", "1,1,0"),
         "t.csv": rows(TEMPORAL, "-1,1,0", "0,1,0", "1,1,0")},
        ("sumrule", "--spectrum", "s.csv", "--tau", "t.csv"), 4,
        "error: s.csv, t.csv: sum rule grid must exclude the origin"),
    # report
    "report-nan-energy": Refusal(
        {"b.csv": rows(BARRIER, "nan,1,0,1,2", "0.2,1,0,1,2", "0.3,1,0,1,2")},
        ("report", "b.csv"), 2, "error: b.csv: grid contains non-finite values"),
    **{f"report-{cell}-transmission": Refusal(
        {"b.csv": rows(BARRIER, f"0.1,{cell},0,1,2", "0.2,0.5,0,1,2", "0.3,0.5,0,1,2")},
        ("report", "b.csv"), 2, "error: b.csv: barrier table contains non-finite values")
       for cell in ("nan", "inf")},
    "report-model": Refusal(
        model_file(BLASCHKE), ("report", "m.json"), 2,
        "error: m.json: report cannot summarise this format"),
    "report-missing-input": Refusal(
        {}, ("report", "missing.csv"), 2,
        "error: [Errno 2] No such file or directory: 'missing.csv'"),
    "report-undecodable-artifact": Refusal(
        {"a.txt": b"# tauspec:kk v1\r\nnodes=3\r\nname=\xff\r\n"}, ("report", "a.txt"), 2,
        "error: a.txt: line 3: 'utf-8' codec can't decode byte 0xff in position 5: "
        "invalid start byte"),
}

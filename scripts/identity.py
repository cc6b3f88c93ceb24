#!/usr/bin/env python3
"""Check that two source trees behave the same, byte for byte.

Usage: identity.py OLD_SRC NEW_SRC [--expect-diff CASE ...]

OLD_SRC and NEW_SRC are directories that hold a ``tauspec`` package,
such as the ``src`` of two checkouts. Each case writes its own inputs and
runs one command in a fresh interpreter, once with PYTHONPATH set to each
tree: a ``python -m tauspec`` verb, or a script beside this one. The
cases ``refused-<name>`` are the refusal table of ``refusals.py``; the
cases ``help-<verb>`` and ``usage-<name>`` pin argparse's help and its
refusals of a command line. The two runs of a case happen in two
directories under the same relative file names, so messages that name a
file compare as text. A case may pipe one input to the command's stdin,
which it then reads as ``/dev/stdin``.

The exit code, stdout, stderr and the bytes of every file left in the
case directory are compared, and each difference is printed on one line.
The one field masked is the elapsed time the demo prints. The exit code
is 1 if a case not named with --expect-diff differs, or a case named with
it does not, else 0. A run that exits 1 is broken (a traceback:
``tauspec`` itself exits 0, 2, 3 or 4), and fails the check whether or
not its case is named.
"""

import argparse
import importlib.util
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent
_SPEC = importlib.util.spec_from_file_location("refusals", SCRIPTS / "refusals.py")
refusals = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(refusals)
SPECTRUM, TEMPORAL, BARRIER = refusals.SPECTRUM, refusals.TEMPORAL, refusals.BARRIER
BLASCHKE, BARRIER_DOC = refusals.BLASCHKE, refusals.BARRIER_DOC
_rows, _doc = refusals.rows, refusals.model_file


def _table(header, *columns) -> str:
    rows = np.column_stack(columns).tolist()
    return header + "\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows)


def _spectrum(x, s) -> str:
    return _table(SPECTRUM, x, s.real, s.imag)


def _crlf(table: str) -> bytes:
    """``table`` after an empty and a whitespace-only line, every line
    ending in CR LF."""
    return ("\n \t\n" + table).replace("\n", "\r\n").encode()


_W = np.linspace(0.25, 1.75, 401)
RESONANCE = _spectrum(_W, (_W - 1.0 - 0.1j) / (_W - 1.0 + 0.1j))
_X = np.linspace(-60.0, 60.0, 4001)
POLE = _spectrum(_X, 1.0 / (_X - 1.0 + 0.1j))
_P = 0.05 * np.arange(1, 401)
TAU = _table(TEMPORAL, _P, 0.2 / ((_P - 1.0) ** 2 + 0.01), 0.1 / _P)
# Past 16,384 complex nodes numpy reuses temporaries in place, which swaps
# the operands of some complex products; the fine kk cases sit beyond it.
_X_FINE = np.linspace(-60.0, 60.0, 20001)
POLE_FINE = _spectrum(_X_FINE, 1.0 / (_X_FINE - 1.0 + 0.1j))
_P_FINE = 0.0025 * np.arange(1, 20002)
TAU_FINE = _table(TEMPORAL, _P_FINE, 0.2 / ((_P_FINE - 1.0) ** 2 + 0.01), 0.1 / _P_FINE)
_H = np.linspace(0.5, 50.0, 992)
_F = np.concatenate([-_H[::-1], _H])
SUM_SPECTRUM = _spectrum(_F, (2.3 + 0.4j) / _F)
SUM_TAU = _table(TEMPORAL, _F, 0.0 * _F, 1.0 / _F)
# A grid of 1,500 steps, where _F has 1,983, with a gap at the origin and
# one at 20 to 30: the sum rule's median of the steps takes its other branch.
_G = np.concatenate([-np.linspace(0.5, 50.0, 700)[::-1], np.linspace(0.5, 20.0, 501),
                     np.linspace(30.0, 50.0, 300)])
SUM_GAPPED_SPECTRUM = _spectrum(_G, (2.3 + 0.4j) / _G)
SUM_GAPPED_TAU = _table(TEMPORAL, _G, 0.2 / ((_G - 1.0) ** 2 + 0.01), 0.5 / _G)
# S_j = exp(2.5ij) for j < 20 and S_20 = -S_19, in %.12e cells: the phase
# steps by pi into the last node.
_FLIP = np.exp(2.5j * np.arange(21))
_FLIP[20] = -_FLIP[19]
SIGN_FLIP = _rows(SPECTRUM, *(f"{w:.12e},{s.real:.12e},{s.imag:.12e}"
                              for w, s in zip(np.linspace(0.0, 1.0, 21), _FLIP)))
BARRIER_TABLE = _rows(BARRIER, "0.5,0.1,-1.5,2.0,-0.5", "1.5,0.6,0.3,1.0,0.25",
                      "2.5,0.9,0.1,0.5,0.125")
KK_ARTIFACT = "# tauspec:kk v1\ninput=s.csv\nkind=spectrum\nnodes=4001\n"

# (document, from, to) of each model kind.
MODELS = {
    "blaschke": ({"type": "blaschke", "resonances": [[1.0, 0.2], [2.5, 0.05]],
                  "scale": [0.5, 0.25], "p": 1}, "0.5", "3.0"),
    "oscillator": ({"type": "oscillator", "omega0": 1.0, "gamma": 0.2}, "0.5", "1.5"),
    "lorentz": ({"type": "lorentz", "plasma_frequency": 2.0, "omega0": 1.5, "gamma": 0.3},
                "0.5", "2.5"),
    "breit_wigner": ({"type": "breit_wigner", "omega0": 10.0, "gamma": 0.2, "gamma0": 0.1},
                     "9.5", "10.5"),
    "breit_wigner-upper": ({"type": "breit_wigner", "omega0": 10.0, "gamma": 0.2,
                            "branch": "upper"}, "9.5", "10.5"),
    "photon": ({"type": "photon", "k_abs": 1.0, "eta": 1e-2}, "0.5", "1.5"),
    "barrier": (BARRIER_DOC, "0.05", "2.95"),
}

# Kinds also sampled at 40,001 nodes: a change in the last bit of S or tau
# moves the %.12e text of a cell about once in 10**3 to 10**4 cells, so 201
# nodes rarely show one.
FINE_MODELS = ("blaschke", "oscillator", "lorentz", "breit_wigner", "breit_wigner-upper",
               "photon")

# The verbs of the command, each with its case help-<verb>.
VERBS = ("extract", "model", "kk", "sumrule", "winding", "barrier", "report")


# The name in a case's input files of the text piped to its stdin.
STDIN = "<stdin>"


def _verb(files: dict, *argv) -> tuple:
    return files, ("-m", "tauspec", *argv)


def _cases() -> dict:
    """Each case's input files (name -> text or bytes; STDIN -> its piped
    stdin) and interpreter argv; a name given twice is an error, not a
    silent replacement."""
    cases = [
        ("demo", ({}, (str(SCRIPTS / "run_demo.py"), "demo"))),
        ("hartman_scan", ({}, (str(SCRIPTS / "hartman_scan.py"),))),
        ("barrier", _verb(_doc(BARRIER_DOC), "barrier", "m.json", "--from", "0.05", "--to",
                          "2.95", "--points", "30", "-o", "b.csv")),
        # Energies where the derivative terms of the sweep overflow and W
        # does not: near 0 |t| is too small (exit 3), near the largest
        # floats the table is finite.
        *((f"barrier-from-{lo}", _verb(_doc(BARRIER_DOC), "barrier", "m.json", "--from", lo,
                                        "--to", hi, "--points", "3", "-o", "b.csv"))
          for lo, hi in (("1e-300", "2e-300"), ("1e300", "1.5e300"), ("1e307", "1.7e308"))),
        ("extract-order-2", _verb({"s.csv": RESONANCE}, "extract", "s.csv", "-o", "t.csv")),
        ("extract-order-4", _verb({"s.csv": RESONANCE}, "--stencil", "4", "extract", "s.csv",
                                  "-o", "t.csv")),
        ("extract-sign-flip", _verb({"s.csv": SIGN_FLIP}, "extract", "s.csv", "-o", "t.csv")),
        ("extract-whitespace-lines", _verb(
            {"s.csv": _rows(SPECTRUM, "0,1,2", "   ", "1,3,4", "\t", "2,5,6", "3,7,8")},
            "extract", "s.csv", "-o", "t.csv")),
        # A plain table under a compressed file's name is read as text.
        ("extract-gz-name", _verb({"s.csv.gz": RESONANCE}, "extract", "s.csv.gz", "-o",
                                  "t.csv")),
        ("report-gz-name", _verb({"s.csv.gz": RESONANCE}, "report", "s.csv.gz")),
        ("extract-crlf", _verb({"s.csv": _crlf(RESONANCE)}, "extract", "s.csv", "-o",
                               "t.csv")),
        ("kk-crlf", _verb({"s.csv": _crlf(POLE)}, "kk", "s.csv", "-o", "kk.txt")),
        ("sumrule", _verb({"s.csv": SUM_SPECTRUM, "t.csv": SUM_TAU}, "sumrule", "--spectrum",
                          "s.csv", "--tau", "t.csv", "-o", "sumrule.txt")),
        ("sumrule-gapped-even", _verb({"s.csv": SUM_GAPPED_SPECTRUM, "t.csv": SUM_GAPPED_TAU},
                                      "sumrule", "--spectrum", "s.csv", "--tau", "t.csv",
                                      "-o", "sumrule.txt")),
        ("winding", _verb(_doc(BLASCHKE), "winding", "m.json", "--rect", "0", "2", "0.02",
                          "1", "-o", "w.txt")),
        # Negative bounds written with an exponent.
        ("winding-negative-exponent", _verb(_doc(BLASCHKE), "winding", "m.json", "--rect",
                                            "-1e6", "1e6", "-1", "1", "-o", "w.txt")),
        ("model-negative-exponent", _verb(_doc(MODELS["lorentz"][0]), "model", "m.json",
                                          "--from", "-1e3", "--to", "1e3", "--points", "201",
                                          "-o", "m")),
        # Negative bounds written with digit underscores.
        ("model-negative-underscore", _verb(_doc(MODELS["lorentz"][0]), "model", "m.json",
                                            "--from", "-1_0", "--to", "1_0.0_5", "--points",
                                            "201", "-o", "m")),
        # S is exactly 1 at the first node, where the anchored ratio of a
        # factor once rounded to 1 plus a few 1e-18j.
        ("model-anchor-breit_wigner", _verb(_doc({"type": "breit_wigner", "omega0": 1.5,
                                                  "gamma": 0.2, "gamma0": 0.1}),
                                            "model", "m.json", "--from", "0.05", "--to",
                                            "3.0", "--points", "201", "-o", "m")),
        ("model-anchor-lorentz", _verb(_doc({"type": "lorentz", "plasma_frequency": 2.0,
                                             "omega0": 1.0, "gamma": 0.1}),
                                       "model", "m.json", "--from", "0.3", "--to", "3.0",
                                       "--points", "201", "-o", "m")),
        ("report", _verb({"s.csv": RESONANCE, "t.csv": TAU, "b.csv": BARRIER_TABLE,
                          "kk.txt": KK_ARTIFACT}, "report", "s.csv", "t.csv", "b.csv",
                         "kk.txt", "--gnuplot", "plot.gp")),
        ("report-to-file", _verb({"s.csv": RESONANCE, "kk.txt": KK_ARTIFACT}, "report",
                                 "kk.txt", "s.csv", "-o", "report.txt")),
        # A table piped in, read as /dev/stdin: kk and report detect its
        # format and read its rows through one handle.
        ("extract-pipe", _verb({STDIN: RESONANCE}, "extract", "/dev/stdin", "-o", "t.csv")),
        ("kk-pipe", _verb({STDIN: POLE}, "kk", "/dev/stdin", "-o", "kk.txt")),
        ("report-pipe", _verb({STDIN: TAU, "s.csv": RESONANCE}, "report", "/dev/stdin",
                              "s.csv")),
        # A piped table numpy refuses is read again from its copy in memory,
        # and a byte that does not decode is named at its line.
        ("extract-pipe-blank-line", _verb({STDIN: _rows(SPECTRUM, "0,1,2", "   ", "1,3,4",
                                                        "2,5,6")},
                                          "extract", "/dev/stdin", "-o", "t.csv")),
        ("extract-pipe-ragged-row", _verb({STDIN: _rows(SPECTRUM, "0,1,2", "1,3", "2,5,6")},
                                          "extract", "/dev/stdin", "-o", "t.csv")),
        ("kk-pipe-undecodable", _verb({STDIN: b"omega,re,im\n1,\xe9,2\n2,3,4\n"}, "kk",
                                      "/dev/stdin")),
        ("help", _verb({}, "--help")),
        ("usage-no-verb", _verb({})),
        ("usage-unknown-verb", _verb({}, "teapot")),
        ("usage-bad-choice", _verb({}, "--stencil", "3", "extract", "s.csv", "-o", "t.csv")),
    ]
    cases += [(f"help-{verb}", _verb({}, verb, "--help")) for verb in VERBS]
    for kind, (doc, lo, hi) in MODELS.items():
        cases.append((f"model-{kind}", _verb(_doc(doc), "model", "m.json", "--from", lo,
                                             "--to", hi, "--points", "201", "-o", "m")))
        if kind in FINE_MODELS:
            cases.append((f"model-{kind}-fine", _verb(_doc(doc), "model", "m.json", "--from",
                                                      lo, "--to", hi, "--points", "40001",
                                                      "-o", "m")))
    for tail in ("none", "w1", "w2"):
        cases.append((f"kk-spectrum-{tail}", _verb({"s.csv": POLE}, "--tail", tail, "kk",
                                                   "s.csv", "-o", "kk.txt")))
        cases.append((f"kk-tau-{tail}", _verb({"t.csv": TAU}, "--tail", tail, "kk", "t.csv")))
        cases.append((f"kk-spectrum-fine-{tail}", _verb({"s.csv": POLE_FINE}, "--tail", tail,
                                                        "kk", "s.csv", "-o", "kk.txt")))
    cases.append(("kk-tau-fine-w1", _verb({"t.csv": TAU_FINE}, "--tail", "w1", "kk", "t.csv")))
    cases += [(f"refused-{name}", _verb(case.files, *case.argv))
              for name, case in refusals.CASES.items()]
    twice = sorted(name for name, count in Counter(name for name, _ in cases).items()
                   if count > 1)
    if twice:
        raise ValueError(f"case named more than once: {', '.join(twice)}")
    return dict(cases)


CASES = _cases()
_ELAPSED = re.compile(rb"demo finished in [0-9.]+ s")


def _run(workdir: Path, name: str, side: str, src: Path):
    """Exit code, stdout, stderr and every file left of one run of a case."""
    files, argv = CASES[name]
    cwd = workdir / side / name
    cwd.mkdir(parents=True)
    files = {filename: content if isinstance(content, bytes) else content.encode()
             for filename, content in files.items()}
    stdin = files.pop(STDIN, None)
    for filename, content in files.items():
        (cwd / filename).write_bytes(content)
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True,
                          input=stdin, timeout=600)
    tree = {p.relative_to(cwd).as_posix(): p.read_bytes()
            for p in sorted(cwd.rglob("*")) if p.is_file()}
    stdout = _ELAPSED.sub(b"demo finished in - s", proc.stdout)
    return proc.returncode, stdout, proc.stderr, tree


def _first_line(a: bytes, b: bytes) -> int:
    """1-based number of the first line where ``a`` and ``b`` differ."""
    la, lb = a.splitlines(), b.splitlines()
    return next((i for i, (x, y) in enumerate(zip(la, lb), 1) if x != y),
                min(len(la), len(lb)) + 1)


_BROKEN = "a traceback, never a tauspec exit code"


def _differences(name: str, old, new) -> list:
    (old_code, old_out, old_err, old_tree), (new_code, new_out, new_err, new_tree) = old, new
    lines = [f"{name}: {side} run exited 1, {_BROKEN}"
             for side, code in (("old", old_code), ("new", new_code)) if code == 1]
    if old_code != new_code:
        lines.append(f"{name}: exit {old_code} -> {new_code}")
    for stream, a, b in (("stdout", old_out, new_out), ("stderr", old_err, new_err)):
        if a != b:
            lines.append(f"{name}: {stream} differs at line {_first_line(a, b)}")
    for path in sorted(old_tree.keys() | new_tree.keys()):
        if path not in new_tree:
            lines.append(f"{name}: {path} only in old")
        elif path not in old_tree:
            lines.append(f"{name}: {path} only in new")
        elif old_tree[path] != new_tree[path]:
            lines.append(f"{name}: {path} differs at line "
                         f"{_first_line(old_tree[path], new_tree[path])}")
    return lines


def compare(old_src: Path, new_src: Path, names, workdir: Path) -> list:
    """One line per difference between the two trees over the cases ``names``."""
    old_src, new_src = Path(old_src).resolve(), Path(new_src).resolve()
    jobs = [(name, side, src) for name in names
            for side, src in (("old", old_src), ("new", new_src))]
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(lambda job: _run(Path(workdir), *job), jobs))
    return [line for i, name in enumerate(names)
            for line in _differences(name, runs[2 * i], runs[2 * i + 1])]


def expected(line: str, expect_diff) -> bool:
    """Whether --expect-diff excuses a difference line: it names the line's
    case, and the line reports no broken run."""
    return line.split(":", 1)[0] in expect_diff and not line.endswith(_BROKEN)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two tauspec source trees.")
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--expect-diff", action="append", default=[], metavar="CASE",
                        help="a case whose differences do not fail the check")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "tauspec" / "__init__.py").is_file():
            parser.error(f"{src} holds no tauspec package")
    unknown = sorted(set(args.expect_diff) - CASES.keys())
    if unknown:
        parser.error(f"unknown case {', '.join(unknown)}")
    with tempfile.TemporaryDirectory() as workdir:
        lines = compare(args.old_src, args.new_src, list(CASES), Path(workdir))
    unexpected = 0
    for line in lines:
        excused = expected(line, args.expect_diff)
        unexpected += not excused
        print(line + (" (expected)" if excused else ""))
    # A named case that did not differ makes the expected list inexact.
    unseen = sorted(set(args.expect_diff) - {line.split(":", 1)[0] for line in lines})
    for name in unseen:
        print(f"{name}: expected a difference, none seen")
    print(f"identity: {len(CASES)} cases, {len(lines)} differences, "
          f"{unexpected} not expected")
    return 1 if unexpected or unseen else 0


if __name__ == "__main__":
    sys.exit(main())

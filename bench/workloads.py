"""The three benchmark workloads: their seeded inputs, ops and checks.

Each ``build_*`` function writes or computes every input from the seed
(model parameters and grid offsets) with the benchmark's own numpy
code, then returns a ``Plan``: the op script and a digest of the
inputs.  tauspec sees only the generated files and arrays.  Every check
compares against closed forms or reference sums computed here, never
against tauspec itself.

* ``cli_session``: one fresh ``python -m tauspec`` process per op on
  inputs of at most a few thousand rows.  Import dominates, so startup
  work shows and kernel or csv work barely does.
* ``bulk_tables``: ``tauspec.cli.main`` in process on tables of about
  1.2e5 rows.  csv read and write dominate, side by side.
* ``kernel_sweep``: direct calls to the public kernels on arrays of up
  to 1e6 nodes, results kept in memory.  The kernels dominate; csv and
  import barely figure, so this is the no-change control for them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from measure import CheckFailed, Op

SPECTRUM_HEADER = "omega,re,im"
TEMPORAL_HEADER = "omega,tau1,tau2"

# Acceptance tolerances the checks apply (the same numbers tauspec's
# own acceptance suite uses).
KK_CAUSAL_MAX = 2e-2
EXTRACT_ABS = 1e-3
FINE_REL = 1e-4
SUM_RULE_RATIO = 1e-2
WINDING_ABS = 1e-3
UNITARITY_ABS = 1e-10


@dataclass
class Plan:
    ops: list[Op]
    inputs_digest: str


# -- inputs ------------------------------------------------------------
def write_csv(path: Path, header: str, columns) -> int:
    """Write a csv table in tauspec's format (%.12e, LF); returns rows."""
    block = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row = ",".join(["%.12e"] * block.shape[1]) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        fh.write((row * block.shape[0]) % tuple(block.ravel()))
    return block.shape[0]


def write_json(path: Path, doc: dict) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def file_digest(*paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def array_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def dir_digest(root: Path) -> str:
    return file_digest(*sorted(p for p in root.iterdir() if p.is_file()))


def parse_artifact(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# tauspec:"):
        raise CheckFailed("output is not a tauspec artifact")
    return dict(ln.split("=", 1) for ln in lines[1:])


def nice(x: float, step: float) -> float:
    """Round to a multiple of ``step`` so grid values survive %.12e."""
    return round(round(x / step) * step, 12)


def _re_im(values):
    return values.real, values.imag


def _complex(data):
    """Complex column pair of a parsed three-column table."""
    return data[:, 1] + 1j * data[:, 2]


# -- closed forms ------------------------------------------------------
def blaschke(x, resonances, p=0):
    """S = omega**-p prod (omega - z_n)/(omega - conj z_n), z_n = w + i g/2."""
    x = np.asarray(x, dtype=complex)
    out = np.ones(x.shape, dtype=complex) if p == 0 else x ** (-p)
    for w, g in resonances:
        z = w + 0.5j * g
        out = out * (x - z) / (x - np.conj(z))
    return out


def blaschke_tau(x, resonances, p=0):
    x = np.asarray(x, dtype=complex)
    out = np.zeros(x.shape, dtype=complex)
    for w, g in resonances:
        z = w + 0.5j * g
        out += -1j * (1.0 / (x - z) - 1.0 / (x - np.conj(z)))
    if p:
        out += 1j * p / x
    return out


def oscillator(x, omega0, gamma):
    """Green function and (tau1, tau2) of the damped oscillator."""
    w1 = np.sqrt(omega0**2 - 0.25 * gamma**2)
    q = 0.25 * gamma**2
    g = -1.0 / (2.0 * np.pi * (x - w1 + 0.5j * gamma) * (x + w1 + 0.5j * gamma))
    dm, dp = (x - w1) ** 2 + q, (x + w1) ** 2 + q
    return g, 0.5 * gamma * (1.0 / dm + 1.0 / dp), (x - w1) / dm + (x + w1) / dp


def causal_pair_tau(x, z):
    """tau of a retarded pole pair at z and -conj(z) (analytic above)."""
    return 1j / (np.pi * (x - z)) + np.conj(1j / (np.pi * (-x - z)))


def barrier_transmission(energy, width, height):
    """|t|^2 of one rectangular barrier, units with hbar^2/2m = 1."""
    e = np.asarray(energy, dtype=float)
    gap = e - height
    k = np.sqrt(np.abs(gap))
    s = np.where(gap < 0, np.sinh(k * width), np.sin(k * width))
    return 1.0 / (1.0 + height**2 * s**2 / (4.0 * e * np.abs(gap)))


def safe_height(energies, height, step):
    """Nudge a barrier height off every energy the sweep evaluates."""
    probes = np.concatenate([energies, energies - step, energies + step])
    while np.min(np.abs(probes - height)) < 1e-6:
        height += 1e-5
    return height


def sum_rule_reference(omega, s, tau):
    """Block-wise trapezoid of S/omega (tau - i/omega) and its L1 scale."""
    f = s / omega * (tau - 1j / omega)
    neg, pos = omega < 0, omega > 0
    value = np.trapezoid(f[neg], omega[neg]) + np.trapezoid(f[pos], omega[pos])
    scale = np.trapezoid(np.abs(f[neg]), omega[neg]) + np.trapezoid(np.abs(f[pos]), omega[pos])
    return complex(value), float(scale)


def symmetric_pair(pos, resonances, p):
    """Conjugate-symmetric spectrum and tau on -pos[::-1] ++ pos."""
    s_pos, t_pos = blaschke(pos, resonances, p), blaschke_tau(pos, resonances, p)
    omega = np.concatenate([-pos[::-1], pos])
    return (omega, np.concatenate([np.conj(s_pos)[::-1], s_pos]),
            np.concatenate([np.conj(t_pos)[::-1], t_pos]))


# -- checks ------------------------------------------------------------
def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def max_err(got, want) -> float:
    return float(np.max(np.abs(np.asarray(got) - np.asarray(want))))


def once_per_digest(digest_of, verify):
    """Check function: verify the content the first time a digest is seen.

    Outputs whose digest was already verified are byte-identical to
    checked ones, so large tables are parsed once per run, not per pass.
    """
    verified = set()

    def check(out):
        digest = digest_of(out)
        if digest not in verified:
            verify(out)
            verified.add(digest)
        return digest

    return check


def text_check(verify):
    """Check function for an op whose output is its stdout text."""
    def check(out):
        verify(out)
        return hashlib.sha256(out.encode()).hexdigest()
    return check


def check_temporal_file(path, omega, tau, edge=0, rel=1e-9, absolute=None):
    data = read_csv(path)
    require(data.shape == (omega.size, 3), f"{path.name}: shape {data.shape}")
    require(max_err(data[:, 0], omega) <= 1e-9 * np.max(np.abs(omega)), "omega column")
    sl = slice(edge, omega.size - edge) if edge else slice(None)
    tol = absolute if absolute is not None else rel * float(np.max(np.abs(tau)))
    err = max(max_err(data[sl, 1], tau.real[sl]), max_err(data[sl, 2], tau.imag[sl]))
    require(err <= tol, f"{path.name}: tau off by {err:.3e} (tolerance {tol:.1e})")


def check_kk_text(text, nodes):
    art = parse_artifact(text)
    residual = float(art["residual_max"])
    require(residual < KK_CAUSAL_MAX, f"causal kk residual {residual:.3e}")
    require(int(art["nodes"]) == nodes, f"kk nodes {art['nodes']} != {nodes}")


def check_sumrule_text(text, reference, ratio=None):
    art = parse_artifact(text)
    value = complex(float(art["value_re"]), float(art["value_im"]))
    scale = float(art["l1_scale"])
    want, want_scale = reference
    require(abs(value - want) <= 1e-9 * want_scale, f"sum rule {value} != {want}")
    require(abs(scale - want_scale) <= 1e-9 * want_scale, "sum rule L1 scale")
    if ratio is not None:
        require(abs(value) / scale < ratio, f"balance {abs(value) / scale:.3e}")


def check_barrier_file(path, energies, width, height):
    data = read_csv(path)
    require(data.shape == (energies.size, 5), f"{path.name}: shape {data.shape}")
    trans = data[:, 1]
    require(bool(np.all(np.isfinite(data))), "barrier table has non-finite entries")
    require(bool(np.all((trans >= 0) & (trans <= 1 + 1e-12))), "transmission outside [0, 1]")
    want = barrier_transmission(energies, width, height)
    err = float(np.max(np.abs(trans - want) / want))
    require(err < 1e-8, f"transmission off by {err:.3e} relative")


def _lib():
    """The tauspec package, looked up at call time so traced wrappers apply."""
    return sys.modules["tauspec"]


def cli_in_process(argv) -> str:
    """Run ``tauspec.cli.main`` in process; returns its stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = _lib().cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"tauspec {argv[0]} exited {rc}")
    return buf.getvalue()


# -- cli_session -------------------------------------------------------
class Spawner:
    """Runs one tauspec process per op in the workload directory.

    Untraced ops run ``python -m tauspec``.  When ``trace_dir`` is set,
    ops run ``child.py``, which wraps the same call in the tracer and
    writes the child's spans to ``trace_dir``; ``take_spans`` hands the
    path of the last op's spans to the caller.
    """

    timeout = 170.0  # seconds; a run must end within 180

    def __init__(self, python, env, cwd, child_script):
        self.python = python
        self.env = env
        self.cwd = cwd
        self.child_script = child_script
        self.trace_dir: Path | None = None
        self._spans: Path | None = None
        self._count = 0

    def __call__(self, args):
        if self.trace_dir is None:
            cmd = [self.python, "-m", "tauspec", *args]
        else:
            self._count += 1
            self._spans = self.trace_dir / f"child{self._count}.json"
            cmd = [self.python, str(self.child_script), "--spans", str(self._spans), "--", *args]
        proc = subprocess.Popen(
            cmd, cwd=self.cwd, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {err.strip()[-300:]}")
        return out

    def take_spans(self) -> Path | None:
        path, self._spans = self._spans, None
        return path


def build_cli_session(workdir: Path, seed: int, spawn) -> Plan:
    rng = np.random.default_rng([seed, 1])
    d = workdir
    w0, g0 = rng.uniform(0.9, 1.1), rng.uniform(0.15, 0.25)
    resonance = [[float(w0), float(g0)]]
    write_json(d / "resonance.json", {"type": "blaschke", "resonances": resonance})

    lo = nice(0.25 + rng.uniform(-0.05, 0.05), 1e-3)
    model_omega = np.linspace(lo, lo + 1.5, 2001)
    model_s = blaschke(model_omega, resonance)
    model_tau = blaschke_tau(model_omega, resonance)

    spec_omega = nice(0.3 + rng.uniform(-0.05, 0.05), 1e-3) + 7.5e-4 * np.arange(2001)
    spec_omega = np.round(spec_omega, 9)
    n_spec = write_csv(d / "spec.csv", SPECTRUM_HEADER,
                       [spec_omega, *_re_im(blaschke(spec_omega, resonance))])

    x = np.linspace(-30.0, 30.0, 4001)
    pole = rng.uniform(0.8, 1.2) - 1j * rng.uniform(0.25, 0.35)
    n_causal = write_csv(d / "causal.csv", SPECTRUM_HEADER, [x, *_re_im(1.0 / (x - pole))])

    tau_omega = 0.01 * np.arange(1, 3001)
    z = rng.uniform(4.0, 6.0) - 1j * rng.uniform(0.2, 0.3)
    n_tau = write_csv(d / "tau.csv", TEMPORAL_HEADER,
                      [tau_omega, *_re_im(causal_pair_tau(tau_omega, z))])

    bal = [(float(rng.uniform(4.0, 6.0)), float(rng.uniform(0.3, 0.5)))]
    omega, s, tau = symmetric_pair(0.5 + 0.02 * np.arange(1476), bal, 1)
    n_bal = write_csv(d / "bal.spectrum.csv", SPECTRUM_HEADER, [omega, *_re_im(s)])
    write_csv(d / "bal.tau.csv", TEMPORAL_HEADER, [omega, *_re_im(tau)])
    parsed = read_csv(d / "bal.spectrum.csv")
    bal_ref = sum_rule_reference(parsed[:, 0], _complex(parsed), _complex(read_csv(d / "bal.tau.csv")))

    rect = [nice(rng.uniform(0.1, 0.5), 1e-3), nice(rng.uniform(1.5, 2.0), 1e-3),
            nice(rng.uniform(0.01, 0.05), 1e-3), nice(rng.uniform(0.5, 1.0), 1e-3)]

    width = float(rng.uniform(1.5, 2.5))
    energies = np.linspace(0.05, 2.95, 200)
    height = safe_height(energies, float(rng.uniform(0.8, 1.2)), 1e-4)
    write_json(d / "barrier.json", {"type": "barrier", "segments": [[width, height]]})

    def help_verify(out):
        require("usage: tauspec" in out, "help text lacks the usage line")

    def model_verify(_):
        check_temporal_file(d / "m.tau.csv", model_omega, model_tau)
        check_temporal_file(d / "m.spectrum.csv", model_omega, model_s)

    def extract_verify(_):
        check_temporal_file(d / "ext.csv", spec_omega, blaschke_tau(spec_omega, resonance),
                            edge=2, absolute=EXTRACT_ABS)

    def winding_verify(out):
        got = float(parse_artifact(out)["winding"])
        require(abs(got - 1.0) < WINDING_ABS, f"winding {got} != 1")

    def report_verify(_):
        text = (d / "report.txt").read_text()
        require(text.startswith("# tauspec:report v1\n"), "report header")
        for name, nodes in (("spec.csv", n_spec), ("causal.csv", n_causal), ("tau.csv", n_tau)):
            section = text.partition(f"[file {name}]\n")[2].partition("\n\n")[0]
            require(f"nodes={nodes}\n" in section + "\n", f"report section of {name}")

    ops = [
        Op("help", lambda: spawn(["--help"]), text_check(help_verify)),
        Op("model", lambda: spawn(["model", "resonance.json", "--from", repr(lo), "--to",
                                   repr(lo + 1.5), "--points", "2001", "-o", "m"]),
           once_per_digest(lambda _: file_digest(d / "m.spectrum.csv", d / "m.tau.csv"),
                           model_verify), rows_written=2 * 2001),
        Op("extract", lambda: spawn(["--stencil", "4", "extract", "spec.csv", "-o", "ext.csv"]),
           once_per_digest(lambda _: file_digest(d / "ext.csv"), extract_verify),
           rows_read=n_spec, rows_written=n_spec),
        Op("kk_spectrum", lambda: spawn(["--tail", "w1", "kk", "causal.csv"]),
           text_check(lambda out: check_kk_text(out, n_causal - 2 * int(0.05 * n_causal))),
           rows_read=n_causal),
        Op("sumrule", lambda: spawn(["sumrule", "--spectrum", "bal.spectrum.csv",
                                     "--tau", "bal.tau.csv"]),
           text_check(lambda out: check_sumrule_text(out, bal_ref)), rows_read=2 * n_bal),
        Op("winding", lambda: spawn(["winding", "resonance.json", "--rect",
                                     *map(repr, rect), "--samples", "16"]),
           text_check(winding_verify)),
        Op("barrier", lambda: spawn(["barrier", "barrier.json", "--from", "0.05", "--to",
                                     "2.95", "--points", "200", "-o", "barrier.csv"]),
           once_per_digest(lambda _: file_digest(d / "barrier.csv"),
                           lambda _: check_barrier_file(d / "barrier.csv", energies,
                                                        width, height)),
           rows_written=200),
        Op("report", lambda: spawn(["report", "spec.csv", "causal.csv", "tau.csv",
                                    "-o", "report.txt"]),
           once_per_digest(lambda _: file_digest(d / "report.txt"), report_verify),
           rows_read=n_spec + n_causal + n_tau),
    ]
    return Plan(ops, dir_digest(d))


# -- bulk_tables -------------------------------------------------------
BULK_ROWS = 120001


def build_bulk_tables(workdir: Path, seed: int) -> Plan:
    rng = np.random.default_rng([seed, 2])
    d = workdir
    n = BULK_ROWS

    w0, gamma = float(rng.uniform(0.9, 1.1)), float(rng.uniform(0.15, 0.25))
    write_json(d / "lorentz.json", {"type": "lorentz", "omega0": w0, "gamma": gamma,
                                    "plasma_frequency": float(rng.uniform(0.5, 1.5))})
    lo = nice(0.2 + rng.uniform(0.0, 0.05), 1e-3)
    model_omega = np.linspace(lo, lo + 2.4, n)
    green, tau1, tau2 = oscillator(model_omega, w0, gamma)
    model_s = green / green[0]

    resonances = [(float(rng.uniform(0.6, 0.8)), float(rng.uniform(0.05, 0.1))),
                  (float(rng.uniform(1.2, 1.4)), float(rng.uniform(0.05, 0.1)))]
    spec_omega = np.round(nice(0.25 + rng.uniform(0.0, 0.05), 1e-3) + 1.25e-5 * np.arange(n), 10)
    write_csv(d / "spec.csv", SPECTRUM_HEADER, [spec_omega, *_re_im(blaschke(spec_omega, resonances))])

    x = np.linspace(-60.0, 60.0, n)
    pole = rng.uniform(0.8, 1.2) - 1j * rng.uniform(0.08, 0.12)
    write_csv(d / "causal.csv", SPECTRUM_HEADER, [x, *_re_im(1.0 / (x - pole))])

    bal = [(float(rng.uniform(9.0, 11.0)), float(rng.uniform(0.015, 0.025)))]
    omega, s, tau = symmetric_pair(np.round(0.5 + 0.001 * np.arange(59501), 9), bal, 1)
    n_bal = write_csv(d / "bal.spectrum.csv", SPECTRUM_HEADER, [omega, *_re_im(s)])
    write_csv(d / "bal.tau.csv", TEMPORAL_HEADER, [omega, *_re_im(tau)])
    parsed = read_csv(d / "bal.spectrum.csv")
    bal_ref = sum_rule_reference(parsed[:, 0], _complex(parsed), _complex(read_csv(d / "bal.tau.csv")))

    p = {k: str(d / k) for k in ("lorentz.json", "spec.csv", "causal.csv",
                                 "bal.spectrum.csv", "bal.tau.csv")}
    stem = str(d / "model")

    def model_verify(_):
        check_temporal_file(d / "model.tau.csv", model_omega, tau1 + 1j * tau2)
        check_temporal_file(d / "model.spectrum.csv", model_omega, model_s, rel=1e-5)

    def extract_verify(_):
        want = blaschke_tau(spec_omega, resonances)
        check_temporal_file(d / "ext.csv", spec_omega, want, edge=2,
                            absolute=min(EXTRACT_ABS, FINE_REL * float(np.max(np.abs(want)))))

    def report_verify(_):
        text = (d / "report.txt").read_text()
        require(text.startswith("# tauspec:report v1\n"), "report header")
        for name in ("spec.csv", "causal.csv"):
            section = text.partition(f"[file {name}]\n")[2].partition("\n\n")[0]
            require(f"nodes={n}\n" in section + "\n", f"report section of {name}")

    ops = [
        Op("model", lambda: cli_in_process(["model", p["lorentz.json"], "--from", repr(lo),
                                            "--to", repr(lo + 2.4), "--points", str(n),
                                            "-o", stem]),
           once_per_digest(lambda _: file_digest(stem + ".spectrum.csv", stem + ".tau.csv"),
                           model_verify), rows_written=2 * n),
        Op("extract", lambda: cli_in_process(["--stencil", "4", "extract", p["spec.csv"],
                                              "-o", str(d / "ext.csv")]),
           once_per_digest(lambda _: file_digest(d / "ext.csv"), extract_verify),
           rows_read=n, rows_written=n),
        Op("kk", lambda: cli_in_process(["--tail", "w1", "kk", p["causal.csv"]]),
           text_check(lambda out: check_kk_text(out, n - 2 * int(0.05 * n))), rows_read=n),
        Op("sumrule", lambda: cli_in_process(["sumrule", "--spectrum", p["bal.spectrum.csv"],
                                              "--tau", p["bal.tau.csv"]]),
           text_check(lambda out: check_sumrule_text(out, bal_ref, SUM_RULE_RATIO)),
           rows_read=2 * n_bal),
        Op("report", lambda: cli_in_process(["report", p["spec.csv"], p["causal.csv"],
                                             "-o", str(d / "report.txt")]),
           once_per_digest(lambda _: file_digest(d / "report.txt"), report_verify),
           rows_read=2 * n),
    ]
    return Plan(ops, dir_digest(d))


# -- kernel_sweep ------------------------------------------------------
def build_kernel_sweep(workdir: Path, seed: int) -> Plan:
    rng = np.random.default_rng([seed, 3])
    d = workdir

    kk_x = np.linspace(-600.0, 600.0, 400001)
    pole = rng.uniform(0.8, 1.2) - 1j * rng.uniform(0.08, 0.12)
    kk_s = 1.0 / (kk_x - pole)

    tau_x = 0.001 * np.arange(1, 100001)
    z = rng.uniform(4.0, 6.0) - 1j * rng.uniform(0.2, 0.3)
    tau_t = causal_pair_tau(tau_x, z)

    fine_x = np.linspace(0.25 + rng.uniform(0.0, 0.05), 1.75 + rng.uniform(0.0, 0.05), 1000000)
    fine_res = [(float(rng.uniform(0.6, 0.8)), float(rng.uniform(0.05, 0.1))),
                (float(rng.uniform(1.2, 1.4)), float(rng.uniform(0.05, 0.1)))]
    fine_s = blaschke(fine_x, fine_res)
    fine_t = blaschke_tau(fine_x, fine_res)

    wind_res = tuple((float(w + rng.uniform(-0.05, 0.05)), float(rng.uniform(0.1, 0.3)))
                     for w in (0.6, 1.0, 1.4))
    rect = (0.8 + rng.uniform(-0.05, 0.05), 1.6 + rng.uniform(-0.05, 0.05),
            0.01, 1.0 + rng.uniform(0.0, 0.5))
    wind_want = sum(1 for w, g in wind_res if rect[0] < w < rect[1] and rect[2] < g / 2 < rect[3])

    width, height = float(rng.uniform(1.5, 2.5)), float(rng.uniform(0.8, 1.2))
    level = (np.pi / width) ** 2
    e_res = height + 4.0 * level  # k a = 2 pi above the barrier: |t| = 1
    window = (e_res - 0.5 * level, e_res + 0.5 * level)

    sweep_e = np.linspace(0.05, 2.95, 2000)
    sweep_h = safe_height(sweep_e, float(rng.uniform(0.8, 1.2)), 1e-4)
    sweep_w = float(rng.uniform(1.5, 2.5))
    write_json(d / "barrier.json", {"type": "barrier", "segments": [[sweep_w, sweep_h]]})
    sweep_out = d / "barrier.csv"

    def kk_run():
        ts = _lib()
        spec = ts.core.ComplexSpectrum(ts.core.FrequencyGrid(kk_x), kk_s)
        return ts.dispersion.kk_residual(spec, "one_over_omega")

    def tau_kk_run():
        ts = _lib()
        temporal = ts.core.TemporalSpectrum(ts.core.FrequencyGrid(tau_x), tau_t.real, tau_t.imag)
        return ts.dispersion.tau_kk_residual(temporal, "one_over_omega")

    def kk_check(report):
        require(report.residual_max < KK_CAUSAL_MAX, f"causal kk residual {report.residual_max:.3e}")
        return array_digest(np.array([report.residual_max, report.residual_l2, report.nodes]))

    def extract_run():
        ts = _lib()
        spec = ts.core.ComplexSpectrum(ts.core.FrequencyGrid(fine_x), fine_s)
        return ts.extract.extract_temporal(spec, ts.extract.ExtractionOptions(stencil_order=4))

    def extract_check(temporal):
        sl = temporal.interior
        err = max(max_err(temporal.tau1[sl], fine_t.real[sl]),
                  max_err(temporal.tau2[sl], fine_t.imag[sl]))
        tol = FINE_REL * float(np.max(np.abs(fine_t)))
        require(err <= tol, f"extracted tau off by {err:.3e} (tolerance {tol:.1e})")
        return array_digest(temporal.tau1, temporal.tau2)

    def reconstruct_run():
        ts = _lib()
        temporal = ts.core.TemporalSpectrum(ts.core.FrequencyGrid(fine_x), fine_t.real, fine_t.imag)
        return ts.core.reconstruct(temporal, float(fine_x[0]), complex(fine_s[0]))

    def reconstruct_check(spectrum):
        err = max_err(spectrum.values, fine_s)
        require(err <= 1e-6, f"reconstructed S off by {err:.3e}")
        return array_digest(spectrum.values)

    def winding_run():
        ts = _lib()
        model = ts.core.PoleZeroModel(resonances=wind_res)
        contour = ts.dispersion.Contour.rectangle(*rect)
        return ts.dispersion.winding_number(model, contour, 256)

    def winding_check(value):
        require(abs(value - wind_want) < WINDING_ABS, f"winding {value} != {wind_want}")
        return array_digest(np.array([value]))

    def resonance_run():
        ts = _lib()
        profile = ts.scatter1d.PotentialProfile(((width, height),))
        energy = ts.scatter1d.find_resonance(profile, *window)
        return energy, ts.scatter1d.s_matrix(profile, energy)

    def resonance_check(out):
        energy, amp = out
        require(abs(energy - e_res) < 1e-5 * e_res, f"resonance at {energy}, expected {e_res}")
        flux = abs(amp.r) ** 2 + abs(amp.t) ** 2
        require(abs(flux - 1.0) < UNITARITY_ABS, f"|r|^2+|t|^2 = {flux!r}")
        require(abs(amp.t) ** 2 > 1.0 - 1e-6, f"|t|^2 = {abs(amp.t) ** 2} at resonance")
        return array_digest(np.array([energy, amp.r, amp.t], dtype=complex))

    barrier_argv = ["barrier", str(d / "barrier.json"), "--from", "0.05", "--to", "2.95",
                    "--points", "2000", "-o", str(sweep_out)]
    ops = [
        Op("kk_residual", kk_run, kk_check),
        Op("tau_kk_residual", tau_kk_run, kk_check),
        Op("extract_temporal", extract_run, extract_check),
        Op("reconstruct", reconstruct_run, reconstruct_check),
        Op("winding_number", winding_run, winding_check),
        Op("find_resonance", resonance_run, resonance_check),
        Op("barrier", lambda: cli_in_process(barrier_argv),
           once_per_digest(lambda _: file_digest(sweep_out),
                           lambda _: check_barrier_file(sweep_out, sweep_e, sweep_w, sweep_h)),
           rows_written=2000),
    ]
    digest = array_digest(kk_s, tau_t, fine_x, fine_s, np.array(wind_res), np.array(rect),
                          np.array([width, height, e_res]), np.array(window))
    return Plan(ops, file_digest(d / "barrier.json") + digest)


WORKLOADS = {
    "cli_session": (build_cli_session, False),
    "bulk_tables": (build_bulk_tables, True),
    "kernel_sweep": (build_kernel_sweep, True),
}

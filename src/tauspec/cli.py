"""Command-line interface.

Verbs:
    extract   tau1/tau2 from a sampled spectrum file
    model     sample a closed-form model: spectrum and tau side by side
    kk        causality residual report for a spectrum or tau table
    sumrule   weighted balance integral of a spectrum/tau pair
    winding   contour count of zeros minus poles for a pole-zero model
    barrier   transmission and delay table for a 1-d potential
    report    merge tables and artifacts into one deterministic document

Exit codes: 0 success, 2 input contract violated, 3 numerical guard
tripped, 4 domain guard (singularity or excluded region touched).  A
package error names its own code in ``exit_code``.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import fileio
from .core import ComplexSpectrum, FrequencyGrid, TemporalSpectrum
from .dispersion import (
    MIN_SAMPLES_PER_EDGE,
    Contour,
    frequency_sum_rule,
    kk_residual,
    sum_rule_scale,
    tau_kk_residual,
    winding_number,
)
from .errors import TauspecError
from .extract import ExtractionOptions, extract_temporal
from .fileio import MAX_POINTS
from .scatter1d import complex_time, s_matrix, transmission_and_time

EXIT_OK = 0
EXIT_INPUT = 2

# Caps on the sizes a flag asks for, checked before anything is allocated;
# MAX_POINTS also caps the rows of a table read.
MAX_SAMPLES_PER_EDGE = 10**5

_TAIL_BY_FLAG = {"none": "none", "w1": "one_over_omega", "w2": "one_over_omega2"}

_TOLERANCES = (
    ("extract_closed_form_abs", 1.0e-3, "interior concordance with closed forms"),
    ("extract_fine_grid_rel", 1.0e-4, "order-4 stencil on a resolved grid"),
    ("round_trip_rel", 1.0e-6, "extract after reconstruct, interior"),
    ("kk_causal_max", 2.0e-2, "retarded response residual with tails"),
    ("kk_acausal_ratio_min", 1.0e1, "advanced over retarded residual"),
    ("sum_rule_ratio", 1.0e-2, "vanishing rule against integrand L1 scale"),
    ("winding_abs", 1.0e-3, "integer count from contour quadrature"),
    ("uncertainty_gaussian_abs", 1.0e-2, "spread product of a plain Gaussian"),
    ("unitarity_abs", 1.0e-10, "flux conservation of scattering amplitudes"),
    ("hartman_drift_rel", 1.0e-2, "delay change under opaque-width doubling"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tauspec",
        description="temporal functions of scattering: extraction, models, "
        "dispersion checks",
    )
    parser.add_argument(
        "--stencil", type=int, choices=(2, 4), default=2,
        help="finite-difference order for extraction (default 2)",
    )
    parser.add_argument(
        "--tail", choices=("none", "w1", "w2"), default="none",
        help="tail model for dispersion integrals (default none)",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def _global_flags(sp):
        # Accept the global flags after the verb as well; SUPPRESS keeps
        # a pre-verb value from being clobbered by a subparser default.
        sp.add_argument(
            "--stencil", type=int, choices=(2, 4), default=argparse.SUPPRESS
        )
        sp.add_argument(
            "--tail", choices=("none", "w1", "w2"), default=argparse.SUPPRESS
        )

    p = sub.add_parser("extract", help="tau1/tau2 from a sampled spectrum")
    p.add_argument("input")
    p.add_argument("-o", "--output", required=True)
    _global_flags(p)
    p.set_defaults(run=_cmd_extract)

    p = sub.add_parser("model", help="sample a model: spectrum and tau files")
    p.add_argument("model")
    p.add_argument("--from", dest="lo", type=float, required=True)
    p.add_argument("--to", dest="hi", type=float, required=True)
    p.add_argument("--points", type=int, required=True,
                   help=f"grid nodes, at most {MAX_POINTS}")
    p.add_argument("-o", "--output", required=True, help="output path prefix")
    _global_flags(p)
    p.set_defaults(run=_cmd_model)

    p = sub.add_parser("kk", help="causality residual report")
    p.add_argument("input")
    p.add_argument("-o", "--output", help="also write the report as an artifact")
    _global_flags(p)
    p.set_defaults(run=_cmd_kk)

    p = sub.add_parser("sumrule", help="weighted balance integral")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--tau", required=True)
    p.add_argument("-o", "--output")
    _global_flags(p)
    p.set_defaults(run=_cmd_sumrule)

    p = sub.add_parser("winding", help="zeros minus poles inside a rectangle")
    p.add_argument("model")
    p.add_argument(
        "--rect", nargs=4, type=float, required=True,
        metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"),
    )
    p.add_argument("--samples", type=int, default=MIN_SAMPLES_PER_EDGE,
                   help=f"panels per edge, {MIN_SAMPLES_PER_EDGE} to "
                   f"{MAX_SAMPLES_PER_EDGE} (default {MIN_SAMPLES_PER_EDGE})")
    p.add_argument("-o", "--output")
    _global_flags(p)
    p.set_defaults(run=_cmd_winding)

    p = sub.add_parser("barrier", help="transmission and delays of a potential")
    p.add_argument("model")
    p.add_argument("--from", dest="lo", type=float, required=True)
    p.add_argument("--to", dest="hi", type=float, required=True)
    p.add_argument("--points", type=int, required=True,
                   help=f"energy nodes, at most {MAX_POINTS}")
    p.add_argument("--step", type=float,
                   help="take the delays by a central difference of this energy "
                   "step (default: the exact derivative)")
    p.add_argument("-o", "--output", required=True)
    _global_flags(p)
    p.set_defaults(run=_cmd_barrier)

    p = sub.add_parser("report", help="merge results into one document")
    p.add_argument("inputs", nargs="+")
    p.add_argument("-o", "--output")
    p.add_argument("--gnuplot", help="also write a plotting script")
    _global_flags(p)
    p.set_defaults(run=_cmd_report)
    return parser


def _check_cap(flag: str, value: int, cap: int, minimum: int | None = None) -> None:
    if minimum is not None and value < minimum:
        raise ValueError(f"{flag} {value} is below the minimum of {minimum}")
    if value > cap:
        raise ValueError(f"{flag} {value} exceeds the cap of {cap}")


def _cmd_extract(args) -> None:
    spectrum = fileio.read_spectrum(args.input)
    options = ExtractionOptions(stencil_order=args.stencil)
    with fileio._naming(args.input):
        temporal = extract_temporal(spectrum, options)
    fileio.write_temporal(args.output, temporal)


def _cmd_model(args) -> None:
    _check_cap("--points", args.points, MAX_POINTS)
    document = fileio.load_model(args.model)
    grid = FrequencyGrid.linspace(args.lo, args.hi, args.points)
    if document.kind == "barrier":
        _write_barrier(document.params, grid, args.output)
        return
    with np.errstate(over="ignore", invalid="ignore"):
        values, tau1, tau2 = document.sample(grid)
    if not all(np.isfinite(a).all() for a in (values, tau1, tau2)):
        raise ValueError(f"{args.model}: model is not finite on [{args.lo:g}, {args.hi:g}]")
    fileio.write_spectrum(args.output + ".spectrum.csv", ComplexSpectrum(grid, values))
    fileio.write_temporal(args.output + ".tau.csv", TemporalSpectrum(grid, tau1, tau2))


def _emit_artifact(kind: str, mapping: dict, output) -> None:
    """Print an artifact, and also write it to ``output`` when one is given."""
    sys.stdout.write(fileio.format_artifact(kind, mapping))
    if output:
        fileio.write_artifact(output, kind, mapping)


def _cmd_kk(args) -> None:
    tail_model = _TAIL_BY_FLAG[args.tail]
    fmt = fileio.detect_format(args.input)
    if fmt == "spectrum":
        table, residual = fileio.read_spectrum(args.input), kk_residual
    elif fmt == "temporal":
        table, residual = fileio.read_temporal(args.input), tau_kk_residual
    else:
        raise ValueError(f"{args.input}: kk needs a spectrum or tau table")
    with fileio._naming(args.input):
        report = residual(table, tail_model)
    mapping = {"input": os.path.basename(args.input), "kind": fmt,
               **dataclasses.asdict(report)}
    _emit_artifact("kk", mapping, args.output)


def _cmd_sumrule(args) -> None:
    spectrum = fileio.read_spectrum(args.spectrum)
    temporal = fileio.read_temporal(args.tau)
    # The grid checks compare the two tables, so a refusal names both.
    with fileio._naming(f"{args.spectrum}, {args.tau}"):
        value = frequency_sum_rule(spectrum, temporal)
        scale = sum_rule_scale(spectrum, temporal)
    mapping = {
        "exclusion_radius": np.min(np.abs(spectrum.grid.values)),
        "l1_scale": scale,
        "nodes": len(spectrum.grid),
        "value_im": value.imag,
        "value_re": value.real,
    }
    _emit_artifact("sumrule", mapping, args.output)


def _cmd_winding(args) -> None:
    _check_cap("--samples", args.samples, MAX_SAMPLES_PER_EDGE, MIN_SAMPLES_PER_EDGE)
    document = fileio.load_model(args.model)
    if document.kind != "blaschke":
        raise ValueError(f"{args.model}: winding needs a pole-zero model")
    re_min, re_max, im_min, im_max = args.rect
    contour = Contour.rectangle(re_min, re_max, im_min, im_max)
    value = winding_number(document.params, contour, args.samples)
    mapping = {
        "im_max": im_max,
        "im_min": im_min,
        "re_max": re_max,
        "re_min": re_min,
        "samples_per_edge": args.samples,
        "winding": value,
    }
    _emit_artifact("winding", mapping, args.output)


def _write_barrier(profile, grid: FrequencyGrid, output: str, step=None) -> None:
    if step is None:
        t, tau = transmission_and_time(profile, grid.values)
    else:
        t = s_matrix(profile, grid.values).t
        tau = complex_time(profile, grid.values, step)
    fileio.write_barrier_table(
        output, grid.values, np.hypot(t.real, t.imag) ** 2, np.angle(t),
        tau.real, tau.imag,
    )


def _cmd_barrier(args) -> None:
    _check_cap("--points", args.points, MAX_POINTS)
    document = fileio.load_model(args.model)
    if document.kind != "barrier":
        raise ValueError(f"{args.model}: barrier needs a potential-profile model")
    grid = FrequencyGrid.linspace(args.lo, args.hi, args.points)
    _write_barrier(document.params, grid, args.output, args.step)


def _summarise_table(fmt: str, path: str) -> dict:
    """Format, nodes, first and last abscissa and the extremes of a table."""
    if fmt == "spectrum":
        spectrum = fileio.read_spectrum(path)
        axis, grid = "omega", spectrum.grid
        extremes = {"max_abs": np.max(np.abs(spectrum.values))}
    elif fmt == "temporal":
        temporal = fileio.read_temporal(path)
        axis, grid = "omega", temporal.grid
        extremes = {"max_abs_tau1": np.max(np.abs(temporal.tau1)),
                    "max_abs_tau2": np.max(np.abs(temporal.tau2))}
    else:
        grid, transmission, *_ = fileio.read_barrier_table(path)
        axis = "energy"
        extremes = {"transmission_max": np.max(transmission),
                    "transmission_min": np.min(transmission)}
    return {"format": fmt, "nodes": len(grid), f"{axis}_max": grid.values[-1],
            f"{axis}_min": grid.values[0], **extremes}


def _cmd_report(args) -> None:
    entries = sorted(args.inputs, key=lambda p: (os.path.basename(p), p))
    lines = []
    tables = []
    for path in entries:
        fmt = fileio.detect_format(path)
        lines.append("")
        lines.append(f"[file {os.path.basename(path)}]")
        if fmt == "artifact":
            kind, mapping = fileio.read_artifact(path)
            lines.append(f"format=artifact:{kind}")
            lines.extend(fileio.format_fields(mapping))
        elif fmt in ("spectrum", "temporal", "barrier"):
            tables.append((path, fmt))
            lines.extend(fileio.format_fields(_summarise_table(fmt, path)))
        else:
            raise ValueError(f"{path}: report cannot summarise this format")
    lines.append("")
    lines.append("[tolerances]")
    for name, value, why in _TOLERANCES:
        lines.append(f"{name}={value:.12e}  # {why}")
    text = fileio.format_artifact("report", {}) + "\n".join(lines) + "\n"
    if args.output:
        fileio._write_text(args.output, text)
    else:
        sys.stdout.write(text)
    if args.gnuplot:
        _write_gnuplot(args.gnuplot, tables)


_PLOT_COLUMNS = {
    "spectrum": ((2, "re"), (3, "im")),
    "temporal": ((2, "tau1"), (3, "tau2")),
    "barrier": ((2, "transmission"), (4, "tau1"), (5, "tau2")),
}


def _write_gnuplot(path: str, tables) -> None:
    lines = [
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set grid",
    ]
    for table_path, fmt in tables:
        plots = ", ".join(
            f"'{table_path}' using 1:{col} with lines title '{name}'"
            for col, name in _PLOT_COLUMNS[fmt]
        )
        lines.append(f"plot {plots}")
        lines.append("pause -1")
    fileio._write_text(path, "\n".join(lines) + "\n")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.run(args)
    except (TauspecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_INPUT)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

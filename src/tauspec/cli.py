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
Each verb is one entry of ``_VERBS``: its arguments, the check of their
sizes and bounds, the capability its model must serve, and its run step.
``main`` runs those stages in that order, prints the artifact a run step
returns and writes it to ``-o``, and turns an error into its exit code.
Each run step imports the modules it needs, and the parser needs none of
them: ``--help`` and a refused command line load no numpy.
"""

from __future__ import annotations

import argparse
import collections
import functools
import gc
import math
import os
import re
import sys

# Caps on the sizes a flag asks for, checked before anything is allocated;
# MAX_POINTS also caps the rows of a table read.
from .errors import (MAX_POINTS, MAX_SAMPLES_PER_EDGE, MIN_SAMPLES_PER_EDGE, TauspecError,
                     UnresolvedWinding)

EXIT_OK = 0
EXIT_INPUT = 2

_TAIL_BY_FLAG = {"none": "none", "w1": "one_over_omega", "w2": "one_over_omega2"}

# The farthest a printed winding count may lie from an integer.
WINDING_ABS = 1.0e-3

# A negative number argparse takes as a value, not an option: argparse's own
# pattern has no exponent, digit underscore, inf or nan, so "--from -1e3"
# would be an unknown option.  float() reads inf, infinity and nan in any
# case, and one underscore between two digits.
_DIGITS = r"\d(_?\d)*"
_NEGATIVE_NUMBER = re.compile(rf"^-(({_DIGITS}(\.({_DIGITS})?)?|\.{_DIGITS})"
                              rf"([eE][+-]?{_DIGITS})?|(?i:inf|infinity|nan))$")

_TOLERANCES = (
    ("extract_closed_form_abs", 1.0e-3, "interior concordance with closed forms"),
    ("extract_fine_grid_rel", 1.0e-4, "order-4 stencil on a resolved grid"),
    ("round_trip_rel", 1.0e-6, "extract after reconstruct, interior"),
    ("kk_causal_max", 2.0e-2, "retarded response residual with tails"),
    ("kk_acausal_ratio_min", 1.0e1, "advanced over retarded residual"),
    ("sum_rule_ratio", 1.0e-2, "vanishing rule against integrand L1 scale"),
    ("winding_abs", WINDING_ABS, "integer count from contour quadrature"),
    ("uncertainty_gaussian_abs", 1.0e-2, "spread product of a plain Gaussian"),
    ("unitarity_abs", 1.0e-10, "flux conservation of scattering amplitudes"),
    ("hartman_drift_rel", 1.0e-2, "delay change under opaque-width doubling"),
)


def _check_cap(flag: str, value: int, cap: int, minimum: int | None = None) -> None:
    if minimum is not None and value < minimum:
        raise ValueError(f"{flag} {value} is below the minimum of {minimum}")
    if value > cap:
        raise ValueError(f"{flag} {value} exceeds the cap of {cap}")


def _check_finite(flag: str, bounds) -> None:
    if not all(math.isfinite(bound) for bound in bounds):
        raise ValueError(f"{flag} bounds must be finite")


def _check_grid(args) -> None:
    _check_cap("--points", args.points, MAX_POINTS)
    _check_finite("--from/--to", (args.lo, args.hi))


def _check_contour(args) -> None:
    _check_cap("--samples", args.samples, MAX_SAMPLES_PER_EDGE, MIN_SAMPLES_PER_EDGE)
    _check_finite("--rect", args.rect)


def _extract(args, document) -> None:
    from . import fileio
    from .extract import ExtractionOptions, extract_temporal
    spectrum = fileio.read_spectrum(args.input)
    options = ExtractionOptions(stencil_order=args.stencil)
    with fileio._naming(args.input):
        temporal = extract_temporal(spectrum, options)
    fileio.write_temporal(args.output, temporal)


def _sample(args, document) -> None:
    """A profile's transmission and delay table, or a spectral model's
    spectrum and tau tables, on the grid of --from, --to and --points."""
    import numpy as np
    from . import fileio
    from .core import ComplexSpectrum, FrequencyGrid, TemporalSpectrum
    grid = FrequencyGrid.linspace(args.lo, args.hi, args.points)
    if document.serves("profile"):
        from .scatter1d import transmission_and_time
        t, tau = transmission_and_time(document.params, grid.values)
        fileio.write_barrier_table(args.output, grid.values, np.hypot(t.real, t.imag) ** 2,
                                   np.angle(t), tau.real, tau.imag)
        return
    with np.errstate(over="ignore", invalid="ignore"):
        values, tau = document.sample(grid)
    if not (np.isfinite(values).all() and np.isfinite(tau).all()):
        raise ValueError(f"{args.model}: model is not finite on [{args.lo:g}, {args.hi:g}]")
    fileio.write_spectrum(args.output + ".spectrum.csv", ComplexSpectrum(grid, values))
    fileio.write_temporal(args.output + ".tau.csv", TemporalSpectrum(grid, tau.real, tau.imag))


def _kk(args, document):
    import dataclasses
    from . import dispersion, fileio
    residuals = {"spectrum": dispersion.kk_residual, "temporal": dispersion.tau_kk_residual}
    with fileio.detected(args.input) as (fmt, read):
        if fmt not in residuals:
            raise ValueError(f"{args.input}: kk needs a spectrum or tau table")
        table = read()
    with fileio._naming(args.input):
        report = residuals[fmt](table, _TAIL_BY_FLAG[args.tail])
    return "kk", {"input": os.path.basename(args.input), "kind": fmt,
                  **dataclasses.asdict(report)}


def _sumrule(args, document):
    import numpy as np
    from . import fileio
    from .dispersion import frequency_sum_rule
    spectrum = fileio.read_spectrum(args.spectrum)
    temporal = fileio.read_temporal(args.tau)
    # The grid checks compare the two tables, so a refusal names both.
    with fileio._naming(f"{args.spectrum}, {args.tau}"):
        value, scale = frequency_sum_rule(spectrum, temporal)
    return "sumrule", {"exclusion_radius": np.min(np.abs(spectrum.grid.values)),
                       "l1_scale": scale, "nodes": len(spectrum.grid),
                       "value_im": value.imag, "value_re": value.real}


def _winding(args, document):
    from .dispersion import Contour, winding_number
    re_min, re_max, im_min, im_max = args.rect
    contour = Contour.rectangle(re_min, re_max, im_min, im_max)
    value = winding_number(document.params, contour, args.samples)
    if math.isnan(value):  # no count to resolve, so no --samples to raise
        raise UnresolvedWinding("winding count is nan")
    distance = abs(math.remainder(value, 1.0))
    if not distance <= WINDING_ABS:
        advice = (f"raise --samples (at most {MAX_SAMPLES_PER_EDGE})"
                  if args.samples < MAX_SAMPLES_PER_EDGE else "--samples is at its cap")
        raise UnresolvedWinding(f"winding count {value:.12e} is {distance:.3e} from an "
                                f"integer, past {WINDING_ABS:g}; {advice}")
    return "winding", {"im_max": im_max, "im_min": im_min, "re_max": re_max, "re_min": re_min,
                       "samples_per_edge": args.samples, "winding": value}


def _report(args, document) -> None:
    """Each input's artifact fields or table summary, by file name, then
    the tolerances; and a gnuplot script of the tables."""
    from . import fileio
    lines = []
    tables = []
    for path in sorted(args.inputs, key=lambda p: (os.path.basename(p), p)):
        with fileio.detected(path) as (fmt, read):
            if read is None:
                raise ValueError(f"{path}: report cannot summarise this format")
            content = read()
        lines += ["", f"[file {os.path.basename(path)}]"]
        if fmt == "artifact":
            kind, fields = content
            lines.append(f"format=artifact:{kind}")
        else:
            table = fileio.TABLE_FORMATS[fmt]
            tables.append((path, table))
            grid, extremes = table.summary(content)
            axis = table.header.split(",")[0]
            fields = {"format": fmt, "nodes": len(grid), f"{axis}_max": grid.values[-1],
                      f"{axis}_min": grid.values[0], **extremes}
        lines.extend(fileio.format_fields(fields))
    lines += ["", "[tolerances]"]
    lines.extend(f"{name}={value:.12e}  # {why}" for name, value, why in _TOLERANCES)
    text = fileio.format_artifact("report", {}) + "\n".join(lines) + "\n"
    if args.output:
        fileio._write_text(args.output, text)
    else:
        sys.stdout.write(text)
    if args.gnuplot:
        plot = ["set datafile separator ','", "set key autotitle columnhead", "set grid"]
        for path, table in tables:
            columns = table.header.split(",")
            plot.append("plot " + ", ".join(
                f"'{path}' using 1:{columns.index(name) + 1} with lines title '{name}'"
                for name in table.plotted))
            plot.append("pause -1")
        fileio._write_text(args.gnuplot, "\n".join(plot) + "\n")


def _arg(*flags, **options):
    return flags, options


def _grid_arguments(nodes: str, output_help: str | None) -> tuple:
    return (_arg("model"), _arg("--from", dest="lo", type=float, required=True),
            _arg("--to", dest="hi", type=float, required=True),
            _arg("--points", type=int, required=True,
                 help=f"{nodes} nodes, at most {MAX_POINTS}"),
            _arg("-o", "--output", required=True, help=output_help))


# A verb: its help line; its arguments, each (flags, add_argument keywords);
# its run step, which takes the parsed arguments and the model document (of
# a verb with a model argument) and returns the (kind, mapping) of the
# artifact it prints, if any; the check of its sizes and bounds, run before
# anything is read; and, where its model must serve a capability (see
# fileio.ModelDocument.serves), that capability and the refusal of a model
# that does not serve it.
_Verb = collections.namedtuple("_Verb", "help arguments run check needs",
                               defaults=(None, None))

_VERBS = {
    "extract": _Verb("tau1/tau2 from a sampled spectrum",
                     (_arg("input"), _arg("-o", "--output", required=True)), _extract),
    "model": _Verb("sample a model: spectrum and tau files",
                   _grid_arguments("grid", "output path prefix"), _sample, _check_grid),
    "kk": _Verb("causality residual report",
                (_arg("input"),
                 _arg("-o", "--output", help="also write the report as an artifact")), _kk),
    "sumrule": _Verb("weighted balance integral",
                     (_arg("--spectrum", required=True), _arg("--tau", required=True),
                      _arg("-o", "--output")), _sumrule),
    "winding": _Verb("zeros minus poles inside a rectangle",
                     (_arg("model"), _arg("--rect", nargs=4, type=float, required=True,
                                          metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX")),
                      _arg("--samples", type=int, default=MIN_SAMPLES_PER_EDGE,
                           help=f"panels per edge, {MIN_SAMPLES_PER_EDGE} to "
                           f"{MAX_SAMPLES_PER_EDGE} (default {MIN_SAMPLES_PER_EDGE})"),
                      _arg("-o", "--output")),
                     _winding, _check_contour, ("contour", "winding needs a pole-zero model")),
    "barrier": _Verb("transmission and delays of a potential", _grid_arguments("energy", None),
                     _sample, _check_grid, ("profile", "barrier needs a potential-profile model")),
    "report": _Verb("merge results into one document",
                    (_arg("inputs", nargs="+"), _arg("-o", "--output"),
                     _arg("--gnuplot", help="also write a plotting script")), _report),
}


@functools.cache
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
        "--tail", choices=tuple(_TAIL_BY_FLAG), default="none",
        help="tail model for dispersion integrals (default none)",
    )
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, verb in _VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        for flags, options in verb.arguments:
            p.add_argument(*flags, **options)
        # Accept the global flags after the verb as well; SUPPRESS keeps
        # a pre-verb value from being clobbered by a subparser default.
        p.add_argument("--stencil", type=int, choices=(2, 4), default=argparse.SUPPRESS)
        p.add_argument("--tail", choices=tuple(_TAIL_BY_FLAG), default=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    # The parser, built once per process, binds no function: each call
    # finds its verb's stages in _VERBS.
    args = _build_parser().parse_args(argv)
    verb = _VERBS[args.verb]
    try:
        if verb.check:
            verb.check(args)
        document = None
        if "model" in vars(args):
            from . import fileio
            document = fileio.load_model(args.model)
            if verb.needs and not document.serves(verb.needs[0]):
                raise ValueError(f"{args.model}: {verb.needs[1]}")
        artifact = verb.run(args, document)
        if artifact:
            from . import fileio
            sys.stdout.write(fileio.format_artifact(*artifact))
            if args.output:
                fileio.write_artifact(args.output, *artifact)
    except (TauspecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", EXIT_INPUT)
    return EXIT_OK


def entry() -> int:
    """``main`` as a whole process, ``python -m tauspec`` or the ``tauspec``
    script: the cyclic collector is off for the run, which frees its short
    lived objects by reference counts, and the heap is frozen on the way
    out, so the exit collections skip it.  ``main`` touches neither: a
    caller in process lives on."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()

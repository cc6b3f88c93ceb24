#!/usr/bin/env python3
"""Scan barrier width at fixed sub-barrier energy.

Usage: hartman_scan.py [ENERGY] [HEIGHT]

Prints a csv table of width, opacity kappa*a, transmission, delay, and
formation time. The delay saturates as the barrier becomes opaque while
the transmission keeps falling exponentially; the formation time stays
negative throughout.
"""

import sys
from pathlib import Path

import numpy as np

try:
    import tauspec  # noqa: F401
except ModuleNotFoundError as exc:
    if exc.name != "tauspec":
        raise
    # Not installed: run from this checkout's src/, wherever the cwd is.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tauspec.scatter1d import PotentialProfile, complex_time, s_matrix


def main(argv) -> int:
    energy = float(argv[1]) if len(argv) > 1 else 0.5
    height = float(argv[2]) if len(argv) > 2 else 1.0
    if not 0.0 < energy < height:
        print("error: need 0 < ENERGY < HEIGHT for a tunnelling scan",
              file=sys.stderr)
        return 2
    kappa = np.sqrt(height - energy)
    print("width,opacity,transmission,delay,formation")
    for width in np.linspace(1.0, 22.0 / kappa, 36):
        profile = PotentialProfile.single(float(width), height)
        amp = s_matrix(profile, energy)
        tau = complex_time(profile, energy)
        print(f"{width:.4f},{kappa * width:.4f},{abs(amp.t) ** 2:.6e},"
              f"{tau.real:.9f},{tau.imag:.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

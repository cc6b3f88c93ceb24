"""Piecewise-constant 1D scattering: transfer matrices, delays, resonances."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tauspec.errors import DegenerateEnergy, ZeroTransmission
from tauspec.scatter1d import (
    PotentialProfile,
    complex_time,
    find_resonance,
    s_matrix,
    transfer_matrix,
    transmission_and_time,
    transmission_probability,
)

BARRIER = PotentialProfile.single(width=2.0, height=1.0)
SRC = Path(__file__).resolve().parents[1] / "src"


def analytic_barrier_transmission(energy, height, width):
    kappa = np.sqrt(height - energy)
    s = np.sinh(kappa * width) ** 2
    return 1.0 / (1.0 + height**2 * s / (4.0 * energy * (height - energy)))


class TestTransmission:
    def test_rectangular_barrier_oracle(self):
        t = transmission_probability(BARRIER, 0.5)
        assert t == pytest.approx(analytic_barrier_transmission(0.5, 1.0, 2.0), rel=1e-12)
        assert t == pytest.approx(0.210771094, abs=1e-8)

    def test_unitarity(self):
        for energy in (0.1, 0.5, 0.9, 1.3, 2.7):
            sm = s_matrix(BARRIER, energy)
            assert sm.unitarity_defect() < 1e-10

    def test_reciprocity(self):
        sm = s_matrix(BARRIER, 0.37)
        assert sm.t == pytest.approx(sm.t_prime)

    def test_empty_profile_is_transparent(self):
        empty = PotentialProfile(segments=())
        sm = s_matrix(empty, 0.8)
        assert sm.t == pytest.approx(1.0 + 0j)
        assert abs(sm.r) < 1e-14

    def test_well_transmits_more_than_barrier(self):
        well = PotentialProfile.single(width=2.0, height=-1.0)
        assert transmission_probability(well, 0.5) > transmission_probability(
            BARRIER, 0.5
        )

    def test_degenerate_energy_guard(self):
        with pytest.raises(DegenerateEnergy):
            transfer_matrix(BARRIER, 1.0)

    def test_positive_energy_required(self):
        with pytest.raises(ValueError):
            s_matrix(BARRIER, 0.0)

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            PotentialProfile(segments=((0.0, 1.0),))
        with pytest.raises(ValueError):
            PotentialProfile(segments=((1.0, np.inf),))


class TestFreePropagation:
    def test_transfer_phases(self):
        free = PotentialProfile.single(width=1.0, height=0.0)
        m = transfer_matrix(free, 1.0)
        assert np.angle(m[0, 0]) == pytest.approx(1.0)
        assert np.angle(m[1, 1]) == pytest.approx(-1.0)
        assert abs(m[0, 1]) < 1e-14
        assert abs(m[1, 0]) < 1e-14

    def test_delay_is_traversal_time(self):
        """With 2m = 1 group velocity is 2k, so a length L takes L/(2k)."""
        free = PotentialProfile.single(width=1.0, height=0.0)
        assert complex_time(free, 1.0).real == pytest.approx(0.5, rel=1e-6)

    def test_composition_matches_single_segment(self):
        split = PotentialProfile(segments=((0.7, 0.3), (1.3, 0.3)))
        whole = PotentialProfile.single(width=2.0, height=0.3)
        np.testing.assert_allclose(
            transfer_matrix(split, 0.9), transfer_matrix(whole, 0.9), rtol=1e-12
        )


class TestDelays:
    def test_sub_barrier_formation_is_negative(self):
        """|t(E)| grows monotonically below the top, so tau2 < 0 there."""
        for energy in (0.2, 0.5, 0.8):
            assert complex_time(BARRIER, energy).imag < 0.0

    def test_delay_at_pinned_point(self):
        assert complex_time(BARRIER, 0.5).real == pytest.approx(1.776771, abs=1e-4)

    def test_hartman_saturation(self):
        kappa = np.sqrt(0.5)
        d1 = complex_time(PotentialProfile.single(width=12.0 / kappa, height=1.0), 0.5).real
        d2 = complex_time(PotentialProfile.single(width=24.0 / kappa, height=1.0), 0.5).real
        assert abs(d2 - d1) / d1 < 1e-4

    def test_opaque_barrier_blocks_delay_query(self):
        opaque = PotentialProfile.single(width=80.0, height=1.0)
        with pytest.raises(ZeroTransmission):
            complex_time(opaque, 0.5)


class TestResonance:
    def test_over_barrier_resonance(self):
        """First transparency sits at E = V + (pi/a)^2 for a width-2 barrier."""
        energy = find_resonance(BARRIER, 2.0, 5.0)
        assert energy == pytest.approx(1.0 + (np.pi / 2.0) ** 2, rel=1e-6)
        assert transmission_probability(BARRIER, energy) == pytest.approx(1.0, abs=1e-9)

    def test_double_barrier_quasibound_level(self):
        double = PotentialProfile(segments=((0.8, 1.0), (4.0, 0.0), (0.8, 1.0)))
        energy = find_resonance(double, 0.05, 0.95)
        assert energy == pytest.approx(0.23380356, abs=1e-4)
        assert transmission_probability(double, energy) == pytest.approx(1.0, abs=1e-6)
        assert complex_time(double, energy).real > 10.0

    def test_boundary_peak_rejected(self):
        double = PotentialProfile(segments=((0.8, 1.0), (4.0, 0.0), (0.8, 1.0)))
        with pytest.raises(ValueError):
            find_resonance(double, 0.3, 0.95)

    def test_three_point_scan_still_refines(self):
        """Rescans use at least five nodes, so a three-node bracket shrinks."""
        energy = find_resonance(BARRIER, 2.0, 5.0, points=3)
        assert energy == pytest.approx(1.0 + (np.pi / 2.0) ** 2, rel=1e-6)

    def test_loads_no_scipy(self):
        probe = (
            "import sys\n"
            "from tauspec.scatter1d import PotentialProfile, find_resonance\n"
            "find_resonance(PotentialProfile.single(2.0, 1.0), 2.0, 5.0)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        assert proc.stdout.splitlines()[-1] == "[]"


class TestComplexTime:
    DOUBLE = PotentialProfile(((2.0, 1.0), (1.0, 0.0), (2.0, 1.0)))

    ENERGIES = [0.05, 0.5, 0.95, 1.3, 2.7]

    @pytest.mark.parametrize("energy", ENERGIES)
    @pytest.mark.parametrize("step", [1e-4, 1e-3])
    def test_parts_are_the_delay_and_formation_time(self, energy, step):
        """Real part: phase derivative; imaginary part: minus the derivative
        of ln |t|; both equal to scalar complex arithmetic to the last bit."""
        for profile in (BARRIER, self.DOUBLE):
            tau = complex_time(profile, energy, step)
            assert type(tau) is complex
            t_hi = s_matrix(profile, energy + step).t
            t_lo = s_matrix(profile, energy - step).t
            delay = np.angle(t_hi * np.conj(t_lo)) / (2.0 * step)
            formation = -(np.log(abs(t_hi)) - np.log(abs(t_lo))) / (2.0 * step)
            assert tau == complex(delay, formation)

    @pytest.mark.parametrize("step", [1e-4, 1e-3])
    def test_array_matches_scalar(self, step):
        energies = np.array(self.ENERGIES)
        for profile in (BARRIER, self.DOUBLE):
            for func, args in (
                (complex_time, (step,)),
                (complex_time, ()),
                (transmission_probability, ()),
                (transfer_matrix, ()),
            ):
                batch = func(profile, energies, *args)
                scalars = np.array([func(profile, e, *args) for e in self.ENERGIES])
                assert np.array_equal(batch, scalars), func.__name__

    def test_array_shape_is_kept(self):
        energies = np.array(self.ENERGIES[:4]).reshape(2, 2)
        assert transfer_matrix(self.DOUBLE, energies).shape == (2, 2, 2, 2)
        assert complex_time(self.DOUBLE, energies).shape == (2, 2)
        amp = s_matrix(self.DOUBLE, energies)
        assert amp.t.shape == (2, 2)
        assert amp.unitarity_defect() < 1e-10
        assert type(s_matrix(self.DOUBLE, 0.5).t) is complex
        assert type(transmission_probability(self.DOUBLE, 0.5)) is float

    def test_one_bad_node_fails_the_sweep(self):
        with pytest.raises(DegenerateEnergy, match="segment height 1"):
            s_matrix(BARRIER, np.array([0.5, 1.0, 1.5]))
        with pytest.raises(ValueError, match="energy must be positive"):
            transmission_probability(BARRIER, np.array([0.5, 0.0]))
        with pytest.raises(ValueError, match="0 < step < energy"):
            complex_time(BARRIER, np.array([0.5, 1e-4]), 1e-4)
        with pytest.raises(ValueError, match="energy must be positive"):
            complex_time(BARRIER, np.array([0.5, 0.0]))
        with pytest.raises(DegenerateEnergy, match="segment height 1"):
            transmission_and_time(self.DOUBLE, np.array([0.5, 1.0]))

    def test_opaque_barrier_raises_zero_transmission(self):
        opaque = PotentialProfile.single(width=80.0, height=1.0)
        with pytest.raises(ZeroTransmission):
            complex_time(opaque, 0.5)

    @pytest.mark.parametrize("energy,step", [(0.5, 0.0), (0.5, -1e-4), (1e-4, 1e-4)])
    def test_step_must_lie_below_energy(self, energy, step):
        with pytest.raises(ValueError, match="0 < step < energy"):
            complex_time(BARRIER, energy, step)

    def test_exact_tau_matches_the_single_barrier_closed_form(self):
        """t = 1/D with D = cosh(kappa a) + i (kappa^2 - k^2)/(2 k kappa)
        sinh(kappa a), differentiated by hand: tau = i D'/D.  Above the
        barrier kappa is imaginary and the same expression continues it."""
        a, height = 2.0, 1.0
        energies = np.array([0.05, 0.2, 0.5, 0.8, 0.95, 1.3, 2.0, 2.7, 4.0])
        k, kappa = np.sqrt(energies + 0j), np.sqrt(height - energies + 0j)
        dk, dkappa = 0.5 / k, -0.5 / kappa
        f = (height - 2.0 * energies) / (2.0 * k * kappa)
        df = -1.0 / (k * kappa) - f * (dk / k + dkappa / kappa)
        ch, sh = np.cosh(kappa * a), np.sinh(kappa * a)
        d = ch + 1j * f * sh
        dd = a * dkappa * sh + 1j * (df * sh + f * a * dkappa * ch)
        t, tau = transmission_and_time(PotentialProfile.single(a, height), energies)
        np.testing.assert_allclose(t, 1.0 / d, rtol=1e-12)
        np.testing.assert_allclose(tau, 1j * dd / d, rtol=1e-12)

    def test_exact_tau_is_the_limit_of_the_difference(self):
        """Richardson's (4 D(h/2) - D(h)) / 3 removes the h^2 term of the
        central difference D, so it closes on the exact tau as h^4."""
        energies = np.array([0.1, 0.3, 0.5, 0.7, 0.9, 1.2, 1.7, 2.5])
        exact = complex_time(self.DOUBLE, energies)

        def richardson_error(h):
            fine, coarse = (complex_time(self.DOUBLE, energies, s) for s in (h / 2, h))
            return np.max(np.abs((4.0 * fine - coarse) / 3.0 - exact) / np.abs(exact))

        assert richardson_error(1e-3) < 1e-9
        assert richardson_error(2e-3) > 8.0 * richardson_error(1e-3)

    def test_exact_tau_holds_at_the_barrier_top(self):
        """Where k width << 1 the segment derivative, a difference of
        nearly equal terms, takes its series; the exact tau still meets the
        Richardson difference taken across the top."""
        energies = 1.0 + np.array([-1e-6, -1e-9, 1e-9, 1e-6])
        fine, coarse = (complex_time(BARRIER, energies, h) for h in (5e-4, 1e-3))
        np.testing.assert_allclose(complex_time(BARRIER, energies), (4.0 * fine - coarse) / 3.0,
                                   rtol=1e-9)

    def test_one_sweep_gives_the_s_matrix_transmission(self):
        energies = np.array(self.ENERGIES)
        for profile in (BARRIER, self.DOUBLE):
            t, tau = transmission_and_time(profile, energies)
            assert np.array_equal(t, s_matrix(profile, energies).t)
            assert np.array_equal(tau, complex_time(profile, energies))
            scalars = [transmission_and_time(profile, e) for e in self.ENERGIES]
            assert all(type(x) is complex for pair in scalars for x in pair)
            assert np.array_equal(np.array(scalars), np.stack([t, tau], axis=-1))

    def test_difference_node_on_segment_height_raises(self):
        with pytest.raises(DegenerateEnergy):
            complex_time(BARRIER, 1.0 - 1e-3, 1e-3)


class TestHartmanScan:
    SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "hartman_scan.py"

    def test_table(self):
        proc = subprocess.run(
            [sys.executable, str(self.SCRIPT)],
            capture_output=True,
            text=True,
            env={"PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0] == "width,opacity,transmission,delay,formation"
        rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert rows.shape == (36, 5)
        assert np.all(rows[:, 4] < 0.0)
        assert rows[-1, 3] == pytest.approx(rows[-2, 3], rel=1e-6)

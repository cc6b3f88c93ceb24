"""Piecewise-constant 1D scattering: transfer matrices, delays, resonances."""

import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tauspec import scatter1d
from tauspec.errors import DegenerateEnergy, ZeroTransmission
from tauspec.scatter1d import (
    PotentialProfile,
    find_resonance,
    s_matrix,
    transmission_and_time,
)

BARRIER = PotentialProfile.single(width=2.0, height=1.0)
SRC = Path(__file__).resolve().parents[1] / "src"


def transfer_matrix(profile, energy):
    """The full amplitude-basis transfer matrix e^L [[conj T22, conj T21],
    [T21, T22]] of the scaled sweep, of shape (..., 2, 2) over an energy
    array of shape (...).  It maps (rightward, leftward) amplitudes on the
    left lead to those on the right lead, with phases referenced to the
    structure edges, so a free stretch of width a gives
    diag(e^{ika}, e^{-ika})."""
    t22, t21, log_scale, _ = scatter1d._transfer(profile, energy)
    scaled = np.stack([np.conj(t22), np.conj(t21), t21, t22], axis=-1)
    return np.exp(log_scale)[..., None, None] * scaled.reshape(t22.shape + (2, 2))


def transmission(profile, energy):
    """|t|^2 from s_matrix, as find_resonance takes it."""
    t = s_matrix(profile, energy).t
    return np.hypot(np.real(t), np.imag(t)) ** 2


def central_difference(profile, energy, h):
    """The delay and formation time by a central difference of step h: the
    phase derivative, taken through t(E + h) conj(t(E - h)), and minus the
    derivative of ln |t|."""
    t_hi = s_matrix(profile, np.add(energy, h)).t
    t_lo = s_matrix(profile, np.subtract(energy, h)).t
    delay = np.angle(t_hi * np.conj(t_lo)) / (2.0 * h)
    formation = -(np.log(abs(t_hi)) - np.log(abs(t_lo))) / (2.0 * h)
    return delay + 1j * formation


def analytic_barrier_transmission(energy, height, width):
    kappa = np.sqrt(height - energy)
    s = np.sinh(kappa * width) ** 2
    return 1.0 / (1.0 + height**2 * s / (4.0 * energy * (height - energy)))


class TestTransmission:
    def test_rectangular_barrier_oracle(self):
        t = transmission(BARRIER, 0.5)
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
        assert transmission(well, 0.5) > transmission(BARRIER, 0.5)

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
        assert transmission_and_time(free, 1.0)[1].real == pytest.approx(0.5, rel=1e-6)

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
            assert transmission_and_time(BARRIER, energy)[1].imag < 0.0

    def test_delay_at_pinned_point(self):
        assert transmission_and_time(BARRIER, 0.5)[1].real == pytest.approx(1.776771, abs=1e-4)

    def test_hartman_saturation(self):
        kappa = np.sqrt(0.5)
        d1, d2 = (transmission_and_time(PotentialProfile.single(width=w / kappa, height=1.0),
                                        0.5)[1].real for w in (12.0, 24.0))
        assert abs(d2 - d1) / d1 < 1e-4

    def test_opaque_barrier_blocks_delay_query(self):
        opaque = PotentialProfile.single(width=80.0, height=1.0)
        with pytest.raises(ZeroTransmission):
            transmission_and_time(opaque, 0.5)


class TestResonance:
    def test_over_barrier_resonance(self):
        """First transparency sits at E = V + (pi/a)^2 for a width-2 barrier."""
        energy = find_resonance(BARRIER, 2.0, 5.0)
        assert energy == pytest.approx(1.0 + (np.pi / 2.0) ** 2, rel=1e-6)
        assert transmission(BARRIER, energy) == pytest.approx(1.0, abs=1e-9)

    def test_double_barrier_quasibound_level(self):
        double = PotentialProfile(segments=((0.8, 1.0), (4.0, 0.0), (0.8, 1.0)))
        energy = find_resonance(double, 0.05, 0.95)
        assert energy == pytest.approx(0.23380356, abs=1e-4)
        assert transmission(double, energy) == pytest.approx(1.0, abs=1e-6)
        assert transmission_and_time(double, energy)[1].real > 10.0

    def test_boundary_peak_rejected(self):
        double = PotentialProfile(segments=((0.8, 1.0), (4.0, 0.0), (0.8, 1.0)))
        with pytest.raises(ValueError):
            find_resonance(double, 0.3, 0.95)

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
        of ln |t|.  The central difference of step h misses them by its h^2
        term, about a third of its own change from h to 2h."""
        for profile in (BARRIER, self.DOUBLE):
            tau = transmission_and_time(profile, energy)[1]
            assert type(tau) is complex
            fine, coarse = (central_difference(profile, energy, h) for h in (step, 2 * step))
            assert abs(tau - fine) < 0.5 * abs(fine - coarse)

    @pytest.mark.parametrize("step", [1e-4, 1e-3])
    def test_array_matches_scalar(self, step):
        """On the grid and on the nodes E -/+ step that a difference of that
        step reads, the batch sweep equals the scalar one to the last bit."""
        grid = np.array(self.ENERGIES)
        for energies in (grid, grid - step, grid + step):
            for profile in (BARRIER, self.DOUBLE):
                pairs = [transmission_and_time(profile, float(e)) for e in energies]
                batch = np.stack(transmission_and_time(profile, energies), axis=-1)
                assert np.array_equal(batch, np.array(pairs))
                for func in (transmission, transfer_matrix):
                    batch = func(profile, energies)
                    scalars = np.array([func(profile, float(e)) for e in energies])
                    assert np.array_equal(batch, scalars), func.__name__

    def test_array_shape_is_kept(self):
        energies = np.array(self.ENERGIES[:4]).reshape(2, 2)
        assert transfer_matrix(self.DOUBLE, energies).shape == (2, 2, 2, 2)
        assert transmission_and_time(self.DOUBLE, energies)[1].shape == (2, 2)
        amp = s_matrix(self.DOUBLE, energies)
        assert amp.t.shape == (2, 2)
        assert amp.unitarity_defect() < 1e-10
        assert type(s_matrix(self.DOUBLE, 0.5).t) is complex

    def test_one_bad_node_fails_the_sweep(self):
        with pytest.raises(DegenerateEnergy, match="segment height 1"):
            s_matrix(BARRIER, np.array([0.5, 1.0, 1.5]))
        with pytest.raises(ValueError, match="energy must be positive"):
            s_matrix(BARRIER, np.array([0.5, 0.0]))
        with pytest.raises(ValueError, match="energy must be positive"):
            transmission_and_time(BARRIER, np.array([0.5, 0.0]))
        with pytest.raises(DegenerateEnergy, match="segment height 1"):
            transmission_and_time(self.DOUBLE, np.array([0.5, 1.0]))

    @pytest.mark.parametrize("energy", [np.nan, np.inf, -np.inf])
    def test_non_finite_energy_rejected(self, energy):
        """NaN passes no comparison, so it is refused with inf before any
        arithmetic; the suite makes the warnings it would raise errors."""
        for sweep in (s_matrix, transmission_and_time):
            for arg in (energy, np.array([0.5, energy])):
                with pytest.raises(ValueError, match="^energy must be positive and finite$"):
                    sweep(self.DOUBLE, arg)

    def test_opaque_barrier_raises_zero_transmission(self):
        opaque = PotentialProfile.single(width=80.0, height=1.0)
        with pytest.raises(ZeroTransmission):
            transmission_and_time(opaque, 0.5)

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
        exact = transmission_and_time(self.DOUBLE, energies)[1]

        def richardson_error(h):
            fine, coarse = (central_difference(self.DOUBLE, energies, s) for s in (h / 2, h))
            return np.max(np.abs((4.0 * fine - coarse) / 3.0 - exact) / np.abs(exact))

        assert richardson_error(1e-3) < 1e-9
        assert richardson_error(2e-3) > 8.0 * richardson_error(1e-3)

    def test_exact_tau_holds_at_the_barrier_top(self):
        """Where k width << 1 the segment derivative, a difference of
        nearly equal terms, takes its series; the exact tau still meets the
        Richardson difference taken across the top."""
        energies = 1.0 + np.array([-1e-6, -1e-9, 1e-9, 1e-6])
        fine, coarse = (central_difference(BARRIER, energies, h) for h in (5e-4, 1e-3))
        tau = transmission_and_time(BARRIER, energies)[1]
        np.testing.assert_allclose(tau, (4.0 * fine - coarse) / 3.0, rtol=1e-9)

    def test_one_sweep_gives_the_s_matrix_transmission(self):
        energies = np.array(self.ENERGIES)
        for profile in (BARRIER, self.DOUBLE):
            t, tau = transmission_and_time(profile, energies)
            assert np.array_equal(t, s_matrix(profile, energies).t)
            scalars = [transmission_and_time(profile, e) for e in self.ENERGIES]
            assert all(type(x) is complex for pair in scalars for x in pair)
            assert np.array_equal(np.array(scalars), np.stack([t, tau], axis=-1))


class TestExtremeEnergies:
    """Near E = 0 and the largest floats the derivative terms overflow
    where W does not; the suite makes any warning an error."""

    PROFILES = [BARRIER, PotentialProfile(((1.0, -3.0),)),
                PotentialProfile(((3.0, 2.0), (1.0, -1.0), (0.5, 40.0)))]

    @pytest.mark.parametrize("energy", [5e-324, 1e-300, 1e300, 1e308, 1.7e308])
    def test_sweep_is_finite_or_refused(self, energy):
        for profile in self.PROFILES:
            for arg in (energy, np.array([energy])):
                amp = s_matrix(profile, arg)
                assert np.isfinite(np.array(dataclasses.astuple(amp))).all()
                assert amp.unitarity_defect() <= 1e-10
                if energy < 1.0:  # |t| of order sqrt(E) is below 1e-12
                    with pytest.raises(ZeroTransmission):
                        transmission_and_time(profile, arg)
                else:
                    assert np.isfinite(transmission_and_time(profile, arg)).all()

    @pytest.mark.parametrize("width", [1e103, 1e160, 1e300])
    def test_wide_free_stretch(self, width):
        """width**3 passes the largest float: the derivative overflows as
        numpy does, not with OverflowError, and tau is still width / (2k)."""
        free = PotentialProfile.single(width, 0.0)
        assert s_matrix(free, 1.0).unitarity_defect() <= 1e-10
        t, tau = transmission_and_time(free, 1.0)
        assert abs(t) == pytest.approx(1.0, rel=1e-12)
        assert abs(tau - 0.5 * width) <= 1e-12 * width

    def test_tau_not_finite_is_refused(self):
        """At E = 1e-10 across a 1e300 stretch dT22 overflows, though |t| = 1."""
        free = PotentialProfile.single(1e300, 0.0)
        assert s_matrix(free, 1e-10).unitarity_defect() <= 1e-10
        with pytest.raises(ZeroTransmission, match="^complex time is not finite$"):
            transmission_and_time(free, 1e-10)


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

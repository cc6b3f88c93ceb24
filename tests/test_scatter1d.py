"""Piecewise-constant 1D scattering: transfer matrices, delays, resonances."""

import numpy as np
import pytest

from tauspec.errors import DegenerateEnergy, ZeroTransmission
from tauspec.scatter1d import (
    PotentialProfile,
    complex_time,
    find_resonance,
    formation_time,
    s_matrix,
    transfer_matrix,
    transmission_probability,
    wigner_delay,
)

BARRIER = PotentialProfile.single(width=2.0, height=1.0)


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
        assert wigner_delay(free, 1.0) == pytest.approx(0.5, rel=1e-6)

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
            assert formation_time(BARRIER, energy) < 0.0

    def test_delay_at_pinned_point(self):
        assert wigner_delay(BARRIER, 0.5) == pytest.approx(1.776771, abs=1e-4)

    def test_hartman_saturation(self):
        kappa = np.sqrt(0.5)
        d1 = wigner_delay(PotentialProfile.single(width=12.0 / kappa, height=1.0), 0.5)
        d2 = wigner_delay(PotentialProfile.single(width=24.0 / kappa, height=1.0), 0.5)
        assert abs(d2 - d1) / d1 < 1e-4

    def test_opaque_barrier_blocks_delay_query(self):
        opaque = PotentialProfile.single(width=80.0, height=1.0)
        with pytest.raises(ZeroTransmission):
            wigner_delay(opaque, 0.5)


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
        assert wigner_delay(double, energy) > 10.0

    def test_boundary_peak_rejected(self):
        double = PotentialProfile(segments=((0.8, 1.0), (4.0, 0.0), (0.8, 1.0)))
        with pytest.raises(ValueError):
            find_resonance(double, 0.3, 0.95)


class TestComplexTime:
    DOUBLE = PotentialProfile(((2.0, 1.0), (1.0, 0.0), (2.0, 1.0)))

    @pytest.mark.parametrize("energy", [0.05, 0.5, 0.95, 1.3, 2.7])
    @pytest.mark.parametrize("step", [1e-4, 1e-3])
    def test_parts_are_the_delay_and_formation_time(self, energy, step):
        for profile in (BARRIER, self.DOUBLE):
            tau = complex_time(profile, energy, step)
            assert type(tau) is complex
            assert tau == complex(
                wigner_delay(profile, energy, step), formation_time(profile, energy, step)
            )

    def test_opaque_barrier_raises_zero_transmission(self):
        opaque = PotentialProfile.single(width=80.0, height=1.0)
        with pytest.raises(ZeroTransmission):
            complex_time(opaque, 0.5)

    @pytest.mark.parametrize("energy,step", [(0.5, 0.0), (0.5, -1e-4), (1e-4, 1e-4)])
    def test_step_must_lie_below_energy(self, energy, step):
        with pytest.raises(ValueError, match="0 < step < energy"):
            complex_time(BARRIER, energy, step)

    def test_difference_node_on_segment_height_raises(self):
        with pytest.raises(DegenerateEnergy):
            complex_time(BARRIER, 1.0 - 1e-3, 1e-3)

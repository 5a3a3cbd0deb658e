import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickesim.errors import ContractViolationError, DomainError, TruncationError
from dickesim.pulse_scattering import (
    PulseStrength,
    apply_pulse,
    default_n_max,
    distribution_peaks,
    faraday_variance_operator,
    photon_distribution,
    photon_moments_closed_form,
    photon_moments_numeric,
)
from dickesim.spin_basis import (
    DickeState,
    SpinQuantum,
    initial_coherent_spin_state,
)

from reference_paths import photon_distribution_direct


class TestPulseStrength:
    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            PulseStrength(-0.1)
        with pytest.raises(DomainError):
            PulseStrength(math.nan)

    def test_zero_allowed(self):
        assert PulseStrength(0.0).c == 0.0


class TestApplyPulse:
    def test_zero_strength_is_identity(self):
        state = initial_coherent_spin_state(6)
        joint = apply_pulse(state, 0.0)
        np.testing.assert_array_equal(joint.field_alphas, np.zeros(7))
        np.testing.assert_array_equal(joint.populations(), state.populations())

    def test_two_atom_branches(self):
        joint = apply_pulse(initial_coherent_spin_state(2), 1.0)
        np.testing.assert_allclose(joint.populations(), [0.25, 0.5, 0.25], atol=1e-14)
        np.testing.assert_allclose(joint.field_alphas, [1j, 0.0, -1j], atol=1e-14)

    def test_detected_intensities_scale_with_efficiency(self):
        joint = apply_pulse(initial_coherent_spin_state(8), 0.7, mu=0.4)
        np.testing.assert_allclose(
            joint.intensities(), 0.4 * np.abs(joint.field_alphas) ** 2, rtol=1e-15
        )
        assert apply_pulse(initial_coherent_spin_state(8), 0.7).mu == 1.0

    def test_efficiency_outside_unit_interval_rejected(self):
        state = initial_coherent_spin_state(4)
        for mu in (-0.1, 1.5):
            with pytest.raises(DomainError):
                apply_pulse(state, 1.0, mu)

    def test_alpha_proportional_to_m(self):
        joint = apply_pulse(initial_coherent_spin_state(8), 0.7)
        m = joint.spin.m_values()
        np.testing.assert_allclose(joint.field_alphas, -1j * 0.7 * m, atol=1e-14)

    def test_unnormalized_rejected(self):
        state = DickeState(SpinQuantum(2), np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ContractViolationError):
            apply_pulse(state, 1.0)


class TestPhotonDistribution:
    # the direct path underflows once e^{-(CS)^2} hits float zero, so the
    # comparison stays within its validity regime (CS well below ~26)
    @pytest.mark.parametrize("n_atoms,c", [(4, 0.5), (10, 1.0), (20, 1.5)])
    def test_log_space_matches_direct_evaluation(self, n_atoms, c):
        joint = apply_pulse(initial_coherent_spin_state(n_atoms), c)
        n_max = default_n_max(c, joint.spin.s)
        fast = photon_distribution(joint, n_max)
        direct = photon_distribution_direct(joint, n_max)
        np.testing.assert_allclose(fast.probabilities, direct.probabilities, atol=1e-12)

    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.85])
    def test_detected_count_law_matches_direct_evaluation(self, mu):
        joint = apply_pulse(initial_coherent_spin_state(10), 1.0, mu)
        fast = photon_distribution(joint, 60)
        direct = photon_distribution_direct(joint, 60)
        np.testing.assert_allclose(fast.probabilities, direct.probabilities, atol=1e-14)
        mean, _ = photon_moments_numeric(fast)
        assert mean == pytest.approx(mu * 10 / 4, abs=1e-12)  # mu C^2 N_a / 4

    def test_density_matrix_gives_the_same_law(self):
        state = initial_coherent_spin_state(12)
        pure = photon_distribution(apply_pulse(state, 1.3, 0.6))
        mixed = photon_distribution(apply_pulse(DickeState(state.spin, state.amplitudes, 0.8), 1.3, 0.6))
        np.testing.assert_allclose(mixed.probabilities, pure.probabilities, rtol=1e-13, atol=0)

    def test_normalization_and_tail(self):
        joint = apply_pulse(initial_coherent_spin_state(20), 3.0)
        dist = photon_distribution(joint)
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-10)
        assert abs(dist.tail_mass) < 1e-10

    def test_zero_strength_is_vacuum(self):
        joint = apply_pulse(initial_coherent_spin_state(6), 0.0)
        dist = photon_distribution(joint, 5)
        assert dist.probabilities[0] == pytest.approx(1.0, abs=1e-14)
        assert np.all(dist.probabilities[1:] == 0.0)

    def test_negative_n_max_rejected(self):
        joint = apply_pulse(initial_coherent_spin_state(4), 1.0)
        with pytest.raises(DomainError):
            photon_distribution(joint, -1)

    @given(
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.1, max_value=2.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_distribution_is_a_probability_law(self, n_atoms, c):
        joint = apply_pulse(initial_coherent_spin_state(n_atoms), c)
        dist = photon_distribution(joint, default_n_max(c, joint.spin.s))
        assert np.all(dist.probabilities >= 0.0)
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-8)


class TestDistributionPeaks:
    def test_single_gaussian(self):
        x = np.arange(200)
        sigma = 7.0
        probs = np.exp(-((x - 100.0) ** 2) / (2 * sigma**2))
        peaks = distribution_peaks(probs)
        assert len(peaks) == 1
        assert peaks[0].n == 100
        assert peaks[0].half_width == pytest.approx(sigma, rel=0.02)

    def test_integer_mean_poisson_tie_resolves_to_mean(self):
        lam = 36
        n = np.arange(200)
        from scipy.stats import poisson

        probs = poisson.pmf(n, lam)
        peaks = distribution_peaks(probs)
        assert len(peaks) == 1
        assert peaks[0].n == lam  # pmf(35) == pmf(36); report the plateau's right edge

    def test_two_separated_lobes(self):
        x = np.arange(300)
        probs = np.exp(-((x - 50.0) ** 2) / 50) + 0.5 * np.exp(-((x - 200.0) ** 2) / 50)
        peaks = distribution_peaks(probs)
        assert [p.n for p in peaks] == [50, 200]

    def test_tiny_bumps_below_floor_ignored(self):
        probs = np.zeros(50)
        probs[10] = 1.0
        probs[40] = 1e-15
        assert [p.n for p in distribution_peaks(probs)] == [10]


class TestMoments:
    def test_closed_form_values(self):
        mean, std = photon_moments_closed_form(20, 3.0)
        assert mean == 45.0
        assert std == pytest.approx(9.0 * math.sqrt(5.0 * (9.5 + 1.0 / 9.0)), rel=1e-12)

    def test_zero_strength(self):
        assert photon_moments_closed_form(20, 0.0) == (0.0, 0.0)

    @pytest.mark.parametrize("n_atoms,c", [(4, 0.5), (10, 1.5), (20, 3.0)])
    def test_closed_form_matches_numeric(self, n_atoms, c):
        joint = apply_pulse(initial_coherent_spin_state(n_atoms), c)
        dist = photon_distribution(joint, default_n_max(c, joint.spin.s))
        mean_cf, std_cf = photon_moments_closed_form(n_atoms, c)
        mean_num, std_num = photon_moments_numeric(dist)
        assert mean_num == pytest.approx(mean_cf, rel=1e-8)
        assert std_num == pytest.approx(std_cf, rel=1e-8)

    def test_truncated_distribution_rejected(self):
        joint = apply_pulse(initial_coherent_spin_state(20), 3.0)
        dist = photon_distribution(joint, 50)  # cuts off most of the mass
        with pytest.raises(TruncationError):
            photon_moments_numeric(dist)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            photon_moments_closed_form(0, 1.0)
        with pytest.raises(DomainError):
            photon_moments_closed_form(10, -1.0)


class TestFaradayVarianceOperator:
    def test_values(self):
        mean, spread = faraday_variance_operator(400, 2.0)
        assert mean == 0.0
        assert spread == pytest.approx(0.1)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            faraday_variance_operator(0, 1.0)
        with pytest.raises(DomainError):
            faraday_variance_operator(10, -1.0)

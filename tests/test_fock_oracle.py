import math

import numpy as np
import pytest

from dickesim.errors import ConditioningError, ConsistencyError, DomainError
from dickesim.fock_oracle import (
    TruncatedJointState,
    min_fock_dim,
    oracle_detect,
    oracle_evolve,
    oracle_project,
    oracle_sequence,
)
from dickesim.pulse_scattering import apply_pulse, photon_distribution
from dickesim.detection import collapse
from dickesim.spin_basis import DickeState, initial_coherent_spin_state

from closed_forms import normalized
from reference_paths import assert_equal_up_to_phase, dense_rho


class TestEvolution:
    def test_norm_preserved(self):
        joint = oracle_evolve(initial_coherent_spin_state(6), 0.8)
        assert joint.norm_sq() == pytest.approx(1.0, abs=1e-10)

    def test_zero_strength_leaves_vacuum(self):
        state = initial_coherent_spin_state(4)
        joint = oracle_evolve(state, 0.0)
        np.testing.assert_allclose(
            joint.amplitudes[:, 0], state.amplitudes, atol=1e-14
        )
        assert np.max(np.abs(joint.amplitudes[:, 1:])) == 0.0

    def test_branch_photon_means_are_coherent(self):
        # branch M must carry a coherent state of mean photon number (C M)^2
        c = 0.6
        state = initial_coherent_spin_state(4)
        joint = oracle_evolve(state, c)
        n = np.arange(joint.fock_dim)
        for idx, m in enumerate(state.m_values()):
            column = np.abs(joint.amplitudes[idx]) ** 2
            weight = column.sum()
            assert weight == pytest.approx(abs(state.amplitudes[idx]) ** 2, abs=1e-12)
            assert float(n @ column) / weight == pytest.approx((c * m) ** 2, abs=1e-10)

    def test_marginal_matches_analytic_distribution(self):
        state = initial_coherent_spin_state(6)
        joint = oracle_evolve(state, 1.0)
        analytic = photon_distribution(apply_pulse(state, 1.0), joint.fock_dim - 1)
        np.testing.assert_allclose(
            joint.photon_marginal(), analytic.probabilities, atol=1e-12
        )

    def test_large_spin_rejected(self):
        with pytest.raises(DomainError):
            oracle_evolve(initial_coherent_spin_state(14), 0.5)

    def test_dephased_state_rejected(self):
        state = initial_coherent_spin_state(4)
        with pytest.raises(DomainError):
            oracle_evolve(DickeState(state.amplitudes, 0.5), 1.0)

    def test_negative_strength_rejected(self):
        with pytest.raises(DomainError):
            oracle_evolve(initial_coherent_spin_state(4), -0.5)


class TestProjection:
    def test_matches_fast_collapse(self):
        state = initial_coherent_spin_state(6)
        joint = oracle_evolve(state, 1.0)
        fast_joint = apply_pulse(state, 1.0)
        for n_m in range(6):
            brute = oracle_project(joint, n_m)
            fast = collapse(fast_joint, n_m)
            assert_equal_up_to_phase(fast.amplitudes, brute.amplitudes, atol=1e-12)

    @pytest.mark.parametrize("c", [0.7, 1.3])
    def test_real_projection_equals_collapse_sign_included(self, c):
        # tilted towards M > 0, every column's largest entry sits at M > 0,
        # where the oracle makes it positive and collapse's (C M)^n is too
        start = initial_coherent_spin_state(8)
        tilted = normalized(DickeState(start.amplitudes * np.exp(0.4 * start.m_values())))
        joint = oracle_evolve(tilted, c)
        for n_m in range(8):
            brute = oracle_project(joint, n_m)
            assert brute.amplitudes.dtype == np.float64
            fast = collapse(apply_pulse(tilted, c), n_m)
            np.testing.assert_allclose(brute.amplitudes, fast.amplitudes, rtol=0, atol=1e-12)

    def test_symmetric_state_keeps_its_relative_signs(self):
        # at odd n_m the +-M entries of the binomial start tie in size and
        # differ in sign, so only the global sign is the oracle's choice
        state = initial_coherent_spin_state(6)
        joint = oracle_evolve(state, 1.0)
        for n_m in range(6):
            brute = oracle_project(joint, n_m).amplitudes
            fast = collapse(apply_pulse(state, 1.0), n_m).amplitudes
            sign = 1.0 if n_m % 2 == 0 else math.copysign(1.0, brute @ fast)
            np.testing.assert_allclose(brute, sign * fast, rtol=0, atol=1e-12)

    def test_column_not_real_up_to_a_phase_is_inconsistent(self):
        amps = np.zeros((3, 4), dtype=complex)
        amps[:, 1] = [0.6, 0.0, 0.8j]  # two entries a quarter turn apart
        with pytest.raises(ConsistencyError, match="imaginary part"):
            oracle_project(TruncatedJointState(amps), 1)

    def test_projection_is_normalized(self):
        joint = oracle_evolve(initial_coherent_spin_state(6), 0.7)
        assert oracle_project(joint, 2).norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_count_rejected(self):
        joint = oracle_evolve(initial_coherent_spin_state(4), 0.5)
        with pytest.raises(DomainError):
            oracle_project(joint, joint.fock_dim)
        with pytest.raises(DomainError):
            oracle_project(joint, -1)

    def test_impossible_outcome_rejected(self):
        joint = oracle_evolve(initial_coherent_spin_state(4), 0.0)
        with pytest.raises(ConditioningError):
            oracle_project(joint, 3)


class TestDetection:
    def test_full_efficiency_keeps_only_the_detected_column(self):
        joint = oracle_evolve(initial_coherent_spin_state(4), 0.9)
        vectors = oracle_detect(joint, 2, 1.0)
        np.testing.assert_array_equal(vectors[:, 0], joint.amplitudes[:, 2])
        assert np.max(np.abs(vectors[:, 1:])) == 0.0

    def test_thinning_conserves_probability(self):
        # summed over detected counts, the thinned columns keep every photon branch
        joint = oracle_evolve(initial_coherent_spin_state(4), 0.9)
        total = sum(
            np.sum(np.abs(oracle_detect(joint, n, 0.6)) ** 2) for n in range(joint.fock_dim)
        )
        assert total == pytest.approx(joint.norm_sq(), abs=1e-12)

    @pytest.mark.parametrize("mu", [0.0, 0.45, 1.0])
    def test_single_pulse_matches_kernel(self, mu):
        state = initial_coherent_spin_state(6)
        n_m = 0 if mu == 0.0 else 2
        brute = oracle_sequence(state, [(1.0, mu, n_m)])
        fast = collapse(apply_pulse(state, 1.0, mu), n_m)
        np.testing.assert_allclose(brute, dense_rho(fast), rtol=0, atol=1e-12)

    def test_validation(self):
        joint = oracle_evolve(initial_coherent_spin_state(4), 0.5)
        with pytest.raises(DomainError):
            oracle_detect(joint, 1, 1.5)
        with pytest.raises(DomainError):
            oracle_detect(joint, joint.fock_dim, 0.5)
        with pytest.raises(ConditioningError):
            oracle_sequence(initial_coherent_spin_state(4), [(0.0, 0.5, 2)])
        state = initial_coherent_spin_state(4)
        with pytest.raises(DomainError):
            oracle_sequence(DickeState(state.amplitudes, 0.5), [(1.0, 0.5, 2)])


class TestTruncatedJointState:
    def test_shape_validation(self):
        for bad in (np.zeros(10), np.zeros((3, 10, 2)), 0.0):
            with pytest.raises(DomainError, match="2-D"):
                TruncatedJointState(bad)
        joint = TruncatedJointState(np.zeros((5, 10)))
        assert joint.fock_dim == 10 and joint.amplitudes.shape == (5, 10)

    def test_min_fock_dim_grows_with_strength(self):
        assert min_fock_dim(2.0, 3.0) > min_fock_dim(1.0, 3.0) > min_fock_dim(0.1, 3.0)

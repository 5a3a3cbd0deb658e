import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickesim.errors import DomainError
from dickesim.spin_basis import (
    DickeState,
    binomial_amplitudes,
    initial_coherent_spin_state,
    spin_moments,
)

from closed_forms import normalized
from reference_paths import binomial, dense_rho, dense_xi, spin_matrices


def spin_quantum_numbers(n_atoms: int) -> tuple[int, float, np.ndarray]:
    """(2S, S, M = -S..S) from the atom count alone: 2S is the integer N_a."""
    s_twice = n_atoms
    return s_twice, n_atoms / 2, (np.arange(n_atoms + 1) * 2 - s_twice) / 2.0


class TestSpinQuantum:
    """The spin quantum numbers N_a, S and M that a state reads from its amplitudes."""

    def test_basic_properties(self):
        state = normalized(np.ones(21))
        assert state.n_atoms == 20
        assert state.s == 10.0
        assert state.amplitudes.size == 21
        m = state.m_values()
        assert m[0] == -10.0 and m[-1] == 10.0 and m[10] == 0.0

    def test_half_integer_spin(self):
        state = normalized(np.ones(4))
        assert state.s == 1.5
        assert list(state.m_values()) == [-1.5, -0.5, 0.5, 1.5]

    def test_zero_atoms_rejected(self):
        with pytest.raises(DomainError, match="need at least one atom, got 0"):
            DickeState(np.ones(1))

    @given(st.integers(min_value=1, max_value=4000))
    @settings(max_examples=200, deadline=None)
    def test_sizes_match_the_spin_quantum_formulas_bitwise(self, n_atoms):
        state = initial_coherent_spin_state(n_atoms)
        s_twice, s, m = spin_quantum_numbers(n_atoms)
        assert state.n_atoms == s_twice and type(state.n_atoms) is int
        assert state.s == s and type(state.s) is float
        assert state.m_values().dtype == m.dtype and state.m_values().tobytes() == m.tobytes()

    @pytest.mark.parametrize("amps", [np.float64(1.0), np.ones((3, 3)), np.ones((1, 3))], ids=["0-d", "2-d", "row"])
    def test_input_that_is_not_a_vector_rejected(self, amps):
        with pytest.raises(DomainError, match="1-D"):
            DickeState(amps)


class TestDickeState:
    def test_unnormalized_vector_rejected_at_construction(self):
        with pytest.raises(DomainError, match=r"state norm\^2 = 3.0 deviates from 1 by more than 1e-09"):
            DickeState(np.ones(3))
        amps = normalized(np.ones(3)).amplitudes
        assert abs(float(np.sum(amps * amps)) - 1.0) < 1e-14

    def test_norm_within_tolerance_accepted(self):
        # NORM_TOL = 1e-9 on norm^2: 1 + 5e-10 is a state, 1 + 2e-9 is not
        base = np.array([0.6, 0.0, 0.8])
        DickeState(base * math.sqrt(1.0 + 5e-10))
        with pytest.raises(DomainError, match="deviates from 1 by more than"):
            DickeState(base * math.sqrt(1.0 + 2e-9))

    def test_nan_amplitude_is_not_normalized(self):
        # abs(nan - 1) > tol is False, so the check must be written as not <= tol
        with pytest.raises(DomainError, match=r"state norm\^2 = nan deviates from 1 by more than"):
            DickeState(np.array([math.nan, 0.6, 0.8]))

    def test_earlier_checks_run_before_the_norm(self):
        # every message but the norm's names its own rule, even on a vector far from unit norm
        for amps, dephasing, message in [
            (np.array([2.0, 1j]), 0.0, "real"),
            (np.ones((2, 2)), 0.0, "1-D"),
            (np.ones(1), 0.0, "need at least one atom"),
            (np.ones(3), -1.0, "dephasing"),
        ]:
            with pytest.raises(DomainError, match=message):
                DickeState(amps, dephasing)

    def test_dephasing_must_be_finite_and_non_negative(self):
        for bad in (-1e-3, math.inf, math.nan):
            with pytest.raises(DomainError, match="dephasing"):
                DickeState(np.ones(3) / math.sqrt(3.0), bad)

    def test_diagonals_and_normalization_carry_dephasing(self):
        rng = np.random.default_rng(3)
        state = normalized(rng.normal(size=7), 0.7)
        rho = dense_rho(state)
        for k in range(7):
            np.testing.assert_allclose(state.diagonal(k), np.diagonal(rho, k), rtol=1e-13, atol=0)
        assert state.dephasing == 0.7

    def test_normalize_zero_vector_rejected(self):
        with pytest.raises(DomainError):
            normalized(np.zeros(3))

    def test_nonzero_imaginary_part_rejected(self):
        amps = np.array([0.6, 0.0, 0.8], dtype=complex)
        for bad in (1e-300j, -0.1j, complex(0.0, math.nan)):
            amps[1] = bad
            with pytest.raises(DomainError, match="real"):
                DickeState(amps)

    def test_zero_imaginary_parts_stored_as_float64(self):
        amps = np.array([0.6 + 0.0j, 0.0 - 0.0j, -0.8 + 0.0j])
        state = DickeState(amps)
        assert state.amplitudes.dtype == np.float64
        assert state.amplitudes.tolist() == [0.6, 0.0, -0.8]
        assert DickeState([1, 0]).amplitudes.dtype == np.float64


class TestInitialState:
    def test_two_atoms(self):
        state = initial_coherent_spin_state(2)
        assert state.amplitudes.dtype == np.float64
        np.testing.assert_allclose(state.amplitudes, [0.5, math.sqrt(2) / 2, 0.5], atol=1e-14)

    @pytest.mark.parametrize("n_atoms", [1, 2, 5, 20, 101])
    def test_normalized(self, n_atoms):
        amps = initial_coherent_spin_state(n_atoms).amplitudes
        assert abs(float(np.sum(amps * amps)) - 1.0) < 1e-12

    def test_sx_eigenstate(self):
        state = initial_coherent_spin_state(20)
        residual = spin_matrices(state.n_atoms)[0] @ state.amplitudes - 10.0 * state.amplitudes
        assert np.max(np.abs(residual)) <= 1e-10

    def test_zero_atoms_rejected(self):
        with pytest.raises(DomainError):
            initial_coherent_spin_state(0)


class TestSpinMoments:
    def test_initial_state_moments(self):
        state = initial_coherent_spin_state(20)
        mom = spin_moments(state)
        assert mom.mean_sx == pytest.approx(10.0, abs=1e-10)
        assert mom.mean_sz == pytest.approx(0.0, abs=1e-12)
        assert mom.var_sz == pytest.approx(5.0, rel=1e-12)  # N_a / 4
        assert mom.var_sy == pytest.approx(5.0, rel=1e-12)
        assert mom.mean_spin_length == pytest.approx(10.0, abs=1e-10)

    def test_commutator_algebra(self):
        sx, sy, sz = spin_matrices(5)
        np.testing.assert_allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-12)

    def test_unnormalized_state_cannot_reach_spin_moments(self):
        # the norm is checked once, when the state is built, not by each reader
        with pytest.raises(DomainError, match="deviates from 1 by more than"):
            DickeState(np.array([1.0, 1.0, 0.0]))

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_mean_spin_bounded_by_s(self, n_atoms, seed):
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=n_atoms + 1)
        amps /= np.linalg.norm(amps)
        mom = spin_moments(DickeState(amps))
        assert mom.mean_spin_length <= n_atoms / 2 + 1e-9
        assert mom.var_sz >= 0.0 and mom.var_sy >= 0.0

    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_real_amplitudes_have_zero_sz_sy(self, half, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.1, 1.0, size=half + 1)
        amps = np.concatenate([raw[:0:-1], raw])
        amps /= np.linalg.norm(amps)
        state = DickeState(amps)
        mom = spin_moments(state)
        assert abs(mom.mean_sz) <= 1e-12
        sy = spin_matrices(2 * half)[1]
        assert abs(np.trace(dense_rho(state) @ sy)) <= 1e-12


class TestSqueezing:
    def test_coherent_state_is_unity(self):
        for n_atoms in (2, 20, 100):
            state = initial_coherent_spin_state(n_atoms)
            assert spin_moments(state).xi == pytest.approx(1.0, rel=1e-10)

    def test_min_orthogonal_variance_coherent(self):
        state = initial_coherent_spin_state(20)
        assert spin_moments(state).var_perp == pytest.approx(5.0, rel=1e-10)

    def test_zero_mean_spin_has_no_xi(self):
        amps = np.zeros(3)
        amps[1] = 1.0  # the pure M = 0 state has no mean spin
        mom = spin_moments(DickeState(amps))
        assert mom.xi is None and mom.var_perp is None


class TestBandedMoments:
    @given(
        st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0)),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_operator_products(self, dephasing, n_atoms, seed):
        # a random real amplitude vector, pure or dephased
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=n_atoms + 1)
        state = DickeState(amps / np.linalg.norm(amps), dephasing)
        rho = dense_rho(state)
        sx, sy, sz = spin_matrices(state.n_atoms)
        mom = spin_moments(state)

        def expect(op):
            return float(np.real(np.trace(rho @ op)))

        assert mom.mean_sx == pytest.approx(expect(sx), rel=1e-10, abs=1e-12)
        assert expect(sy) == pytest.approx(0.0, abs=1e-12)  # real amplitudes: no <S_y>
        assert mom.mean_sz == pytest.approx(expect(sz), rel=1e-10, abs=1e-12)
        assert mom.var_sz == pytest.approx(expect(sz @ sz) - expect(sz) ** 2, rel=1e-10, abs=1e-12)
        assert mom.var_sy == pytest.approx(expect(sy @ sy) - expect(sy) ** 2, rel=1e-10, abs=1e-12)
        want = dense_xi(state.n_atoms, rho)
        if want is None:
            assert mom.xi is None
        else:
            assert mom.xi == pytest.approx(want, rel=1e-10)

    def test_unnormalized_density_matrix_rejected(self):
        # trace rho = sum a_M^2 whatever the dephasing, so the constructor's norm check covers it
        with pytest.raises(DomainError, match="deviates from 1 by more than"):
            DickeState(np.ones(3), 1.0)


@pytest.mark.parametrize("n_atoms", [1, 2, 7, 15, 20, 33, 60])
def test_binomial_amplitudes_match_the_exact_start(n_atoms):
    np.testing.assert_allclose(binomial_amplitudes(n_atoms), binomial(n_atoms), rtol=1e-12, atol=0)

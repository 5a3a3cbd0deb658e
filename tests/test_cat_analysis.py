import math

import numpy as np
import pytest

from dickesim.cat_analysis import (
    cat_coherence,
    cat_peak_location,
    cat_peak_width,
)
from dickesim.detection import collapse
from dickesim.errors import DomainError
from dickesim.pulse_scattering import apply_pulse
from dickesim.spin_basis import DickeState, initial_coherent_spin_state

from closed_forms import null_width
from reference_paths import dense_rho


class TestPeakLocation:
    def test_value(self):
        assert cat_peak_location(3.0, 30) == pytest.approx(math.sqrt(30) / 3.0)

    def test_zero_count(self):
        assert cat_peak_location(2.0, 0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cat_peak_location(0.0, 3)
        with pytest.raises(DomainError):
            cat_peak_location(1.0, -1)

    @pytest.mark.parametrize("n_m", [1.5, True, math.nan, -1], ids=["fraction", "bool", "nan", "negative"])
    def test_count_rule_is_the_kernel_rule(self, n_m):
        # the same check and message as collapse: a fraction or a bool is not a count
        message = f"photon count must be an integer >= 0, got {n_m}"
        with pytest.raises(DomainError, match=f"^{message}$"):
            cat_peak_location(1.0, n_m)
        with pytest.raises(DomainError, match=f"^{message}$"):
            collapse(apply_pulse(initial_coherent_spin_state(4), 1.0), n_m)

    def test_matches_lattice_maximum(self):
        joint = apply_pulse(initial_coherent_spin_state(20), 3.0)
        pops = collapse(joint, 30).populations()
        m = joint.state.m_values()
        lattice_peak = abs(m[int(np.argmax(pops))])
        assert round(cat_peak_location(3.0, 30)) == lattice_peak == 2


class TestPeakWidth:
    def test_root_satisfies_width_equation(self):
        for c, n_m in [(0.5, 1), (1.0, 5), (3.0, 30)]:
            w = cat_peak_width(c, n_m)
            m_m = cat_peak_location(c, n_m)
            lhs = 2.0 * n_m * math.log1p(w / m_m)
            rhs = c * c * (2.0 * m_m * w + w * w) - 1.0
            assert lhs == pytest.approx(rhs, abs=1e-7)

    def test_width_smaller_than_location(self):
        for c in (0.5, 1.0, 2.0, 3.0):
            for n_m in (1, 5, 30):
                assert 0 < cat_peak_width(c, n_m) < cat_peak_location(c, n_m)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            cat_peak_width(1.0, 0)
        with pytest.raises(DomainError):
            cat_peak_width(0.0, 5)


class TestNullWidth:
    def test_initial_binomial_state(self):
        # populations ~ exp(-M^2/S): 1/e point at sqrt(S)
        assert null_width(initial_coherent_spin_state(400)) == pytest.approx(
            math.sqrt(200), rel=0.01
        )
        assert null_width(initial_coherent_spin_state(20)) == pytest.approx(
            math.sqrt(10), rel=0.05
        )

    @pytest.mark.parametrize("c", [1.0, 2.0])
    def test_null_collapse_width_scales_as_inverse_c(self, c):
        collapsed = collapse(apply_pulse(initial_coherent_spin_state(400), c), 0)
        assert null_width(collapsed) == pytest.approx(1.0 / c, rel=0.05)

    def test_odd_atom_number_rejected(self):
        with pytest.raises(DomainError, match="requires an even atom number"):
            null_width(initial_coherent_spin_state(5))

    def test_cat_state_rejected(self):
        cat = collapse(apply_pulse(initial_coherent_spin_state(20), 3.0), 30)
        with pytest.raises(DomainError, match="not peaked at M = 0"):
            null_width(cat)


class TestCatCoherence:
    def test_pure_balanced_cat_is_one(self):
        joint = apply_pulse(initial_coherent_spin_state(20), 3.0)
        assert cat_coherence(collapse(joint, 36), 2) == 1.0

    @pytest.mark.parametrize("mu", [0.3, 0.6, 0.9])
    def test_lossy_detection_coherence_value(self, mu):
        c, m_arm = 1.5, 2
        state = collapse(apply_pulse(initial_coherent_spin_state(20), c, mu), 9)
        expected = math.exp(-2.0 * (1.0 - mu) * c * c * m_arm * m_arm)
        assert cat_coherence(state, m_arm) == pytest.approx(expected, rel=1e-10)
        rho = dense_rho(state)
        i, j = 10 + m_arm, 10 - m_arm
        ratio = abs(rho[i, j]) / math.sqrt(rho[i, i].real * rho[j, j].real)
        assert cat_coherence(state, m_arm) == pytest.approx(ratio, rel=1e-12)

    def test_domain_errors(self):
        joint = apply_pulse(initial_coherent_spin_state(20), 3.0)
        state = collapse(joint, 36)
        with pytest.raises(DomainError):
            cat_coherence(state, 0)
        with pytest.raises(DomainError):
            cat_coherence(state, 11)
        odd = DickeState(np.ones(6) / math.sqrt(6), 0.5)
        with pytest.raises(DomainError):
            cat_coherence(odd, 1)

    def test_vanishing_arm_population_rejected(self):
        amps = np.zeros(5)
        amps[2] = 1.0  # all weight at M = 0
        with pytest.raises(DomainError):
            cat_coherence(DickeState(amps, 0.5), 1)

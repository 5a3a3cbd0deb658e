"""End-to-end physics checks: each test validates one headline result of the
simulator at its stated tolerance, exercising the public API the way a user
reproducing the figures would."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.stats import chisquare

from dickesim import (
    PulseSpec,
    apply_pulse,
    collapse,
    initial_coherent_spin_state,
    log_outcome_probability,
    optimal_strength,
    photon_distribution,
    run_trajectory,
    sample_outcome,
    spin_moments,
    squeezing_with_decay,
)
from dickesim.cat_analysis import cat_coherence, cat_peak_location, cat_peak_width
from dickesim.fock_oracle import oracle_evolve, oracle_project, oracle_sequence
from dickesim.physical_params import SPON_COUPLING_CONSTANT, derive_strengths
from dickesim.pulse_scattering import distribution_peaks

from closed_forms import null_width, photon_moments_closed_form, photon_moments_numeric
from conftest import consistent_config
from reference_paths import assert_equal_up_to_phase, dense_rho, kernel_collapse_dense


def test_photon_statistics_peaks():
    """N_a=20, C=3: P(n) has lobes at n=(3M)^2 with 1/e half-widths near 3M."""
    state = initial_coherent_spin_state(20)
    dist = photon_distribution(apply_pulse(state, 3.0))
    peaks = distribution_peaks(dist.probabilities)
    assert [p.n for p in peaks] == [9 * m * m for m in range(11)]
    for m, peak in zip(range(1, 11), peaks[1:]):
        assert abs(peak.half_width - 3 * m) <= 0.3 * 3 * m


def test_photon_moments_closed_form_vs_numeric():
    state = initial_coherent_spin_state(20)
    dist = photon_distribution(apply_pulse(state, 3.0))
    mean_cf, std_cf = photon_moments_closed_form(20, 3.0)
    mean_num, std_num = photon_moments_numeric(dist)
    assert mean_cf == 9.0 * 20 / 4
    assert abs(mean_num - mean_cf) <= 1e-6 * mean_cf
    assert abs(std_num - std_cf) <= 1e-6 * std_cf


@pytest.mark.parametrize("n_atoms", [2, 4, 6])
@pytest.mark.parametrize("c", [0.3, 0.7, 1.0])
def test_oracle_equivalence(n_atoms, c):
    """Per-branch coherent evolution matches brute-force matrix exponentiation."""
    state = initial_coherent_spin_state(n_atoms)
    joint = apply_pulse(state, c)
    oracle = oracle_evolve(state, c)

    marginal = oracle.photon_marginal()
    analytic = photon_distribution(joint, oracle.fock_dim - 1).probabilities
    assert np.max(np.abs(analytic - marginal)) <= 1e-8

    for n_m in range(9):
        if marginal[n_m] <= 1e-12:
            continue
        fast = collapse(joint, n_m)
        brute = oracle_project(oracle, n_m)
        assert_equal_up_to_phase(fast.amplitudes, brute.amplitudes, atol=1e-8)


def test_mixed_trajectory_matches_oracle():
    """Three forced mu < 1 pulses at N_a = 6 agree with the beam-splitter oracle."""
    state = initial_coherent_spin_state(6)
    pulses = [(1.0, 0.7, 2), (0.8, 0.5, 1), (1.2, 0.9, 3)]
    run = run_trajectory(
        state, [PulseSpec(c=c, mu=mu, force_n=n) for c, mu, n in pulses], seed=0
    )
    brute = oracle_sequence(state, pulses)
    assert np.max(np.abs(dense_rho(run.final_state) - brute)) <= 1e-12


def test_null_measurement():
    """Zero detected photons sharply narrows the S_z distribution."""
    state = initial_coherent_spin_state(20)
    collapsed = collapse(apply_pulse(state, 3.0), 0)
    assert spin_moments(collapsed).var_sz < 5.0

    big = initial_coherent_spin_state(400)
    for c in (1.0, 2.0):
        width = null_width(collapse(apply_pulse(big, c), 0))
        assert abs(width - 1.0 / c) <= 0.25 / c

    p0 = math.exp(log_outcome_probability(apply_pulse(state, 50.0), 0))
    expected = math.sqrt(2.0 / (math.pi * 20))
    assert abs(p0 - expected) <= 0.02 * expected


@pytest.mark.parametrize("n_atoms,d_res", [(200, 100.0), (2000, 100.0), (200, 1000.0)])
def test_decay_optimum(n_atoms, d_res):
    """The decay-corrected squeezing minimum sits at C_opt = sqrt(d_res/2N_a)."""
    c_opt, xi_min = optimal_strength(n_atoms, d_res)
    assert abs(c_opt - math.sqrt(d_res / (2 * n_atoms))) <= 1e-6 * c_opt
    assert abs(xi_min - 2.0 * math.sqrt(math.e) / math.sqrt(d_res)) <= 1e-9

    result = minimize_scalar(
        lambda c: squeezing_with_decay(c, n_atoms, d_res),
        bounds=(1e-9, 10.0 * c_opt),
        method="bounded",
        options={"xatol": 1e-12},
    )
    assert abs(result.x - c_opt) <= 1e-6 * c_opt


def test_cat_structure():
    """A nonzero count collapses to two lobes at M = +-sqrt(n_m)/C, none at 0."""
    state = initial_coherent_spin_state(20)
    collapsed = collapse(apply_pulse(state, 3.0), 30)
    pops = collapsed.populations()
    m = state.m_values()
    center = 10
    assert pops[center] == 0.0
    top_two = set(np.argsort(pops)[-2:])
    assert {int(m[i]) for i in top_two} == {-2, 2}

    for c in (0.5, 1.0, 2.0, 3.0):
        for n_m in (1, 5, 30):
            assert cat_peak_width(c, n_m) < cat_peak_location(c, n_m)


def test_sequential_measurement():
    """After a forced n=30 outcome at C=3, a second pulse sees one lobe at 36."""
    run = run_trajectory(
        initial_coherent_spin_state(20),
        [PulseSpec(c=3.0, force_n=30), PulseSpec(c=3.0)],
        seed=0,
        collect_distributions=True,
    )
    second = run.distributions[1].probabilities
    peaks = distribution_peaks(second)
    assert len(peaks) == 1
    assert peaks[0].n == 36
    assert second[6:97].sum() / second.sum() > 0.99


def test_inefficiency():
    """mu<1 mixes the state: a finite best C appears, coherence degrades."""
    state = initial_coherent_spin_state(20)

    grid = np.arange(0.25, 5.0 + 1e-9, 0.25)
    xis = []
    for c in grid:
        xis.append(spin_moments(collapse(apply_pulse(state, c, 0.85), 0)).xi)
    k = int(np.argmin(xis))
    assert 0 < k < grid.size - 1
    assert 1.5 <= grid[k] <= 3.0

    for n_m in (0, 30):
        pure = dense_rho(collapse(apply_pulse(state, 3.0), n_m))
        dense = kernel_collapse_dense(dense_rho(state), state.n_atoms, 3.0, 1.0, n_m)
        assert np.max(np.abs(dense - pure)) <= 1e-10

    coherences = []
    for c in (1.0, 1.5, 2.0, 2.5, 3.0):
        n_m = round(4 * c * c)  # keeps the lobes at M = +-2
        dm = collapse(apply_pulse(state, c, 0.85), n_m)
        coherences.append(cat_coherence(dm, 2))
    assert all(a > b for a, b in zip(coherences, coherences[1:]))


def test_sampling_fidelity():
    """Born sampling reproduces the exact photon law; seeded runs are bitwise stable."""
    state = initial_coherent_spin_state(20)
    joint = apply_pulse(state, 3.0)
    exact = photon_distribution(joint).probabilities
    n_samples = 100_000

    def draw(seed):
        rng = np.random.default_rng(seed)
        return np.array([sample_outcome(joint, rng) for _ in range(n_samples)])

    samples = draw(12345)
    assert samples.tobytes() == draw(12345).tobytes()

    observed_full = np.bincount(samples, minlength=exact.size).astype(float)
    expected_full = exact * n_samples
    # merge adjacent cells until every bin expects at least 5 counts
    observed, expected = [], []
    obs_acc = exp_acc = 0.0
    for o, e in zip(observed_full, expected_full):
        obs_acc += o
        exp_acc += e
        if exp_acc >= 5.0:
            observed.append(obs_acc)
            expected.append(exp_acc)
            obs_acc = exp_acc = 0.0
    observed[-1] += obs_acc + float(samples.size - np.sum(observed_full[: exact.size]))
    expected[-1] += exp_acc + n_samples * max(1.0 - exact.sum(), 0.0)
    expected = np.array(expected) * (np.sum(observed) / np.sum(expected))
    _, p_value = chisquare(observed, expected)
    assert p_value > 0.01


def test_physical_parameter_chain():
    """C, C_spon, d_res and eta derived from one config obey the identities."""
    configs = [
        consistent_config(),
        consistent_config(wavelength=780e-9, n_atoms=2_000_000, n_ph=3e7),
        consistent_config(area=2e-8, length=5e-3, gamma=2 * math.pi * 6.1e6, n_ph=5e8),
    ]
    for config in configs:
        s = derive_strengths(config)
        lhs = s.C**2 * config.N_a / s.d_res
        rhs = SPON_COUPLING_CONSTANT * s.C_spon**2
        assert abs(lhs - rhs) <= 1e-6 * rhs
        assert abs(s.C - s.C_photon_form) <= 1e-9 * s.C
        assert s.eta < 1.0
        assert s.C <= math.sqrt(s.d_res / config.N_a) * (1 + 1e-12)

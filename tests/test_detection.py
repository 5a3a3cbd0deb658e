import json
import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dickesim.detection import (
    PulseSpec,
    collapse,
    log_outcome_probability,
    run_trajectory,
    sample_outcome,
)
from dickesim.errors import DomainError
from dickesim.pulse_scattering import apply_pulse, photon_distribution
from dickesim.spin_basis import DickeState, initial_coherent_spin_state, spin_moments

from reference_paths import dense_rho, dense_xi, kernel_collapse_dense, photon_distribution_direct


class TestDetectionOutcome:
    def test_validation(self):
        joint = apply_pulse(initial_coherent_spin_state(4), 1.0)
        with pytest.raises(DomainError):
            collapse(joint, -1)
        with pytest.raises(DomainError):
            apply_pulse(initial_coherent_spin_state(4), 1.0, mu=1.5)
        assert apply_pulse(initial_coherent_spin_state(4), 1.0, mu=0.5).mu == 0.5


class TestOutcomeProbability:
    @pytest.mark.parametrize("n_atoms,c", [(4, 0.5), (20, 3.0)])
    def test_matches_tabulated_distribution(self, n_atoms, c):
        joint = apply_pulse(initial_coherent_spin_state(n_atoms), c)
        dist = photon_distribution(joint, 60)
        for n_m in (0, 1, 5, 9, 36):
            if dist.probabilities[n_m] > 1e-250:
                assert math.exp(log_outcome_probability(joint, n_m)) == pytest.approx(
                    dist.probabilities[n_m], rel=1e-10
                )

    @pytest.mark.parametrize("mu", [0.0, 0.4, 0.9])
    def test_matches_tabulated_law_at_inefficient_detection(self, mu):
        state = collapse(apply_pulse(initial_coherent_spin_state(20), 1.0, 0.7), 3)
        joint = apply_pulse(state, 2.0, mu)
        dist = photon_distribution(joint, 200)
        for n_m in (0, 1, 4, 20, 75):
            if dist.probabilities[n_m] > 1e-250:
                assert math.exp(log_outcome_probability(joint, n_m)) == pytest.approx(
                    dist.probabilities[n_m], rel=1e-10
                )

    def test_null_probability_consistency(self):
        # P(0) = sum_M rho_MM e^{-mu (C M)^2}
        state = initial_coherent_spin_state(20)
        m = state.m_values()
        for mu in (1.0, 0.3):
            joint = apply_pulse(state, 2.0, mu)
            p0 = float(np.sum(state.populations() * np.exp(-mu * (2.0 * m) ** 2)))
            assert math.exp(log_outcome_probability(joint, 0)) == pytest.approx(p0, rel=1e-12)

    def test_negative_count_rejected(self):
        joint = apply_pulse(initial_coherent_spin_state(4), 1.0)
        with pytest.raises(DomainError):
            log_outcome_probability(joint, -1)

    @pytest.mark.parametrize(
        "n_m",
        [1.5, True, False, np.True_, math.nan, math.inf, -math.inf, -1, -2.0, "1"],
        ids=["fraction", "True", "False", "np.True_", "nan", "inf", "-inf", "-1", "-2.0", "str"],
    )
    def test_count_that_is_not_an_integer_at_least_0_rejected(self, n_m):
        state = initial_coherent_spin_state(4)
        joint = apply_pulse(state, 1.0)
        message = re.escape(f"photon count must be an integer >= 0, got {n_m}")
        with pytest.raises(DomainError, match=f"^{message}$"):
            collapse(joint, n_m)
        with pytest.raises(DomainError, match=f"^{message}$"):
            log_outcome_probability(joint, n_m)
        with pytest.raises(DomainError, match=f"^pulse 0: {message}$"):
            run_trajectory(state, [PulseSpec(c=1.0, force_n=n_m)], seed=1)

    @pytest.mark.parametrize("n_m", [2.0, np.int64(2), np.int32(2), np.uint8(2)], ids=["2.0", "int64", "int32", "uint8"])
    def test_integral_count_of_any_number_type_accepted(self, n_m):
        joint = apply_pulse(initial_coherent_spin_state(4), 1.0)
        assert log_outcome_probability(joint, n_m) == log_outcome_probability(joint, 2)
        np.testing.assert_array_equal(collapse(joint, n_m).amplitudes, collapse(joint, 2).amplitudes)

    @pytest.mark.parametrize("n_m", [10**306, 10**309, 10**400], ids=["lgamma-overflows", "above-float-max", "far-above"])
    def test_count_beyond_the_double_range_rejected(self, n_m):
        joint = apply_pulse(initial_coherent_spin_state(20), 1.0)
        with pytest.raises(DomainError, match="photon count too large"):
            log_outcome_probability(joint, n_m)
        with pytest.raises(DomainError, match="photon count too large"):
            collapse(joint, n_m)

    def test_count_inside_the_double_range_is_only_improbable(self):
        # log(10^305 !) ~ 7.0e307 is finite, so this count has a log-probability
        joint = apply_pulse(initial_coherent_spin_state(20), 1.0)
        assert log_outcome_probability(joint, 10**305) < -1e307
        with pytest.raises(DomainError, match="has probability below 1e-300"):
            collapse(joint, 10**305)


class TestCollapsePerfect:
    def test_null_outcome_gaussian_reweighting(self):
        state = initial_coherent_spin_state(20)
        joint = apply_pulse(state, 1.0)
        collapsed = collapse(joint, 0)
        m = state.m_values()
        expected = state.amplitudes.real * np.exp(-0.5 * m**2)
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(np.abs(collapsed.amplitudes), expected, atol=1e-12)

    def test_odd_outcome_kills_central_component(self):
        joint = apply_pulse(initial_coherent_spin_state(20), 3.0)
        collapsed = collapse(joint, 1)
        assert collapsed.amplitudes[10] == 0.0

    def test_symmetric_populations(self):
        joint = apply_pulse(initial_coherent_spin_state(20), 3.0)
        pops = collapse(joint, 30).populations()
        np.testing.assert_allclose(pops, pops[::-1], atol=1e-12)

    def test_impossible_outcome_rejected(self):
        joint = apply_pulse(initial_coherent_spin_state(4), 0.0)
        with pytest.raises(DomainError, match="has probability below 1e-300"):
            collapse(joint, 5)

    def test_large_count_stays_finite(self):
        joint = apply_pulse(initial_coherent_spin_state(20), 3.0)
        pops = collapse(joint, 900).populations()
        assert abs(float(np.sum(pops)) - 1.0) < 1e-9
        assert pops[0] + pops[-1] == pytest.approx(1.0, abs=1e-6)  # lobes at M = +-10

    def test_nan_amplitude_rejected(self):
        # abs(nan - 1) > tol is False: the state's own norm check must reject a NaN,
        # so no NaN amplitude ever reaches apply_pulse or the conditioning kernel
        with pytest.raises(DomainError, match="deviates from 1 by more than"):
            DickeState(np.array([math.nan, 0.6, 0.8]))

    def test_pure_state_stays_pure_only_at_full_efficiency(self):
        state = initial_coherent_spin_state(6)
        assert collapse(apply_pulse(state, 1.0), 2).dephasing == 0.0
        for mu in (0.0, 0.5, 0.9, 1.0 - 1e-12):
            n_m = 0 if mu == 0.0 else 2
            assert collapse(apply_pulse(state, 1.0, mu), n_m).dephasing > 0.0
        dephased = DickeState(state.amplitudes, 0.3)
        assert collapse(apply_pulse(dephased, 1.0), 2).dephasing == 0.3


class TestCollapseImperfect:
    def test_perfect_efficiency_reduces_to_pure_projector(self):
        # at mu = 1 the dense kernel is the rank-one projector k k^T, also on a dephased state
        pure = initial_coherent_spin_state(20)
        for state in (pure, DickeState(pure.amplitudes, 0.4)):
            for n_m in (0, 1, 30):
                got = dense_rho(collapse(apply_pulse(state, 3.0), n_m))
                want = kernel_collapse_dense(dense_rho(state), state.n_atoms, 3.0, 1.0, n_m)
                assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("mu", [0.0, 0.3, 0.85, 1.0])
    def test_density_matrix_health(self, mu):
        state = collapse(apply_pulse(initial_coherent_spin_state(20), 1.0, 0.5), 2)
        rho = dense_rho(collapse(apply_pulse(state, 2.0, mu), 4 if mu > 0 else 0))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert np.linalg.eigvalsh(rho)[0] >= -1e-10

    def test_zero_efficiency_null_keeps_prior_populations(self):
        state = initial_coherent_spin_state(20)
        dm = collapse(apply_pulse(state, 2.0, 0.0), 0)
        np.testing.assert_allclose(dm.populations(), state.populations(), atol=1e-12)
        assert spin_moments(dm).var_sz == pytest.approx(5.0, rel=1e-10)

    def test_lower_efficiency_means_weaker_conditioning(self):
        state = initial_coherent_spin_state(20)
        var_perfect = spin_moments(collapse(apply_pulse(state, 3.0, 1.0), 0)).var_sz
        var_lossy = spin_moments(collapse(apply_pulse(state, 3.0, 0.85), 0)).var_sz
        assert var_perfect < var_lossy < 5.0

    def test_impossible_outcome_rejected(self):
        state = initial_coherent_spin_state(4)
        with pytest.raises(DomainError, match="has probability below 1e-300"):
            collapse(apply_pulse(state, 0.0, 0.5), 5)
        with pytest.raises(DomainError, match="has probability below 1e-300"):
            collapse(apply_pulse(state, 1.0, 0.0), 1)  # nothing is ever detected

    def test_overflowing_dephasing_is_a_domain_error(self):
        # (1 - mu) C^2 overflows to inf: a DomainError (exit 2), not an OverflowError
        state = initial_coherent_spin_state(20)
        with np.errstate(over="ignore"), pytest.raises(DomainError):
            collapse(apply_pulse(state, 1e200, 0.5), 0)

    def test_off_diagonal_decay_factor(self):
        # rho[M,-M] / sqrt(rho[M,M] rho[-M,-M]) = exp(-2 (1-mu) C^2 M^2)
        c, mu = 1.5, 0.6
        rho = dense_rho(collapse(apply_pulse(initial_coherent_spin_state(8), c, mu), 2))
        center = 4
        for m in (1, 2):
            i, j = center + m, center - m
            ratio = abs(rho[i, j]) / math.sqrt(rho[i, i].real * rho[j, j].real)
            assert ratio == pytest.approx(math.exp(-2 * (1 - mu) * c * c * m * m), rel=1e-10)

    def test_matches_closed_form_kernel(self):
        c, mu, n_m = 0.8, 0.55, 3
        state = collapse(apply_pulse(initial_coherent_spin_state(10), 1.1, 0.7), 2)
        expected = kernel_collapse_dense(dense_rho(state), state.n_atoms, c, mu, n_m)
        got = dense_rho(collapse(apply_pulse(state, c, mu), n_m))
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)

    def test_conditioning_memory_is_linear_in_dimension(self):
        # a dense (2S+1)^2 complex rho at N_a = 4000 alone would take 256 MB
        state = initial_coherent_spin_state(4000)
        tracemalloc.start()
        try:
            spin_moments(collapse(apply_pulse(state, 0.1, 0.9), 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestSampling:
    def test_seeded_reproducibility(self):
        joint = apply_pulse(initial_coherent_spin_state(20), 3.0)
        rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
        s1 = [sample_outcome(joint, rng1) for _ in range(200)]
        s2 = [sample_outcome(joint, rng2) for _ in range(200)]
        assert s1 == s2

    def test_sample_mean_near_exact_mean(self):
        joint = apply_pulse(initial_coherent_spin_state(20), 3.0)
        rng = np.random.default_rng(11)
        samples = [sample_outcome(joint, rng) for _ in range(5000)]
        # exact mean 45, std ~62; the sample mean should land within ~5 sigma/sqrt(n)
        assert abs(np.mean(samples) - 45.0) < 5 * 62.4 / math.sqrt(5000)

    def test_zero_strength_always_zero(self):
        joint = apply_pulse(initial_coherent_spin_state(4), 0.0)
        rng = np.random.default_rng(0)
        assert all(sample_outcome(joint, rng) == 0 for _ in range(10))

    def test_unsampleable_count_is_a_domain_error(self):
        # all mass on M = 10 at C = 1e10: lambda = 1e22, beyond numpy's Poisson sampler
        top = DickeState(np.eye(21)[-1])
        with pytest.raises(DomainError, match="cannot sample a count"):
            sample_outcome(apply_pulse(top, 1e10), np.random.default_rng(0))


class TestTrajectory:
    def test_forced_outcomes_recorded(self):
        run = run_trajectory(
            initial_coherent_spin_state(20),
            [PulseSpec(c=3.0, force_n=30), PulseSpec(c=3.0, force_n=36)],
            seed=1,
        )
        assert [p.n_m for p in run.pulses] == [30, 36]
        assert run.pulses[0].post_var_Sz == pytest.approx(4.0, abs=1e-3)

    def test_jsonl_field_order_and_replay(self):
        pulses = [PulseSpec(c=2.0), PulseSpec(c=1.0)]
        state = initial_coherent_spin_state(12)
        text1 = run_trajectory(state, pulses, seed=42).to_jsonl()
        text2 = run_trajectory(state, pulses, seed=42).to_jsonl()
        assert text1 == text2
        first = json.loads(text1.splitlines()[0])
        assert list(first) == ["seed", "pulse_index", "C", "mu", "n_m", "post_var_Sz", "post_xi"]

    def test_empty_pulse_list(self):
        run = run_trajectory(initial_coherent_spin_state(4), [], seed=0)
        assert run.pulses == ()
        assert run.to_jsonl() == ""

    def test_inefficient_pulse_switches_to_density_matrix(self):
        run = run_trajectory(
            initial_coherent_spin_state(12),
            [PulseSpec(c=1.0, mu=0.8, force_n=0), PulseSpec(c=1.0, force_n=0)],
            seed=0,
        )
        assert run.final_state.dephasing == pytest.approx(0.2, rel=1e-12)
        assert float(np.sum(run.final_state.populations())) == pytest.approx(1.0, abs=1e-9)
        assert run.pulses[1].post_var_Sz < run.pulses[0].post_var_Sz

    def test_mixed_path_agrees_with_pure_path_at_near_full_efficiency(self):
        # an almost-perfect first detection must leave the second pulse's
        # conditional statistics indistinguishable from the pure-state path
        state = initial_coherent_spin_state(12)
        pure = run_trajectory(
            state,
            [PulseSpec(c=1.0, force_n=0), PulseSpec(c=1.5, force_n=2)],
            seed=0,
        )
        mixed = run_trajectory(
            state,
            [PulseSpec(c=1.0, mu=1.0 - 1e-12, force_n=0), PulseSpec(c=1.5, force_n=2)],
            seed=0,
        )
        assert mixed.final_state.dephasing > 0.0
        assert mixed.pulses[1].post_var_Sz == pytest.approx(
            pure.pulses[1].post_var_Sz, rel=1e-6
        )

    def test_forced_impossible_outcome_rejected(self):
        with pytest.raises(DomainError, match="has probability below 1e-300"):
            run_trajectory(
                initial_coherent_spin_state(4),
                [PulseSpec(c=0.0, force_n=3)],
                seed=0,
            )

    @pytest.mark.parametrize(
        "pulses,message",
        [
            ([PulseSpec(c=1.0), PulseSpec(c=0.0, force_n=3)], "pulse 1: outcome n_m=3"),
            ([PulseSpec(c=1.0), PulseSpec(c=1e200)], "pulse 1: pulse strength"),
            ([PulseSpec(c=1.0), PulseSpec(c=1e10)], "pulse 1: cannot sample a count"),
            ([PulseSpec(c=1.0), PulseSpec(c=1.0, force_n=10**400)], "pulse 1: photon count too large"),
        ],
        ids=["conditioning", "apply-pulse", "sample-outcome", "count-too-large"],
    )
    def test_failing_pulse_is_named(self, pulses, message):
        with pytest.raises(DomainError, match=f"^{message}"):
            run_trajectory(initial_coherent_spin_state(20), pulses, seed=2)

    def test_states_stay_real_along_an_inefficient_trajectory(self):
        # a seeded run replays its prefix, so each prefix ends in the state
        # the full run passes through after that many pulses
        state = initial_coherent_spin_state(40)
        pulses = [PulseSpec(c=0.6, mu=0.7), PulseSpec(c=0.4, mu=0.9), PulseSpec(c=1.1, mu=0.5)]
        finals = [run_trajectory(state, pulses[:k], seed=5).final_state for k in range(1, 4)]
        assert [s.amplitudes.dtype for s in finals] == [np.float64] * 3
        assert finals[-1].dephasing == pytest.approx(0.3 * 0.36 + 0.1 * 0.16 + 0.5 * 1.21, rel=1e-12)

    def test_collected_distributions(self):
        run = run_trajectory(
            initial_coherent_spin_state(20),
            [PulseSpec(c=3.0, force_n=30), PulseSpec(c=3.0, force_n=36)],
            seed=0,
            collect_distributions=True,
        )
        assert len(run.distributions) == 2
        for dist in run.distributions:
            assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-8)

    def test_sampled_count_at_inefficient_detection_follows_detected_law(self):
        # N_a = 20, C = 1, mu = 0.5: mean detected count mu C^2 N_a / 4 = 2.5
        state = initial_coherent_spin_state(20)
        counts = np.array(
            [
                run_trajectory(state, [PulseSpec(c=1.0, mu=0.5)], seed=seed).pulses[0].n_m
                for seed in range(2000)
            ]
        )
        stderr = counts.std(ddof=1) / math.sqrt(counts.size)
        assert abs(counts.mean() - 2.5) < 5 * stderr

    def test_collected_distribution_is_detected_count_law(self):
        state = initial_coherent_spin_state(20)
        pulses = [PulseSpec(c=1.0, mu=0.5, force_n=2), PulseSpec(c=1.5, mu=0.7, force_n=4)]
        run = run_trajectory(state, pulses, seed=0, collect_distributions=True)
        before = [state, collapse(apply_pulse(state, 1.0, 0.5), 2)]
        for dist, prior, spec in zip(run.distributions, before, pulses):
            want = photon_distribution_direct(apply_pulse(prior, spec.c, spec.mu), dist.n_max)
            np.testing.assert_allclose(dist.probabilities, want.probabilities, rtol=0, atol=1e-13)
        n = np.arange(run.distributions[0].n_max + 1)
        assert n @ run.distributions[0].probabilities == pytest.approx(2.5, rel=1e-10)

    @given(
        st.integers(min_value=1, max_value=10),
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=1.5),
                st.floats(min_value=0.05, max_value=1.0),
                st.integers(min_value=0, max_value=4),
            ),
            min_size=2,
            max_size=4,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=40, deadline=None)
    def test_forced_outcomes_commute(self, n_atoms, pulses, random):
        # each forced outcome multiplies rho entrywise, and Schur products commute
        specs = [PulseSpec(c=c, mu=mu, force_n=n) for c, mu, n in pulses]
        shuffled = list(specs)
        random.shuffle(shuffled)
        state = initial_coherent_spin_state(n_atoms)
        first = run_trajectory(state, specs, seed=0).final_state
        second = run_trajectory(state, shuffled, seed=0).final_state
        np.testing.assert_allclose(dense_rho(first), dense_rho(second), rtol=0, atol=1e-12)

    def test_pulse_spec_validation(self):
        # a PulseSpec holds its values as given; JointState and collapse reject them inside their pulse
        state = initial_coherent_spin_state(4)
        for spec, message in [
            (PulseSpec(c=-1.0), "pulse strength must be >= 0 with (C S)^2 finite, got C = -1.0 at S = 2.0"),
            (PulseSpec(c=math.nan), "pulse strength must be >= 0 with (C S)^2 finite, got C = nan at S = 2.0"),
            (PulseSpec(c=1.0, mu=2.0), "detection efficiency must lie in [0,1], got 2.0"),
            (PulseSpec(c=1.0, force_n=-3), "photon count must be an integer >= 0, got -3"),
        ]:
            with pytest.raises(DomainError, match=f"^{re.escape('pulse 1: ' + message)}$"):
                run_trajectory(state, [PulseSpec(c=1.0), spec], seed=0)


def merged_reference(amplitudes: np.ndarray, pulses: list[PulseSpec]) -> np.ndarray:
    """a_M M^(sum n) exp(-sum mu_i C_i^2 M^2 / 2), normalised, at 40 digits:
    the forced pulses' kernels multiplied out (a constant C^n cancels)."""
    with mpmath.workdps(40):
        total_n = sum(p.force_n for p in pulses)
        rate = mpmath.fsum(mpmath.mpf(p.mu) * mpmath.mpf(p.c) ** 2 for p in pulses) / 2
        n_atoms = amplitudes.size - 1
        m = [mpmath.mpf(2 * k - n_atoms) / 2 for k in range(n_atoms + 1)]
        b = [mpmath.mpf(float(a)) * mk**total_n * mpmath.exp(-rate * mk * mk) for a, mk in zip(amplitudes, m)]
        norm = mpmath.sqrt(mpmath.fsum(x * x for x in b))
        return np.array([float(x / norm) for x in b])


@st.composite
def forced_sequences(draw):
    """N_a, a start dephasing and pulses whose forced counts are probable
    enough that neither the pulses nor their merged collapse hit the 1e-300 floor."""
    n_atoms = draw(st.integers(min_value=1, max_value=200_000))
    sigma = math.sqrt(n_atoms) / 2  # the width of the binomial start in M
    pulses = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        x = draw(st.floats(min_value=0.01, max_value=3.0))  # C sigma
        mu = draw(st.floats(min_value=0.05, max_value=1.0))
        n = draw(st.integers(min_value=0, max_value=3 + math.ceil(4 * x * x)))
        pulses.append(PulseSpec(c=x / sigma, mu=mu, force_n=n))
    return n_atoms, draw(st.floats(min_value=0.0, max_value=1.0)), pulses


class TestConditioningAccuracy:
    @pytest.mark.parametrize("n_pulses", [10, 100])
    def test_trajectory_keeps_every_normal_amplitude(self, n_pulses):
        # a_M^2 underflows for |a_M| below ~1.5e-162; conditioning through it zeroed such amplitudes
        state = initial_coherent_spin_state(2000)
        counts = np.random.default_rng(0).integers(0, 3, size=n_pulses)
        pulses = [PulseSpec(c=0.01, mu=0.95, force_n=int(n)) for n in counts]
        got = run_trajectory(state, pulses, seed=0).final_state.amplitudes
        want = merged_reference(state.amplitudes, pulses)
        normal = np.abs(want) >= np.finfo(float).tiny
        assert np.count_nonzero(normal & (got == 0.0)) == 0
        rel = np.abs(got - want) / np.where(want != 0.0, np.abs(want), 1.0)
        assert rel[np.abs(want) >= 1e-3 * np.abs(want).max()].max() <= 1e-13
        assert rel[np.abs(want) >= 1e-300].max() <= 1e-11

    @given(forced_sequences())
    @settings(max_examples=30, deadline=None)
    def test_forced_trajectory_is_one_merged_collapse(self, drawn):
        # the kernels multiply: C^2 = sum C_i^2, mu = sum mu_i C_i^2 / C^2, n = sum n_i
        n_atoms, dephasing, pulses = drawn
        state = DickeState(initial_coherent_spin_state(n_atoms).amplitudes, dephasing)
        final = run_trajectory(state, pulses, seed=0).final_state
        c2 = math.fsum(p.c * p.c for p in pulses)
        mu = math.fsum(p.mu * p.c * p.c for p in pulses) / c2
        total_n = sum(p.force_n for p in pulses)
        merged = collapse(apply_pulse(state, math.sqrt(c2), min(mu, 1.0)), total_n)
        # both round the terms of log|b_M| = log|a_M| - sum lambda_M / 2 + sum n log|C M|,
        # so they differ by a few ulps of the largest term, which grows with sum n
        visible = np.abs(merged.amplitudes) >= 1e-300
        m = state.m_values()[visible]
        terms = -np.log(state.amplitudes[visible])
        for p in pulses:
            terms += 0.5 * p.mu * (p.c * m) ** 2 + (p.force_n * np.abs(np.log(np.abs(p.c * m))) if p.force_n else 0.0)
        rtol = 16 * np.finfo(float).eps * (1.0 + terms.max())
        np.testing.assert_allclose(final.amplitudes, merged.amplitudes, rtol=rtol, atol=1e-300)
        gained = math.fsum((1.0 - p.mu) * p.c * p.c for p in pulses)
        assert final.dephasing == pytest.approx(dephasing + gained, rel=1e-12, abs=1e-300)
        # 1 - mu of the merged pulse cancels to a few ulps of C^2
        assert merged.dephasing == pytest.approx(dephasing + gained, rel=1e-12, abs=4 * np.finfo(float).eps * c2)


class TestRhoXi:
    def test_matches_pure_squeezing_for_projector(self):
        collapsed = collapse(apply_pulse(initial_coherent_spin_state(20), 0.5), 0)
        xi_pure = spin_moments(collapsed).xi
        xi_rho = dense_xi(collapsed.n_atoms, dense_rho(collapsed))
        assert xi_rho == pytest.approx(xi_pure, rel=1e-12)
        assert xi_rho < 1.0  # a null outcome squeezes the state

    def test_vanishing_mean_spin_returns_none(self):
        amps = np.zeros(5)
        amps[0] = amps[4] = math.sqrt(0.5)  # balanced M = +-2 cat: no mean spin
        assert spin_moments(DickeState(amps, 3.0)).xi is None

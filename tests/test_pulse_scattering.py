import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import poisson

from dickesim.detection import collapse, sample_outcome
from dickesim.errors import DomainError
from dickesim.pulse_scattering import (
    FLOOR_RTOL,
    MAX_TABLE_LENGTH,
    TIE_RTOL,
    PhotonDistribution,
    _chernoff_windows,
    _dominance_cut,
    apply_pulse,
    distribution_peaks,
    photon_distribution,
)
from dickesim.spin_basis import (
    DickeState,
    initial_coherent_spin_state,
)

from closed_forms import photon_moments_closed_form, photon_moments_numeric
from reference_paths import (
    default_n_max,
    distribution_peaks_loop,
    photon_distribution_chernoff,
    photon_distribution_dense,
    photon_distribution_direct,
)


def assert_same_law(got, want):
    """1e-10 relative where P > 1e-250, 1e-15 absolute elsewhere; tail mass to 1e-14."""
    p, q = got.probabilities, want.probabilities
    assert p.shape == q.shape
    big = q > 1e-250
    np.testing.assert_allclose(p[big], q[big], rtol=1e-10, atol=0)
    np.testing.assert_allclose(p[~big], q[~big], rtol=0, atol=1e-15)
    assert got.tail_mass == pytest.approx(want.tail_mass, abs=1e-14)


class TestPulseStrength:
    def test_zero_allowed(self):
        joint = apply_pulse(initial_coherent_spin_state(4), 0.0)
        assert joint.c == 0.0


class TestApplyPulse:
    def test_zero_strength_is_identity(self):
        state = initial_coherent_spin_state(6)
        joint = apply_pulse(state, 0.0)
        assert joint.c == 0.0
        np.testing.assert_array_equal(joint.field_alphas, np.zeros(7))
        np.testing.assert_array_equal(joint.populations(), state.populations())

    @pytest.mark.parametrize("c", [-0.1, -math.inf, math.nan, math.inf])
    def test_negative_or_non_finite_strength_rejected(self, c):
        with pytest.raises(DomainError, match="pulse strength"):
            apply_pulse(initial_coherent_spin_state(4), c)

    def test_overflowing_intensity_rejected(self):
        # at S = 2, (C S)^2 = 4e400 overflows; just below the largest double it does not
        with pytest.raises(DomainError, match=r"\(C S\)\^2 finite"):
            apply_pulse(initial_coherent_spin_state(4), 1e200)
        joint = apply_pulse(initial_coherent_spin_state(4), 6e153)  # (C S)^2 = 1.44e308
        assert np.all(np.isfinite(joint.intensities()))
        assert np.isfinite(photon_distribution(joint, 10).tail_mass)

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
        m = joint.state.m_values()
        np.testing.assert_allclose(joint.field_alphas, -1j * 0.7 * m, atol=1e-14)

    def test_unnormalized_rejected(self):
        state = DickeState(np.array([1.0, 1.0, 1.0]))
        with pytest.raises(DomainError, match="deviates from 1 by more than"):
            apply_pulse(state, 1.0)


class TestPhotonDistribution:
    # the direct path underflows once e^{-(CS)^2} hits float zero, so the
    # comparison stays within its validity regime (CS well below ~26)
    @pytest.mark.parametrize("n_atoms,c", [(4, 0.5), (10, 1.0), (20, 1.5)])
    def test_log_space_matches_direct_evaluation(self, n_atoms, c):
        joint = apply_pulse(initial_coherent_spin_state(n_atoms), c)
        n_max = default_n_max(c, joint.state.s)
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
        mixed = photon_distribution(apply_pulse(DickeState(state.amplitudes, 0.8), 1.3, 0.6))
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

    def test_n_max_is_read_from_the_table(self):
        assert PhotonDistribution(np.array([0.5, 0.3, 0.2])).n_max == 2
        assert photon_distribution(apply_pulse(initial_coherent_spin_state(4), 1.0), 7).n_max == 7

    def test_tail_mass_is_read_from_the_table(self):
        assert PhotonDistribution(np.array([0.5, 0.3])).tail_mass == pytest.approx(0.2, abs=1e-15)

    @pytest.mark.parametrize("n_atoms", [2, 4, 20])
    @pytest.mark.parametrize("c", [0.1, 1.0, 3.0, 10.0])
    def test_default_table_leaves_out_less_than_1e_23(self, n_atoms, c):
        # edge-weighted binomial states put their largest branch near the cap
        joint = apply_pulse(initial_coherent_spin_state(n_atoms), c)
        default = photon_distribution(joint)
        longer = photon_distribution(joint, 2 * default.n_max + 100)
        assert longer.probabilities[: default.n_max + 1].tolist() == default.probabilities.tolist()
        assert longer.probabilities[default.n_max + 1 :].sum() < 1e-23

    def test_table_longer_than_the_limit_rejected(self):
        joint = apply_pulse(initial_coherent_spin_state(4), 1.0)
        with pytest.raises(DomainError):
            photon_distribution(joint, MAX_TABLE_LENGTH)
        with pytest.raises(DomainError, match="exceeds the limit"):  # default length 4e300
            photon_distribution(apply_pulse(initial_coherent_spin_state(4), 1e150))
        # at S = 1/2, (C S)^2 = 5.6e307 is finite but the default length C^2 S^2 overflows
        with pytest.raises(DomainError, match="exceeds the limit"):
            photon_distribution(apply_pulse(initial_coherent_spin_state(1), 1.5e154))

    # random real amplitudes make rho_MM != rho_-M,-M, so the +-M merge
    # is exercised; keeping one or two of them leaves single branches whose
    # own tails are the law's tails, and empty branches; a fraction of the
    # default n_max cuts branches mid-window
    @pytest.mark.parametrize("odd", [0, 1])
    @given(
        half_atoms=st.integers(min_value=1, max_value=99),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        sparse=st.booleans(),
        c=st.floats(min_value=0.0, max_value=3.0),
        mu=st.floats(min_value=0.0, max_value=1.0),
        dephasing=st.floats(min_value=0.0, max_value=5.0),
        cut=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
    )
    @settings(max_examples=25, deadline=None)
    def test_windowed_law_matches_dense_law(self, odd, half_atoms, seed, sparse, c, mu, dephasing, cut):
        dim = 2 * half_atoms + odd + 1
        rng = np.random.default_rng(seed)
        a = rng.normal(size=dim)
        if sparse:
            a[rng.permutation(dim)[rng.integers(1, 3) :]] = 0.0
        joint = apply_pulse(DickeState(a / np.linalg.norm(a), dephasing), c, mu)
        n_max = default_n_max(math.sqrt(mu) * c, joint.state.s)
        if cut is not None:
            n_max = int(cut * n_max)
        assert_same_law(photon_distribution(joint, n_max), photon_distribution_dense(joint, n_max))

    @pytest.mark.parametrize(
        "n_atoms,c,mu",
        [(20, 2.0, 0.0), (21, 0.0, 1.0), (1, 1.5, 1.0), (1, 1.5, 0.4)],
        ids=["mu=0", "C=0", "one-atom", "one-atom-lossy"],
    )
    def test_edge_cases(self, n_atoms, c, mu):
        joint = apply_pulse(initial_coherent_spin_state(n_atoms), c, mu)
        dist = photon_distribution(joint, 40)
        assert_same_law(dist, photon_distribution_dense(joint, 40))
        lam = mu * c * c / 4.0  # every branch of N_a = 1 has M = +-1/2
        if n_atoms == 1:
            np.testing.assert_allclose(dist.probabilities, poisson.pmf(np.arange(41), lam), rtol=1e-13)
        else:
            assert dist.probabilities[0] == pytest.approx(1.0, abs=1e-15)
            assert np.all(dist.probabilities[1:] == 0.0)

    def test_single_branch_keeps_its_far_tails(self):
        # |S, M = S>: P(n) is one Poisson law of mean 10^4, kept down to 1e-250
        a = np.zeros(201)
        a[-1] = 1.0
        joint = apply_pulse(DickeState(a), 1.0)
        n_max = default_n_max(1.0, joint.state.s)
        dist = photon_distribution(joint, n_max)
        assert_same_law(dist, photon_distribution_dense(joint, n_max))
        assert np.count_nonzero(dist.probabilities > 1e-250) > 3000

    # the default table ends at the last count any window reaches; the
    # random amplitudes and sparse supports move that end around
    @pytest.mark.parametrize("odd", [0, 1])
    @given(
        half_atoms=st.integers(min_value=1, max_value=150),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        sparse=st.booleans(),
        c=st.floats(min_value=0.0, max_value=3.0),
        mu=st.floats(min_value=0.0, max_value=1.0),
        dephasing=st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_default_table_drops_only_exact_zeros(self, odd, half_atoms, seed, sparse, c, mu, dephasing):
        dim = 2 * half_atoms + odd + 1
        rng = np.random.default_rng(seed)
        a = rng.normal(size=dim)
        if sparse:
            a[rng.permutation(dim)[rng.integers(1, 3) :]] = 0.0
        joint = apply_pulse(DickeState(a / np.linalg.norm(a), dephasing), c, mu)
        full = photon_distribution(joint, default_n_max(math.sqrt(mu) * c, joint.state.s))
        trimmed = photon_distribution(joint)
        assert trimmed.n_max <= full.n_max
        kept = full.probabilities[: trimmed.n_max + 1]
        assert trimmed.probabilities.tobytes() == kept.tobytes()
        assert np.all(full.probabilities[trimmed.n_max + 1 :] == 0.0)
        assert trimmed.tail_mass == pytest.approx(full.tail_mass, abs=1e-15)

    @pytest.mark.parametrize("c,mu", [(0.0, 1.0), (2.0, 0.0)], ids=["C=0", "mu=0"])
    def test_delta_law_keeps_the_formula_minimum_length(self, c, mu):
        # every count but n = 0 is 0.0; the table still runs to n = 20, so
        # the peak at 0 reads its 1/e fall towards n = 1 as before the trim
        joint = apply_pulse(initial_coherent_spin_state(20), c, mu)
        dist = photon_distribution(joint)
        assert dist.n_max == 20
        assert dist.probabilities.tobytes() == photon_distribution(joint, 20).probabilities.tobytes()
        (peak,) = distribution_peaks(dist.probabilities)
        assert peak.n == 0
        assert peak.half_width == pytest.approx((1.0 - 1.0 / math.e) / math.sqrt(2.0), rel=1e-15)

    def test_default_length_limit_applies_to_the_trimmed_table(self):
        # (C S)^2 + 10 C S + 20 = 1.0e8 counts, but every window ends by 7.4e6
        joint = apply_pulse(initial_coherent_spin_state(20000), 1.0)
        with pytest.raises(DomainError):
            default_n_max(1.0, joint.state.s)
        assert photon_distribution(joint).n_max < MAX_TABLE_LENGTH
        with pytest.raises(DomainError):  # an overflowed C S is still rejected
            photon_distribution(apply_pulse(initial_coherent_spin_state(20), 1e200))

    def test_law_memory_is_linear_in_table_length(self):
        # the dense 2001 x 11021 log-Poisson table alone would take 176 MB
        joint = apply_pulse(initial_coherent_spin_state(2000), 0.1)
        n_max = default_n_max(0.1, joint.state.s)
        tracemalloc.start()
        try:
            photon_distribution(joint, n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @given(
        st.integers(min_value=1, max_value=12),
        st.floats(min_value=0.1, max_value=2.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_distribution_is_a_probability_law(self, n_atoms, c):
        joint = apply_pulse(initial_coherent_spin_state(n_atoms), c)
        dist = photon_distribution(joint, default_n_max(c, joint.state.s))
        assert np.all(dist.probabilities >= 0.0)
        assert dist.probabilities.sum() == pytest.approx(1.0, abs=1e-8)


class TestDominanceCut:
    # random, sparse and dephased states, the binomial start and a state
    # collapsed on a sampled count, pulsed again at mu = 1 or mu < 1; the
    # default n_max, an explicit one and a fraction of the default
    @given(
        n_atoms=st.integers(min_value=1, max_value=600),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        kind=st.sampled_from(["random", "sparse", "binomial", "collapsed"]),
        log_c=st.floats(min_value=-2.5, max_value=0.7),
        mu=st.one_of(st.just(1.0), st.floats(min_value=0.0, max_value=1.0)),
        dephasing=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=3.0)),
        n_max=st.one_of(st.none(), st.integers(min_value=0, max_value=3000), st.floats(min_value=0.0, max_value=1.0)),
    )
    @settings(max_examples=150, deadline=None)
    def test_law_is_byte_identical_to_the_chernoff_windows(self, n_atoms, seed, kind, log_c, mu, dephasing, n_max):
        rng = np.random.default_rng(seed)
        c = 10.0**log_c
        if kind in ("random", "sparse"):
            a = rng.normal(size=n_atoms + 1)
            if kind == "sparse":
                a[rng.permutation(n_atoms + 1)[rng.integers(1, 5) :]] = 0.0
            state = DickeState(a / np.linalg.norm(a), dephasing)
        else:
            state = DickeState(initial_coherent_spin_state(n_atoms).amplitudes, dephasing)
            if kind == "collapsed":
                first = apply_pulse(state, c, mu)
                state = collapse(first, sample_outcome(first, rng))
        joint = apply_pulse(state, c, mu)
        want = photon_distribution_chernoff(joint)
        if isinstance(n_max, float):
            n_max = int(n_max * want.n_max)
            want = photon_distribution_chernoff(joint, n_max)
        elif n_max is not None:
            want = photon_distribution_chernoff(joint, n_max)
        got = photon_distribution(joint, n_max)
        assert got.n_max == want.n_max
        assert got.probabilities.tobytes() == want.probabilities.tobytes()
        assert got.tail_mass == want.tail_mass

    @pytest.mark.parametrize("n_atoms,c,mu", [(60, 1.0, 1.0), (61, 0.4, 0.5), (200, 0.2, 1.0)])
    def test_every_dropped_term_is_outweighed_by_e_to_the_k(self, n_atoms, c, mu):
        a = np.random.default_rng(n_atoms).normal(size=n_atoms + 1)
        joint = apply_pulse(DickeState(a / np.linalg.norm(a)), c, mu)
        n_max, _, w, lam, first, last = _chernoff_windows(joint, None)
        kept = dict(zip(lam.tolist(), zip(*_dominance_cut(w, lam, first, last)[2:])))
        n = np.arange(n_max + 1)
        log_terms = np.log(w)[:, None] - lam[:, None] + n * np.log(lam)[:, None] - gammaln(n + 1.0)
        k = math.log(w.size) + 64.0 * math.log(2.0)
        margin = log_terms.max(axis=0) - log_terms
        dropped = 0
        for j, lam_j in enumerate(lam.tolist()):
            lo, hi = kept.get(lam_j, (n_max + 1, n_max))
            window = np.arange(int(first[j]), int(last[j]) + 1)
            out = window[(window < lo) | (window > hi)]
            assert np.all(margin[j, out] > k - 1e-9)
            assert lo >= first[j] and hi <= last[j]
            dropped += out.size
        assert dropped > 0

    def test_cut_keeps_at_most_two_fifths_of_the_chernoff_cells(self):
        # statistics -N 2000 -C 0.1: 1 830 815 Chernoff cells, 674 952 after the cut
        joint = apply_pulse(initial_coherent_spin_state(2000), 0.1)
        _, _, w, lam, first, last = _chernoff_windows(joint, None)
        chernoff_cells = int((last - first + 1).sum())
        _, _, first, last = _dominance_cut(w, lam, first, last)
        assert int((last - first + 1).sum()) <= 0.4 * chernoff_cells


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

    # random laws with near-tie plateaus (runs within spread of one base
    # value), peaks at both ends, monotone arrays and single entries
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        size=st.integers(min_value=1, max_value=400),
        kind=st.sampled_from(["noise", "lobes", "increasing", "decreasing"]),
        plateaus=st.integers(min_value=0, max_value=6),
        spread=st.sampled_from([TIE_RTOL, 1e-2]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_count_by_count_loop(self, seed, size, kind, plateaus, spread):
        rng = np.random.default_rng(seed)
        x = np.arange(size)
        if kind == "noise":
            p = rng.random(size) ** 8
        elif kind == "lobes":
            centres = np.concatenate([[0, size - 1], rng.integers(0, size, 3)])
            widths = rng.uniform(0.3, 40.0, centres.size)
            heights = rng.uniform(0.0, 1.0, centres.size) ** 4
            p = (heights * np.exp(-0.5 * ((x[:, None] - centres) / widths) ** 2)).sum(axis=1)
        else:
            p = np.sort(rng.random(size))
            if kind == "decreasing":
                p = p[::-1].copy()
        for _ in range(plateaus):
            start = int(rng.integers(0, size))
            run = int(rng.integers(1, 40))
            base = p[start]
            stop = min(start + run, size)
            p[start:stop] = base * (1.0 + spread * rng.uniform(-1.0, 1.0, stop - start))
        if rng.random() < 0.3:
            p[rng.random(size) < 0.2] = 0.0
        assert distribution_peaks(p) == distribution_peaks_loop(p, tie_rtol=TIE_RTOL, floor_rtol=FLOOR_RTOL)

    def test_statistics_law_matches_count_by_count_loop(self):
        # separated lobes at 9 M^2 for M = 0..46, each a Poisson of width 3 M
        dist = photon_distribution(apply_pulse(initial_coherent_spin_state(200), 3.0))
        peaks = distribution_peaks(dist.probabilities)
        assert len(peaks) == 47
        assert peaks == distribution_peaks_loop(dist.probabilities)


class TestMoments:
    def test_closed_form_values(self):
        mean, std = photon_moments_closed_form(20, 3.0)
        assert mean == 45.0
        assert std == pytest.approx(9.0 * math.sqrt(5.0 * (9.5 + 1.0 / 9.0)), rel=1e-12)

    def test_zero_strength(self):
        assert photon_moments_closed_form(20, 0.0) == (0.0, 0.0)

    # (2000, 1.0) tabulates n = 0..1 010 020; a dense 2001-branch table would need 16 GB
    @pytest.mark.parametrize("n_atoms,c", [(4, 0.5), (10, 1.5), (20, 3.0), (2000, 1.0)])
    def test_closed_form_matches_numeric(self, n_atoms, c):
        joint = apply_pulse(initial_coherent_spin_state(n_atoms), c)
        dist = photon_distribution(joint, default_n_max(c, joint.state.s))
        mean_cf, std_cf = photon_moments_closed_form(n_atoms, c)
        mean_num, std_num = photon_moments_numeric(dist)
        assert mean_num == pytest.approx(mean_cf, rel=1e-8)
        assert std_num == pytest.approx(std_cf, rel=1e-8)

    def test_truncated_distribution_rejected(self):
        joint = apply_pulse(initial_coherent_spin_state(20), 3.0)
        dist = photon_distribution(joint, 50)  # cuts off most of the mass
        with pytest.raises(DomainError, match="tail mass .* too large"):
            photon_moments_numeric(dist)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            photon_moments_closed_form(0, 1.0)
        with pytest.raises(DomainError):
            photon_moments_closed_form(10, -1.0)

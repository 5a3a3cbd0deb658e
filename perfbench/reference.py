"""Reference physics the benchmark checks dickesim's outputs against.

Everything here is written from the model's closed forms, not from
dickesim's code paths.  Every pulse and every count is diagonal in S_z, so
conditioning the coherent spin state on counts n_j of pulses (C_j, mu_j)
multiplies its density matrix entrywise by the Schur kernels

    K_MN = (C^2 M N)^n exp[(1 - mu) C^2 M N - C^2 (M^2 + N^2) / 2],

and the detected-count law of a pulse is P(n) = sum_M rho_MM Poisson(n;
mu C^2 M^2).  Only the entries an output depends on are formed: the
diagonals 0, +1, +2 (populations and all first and second spin moments) and
single anti-diagonal entries (cat coherence), each O(d) in log space.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln, logsumexp, pdtr, pdtrc

# Two-sided tail probability below which a sampled count is judged to come
# from another law than the one the state predicts.
SAMPLE_P_FLOOR = 1e-9


class Pulse(NamedTuple):
    """One conditioning step: strength c, efficiency mu, detected count n."""

    c: float
    mu: float
    n: int


def m_values(n_atoms: int) -> np.ndarray:
    return np.arange(-n_atoms, n_atoms + 1, 2) / 2.0


def log_binomial_weights(n_atoms: int) -> np.ndarray:
    """log A_M^2 of the coherent spin state along x, M = -S..S."""
    k = np.arange(n_atoms + 1)
    return (
        -n_atoms * math.log(2.0)
        + gammaln(n_atoms + 1)
        - gammaln(k + 1)
        - gammaln(n_atoms - k + 1)
    )


class ConditionedState:
    """Unnormalised log-magnitude and sign of rho entries after some pulses."""

    def __init__(self, n_atoms: int, pulses: list[Pulse]):
        self.n_atoms = n_atoms
        self.s = n_atoms / 2.0
        self.m = m_values(n_atoms)
        self.half_log_w = 0.5 * log_binomial_weights(n_atoms)
        self.pulses = pulses
        self.log_norm = float(logsumexp(self._log_entries(0)[0]))

    def _log_entries(self, k: int, anti: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """(log|rho|, sign) of rho[i, i+k] (or rho[i, d-1-i] when anti)."""
        d = self.n_atoms + 1
        if anti:
            i = np.arange(d)
            j = d - 1 - i
        else:
            i = np.arange(d - k)
            j = i + k
        mi, mj = self.m[i], self.m[j]
        log_mag = self.half_log_w[i] + self.half_log_w[j]
        sign = np.ones(i.size)
        prod = mi * mj
        for p in self.pulses:
            c2 = p.c * p.c
            if p.n > 0:
                with np.errstate(divide="ignore"):
                    log_mag = log_mag + p.n * np.log(c2 * np.abs(prod))
                if p.n % 2:
                    sign = sign * np.sign(prod)
            log_mag = log_mag + (1.0 - p.mu) * c2 * prod - 0.5 * c2 * (mi * mi + mj * mj)
        return log_mag, sign

    def diagonal(self, k: int) -> np.ndarray:
        """Normalised rho[M, M+k] for M = -S..S-k."""
        log_mag, sign = self._log_entries(k)
        return sign * np.exp(log_mag - self.log_norm)

    def populations(self) -> np.ndarray:
        return self.diagonal(0)

    def var_sz(self) -> float:
        pop = self.populations()
        mean = float(np.sum(self.m * pop))
        return float(np.sum(self.m * self.m * pop) - mean * mean)

    def xi(self) -> float | None:
        """sqrt(2S) dS_perp / |<S>| from the central diagonals; None when <S> ~ 0."""
        s, m = self.s, self.m
        p0, p1, p2 = self.diagonal(0), self.diagonal(1), self.diagonal(2)
        cp = np.sqrt(np.maximum(s * (s + 1) - m * (m + 1), 0.0))  # S+|M> = cp_M |M+1>
        sp = float(np.sum(cp[:-1] * p1))  # <S+>, real for these real states
        sp2 = float(np.sum(cp[:-2] * cp[1:-1] * p2))  # <S+^2>
        anti_z = float(np.sum((2.0 * m[:-1] + 1.0) * cp[:-1] * p1))  # <{S+, Sz}>
        sz = float(np.sum(m * p0))
        sz2 = float(np.sum(m * m * p0))
        casimir = s * (s + 1.0) - sz2
        mean = np.array([sp, 0.0, sz])
        second = np.array(
            [
                [(2.0 * sp2 + 2.0 * casimir) / 4.0, 0.0, anti_z / 2.0],
                [0.0, (-2.0 * sp2 + 2.0 * casimir) / 4.0, 0.0],
                [anti_z / 2.0, 0.0, sz2],
            ]
        )
        length = float(np.linalg.norm(mean))
        if length < 1e-9:
            return None
        cov = second - np.outer(mean, mean)
        u = mean / length
        basis = np.linalg.svd(u[None, :])[2][1:]  # two unit vectors orthogonal to <S>
        var_perp = max(float(np.linalg.eigvalsh(basis @ cov @ basis.T)[0]), 0.0)
        return math.sqrt(2.0 * s) * math.sqrt(var_perp) / length

    def coherence(self, arm: int) -> float:
        """|rho[M, -M]| / sqrt(rho_MM rho_-M-M) at M = arm."""
        log_anti, _ = self._log_entries(0, anti=True)
        log_diag, _ = self._log_entries(0)
        centre = self.n_atoms // 2
        i, j = centre + arm, centre - arm
        return math.exp(log_anti[i] - 0.5 * (log_diag[i] + log_diag[j]))

    def count_tail_probability(self, c: float, mu: float, n: int) -> float:
        """min(P(N <= n), P(N >= n)) under the detected-count law of a pulse."""
        pop = self.populations()
        lam = mu * c * c * self.m * self.m
        below = float(np.sum(pop * pdtr(n, lam)))
        above = float(np.sum(pop * pdtrc(n - 1, lam))) if n > 0 else 1.0
        return min(below, above)

    def count_law(self, c: float, mu: float, n: np.ndarray) -> np.ndarray:
        """P(n) of a pulse's detected count at the given counts."""
        lam = mu * c * c * self.m * self.m
        pop = self.populations()
        logp = np.log(pop, where=pop > 0, out=np.full(pop.shape, -np.inf))
        n = np.asarray(n, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = logp[:, None] - lam[:, None] + n[None, :] * np.log(lam)[:, None] - gammaln(n + 1)[None, :]
        zero = lam == 0.0
        terms[zero, :] = np.where(n == 0, logp[zero, None], -np.inf)
        return np.exp(logsumexp(terms, axis=0))


def photon_moments(n_atoms: int, c: float) -> tuple[float, float]:
    """Mean C^2 N/4 and std of the scattered-photon number of the initial state."""
    mean = c * c * n_atoms / 4.0
    std = c * c * math.sqrt((n_atoms / 4.0) * ((n_atoms - 1) / 2.0 + 1.0 / (c * c)))
    return mean, std


def decay_xi(c: float, n_atoms: int, d_res: float) -> float:
    """Decay-limited squeezing sqrt(2) / (sqrt(S) C exp(-C^2 N / d_res))."""
    return math.sqrt(2.0) / (math.sqrt(n_atoms / 2.0) * c * math.exp(-c * c * n_atoms / d_res))


def close(actual: float | None, expected: float | None, rel: float = 1e-6, abs_: float = 1e-9) -> bool:
    if actual is None or expected is None:
        return actual is None and expected is None
    return abs(actual - expected) <= abs_ + rel * abs(expected)

"""Effective pulse interaction and scattered-photon statistics.

A pulse of strength C entangles the atoms with the scattered mode through
exp[-iC(c^dag + c) S_z].  Because the interaction is diagonal in S_z, the
joint state is stored losslessly as the atomic state before the pulse plus
C: branch M carries the coherent amplitude alpha_M = -iC*M.  A detector of
efficiency mu sees each photon with probability mu, so branch M gives
Poisson(lambda_M) detected counts with lambda_M = mu (C M)^2, and the
detected-count law is the exact Poisson mixture weighted by the atomic
populations.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import DomainError
from .spin_basis import DickeState

# Largest photon-law table, n = 0..n_max, that photon_distribution builds
# (80 MB of float64); a longer one is a DomainError before any allocation.
MAX_TABLE_LENGTH = 10**7
# A term exp(x) with x below log(5e-324) ~ -744.4, the smallest subnormal
# double, rounds to 0.0; the photon law skips every term below this floor.
LOG_TERM_FLOOR = -760.0
# distribution_peaks: counts within TIE_RTOL of each other form one plateau,
# and a peak below FLOOR_RTOL of the largest P(n) is not reported
TIE_RTOL = 1e-6
FLOOR_RTOL = 1e-12

__all__ = [
    "JointState",
    "PhotonDistribution",
    "apply_pulse",
    "photon_distribution",
    "DistributionPeak",
    "distribution_peaks",
]


@dataclass(frozen=True)
class JointState:
    """The atom-field state after a pulse: the atomic state before it, C and mu."""

    state: DickeState
    c: float
    mu: float = 1.0

    @property
    def field_alphas(self) -> np.ndarray:
        """Coherent amplitude -iC*M of each branch."""
        return -1j * self.c * self.state.m_values()

    def populations(self) -> np.ndarray:
        return self.state.populations()

    def intensities(self) -> np.ndarray:
        """Mean detected count lambda_M = mu (C M)^2 of each branch."""
        return self.mu * (self.c * self.state.m_values()) ** 2


@dataclass(frozen=True)
class PhotonDistribution:
    """P(n) for n = 0..n_max, a float64 array; n_max and the tail mass are read from it."""

    probabilities: np.ndarray = field(repr=False)

    @property
    def n_max(self) -> int:
        return self.probabilities.size - 1

    @property
    def tail_mass(self) -> float:
        return 1.0 - float(self.probabilities.sum())


def apply_pulse(state: DickeState, strength: float, mu: float = 1.0) -> JointState:
    """Entangle the atoms with the scattered mode, detected at efficiency mu.

    The strength C must be >= 0 with (C S)^2, the largest intensity at
    mu = 1, finite, so every lambda_M of the joint state is finite.
    """
    c = float(strength)
    cs = c * state.s  # Python floats overflow to inf without a numpy warning
    if not (c >= 0.0 and math.isfinite(cs * cs)):
        raise DomainError(
            f"pulse strength must be >= 0 with (C S)^2 finite, got C = {c} at S = {state.s}"
        )
    if not 0.0 <= mu <= 1.0:
        raise DomainError(f"detection efficiency must lie in [0,1], got {mu}")
    state.require_normalized()
    return JointState(state, c, mu)


def _require_table_length(n_max: float) -> None:
    """DomainError unless a table over n = 0..n_max fits MAX_TABLE_LENGTH."""
    if not n_max + 1 <= MAX_TABLE_LENGTH:  # also rejects inf and nan
        raise DomainError(
            f"photon-law table of {n_max + 1:.4g} entries exceeds the limit of {MAX_TABLE_LENGTH}"
        )


def photon_distribution(state: JointState, n_max: int | None = None) -> PhotonDistribution:
    """Exact detected-count law of the scattered mode: a Poisson mixture.

    P(n) = sum_M rho_MM e^{-lambda_M} lambda_M^n / n!.  Branches +-M share
    lambda_M, so their populations are merged first.  Each merged branch
    then adds its terms over one window of counts only.  Outside the window
    either Chernoff bounds put log(rho_MM) + log Poisson(n) below
    LOG_TERM_FLOOR, so the term would round to 0.0, or another branch's
    term at the same n outweighs it by more than e^K, with K = ln J +
    64 ln 2 over J merged branches.  The terms the second rule leaves out
    at n sum to less than 2^-64 P(n), below 2^-11 of an ulp of P(n).  Time
    is O(sum of windows), memory O(n_max + 2S + 1).

    The default n_max is the last count any Chernoff window reaches, but at
    least 20, capped at (sqrt(mu) C S)^2 + 10 sqrt(mu) C S + 20, which
    covers the largest branch by 10 sigma.  Below the cap every count left
    out has P(n) = 0.0; past lambda + 10 sqrt(lambda) + 20 a Poisson law
    keeps at most 7.5e-24 of its mass for lambda in [1e-3, 1e7], far below
    the 2.2e-16 tail_mass resolves.  A law with all its mass at n = 0 keeps
    its zeros.  The cap must be finite; the table must fit MAX_TABLE_LENGTH.
    """
    n_max, at_zero, w, lam, first, last = _chernoff_windows(state, n_max)
    w, lam, first, last = _dominance_cut(w, lam, first, last)
    n = np.arange(n_max + 1, dtype=float)
    log_factorial = gammaln(n + 1.0)

    probs = np.zeros(n_max + 1)
    probs[0] = at_zero
    buf = np.empty(int((last - first).max(initial=-1)) + 1)
    branches = zip(w.tolist(), lam.tolist(), np.log(lam).tolist(), first.tolist(), (last + 1).tolist())
    for wj, lj, log_lj, a, b in branches:
        # w exp(-lam + n log(lam) - log(n!)), one ufunc at a time in one buffer
        t = np.multiply(n[a:b], log_lj, out=buf[: b - a])
        np.subtract(t, lj, out=t)
        np.subtract(t, log_factorial[a:b], out=t)
        np.exp(t, out=t)
        np.multiply(t, wj, out=t)
        probs[a:b] += t
    return PhotonDistribution(probs)


def _chernoff_windows(state: JointState, n_max: int | None):
    """(n_max, at_zero, w, lam, first, last) of the photon law of state.

    at_zero is the merged population of the lambda = 0 branch; w and lam
    are the merged populations and intensities of the other branches, in
    increasing lambda, whose Chernoff window [first, last] (whole-number
    floats) holds a count of the table.  The default n_max is read from
    these windows.
    """
    trim = n_max is None
    if trim:
        # Python floats: a cap that overflows is a DomainError without a warning
        c, s = math.sqrt(state.mu) * state.c, state.state.s
        length = c * c * s * s + 10.0 * c * s + 20.0
        if not math.isfinite(length):
            _require_table_length(length)
        cap = float(math.ceil(length))
    else:
        if n_max < 0:
            raise DomainError(f"n_max must be >= 0, got {n_max}")
        _require_table_length(n_max)
        cap = float(n_max)
    intensities = state.intensities()
    pop = state.populations()
    half = pop.size // 2
    weights = pop[half:].copy()  # M >= 0, merged with -M below
    weights[pop.size % 2 :] += pop[:half][::-1]
    lam = intensities[half:]
    at_zero = weights[lam == 0.0].sum()  # lambda = 0: a delta at n = 0

    # a kept term has log Poisson(n) >= -g; the Chernoff bounds
    # log Poisson(lam - t) <= -t^2/(2 lam) and log Poisson(lam + t) <=
    # -t^2/(2 (lam + t/3)) for t >= 0 confine such n to [first, last]
    g = np.log(weights, out=np.full(lam.shape, -np.inf), where=weights > 0) - LOG_TERM_FLOOR
    keep = (lam > 0.0) & (g > 0)
    w, lam, g = weights[keep], lam[keep], g[keep]
    reach = np.sqrt(2.0 * g) * np.sqrt(lam)
    first = np.clip(np.ceil(lam - reach), 0, cap + 1)
    last = np.minimum(np.floor(lam + g / 3.0 + np.hypot(g / 3.0, reach)), cap)
    nonempty = first <= last
    w, lam, first, last = w[nonempty], lam[nonempty], first[nonempty], last[nonempty]
    if trim:
        n_max = max(last.max(initial=0.0), 20.0)
        _require_table_length(n_max)
        n_max = int(n_max)
    return n_max, at_zero, w, lam, first, last


def _dominance_cut(w: np.ndarray, lam: np.ndarray, first: np.ndarray, last: np.ndarray):
    """(w, lam, first, last) with each window cut to the counts where no
    other branch's term outweighs this branch's by more than e^K, as int64,
    dropping branches whose window empties.

    K = ln J + 64 ln 2 for J branches, so the terms dropped at n sum to less
    than 2^-64 times the largest term at n.  With A = log w - lam and B =
    log lam, log t_i(n) - log t_j(n) = (A_i - A_j) + n (B_i - B_j): log n!
    cancels, so branch j + m outweighs j past one count and j outweighs
    j + m before another.  Comparing each j with j + m for m = 1, 2, 4, ...
    takes about log2(J) vectorised steps.
    """
    size = w.size
    k = math.log(max(size, 1)) + 64.0 * math.log(2.0)
    a, b = np.log(w) - lam, np.log(lam)
    lo, hi = first.copy(), last.copy()
    m = 1
    # lam never falls, so db >= 0; where two lam round to one double, db = 0
    # gives +-inf (a constant ratio) or nan (a ratio of exactly e^K), and
    # fmin/fmax ignore the nan
    with np.errstate(divide="ignore", invalid="ignore"):
        while m < size:
            da, db = a[m:] - a[:-m], b[m:] - b[:-m]
            hi[:-m] = np.fmin(hi[:-m], np.floor((k - da) / db))
            lo[m:] = np.fmax(lo[m:], np.ceil((-k - da) / db))
            m *= 2
    nonempty = lo <= hi
    return w[nonempty], lam[nonempty], lo[nonempty].astype(np.int64), hi[nonempty].astype(np.int64)


@dataclass(frozen=True)
class DistributionPeak:
    """A local maximum of a tabulated photon distribution; asdict() of it is
    its statistics_peaks.json entry."""

    n: int
    P: float
    half_width: float


def distribution_peaks(probs: np.ndarray) -> list[DistributionPeak]:
    """Local maxima of P(n) with 1/e half-widths in the sigma convention.

    A Poisson branch with integer mean lam has a genuine two-point mode at
    {lam-1, lam}; near-ties within TIE_RTOL are therefore treated as one
    plateau and reported at its rightmost index.  The half-width is read off
    from the interpolated 1/e points of the peak and scaled by 1/sqrt(2),
    which for a Gaussian profile returns its sigma (the convention in which
    branch M of the initial-state distribution has half-width C*M).
    """
    p = np.asarray(probs, dtype=float)
    floor = FLOOR_RTOL * p.max()
    size = p.size
    shrink = 1.0 - TIE_RTOL
    left_ok = np.ones(size, dtype=bool)
    left_ok[1:] = p[1:] > p[:-1] * shrink
    right_ok = np.ones(size, dtype=bool)
    right_ok[:-1] = p[:-1] > p[1:] * shrink
    peaks: list[DistributionPeak] = []
    resume = 0
    for i in np.flatnonzero(left_ok & right_ok & (p > floor)).tolist():
        if i < resume:  # inside the plateau of the previous candidate
            continue
        # extend over the near-tied plateau, keep its rightmost member
        pi = p[i]
        j = _first_where(p, i + 1, 1, lambda seg: ~(np.abs(seg - pi) <= TIE_RTOL * pi)) - 1
        resume = j + 1
        if j + 1 < size and p[j + 1] > p[j]:
            continue
        peak = j
        target = p[peak] / math.e
        right = min(_first_where(p, peak, 1, lambda seg: ~(seg >= target)), size - 1)
        if p[right] < target and right > peak:
            r_cross = right - 1 + (p[right - 1] - target) / (p[right - 1] - p[right])
        else:
            r_cross = float(right)
        left = max(_first_where(p, peak, -1, lambda seg: ~(seg >= target)), 0)
        if p[left] < target and left < peak:
            l_cross = left + 1 - (p[left + 1] - target) / (p[left + 1] - p[left])
            half = 0.5 * ((r_cross - peak) + (peak - l_cross))
        else:
            half = r_cross - peak
        peaks.append(
            DistributionPeak(n=peak, P=float(p[peak]), half_width=half / math.sqrt(2.0))
        )
    return peaks


def _first_where(p: np.ndarray, start: int, step: int, hit: Callable[[np.ndarray], np.ndarray]) -> int:
    """First index from start on, moving by step = +-1, where hit(p[k]) holds.

    Returns the index one past the end it moves to (p.size or -1) when there
    is none.  Galloping: it tests blocks of doubling length, so finding index
    k costs O(|k - start|) elementwise work in O(log |k - start|) numpy calls.
    """
    width = 16
    while 0 <= start < p.size:
        if step > 0:
            block = p[start : start + width]
        else:
            block = p[max(start - width + 1, 0) : start + 1][::-1]
        found = np.flatnonzero(hit(block))
        if found.size:
            return start + step * int(found[0])
        start += step * block.size
        width *= 2
    return start

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
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, TruncationError
from .spin_basis import DickeState, SpinQuantum

__all__ = [
    "PulseStrength",
    "JointState",
    "PhotonDistribution",
    "apply_pulse",
    "default_n_max",
    "photon_distribution",
    "DistributionPeak",
    "distribution_peaks",
    "photon_moments_closed_form",
    "photon_moments_numeric",
    "faraday_variance_operator",
]


@dataclass(frozen=True)
class PulseStrength:
    """Dimensionless measurement strength C >= 0."""

    c: float

    def __post_init__(self):
        if not math.isfinite(self.c) or self.c < 0:
            raise DomainError(f"pulse strength must be finite and >= 0, got {self.c}")


@dataclass(frozen=True)
class JointState:
    """The atom-field state after a pulse: the atomic state before it, C and mu."""

    state: DickeState
    c: float
    mu: float = 1.0

    @property
    def spin(self) -> SpinQuantum:
        return self.state.spin

    @property
    def field_alphas(self) -> np.ndarray:
        """Coherent amplitude -iC*M of each branch."""
        return -1j * self.c * self.spin.m_values()

    def populations(self) -> np.ndarray:
        return self.state.populations()

    def intensities(self) -> np.ndarray:
        """Mean detected count lambda_M = mu (C M)^2 of each branch."""
        return self.mu * (self.c * self.spin.m_values()) ** 2


@dataclass(frozen=True)
class PhotonDistribution:
    """P(n) for n = 0..n_max plus the truncated tail mass."""

    probabilities: np.ndarray = field(repr=False)
    n_max: int = 0
    tail_mass: float = 0.0

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", p)


def apply_pulse(
    state: DickeState,
    strength: PulseStrength | float,
    mu: float = 1.0,
) -> JointState:
    """Entangle the atoms with the scattered mode, detected at efficiency mu."""
    if not isinstance(strength, PulseStrength):
        strength = PulseStrength(float(strength))
    if not 0.0 <= mu <= 1.0:
        raise DomainError(f"detection efficiency must lie in [0,1], got {mu}")
    state.require_normalized()
    return JointState(state, strength.c, mu)


def default_n_max(c: float, s: float) -> int:
    """Covers the largest Poisson branch (mean (CS)^2) by at least 10 sigma."""
    return int(math.ceil(c * c * s * s + 10.0 * c * s + 20.0))


def _log_poisson_matrix(intensities: np.ndarray, n: np.ndarray) -> np.ndarray:
    """log Poisson(n; lam) for each branch intensity (rows) over counts n (cols).

    Branches with lam = 0 get a delta at n = 0.
    """
    lam = intensities[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = -lam + n[None, :] * np.log(lam) - gammaln(n[None, :] + 1)
    zero = intensities == 0.0
    if np.any(zero):
        logp[zero, :] = -np.inf
        logp[zero, 0] = 0.0
    return logp


def photon_distribution(state: JointState, n_max: int | None = None) -> PhotonDistribution:
    """Exact detected-count law of the scattered mode: a Poisson mixture.

    P(n) = sum_M rho_MM e^{-lambda_M} lambda_M^n / n!, each term evaluated
    in log space.
    """
    intensities = state.intensities()
    if n_max is None:
        n_max = default_n_max(float(np.sqrt(np.max(intensities))), 1.0)
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    n = np.arange(n_max + 1)
    probs = state.populations() @ np.exp(_log_poisson_matrix(intensities, n))
    tail = 1.0 - float(probs.sum())
    return PhotonDistribution(probabilities=probs, n_max=n_max, tail_mass=tail)


@dataclass(frozen=True)
class DistributionPeak:
    """A local maximum of a tabulated photon distribution."""

    n: int
    probability: float
    half_width: float


def distribution_peaks(
    probs: np.ndarray,
    tie_rtol: float = 1e-6,
    floor_rtol: float = 1e-12,
) -> list[DistributionPeak]:
    """Local maxima of P(n) with 1/e half-widths in the sigma convention.

    A Poisson branch with integer mean lam has a genuine two-point mode at
    {lam-1, lam}; near-ties within tie_rtol are therefore treated as one
    plateau and reported at its rightmost index.  The half-width is read off
    from the interpolated 1/e points of the peak and scaled by 1/sqrt(2),
    which for a Gaussian profile returns its sigma (the convention in which
    branch M of the initial-state distribution has half-width C*M).
    """
    p = np.asarray(probs, dtype=float)
    floor = floor_rtol * p.max()
    peaks: list[DistributionPeak] = []
    i = 0
    size = p.size
    while i < size:
        left_ok = i == 0 or p[i] > p[i - 1] * (1.0 - tie_rtol)
        right_ok = i == size - 1 or p[i] > p[i + 1] * (1.0 - tie_rtol)
        if not (left_ok and right_ok and p[i] > floor):
            i += 1
            continue
        # extend over the near-tied plateau, keep its rightmost member
        j = i
        while j + 1 < size and abs(p[j + 1] - p[i]) <= tie_rtol * p[i]:
            j += 1
        if j + 1 < size and p[j + 1] > p[j]:
            i = j + 1
            continue
        peak = j
        target = p[peak] / math.e
        right = peak
        while right < size - 1 and p[right] >= target:
            right += 1
        if p[right] < target and right > peak:
            r_cross = right - 1 + (p[right - 1] - target) / (p[right - 1] - p[right])
        else:
            r_cross = float(right)
        left = peak
        while left > 0 and p[left] >= target:
            left -= 1
        if p[left] < target and left < peak:
            l_cross = left + 1 - (p[left + 1] - target) / (p[left + 1] - p[left])
            half = 0.5 * ((r_cross - peak) + (peak - l_cross))
        else:
            half = r_cross - peak
        peaks.append(
            DistributionPeak(n=peak, probability=float(p[peak]), half_width=half / math.sqrt(2.0))
        )
        i = j + 1
    return peaks


def photon_moments_closed_form(n_atoms: int, c: float) -> tuple[float, float]:
    """Mean and std of the photon number for the initial binomial state.

    mean = C^2 N_a / 4, std = C^2 sqrt((N_a/4) [(N_a-1)/2 + 1/C^2]).
    C = 0 returns (0, 0) by continuity.
    """
    if n_atoms < 1:
        raise DomainError(f"need at least one atom, got {n_atoms}")
    if c < 0:
        raise DomainError(f"pulse strength must be >= 0, got {c}")
    if c == 0.0:
        return 0.0, 0.0
    mean = c * c * n_atoms / 4.0
    std = c * c * math.sqrt((n_atoms / 4.0) * ((n_atoms - 1) / 2.0 + 1.0 / (c * c)))
    return mean, std


def photon_moments_numeric(dist: PhotonDistribution) -> tuple[float, float]:
    """First two moments of the tabulated distribution."""
    if dist.tail_mass >= 1e-8:
        raise TruncationError(
            f"tail mass {dist.tail_mass} too large for reliable moments"
        )
    n = np.arange(dist.probabilities.size)
    mean = float(np.sum(n * dist.probabilities))
    second = float(np.sum(n * n * dist.probabilities))
    return mean, math.sqrt(max(second - mean * mean, 0.0))


def faraday_variance_operator(n_atoms: int, prefactor: float) -> tuple[float, float]:
    """Mean and spread of the Faraday rotation operator on the initial state.

    mean = prefactor * <S_z>/S = 0, spread = prefactor * dS_z/S = prefactor/sqrt(N_a).
    """
    if n_atoms < 1:
        raise DomainError(f"need at least one atom, got {n_atoms}")
    if prefactor < 0:
        raise DomainError(f"prefactor must be >= 0, got {prefactor}")
    return 0.0, prefactor / math.sqrt(n_atoms)

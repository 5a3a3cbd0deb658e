"""The paper's closed forms and small helpers that only the tests use.

No command, kernel or benchmark calls them: they are test oracles for the
photon-number moments of the initial state, the null-measurement width,
and the normalisation of a hand-built state.
"""

from __future__ import annotations

import math

import numpy as np

from dickesim.errors import DomainError, ShapeError, TruncationError
from dickesim.pulse_scattering import PhotonDistribution
from dickesim.spin_basis import DickeState


def normalized(state: DickeState) -> DickeState:
    """The state with its amplitudes scaled to unit norm; dephasing kept."""
    n = np.sqrt(state.norm_sq)
    if n == 0.0:
        raise DomainError("cannot normalize the zero vector")
    return DickeState(state.spin, state.amplitudes / n, state.dephasing)


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


def null_width(state: DickeState) -> float:
    """1/e half-width in M of a distribution unimodal at M = 0.

    Smallest |M| where the population drops to 1/e of the M = 0 value.  The
    crossing is located by interpolating log-populations linearly in M^2,
    which is exact for Gaussian profiles and so resolves widths below the
    unit lattice spacing.
    """
    spin = state.spin
    if spin.s_twice % 2 != 0:
        raise ShapeError("M = 0 lattice point requires an even atom number")
    pop = state.populations()
    center = spin.s_twice // 2
    p0 = pop[center]
    if np.argmax(pop) != center:
        raise ShapeError("distribution is not peaked at M = 0")
    right = pop[center:]
    if np.any(np.diff(right) > 1e-12 * p0):
        raise ShapeError("distribution is not unimodal around M = 0")
    target = p0 / math.e
    below = np.nonzero(right < target)[0]
    if below.size == 0:
        raise ShapeError("distribution never drops to 1/e of its peak")
    j = int(below[0])
    log_hi = math.log(right[j - 1] / p0)
    log_lo = math.log(right[j] / p0)
    frac = (log_hi + 1.0) / (log_hi - log_lo)
    m_sq = (j - 1) ** 2 + frac * (j * j - (j - 1) ** 2)
    return float(math.sqrt(m_sq))

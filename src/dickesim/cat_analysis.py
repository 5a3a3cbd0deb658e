"""Structure of collapsed states: peak locations, widths, cat coherence.

A nonzero count n_m projects the atoms onto a superposition of two lobes at
M = +/- sqrt(n_m)/C.  The helpers here locate those lobes, solve for their
1/e half-widths, and quantify how much coherence between the lobes survives
inefficient detection.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import bisect

from .errors import DomainError, ShapeError
from .spin_basis import DickeState

__all__ = [
    "PeakReport",
    "cat_peak_location",
    "cat_peak_width",
    "peak_report",
    "null_width",
    "cat_squeezing_xi_x",
    "cat_coherence",
]

from dataclasses import dataclass


@dataclass(frozen=True)
class PeakReport:
    """Continuous lobe location and 1/e half-width, in units of M."""

    m_peak: float
    m_width: float

    @property
    def distinguishable(self) -> bool:
        return self.m_width < self.m_peak


def cat_peak_location(c: float, n_m: int) -> float:
    """Continuous lobe position sqrt(n_m)/C; callers may round to the lattice."""
    if c <= 0:
        raise DomainError(f"pulse strength must be > 0, got {c}")
    if n_m < 0:
        raise DomainError(f"photon count must be >= 0, got {n_m}")
    return math.sqrt(n_m) / c


def cat_peak_width(c: float, n_m: int) -> float:
    """1/e half-width w of a cat lobe, from
    [1 + w/M_m]^{2 n_m} = e^{C^2 (2 M_m w + w^2)} / e.

    The root is bracketed in (0, M_m]; its existence for every C > 0,
    n_m >= 1 is what makes the two lobes always distinguishable.
    """
    if n_m < 1:
        raise DomainError(f"width defined for n_m >= 1, got {n_m}")
    if c <= 0:
        raise DomainError(f"pulse strength must be > 0, got {c}")
    m_m = cat_peak_location(c, n_m)

    def f(w: float) -> float:
        return 2.0 * n_m * math.log1p(w / m_m) - c * c * (2.0 * m_m * w + w * w) + 1.0

    lo, hi = 0.0, m_m
    if f(hi) > 0.0:
        raise ShapeError("no sign change in (0, M_m]; width root not bracketed")
    return float(bisect(f, lo, hi, xtol=1e-10, maxiter=200))


def peak_report(c: float, n_m: int) -> PeakReport:
    return PeakReport(m_peak=cat_peak_location(c, n_m), m_width=cat_peak_width(c, n_m))


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


def cat_squeezing_xi_x(n_atoms: int, c: float, n_m: int) -> float:
    """Cat-state squeezing estimate sqrt(n_m / (S C^2)) with S = N_a/2."""
    if c <= 0:
        raise DomainError(f"pulse strength must be > 0, got {c}")
    if n_atoms < 1:
        raise DomainError(f"need at least one atom, got {n_atoms}")
    s = n_atoms / 2.0
    return math.sqrt(n_m / (s * c * c))


def cat_coherence(state: DickeState, m_arm: int) -> float:
    """|rho[M,-M]| / sqrt(rho[M,M] rho[-M,-M]) for lobes at M = +/- m_arm.

    That is exp(-2 Gamma m_arm^2) for dephasing Gamma: 1 for a pure cat,
    tending to 0 for a classical mixture.
    """
    spin = state.spin
    if spin.s_twice % 2 != 0:
        raise DomainError("integer arm positions require an even atom number")
    if not 0 < m_arm <= spin.s_twice // 2:
        raise DomainError(f"arm M={m_arm} outside lattice 1..{spin.s_twice // 2}")
    center = spin.s_twice // 2
    pop = state.populations()
    if pop[center + m_arm] <= 1e-300 or pop[center - m_arm] <= 1e-300:
        raise DomainError("vanishing arm population; coherence undefined")
    return math.exp(-2.0 * state.dephasing * m_arm * m_arm)

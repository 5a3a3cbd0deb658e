"""Structure of collapsed states: peak locations, widths, cat coherence.

A nonzero count n_m projects the atoms onto a superposition of two lobes at
M = +/- sqrt(n_m)/C.  The helpers here locate those lobes, solve for their
1/e half-widths, and quantify how much coherence between the lobes survives
inefficient detection.
"""

from __future__ import annotations

import math

from scipy.optimize import bisect

from .detection import _require_count
from .errors import DomainError
from .spin_basis import DickeState

__all__ = [
    "cat_peak_location",
    "cat_peak_width",
    "cat_coherence",
]


def cat_peak_location(c: float, n_m: int) -> float:
    """Continuous lobe position sqrt(n_m)/C; callers may round to the lattice."""
    if c <= 0:
        raise DomainError(f"pulse strength must be > 0, got {c}")
    _require_count(n_m)
    return math.sqrt(n_m) / c


def cat_peak_width(c: float, n_m: int) -> float:
    """1/e half-width w of a cat lobe, from
    [1 + w/M_m]^{2 n_m} = e^{C^2 (2 M_m w + w^2)} / e.

    The root lies in (0, M_m] for every C > 0, n_m >= 1, so the two lobes are
    always distinguishable: f(0) = 1 > 0 > f(M_m) = n_m (2 ln 2 - 3) + 1.
    """
    if n_m < 1:
        raise DomainError(f"width defined for n_m >= 1, got {n_m}")
    m_m = cat_peak_location(c, n_m)

    def f(w: float) -> float:
        return 2.0 * n_m * math.log1p(w / m_m) - c * c * (2.0 * m_m * w + w * w) + 1.0

    return float(bisect(f, 0.0, m_m, xtol=1e-10, maxiter=200))


def cat_coherence(state: DickeState, m_arm: float) -> float:
    """|rho[M,-M]| / sqrt(rho[M,M] rho[-M,-M]) for lobes at M = +/- m_arm.

    That is exp(-2 Gamma m_arm^2) for dephasing Gamma: 1 for a pure cat,
    tending to 0 for a classical mixture; m_arm is a lattice point in (0, S].
    """
    if not (0 < m_arm <= state.s and float(m_arm + state.s).is_integer()):
        raise DomainError(f"arm M={m_arm} is not a lattice point in (0, S = {state.s}]")
    k = int(m_arm + state.s)  # the index of +m_arm; -m_arm is at n_atoms - k
    pop = state.populations()
    if pop[k] <= 1e-300 or pop[state.n_atoms - k] <= 1e-300:
        raise DomainError("vanishing arm population; coherence undefined")
    return math.exp(-2.0 * state.dephasing * m_arm * m_arm)

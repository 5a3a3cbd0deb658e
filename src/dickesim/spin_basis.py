"""Collective spin states in the Dicke basis.

States of N_a two-level atoms restricted to the fully symmetric subspace are
stored over the S_z eigenvalues M = -S..S with S = N_a/2 as real amplitudes
a_M and a dephasing Gamma: rho_MN = a_M a_N exp[-Gamma (M - N)^2 / 2].  The
amplitudes are real because the binomial start is real and every pulse and
every count is diagonal in S_z with a real conditioning kernel
k_M = (C M)^n exp(-mu C^2 M^2 / 2); so <S_y> = 0 for every reachable state.

The spin components couple M only to M and M +- 1, so every first and
second spin moment needs only the diagonals `diagonal(k)`, k = 0, 1, 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import ContractViolationError, DomainError

NORM_TOL = 1e-9

__all__ = [
    "DickeState",
    "SpinMoments",
    "initial_coherent_spin_state",
    "spin_moments",
]


@dataclass(frozen=True)
class DickeState:
    """rho_MN = a_M a_N exp[-dephasing (M - N)^2 / 2]; amplitudes[k] is the real a at M = -S + k.

    dephasing = 0 is a pure state.  rho is symmetric and positive semidefinite
    by the Schur product theorem (a projector times a Gaussian kernel).
    Input with a nonzero imaginary part is a DomainError, never dropped;
    input whose imaginary parts are all exactly 0.0 is stored as its real part.
    The size is read from the array: N_a + 1 amplitudes give N_a, S and every M.
    """

    amplitudes: np.ndarray = field(repr=False)
    dephasing: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        if not np.isrealobj(amps):
            if not np.all(np.isreal(amps)):
                raise DomainError("amplitudes must be real: a reachable state has no imaginary part")
            amps = np.real(amps)
        amps = np.asarray(amps, dtype=float)
        if amps.ndim != 1:
            raise DomainError(f"amplitudes must be a 1-D vector, got shape {amps.shape}")
        if amps.size < 2:
            raise DomainError(f"need at least one atom, got {amps.size - 1}")
        if not math.isfinite(self.dephasing) or self.dephasing < 0.0:
            raise DomainError(f"dephasing must be finite and >= 0, got {self.dephasing}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dephasing", float(self.dephasing))

    @property
    def n_atoms(self) -> int:
        return self.amplitudes.size - 1

    @property
    def s(self) -> float:
        return self.n_atoms / 2

    def m_values(self) -> np.ndarray:
        """S_z eigenvalues -S..S as float64, which holds each of them exactly."""
        return (np.arange(self.amplitudes.size) * 2 - self.n_atoms) / 2.0

    @property
    def norm_sq(self) -> float:
        return float(np.sum(self.populations()))

    def populations(self) -> np.ndarray:
        return self.amplitudes * self.amplitudes

    def diagonal(self, k: int) -> np.ndarray:
        """rho[M, M+k] = a_M a_{M+k} exp(-dephasing k^2 / 2) for M = -S..S-k."""
        a = self.amplitudes
        return a[: a.size - k] * a[k:] * math.exp(-0.5 * self.dephasing * k * k)

    def require_normalized(self) -> None:
        if abs(self.norm_sq - 1.0) > NORM_TOL:
            raise ContractViolationError(
                f"state norm^2 = {self.norm_sq} deviates from 1 by more than {NORM_TOL}"
            )


@dataclass(frozen=True)
class SpinMoments:
    mean_sx: float
    mean_sz: float
    var_sz: float
    var_sy: float
    mean_spin_length: float
    var_perp: float | None
    xi: float | None


def binomial_amplitudes(n_atoms: int) -> np.ndarray:
    """A(S,M) for M = -S..S as a real vector."""
    k = np.arange(n_atoms + 1)
    log_a = -0.5 * n_atoms * np.log(2.0) + 0.5 * (
        gammaln(n_atoms + 1) - gammaln(k + 1) - gammaln(n_atoms - k + 1)
    )
    return np.exp(log_a)


def initial_coherent_spin_state(n_atoms: int) -> DickeState:
    """The S_x = S eigenstate: real positive binomial amplitudes A(S,M)."""
    if n_atoms < 1:
        raise DomainError(f"need at least one atom, got {n_atoms}")
    return DickeState(binomial_amplitudes(n_atoms))


def spin_moments(state: DickeState) -> SpinMoments:
    """Every first and second moment of the collective spin, and xi.

    With S_+|M> = c_M |M+1>, three real band sums carry everything beyond
    the populations: <S_x> = sum c_M rho[M,M+1], <{S_x,S_z}> = sum (2M+1)
    c_M rho[M,M+1] and <S_x^2 - S_y^2> = sum c_M c_{M+1} rho[M,M+2], while
    S_x^2 + S_y^2 = S(S+1) - S_z^2.  Real amplitudes make <S_y>, cov_xy and
    cov_yz vanish, so the covariance is an (x, z) block plus C_yy.  The
    plane orthogonal to the mean spin u is spanned by y and e = (-u_z, 0,
    u_x), so var_perp = min(C_yy, e^T C e) and xi = sqrt(2S) dS_perp/|<S>|;
    both are None when the mean spin vanishes.
    """
    state.require_normalized()
    s = state.s
    m = state.m_values()
    pop = state.diagonal(0)
    ladder = np.sqrt(np.maximum(s * (s + 1) - m[:-1] * (m[:-1] + 1), 0.0))
    band1 = state.diagonal(1)
    mean_sx = float(np.sum(ladder * band1))
    sx_sz = float(np.sum((2.0 * m[:-1] + 1.0) * ladder * band1))
    sx2_minus_sy2 = float(np.sum(ladder[:-1] * ladder[1:] * state.diagonal(2)))
    mean_sz = float(np.sum(m * pop))
    sz2 = float(np.sum(m * m * pop))
    transverse = s * (s + 1) - sz2
    c_xx = 0.5 * (transverse + sx2_minus_sy2) - mean_sx * mean_sx
    c_yy = 0.5 * (transverse - sx2_minus_sy2)
    c_zz = sz2 - mean_sz * mean_sz
    c_xz = 0.5 * sx_sz - mean_sx * mean_sz
    length = math.hypot(mean_sx, mean_sz)
    var_perp = xi = None
    if length >= 1e-9:
        ux, uz = mean_sx / length, mean_sz / length
        c_ee = uz * uz * c_xx - 2.0 * ux * uz * c_xz + ux * ux * c_zz
        var_perp = max(min(c_yy, c_ee), 0.0)
        xi = math.sqrt(2.0 * s) * math.sqrt(var_perp) / length
    return SpinMoments(
        mean_sx=mean_sx,
        mean_sz=mean_sz,
        var_sz=max(c_zz, 0.0),
        var_sy=max(c_yy, 0.0),
        mean_spin_length=length,
        var_perp=var_perp,
        xi=xi,
    )

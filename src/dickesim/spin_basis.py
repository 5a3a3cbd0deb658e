"""Collective spin states in the Dicke basis.

States of N_a two-level atoms restricted to the fully symmetric subspace are
stored over the S_z eigenvalues M = -S..S with S = N_a/2 as amplitudes a_M
and a dephasing Gamma: rho_MN = a_M conj(a_N) exp[-Gamma (M - N)^2 / 2].
All spin quantum numbers are carried internally as doubled integers
(S_twice, M_twice) so half-integer values never touch floating point; the
public API accepts the atom count N_a.

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
    "SpinQuantum",
    "DickeState",
    "SpinMoments",
    "initial_coherent_spin_state",
    "spin_moments",
    "mean_spin_with_decay",
]


@dataclass(frozen=True)
class SpinQuantum:
    """Total collective spin of N_a atoms, S = N_a/2."""

    n_atoms: int

    def __post_init__(self):
        if self.n_atoms < 1:
            raise DomainError(f"need at least one atom, got {self.n_atoms}")

    @property
    def s_twice(self) -> int:
        return self.n_atoms

    @property
    def s(self) -> float:
        return self.n_atoms / 2

    @property
    def dim(self) -> int:
        return self.n_atoms + 1

    def m_values(self) -> np.ndarray:
        """S_z eigenvalues -S..S as floats, index order matching amplitudes."""
        return (np.arange(self.dim) * 2 - self.s_twice) / 2.0


@dataclass(frozen=True)
class DickeState:
    """rho_MN = a_M conj(a_N) exp[-dephasing (M - N)^2 / 2]; amplitudes[k] is a at M = -S + k.

    dephasing = 0 is a pure state.  rho is Hermitian and positive semidefinite
    by the Schur product theorem (a projector times a Gaussian kernel).
    """

    spin: SpinQuantum
    amplitudes: np.ndarray = field(repr=False)
    dephasing: float = 0.0

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.spin.dim,):
            raise DomainError(
                f"amplitude vector has shape {amps.shape}, expected ({self.spin.dim},)"
            )
        if not math.isfinite(self.dephasing) or self.dephasing < 0.0:
            raise DomainError(f"dephasing must be finite and >= 0, got {self.dephasing}")
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "dephasing", float(self.dephasing))

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def normalized(self) -> "DickeState":
        n = np.sqrt(self.norm_sq)
        if n == 0.0:
            raise DomainError("cannot normalize the zero vector")
        return DickeState(self.spin, self.amplitudes / n, self.dephasing)

    def diagonal(self, k: int) -> np.ndarray:
        """rho[M, M+k] = a_M conj(a_{M+k}) exp(-dephasing k^2 / 2) for M = -S..S-k."""
        a = self.amplitudes
        return a[: a.size - k] * a[k:].conj() * math.exp(-0.5 * self.dephasing * k * k)

    def require_normalized(self, tol: float = NORM_TOL) -> None:
        if abs(self.norm_sq - 1.0) > tol:
            raise ContractViolationError(
                f"state norm^2 = {self.norm_sq} deviates from 1 by more than {tol}"
            )


@dataclass(frozen=True)
class SpinMoments:
    mean_sx: float
    mean_sy: float
    mean_sz: float
    var_sz: float
    var_sy: float
    mean_spin_length: float
    var_perp: float | None
    xi: float | None


def binomial_amplitudes(spin: SpinQuantum) -> np.ndarray:
    """A(S,M) for M = -S..S as a real vector."""
    k = np.arange(spin.dim)
    log_a = (
        -0.5 * spin.s_twice * np.log(2.0)
        + 0.5
        * (
            gammaln(spin.s_twice + 1)
            - gammaln(k + 1)
            - gammaln(spin.s_twice - k + 1)
        )
    )
    return np.exp(log_a)


def initial_coherent_spin_state(n_atoms: int) -> DickeState:
    """The S_x = S eigenstate: real positive binomial amplitudes A(S,M)."""
    spin = SpinQuantum(n_atoms)
    return DickeState(spin, binomial_amplitudes(spin).astype(complex))


def spin_moments(state: DickeState) -> SpinMoments:
    """Every first and second moment of the collective spin, and xi.

    With S_+|M> = c_M |M+1>, three band sums carry everything beyond the
    populations: <S_+> = sum c_M rho[M,M+1], <{S_+,S_z}> = sum (2M+1) c_M
    rho[M,M+1] and <S_+^2> = sum c_M c_{M+1} rho[M,M+2].  Then
    S_x^2 + S_y^2 = S(S+1) - S_z^2 and S_+^2 = S_x^2 - S_y^2 + i{S_x,S_y}
    give the x-y block of the second moments.  xi = sqrt(2S) dS_perp/|<S>|
    uses the smaller principal variance orthogonal to the mean spin; it and
    var_perp are None when the mean spin vanishes.
    """
    state.require_normalized()
    s = state.spin.s
    m = state.spin.m_values()
    pop = np.real(state.diagonal(0))
    ladder = np.sqrt(np.maximum(s * (s + 1) - m[:-1] * (m[:-1] + 1), 0.0))
    band1 = state.diagonal(1)
    sp = complex(np.sum(ladder * band1))
    sp_sz = complex(np.sum((2.0 * m[:-1] + 1.0) * ladder * band1))
    sp2 = complex(np.sum(ladder[:-1] * ladder[1:] * state.diagonal(2)))
    mean_sz = float(np.sum(m * pop))
    sz2 = float(np.sum(m * m * pop))
    transverse = s * (s + 1) - sz2
    mean = np.array([sp.real, sp.imag, mean_sz])
    second = 0.5 * np.array(
        [
            [transverse + sp2.real, sp2.imag, sp_sz.real],
            [sp2.imag, transverse - sp2.real, sp_sz.imag],
            [sp_sz.real, sp_sz.imag, 2.0 * sz2],
        ]
    )
    cov = second - np.outer(mean, mean)
    length = float(np.linalg.norm(mean))
    var_perp = xi = None
    if length >= 1e-9:
        u = mean / length
        seed = np.array([0.0, 1.0, 0.0] if abs(u[2]) > 0.9 else [0.0, 0.0, 1.0])
        e1 = seed - (seed @ u) * u
        e1 /= np.linalg.norm(e1)
        frame = np.array([e1, np.cross(u, e1)])
        var_perp = max(float(np.linalg.eigvalsh(frame @ cov @ frame.T)[0]), 0.0)
        xi = float(np.sqrt(2.0 * s) * np.sqrt(var_perp) / length)
    return SpinMoments(
        mean_sx=float(mean[0]),
        mean_sy=float(mean[1]),
        mean_sz=mean_sz,
        var_sz=max(float(cov[2, 2]), 0.0),
        var_sy=max(float(cov[1, 1]), 0.0),
        mean_spin_length=length,
        var_perp=var_perp,
        xi=xi,
    )


def mean_spin_with_decay(bare_mean_sx: float, c_spon: float) -> float:
    """Mean spin reduced by spontaneous-emission decoherence, factor e^-C_spon^2."""
    if c_spon < 0:
        raise DomainError(f"c_spon must be non-negative, got {c_spon}")
    return bare_mean_sx * float(np.exp(-(c_spon**2)))

"""Brute-force verifier on a truncated Fock space.

Builds the full atom (x) photon-mode state, evolves each S_z column by an
explicit matrix exponential of the truncated (c^dag + c) generator, and
projects on photon-number outcomes.  Inefficient detection is a beam
splitter in front of a perfect counter: each Fock column is thinned
binomially and the undetected photons are traced out, which leaves a mixed
atomic state carried as an ensemble of pure vectors.  Deliberately shares no
evolution or collapse code with the analytic modules; it exists so their
coherent-branch shortcuts can be checked against an independent computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm
from scipy.special import gammaln, xlogy

from .errors import ConditioningError, DomainError, TruncationError
from .spin_basis import DickeState, SpinQuantum

__all__ = ["TruncatedJointState", "oracle_evolve", "oracle_project", "oracle_detect", "oracle_sequence"]

MAX_ORACLE_S = 6.0
LEAKAGE_BOUND = 1e-8


@dataclass(frozen=True)
class TruncatedJointState:
    """amplitudes[M, n] over Dicke index M = -S..S and Fock index n."""

    spin: SpinQuantum
    fock_dim: int
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.spin.dim, self.fock_dim):
            raise DomainError(
                f"amplitude matrix has shape {amps.shape}, expected ({self.spin.dim}, {self.fock_dim})"
            )
        object.__setattr__(self, "amplitudes", amps)

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def photon_marginal(self) -> np.ndarray:
        return np.sum(np.abs(self.amplitudes) ** 2, axis=0)


def _quadrature_generator(fock_dim: int) -> np.ndarray:
    """Tridiagonal matrix of (c^dag + c) on the truncated Fock space.

    exp(-i C M (c^dag + c)) is the displacement D(-iCM), the per-branch
    evolution whose coherent amplitudes all downstream statistics use.
    """
    k = np.zeros((fock_dim, fock_dim))
    root = np.sqrt(np.arange(1, fock_dim))
    k[np.arange(1, fock_dim), np.arange(fock_dim - 1)] = root  # c^dag
    k[np.arange(fock_dim - 1), np.arange(1, fock_dim)] = root  # c
    return k


def min_fock_dim(c: float, s: float) -> int:
    return int(math.ceil((c * s) ** 2 + 10.0 * c * s + 20.0))


def oracle_evolve(state: DickeState, c: float, fock_dim: int | None = None) -> TruncatedJointState:
    """Apply exp[-iC M (c^dag + c)] per column by dense matrix exponentiation."""
    if c < 0:
        raise DomainError(f"pulse strength must be >= 0, got {c}")
    if state.dephasing != 0.0:
        raise DomainError("oracle_evolve needs a pure state (dephasing 0)")
    spin = state.spin
    if spin.s > MAX_ORACLE_S:
        raise DomainError(f"oracle is desk-scale only: S = {spin.s} > {MAX_ORACLE_S}")
    needed = min_fock_dim(c, spin.s)
    if fock_dim is None:
        fock_dim = needed
    elif fock_dim < needed:
        raise DomainError(f"fock_dim {fock_dim} below required {needed}")
    state.require_normalized()

    k = _quadrature_generator(fock_dim)
    e0 = np.zeros(fock_dim, dtype=complex)
    e0[0] = 1.0
    amps = np.zeros((spin.dim, fock_dim), dtype=complex)
    for idx, m in enumerate(spin.m_values()):
        if m == 0.0 or c == 0.0:
            column = e0
        else:
            column = expm(-1j * c * m * k) @ e0
        amps[idx] = state.amplitudes[idx] * column

    joint = TruncatedJointState(spin=spin, fock_dim=fock_dim, amplitudes=amps)
    leakage = abs(1.0 - joint.norm_sq())
    if leakage > LEAKAGE_BOUND:
        raise TruncationError(f"truncation leakage {leakage} exceeds {LEAKAGE_BOUND}")
    return joint


def oracle_project(joint: TruncatedJointState, n_m: int) -> DickeState:
    """Exact projective measurement of the photon number: keep Fock column n_m."""
    if not 0 <= n_m < joint.fock_dim:
        raise DomainError(f"n_m = {n_m} outside truncated Fock space 0..{joint.fock_dim - 1}")
    column = joint.amplitudes[:, n_m]
    weight = float(np.sum(np.abs(column) ** 2))
    if weight <= 1e-300:
        raise ConditioningError(f"outcome n_m={n_m} has probability below 1e-300")
    return DickeState(joint.spin, column / math.sqrt(weight))


def oracle_detect(joint: TruncatedJointState, n_m: int, mu: float) -> np.ndarray:
    """Unnormalised atomic vectors left by detecting n_m photons at efficiency mu.

    A beam splitter of transmission mu sends |n> to sum_k sqrt(binom(n, k)
    mu^k (1-mu)^(n-k)) |k>_detected |n-k>_lost.  Keeping k = n_m and tracing
    out the lost mode leaves one vector per lost count l, the Fock column
    n_m + l times sqrt(binom(n_m + l, l) mu^n_m (1-mu)^l); the conditioned
    state is sum_l v_l v_l^dag up to normalisation.  Returns the v_l as the
    columns of a (2S+1, L) array.
    """
    if not 0.0 <= mu <= 1.0:
        raise DomainError(f"detection efficiency must lie in [0,1], got {mu}")
    if not 0 <= n_m < joint.fock_dim:
        raise DomainError(f"n_m = {n_m} outside truncated Fock space 0..{joint.fock_dim - 1}")
    lost = np.arange(joint.fock_dim - n_m)
    log_weight = (
        gammaln(n_m + lost + 1.0)
        - gammaln(n_m + 1.0)
        - gammaln(lost + 1.0)
        + xlogy(n_m, mu)
        + xlogy(lost, 1.0 - mu)
    )
    return joint.amplitudes[:, n_m:] * np.exp(0.5 * log_weight)[None, :]


def oracle_sequence(state: DickeState, pulses: list[tuple[float, float, int]]) -> np.ndarray:
    """Dense rho of `state` conditioned on the detected counts of pulses (C, mu, n_m) in turn.

    Each ensemble vector is evolved by oracle_evolve and split by
    oracle_detect.  Between pulses the ensemble W is replaced by R^dag from
    the QR factorisation W^dag = QR, which keeps W W^dag exactly and at most
    2S+1 vectors.
    """
    spin = state.spin
    vectors = state.amplitudes[:, None]
    for c, mu, n_m in pulses:
        parts = []
        for v in vectors.T:
            weight = float(np.linalg.norm(v))
            if weight == 0.0:
                continue
            joint = oracle_evolve(DickeState(spin, v / weight), c)
            parts.append(weight * oracle_detect(joint, n_m, mu))
        stacked = np.concatenate(parts, axis=1)
        if np.sum(np.abs(stacked) ** 2) <= 1e-300:
            raise ConditioningError(f"outcome n_m={n_m} has probability below 1e-300")
        vectors = np.linalg.qr(stacked.conj().T, mode="r").conj().T
        vectors /= np.linalg.norm(vectors)
    return vectors @ vectors.conj().T

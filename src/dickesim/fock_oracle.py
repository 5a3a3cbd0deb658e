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

from .errors import ConsistencyError, DomainError
from .spin_basis import DickeState

__all__ = ["TruncatedJointState", "oracle_evolve", "oracle_project", "oracle_detect", "oracle_sequence"]

MAX_ORACLE_S = 6.0
LEAKAGE_BOUND = 1e-8


@dataclass(frozen=True)
class TruncatedJointState:
    """amplitudes[M, n] over Dicke index M = -S..S and Fock index n = 0..fock_dim - 1."""

    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 2:
            raise DomainError(f"amplitude matrix must be 2-D, got shape {amps.shape}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def fock_dim(self) -> int:
        return self.amplitudes.shape[1]

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


def _checked_fock_dim(state: DickeState, c: float) -> int:
    """The smallest safe Fock dimension for strength c >= 0 with (C S)^2 finite on a desk-scale state."""
    cs = c * state.s  # Python floats overflow to inf without raising
    if not (c >= 0 and math.isfinite(cs * cs)):
        raise DomainError(f"pulse strength must be >= 0 with a finite Fock dimension, got C = {c}")
    if state.s > MAX_ORACLE_S:
        raise DomainError(f"oracle is desk-scale only: S = {state.s} > {MAX_ORACLE_S}")
    return min_fock_dim(c, state.s)


def _evolve(m_values: np.ndarray, vector: np.ndarray, c: float, fock_dim: int) -> TruncatedJointState:
    """Apply exp[-iC M (c^dag + c)] to a unit atomic vector (any phases) column by column."""
    k = _quadrature_generator(fock_dim)
    e0 = np.zeros(fock_dim, dtype=complex)
    e0[0] = 1.0
    amps = np.zeros((m_values.size, fock_dim), dtype=complex)
    for idx, m in enumerate(m_values):
        if m == 0.0 or c == 0.0:
            column = e0
        else:
            column = expm(-1j * c * m * k) @ e0
        amps[idx] = vector[idx] * column

    joint = TruncatedJointState(amps)
    leakage = abs(1.0 - joint.norm_sq())
    if leakage > LEAKAGE_BOUND:
        raise DomainError(f"truncation leakage {leakage} exceeds {LEAKAGE_BOUND}")
    return joint


def oracle_evolve(state: DickeState, c: float) -> TruncatedJointState:
    """Apply exp[-iC M (c^dag + c)] per column by dense matrix exponentiation."""
    fock_dim = _checked_fock_dim(state, c)
    if state.dephasing != 0.0:
        raise DomainError("oracle_evolve needs a pure state (dephasing 0)")
    return _evolve(state.m_values(), state.amplitudes, c, fock_dim)


def oracle_project(joint: TruncatedJointState, n_m: int) -> DickeState:
    """Exact projective measurement of the photon number: keep Fock column n_m.

    Branch M's column entry carries the global phase (-i)^n_m of the
    displaced vacuum, so the column is divided by the phase of its largest
    entry (which then is positive) and must come out real: an imaginary
    part above 1e-12 of its norm is a ConsistencyError.
    """
    if not 0 <= n_m < joint.fock_dim:
        raise DomainError(f"n_m = {n_m} outside truncated Fock space 0..{joint.fock_dim - 1}")
    column = joint.amplitudes[:, n_m]
    norm = math.sqrt(float(np.sum(np.abs(column) ** 2)))
    if norm * norm <= 1e-300:
        raise DomainError(f"outcome n_m={n_m} has probability below 1e-300")
    largest = column[np.argmax(np.abs(column))]
    column = column * (abs(largest) / largest)
    leftover = float(np.linalg.norm(column.imag))
    if leftover > 1e-12 * norm:
        raise ConsistencyError(
            f"column n_m={n_m} keeps an imaginary part {leftover:.3g} at norm {norm:.3g} after its phase"
        )
    return DickeState(column.real / norm)


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

    Each ensemble vector, complex in general, is evolved as a plain array
    and split by oracle_detect.  Between pulses the ensemble W is replaced
    by R^dag from the QR factorisation W^dag = QR, which keeps W W^dag
    exactly and at most 2S+1 vectors.
    """
    if state.dephasing != 0.0:
        raise DomainError("oracle_sequence needs a pure state (dephasing 0)")
    m_values = state.m_values()
    vectors = state.amplitudes[:, None]
    for c, mu, n_m in pulses:
        fock_dim = _checked_fock_dim(state, c)
        parts = []
        for v in vectors.T:
            weight = float(np.linalg.norm(v))
            if weight == 0.0:
                continue
            joint = _evolve(m_values, v / weight, c, fock_dim)
            parts.append(weight * oracle_detect(joint, n_m, mu))
        stacked = np.concatenate(parts, axis=1)
        if np.sum(np.abs(stacked) ** 2) <= 1e-300:
            raise DomainError(f"outcome n_m={n_m} has probability below 1e-300")
        vectors = np.linalg.qr(stacked.conj().T, mode="r").conj().T
        vectors /= np.linalg.norm(vectors)
    return vectors @ vectors.conj().T

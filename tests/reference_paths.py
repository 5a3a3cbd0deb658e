"""Second code paths that exist only to check the library.

Dense spin matrices, ladder operators applied to amplitude vectors, the
dense density matrix of a state and the closed-form dense conditioning
kernel, the scalar log-binomial amplitude, the term-by-term photon law and
the dense operator-product squeezing parameter.
None of this is on a library path; the tests compare the library's banded,
vectorised and log-space routines against it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from dickesim.errors import DomainError
from dickesim.pulse_scattering import JointState, PhotonDistribution
from dickesim.spin_basis import DickeState, SpinQuantum


def dense_rho(state: DickeState) -> np.ndarray:
    """rho_MN = a_M conj(a_N) exp[-dephasing (M - N)^2 / 2] as a full matrix."""
    a = state.amplitudes
    m = state.spin.m_values()
    gap = m[:, None] - m[None, :]
    return np.outer(a, a.conj()) * np.exp(-0.5 * state.dephasing * gap**2)


def kernel_collapse_dense(rho: np.ndarray, spin: SpinQuantum, c: float, mu: float, n_m: int) -> np.ndarray:
    """rho'_MN propto rho_MN (C^2 M N)^n exp[(1-mu) C^2 M N - C^2 (M^2 + N^2) / 2], trace 1."""
    m = spin.m_values()
    mn = np.outer(m, m)
    sq = (m**2)[:, None] + (m**2)[None, :]
    out = rho * (c * c * mn) ** n_m * np.exp((1 - mu) * c * c * mn - 0.5 * c * c * sq)
    return out / np.trace(out).real


def log_binomial_amplitude(s_twice: int, m_twice: int) -> float:
    """ln A(S,M) with A(S,M) = 2^-S sqrt((2S)! / ((S+M)!(S-M)!)), one entry at a time."""
    if s_twice < 0:
        raise DomainError(f"negative total spin: s_twice={s_twice}")
    if abs(m_twice) > s_twice:
        raise DomainError(f"|M| > S: m_twice={m_twice}, s_twice={s_twice}")
    if (s_twice - m_twice) % 2 != 0:
        raise DomainError(f"M parity does not match S: m_twice={m_twice}, s_twice={s_twice}")
    s_plus_m = (s_twice + m_twice) // 2
    s_minus_m = (s_twice - m_twice) // 2
    return float(
        -0.5 * s_twice * np.log(2.0)
        + 0.5 * (gammaln(s_twice + 1) - gammaln(s_plus_m + 1) - gammaln(s_minus_m + 1))
    )


def _apply_sp(spin: SpinQuantum, amps: np.ndarray) -> np.ndarray:
    """S_+ |psi> in the amplitude representation."""
    m = spin.m_values()
    s = spin.s
    out = np.zeros_like(amps)
    # S_+|S,M> = sqrt(S(S+1) - M(M+1)) |S,M+1>
    c = np.sqrt(np.maximum(s * (s + 1) - m[:-1] * (m[:-1] + 1), 0.0))
    out[1:] = c * amps[:-1]
    return out


def _apply_sm(spin: SpinQuantum, amps: np.ndarray) -> np.ndarray:
    m = spin.m_values()
    s = spin.s
    out = np.zeros_like(amps)
    c = np.sqrt(np.maximum(s * (s + 1) - m[1:] * (m[1:] - 1), 0.0))
    out[:-1] = c * amps[1:]
    return out


def apply_sx(spin: SpinQuantum, amps: np.ndarray) -> np.ndarray:
    return 0.5 * (_apply_sp(spin, amps) + _apply_sm(spin, amps))


def apply_sy(spin: SpinQuantum, amps: np.ndarray) -> np.ndarray:
    return -0.5j * (_apply_sp(spin, amps) - _apply_sm(spin, amps))


def apply_sz(spin: SpinQuantum, amps: np.ndarray) -> np.ndarray:
    return spin.m_values() * amps


def spin_matrices(spin: SpinQuantum) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (S_x, S_y, S_z) matrices in the M = -S..S basis."""
    dim = spin.dim
    m = spin.m_values()
    s = spin.s
    sz = np.diag(m).astype(complex)
    sp = np.zeros((dim, dim), dtype=complex)
    c = np.sqrt(np.maximum(s * (s + 1) - m[:-1] * (m[:-1] + 1), 0.0))
    sp[np.arange(1, dim), np.arange(dim - 1)] = c
    sm = sp.conj().T
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    return sx, sy, sz


def dense_xi(spin: SpinQuantum, rho: np.ndarray) -> float | None:
    """Squeezing parameter from dense operator products Tr(rho A B); None when <S> ~ 0."""
    sx, sy, sz = spin_matrices(spin)
    means = np.array([np.real(np.trace(rho @ op)) for op in (sx, sy, sz)])
    length = float(np.linalg.norm(means))
    if length < 1e-9:
        return None
    direction = means / length
    seed_vec = np.array([0.0, 0.0, 1.0])
    if abs(np.dot(seed_vec, direction)) > 0.9:
        seed_vec = np.array([0.0, 1.0, 0.0])
    e1 = seed_vec - np.dot(seed_vec, direction) * direction
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(direction, e1)
    ops = [e1[0] * sx + e1[1] * sy + e1[2] * sz, e2[0] * sx + e2[1] * sy + e2[2] * sz]
    mvals = [float(np.real(np.trace(rho @ op))) for op in ops]
    cov = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            sym = (ops[i] @ ops[j] + ops[j] @ ops[i]) / 2
            cov[i, j] = float(np.real(np.trace(rho @ sym))) - mvals[i] * mvals[j]
    var_perp = max(float(np.linalg.eigvalsh(cov)[0]), 0.0)
    return float(math.sqrt(2.0 * spin.s) * math.sqrt(var_perp) / length)


def photon_distribution_direct(joint: JointState, n_max: int) -> PhotonDistribution:
    """Term-by-term linear-space evaluation of the Poisson mixture.

    Underflows once e^{-lambda} hits float zero, so it is valid only while
    mu (C S)^2 stays well below ~700.
    """
    weights = joint.populations()
    intensities = joint.mu * np.abs(joint.field_alphas) ** 2
    probs = np.zeros(n_max + 1)
    for w, lam in zip(weights, intensities):
        if lam == 0.0:
            probs[0] += w
            continue
        term = math.exp(-lam)
        probs[0] += w * term
        for n in range(1, n_max + 1):
            term *= lam / n
            probs[n] += w * term
    return PhotonDistribution(probabilities=probs, n_max=n_max, tail_mass=1.0 - probs.sum())


def assert_equal_up_to_phase(actual: np.ndarray, expected: np.ndarray, atol: float) -> None:
    """actual == e^{i phi} expected for one global phase phi, entrywise within atol."""
    overlap = np.vdot(actual, expected)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    np.testing.assert_allclose(actual * phase, expected, rtol=0, atol=atol)

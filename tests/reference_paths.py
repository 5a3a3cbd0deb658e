"""Second code paths that exist only to check the library.

An exact reference at 40 digits (the binomial start, a pulse sequence as
one merged collapse, and the detected-count law), dense spin matrices, the
dense density matrix of a state and the closed-form dense conditioning
kernel, the dense log-space and the Chernoff-window-only photon laws, the
dense operator-product squeezing parameter, the row-by-row CSV writer and
the count-by-count peak finder.  None of this is on a library path; the
tests compare the library's banded, vectorised, log-space and chunked
routines against it.
"""

from __future__ import annotations

import io
import math

import mpmath
import numpy as np
from scipy.special import gammaln

from dickesim.errors import DomainError
from dickesim.pulse_scattering import (
    LOG_TERM_FLOOR,
    MAX_TABLE_LENGTH,
    DistributionPeak,
    JointState,
    PhotonDistribution,
)
from dickesim.spin_basis import DickeState


def dense_rho(state: DickeState) -> np.ndarray:
    """rho_MN = a_M conj(a_N) exp[-dephasing (M - N)^2 / 2] as a full matrix."""
    a = state.amplitudes
    m = state.m_values()
    gap = m[:, None] - m[None, :]
    return np.outer(a, a.conj()) * np.exp(-0.5 * state.dephasing * gap**2)


# The exact reference.  Every pulse and every count is diagonal in S_z, so
# forced pulses (C_i, mu_i, n_i) in any order are one collapse on n = sum n_i
# at rate sum mu_i C_i^2 / 2.  Each function below works at DIGITS decimal
# digits from its float64 (or exact) inputs and rounds once, to float64.
DIGITS = 40


def _exact_m(size: int) -> list[mpmath.mpf]:
    """M = -S..S of a state with `size` amplitudes, exact."""
    return [mpmath.mpf(2 * k - size + 1) / 2 for k in range(size)]


def binomial(n_atoms: int) -> np.ndarray:
    """The start, A(S,M) = 2^-S sqrt(N_a! / ((S+M)! (S-M)!)) for M = -S..S."""
    with mpmath.workdps(DIGITS):
        return np.array([float(mpmath.sqrt(mpmath.binomial(n_atoms, k) / 2**n_atoms)) for k in range(n_atoms + 1)])


def merged_collapse(start, pulses) -> tuple[np.ndarray, float]:
    """(b, gained): start a_M conditioned on the forced pulses (C_i, mu_i, n_i) as one
    collapse, b_M = a_M M^n exp(-sum mu_i C_i^2 M^2 / 2) normalised (the constant C_i^n
    cancels), and the dephasing the pulses add, sum (1 - mu_i) C_i^2."""
    with mpmath.workdps(DIGITS):
        pulses = [(mpmath.mpf(c) ** 2, mpmath.mpf(mu), n) for c, mu, n in pulses]
        total_n = sum(n for _, _, n in pulses)
        rate = mpmath.fsum(mu * c2 for c2, mu, _ in pulses) / 2
        b = [mpmath.mpf(a) * m**total_n * mpmath.exp(-rate * m * m) for a, m in zip(start, _exact_m(len(start)))]
        norm = mpmath.sqrt(mpmath.fsum(x * x for x in b))
        gained = mpmath.fsum((1 - mu) * c2 for c2, mu, _ in pulses)
        return np.array([float(x / norm) for x in b]), float(gained)


def count_law(amplitudes, c: float, mu: float, counts) -> np.ndarray:
    """P(n) = sum_M a_M^2 e^-lambda_M lambda_M^n / n!, lambda_M = mu (C M)^2, at each of the
    ascending counts.  Branches +-M share lambda_M and are merged first; each carries its
    term w e^-lambda lambda^n from one count to the next."""
    with mpmath.workdps(DIGITS):
        weights = {}
        for a, m in zip(amplitudes, _exact_m(len(amplitudes))):
            weights[abs(m)] = weights.get(abs(m), 0) + mpmath.mpf(a) ** 2
        lams = [mpmath.mpf(mu) * (mpmath.mpf(c) * m) ** 2 for m in weights]
        terms = [w * mpmath.exp(-lam) for w, lam in zip(weights.values(), lams)]
        law, at = [], 0
        for n in counts:
            terms = [t * lam ** (n - at) for t, lam in zip(terms, lams)]
            at = n
            law.append(float(mpmath.fsum(terms) / mpmath.factorial(n)))
        return np.array(law)


def _spin(n_atoms: int) -> tuple[float, np.ndarray]:
    """S = N_a/2 and the S_z eigenvalues M = -S..S of n_atoms atoms."""
    return n_atoms / 2, (np.arange(n_atoms + 1) * 2 - n_atoms) / 2.0


def kernel_collapse_dense(rho: np.ndarray, n_atoms: int, c: float, mu: float, n_m: int) -> np.ndarray:
    """rho'_MN propto rho_MN (C^2 M N)^n exp[(1-mu) C^2 M N - C^2 (M^2 + N^2) / 2], trace 1."""
    m = _spin(n_atoms)[1]
    mn = np.outer(m, m)
    sq = (m**2)[:, None] + (m**2)[None, :]
    out = rho * (c * c * mn) ** n_m * np.exp((1 - mu) * c * c * mn - 0.5 * c * c * sq)
    return out / np.trace(out).real


def spin_matrices(n_atoms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (S_x, S_y, S_z) matrices in the M = -S..S basis."""
    dim = n_atoms + 1
    s, m = _spin(n_atoms)
    sz = np.diag(m).astype(complex)
    sp = np.zeros((dim, dim), dtype=complex)
    c = np.sqrt(np.maximum(s * (s + 1) - m[:-1] * (m[:-1] + 1), 0.0))
    sp[np.arange(1, dim), np.arange(dim - 1)] = c
    sm = sp.conj().T
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    return sx, sy, sz


def dense_xi(n_atoms: int, rho: np.ndarray) -> float | None:
    """Squeezing parameter from dense operator products Tr(rho A B); None when <S> ~ 0."""
    sx, sy, sz = spin_matrices(n_atoms)
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
    return float(math.sqrt(2.0 * _spin(n_atoms)[0]) * math.sqrt(var_perp) / length)


def default_n_max(c: float, s: float) -> int:
    """The formula table length, (CS)^2 + 10 CS + 20: the largest branch covered by 10 sigma.

    photon_distribution(joint) caps its default table at this n_max for
    C = sqrt(mu) C_pulse; DomainError when n = 0..n_max exceeds MAX_TABLE_LENGTH.
    """
    length = c * c * s * s + 10.0 * c * s + 20.0
    if not length + 1 <= MAX_TABLE_LENGTH:  # also rejects inf and nan
        raise DomainError(f"photon-law table of {length + 1:.4g} entries exceeds the limit of {MAX_TABLE_LENGTH}")
    return int(math.ceil(length))


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


def photon_distribution_dense(joint: JointState, n_max: int) -> PhotonDistribution:
    """Every branch over every count: a (2S+1) x (n_max+1) log-Poisson matrix.

    Valid at any intensity, but its memory grows as d * n_max.
    """
    n = np.arange(n_max + 1)
    probs = joint.state.populations() @ np.exp(_log_poisson_matrix(joint.intensities(), n))
    return PhotonDistribution(probs)


def photon_distribution_chernoff(joint: JointState, n_max: int | None = None) -> PhotonDistribution:
    """The windowed photon law without the dominance cut, loop and all.

    Each merged +-M branch adds w exp(-lam + n log(lam) - log(n!)) over its
    whole Chernoff window, where log(w) + log Poisson(n) may reach
    LOG_TERM_FLOOR; the default n_max is read from the same windows.
    """
    trim = n_max is None
    if trim:
        c, s = math.sqrt(joint.mu) * joint.c, joint.state.s
        cap = float(math.ceil(c * c * s * s + 10.0 * c * s + 20.0))
    else:
        cap = float(n_max)
    intensities = joint.intensities()
    pop = joint.state.populations()
    half = pop.size // 2
    weights = pop[half:].copy()
    weights[pop.size % 2 :] += pop[:half][::-1]
    lam = intensities[half:]
    at_zero = weights[lam == 0.0].sum()
    g = np.log(weights, out=np.full(lam.shape, -np.inf), where=weights > 0) - LOG_TERM_FLOOR
    keep = (lam > 0.0) & (g > 0)
    w, lam, g = weights[keep], lam[keep], g[keep]
    reach = np.sqrt(2.0 * g) * np.sqrt(lam)
    first = np.clip(np.ceil(lam - reach), 0, cap + 1)
    last = np.minimum(np.floor(lam + g / 3.0 + np.hypot(g / 3.0, reach)), cap)
    nonempty = first <= last
    w, lam, first, last = w[nonempty], lam[nonempty], first[nonempty], last[nonempty]
    if trim:
        n_max = int(max(last.max(initial=0.0), 20.0))
    first, last = first.astype(np.int64), last.astype(np.int64)
    log_lam = np.log(lam)
    n = np.arange(n_max + 1)
    log_factorial = gammaln(n + 1.0)
    probs = np.zeros(n_max + 1)
    probs[0] = at_zero
    for j in range(w.size):
        a, b = int(first[j]), int(last[j]) + 1
        probs[a:b] += w[j] * np.exp(-lam[j] + n[a:b] * log_lam[j] - log_factorial[a:b])
    return PhotonDistribution(probs)


def assert_equal_up_to_phase(actual: np.ndarray, expected: np.ndarray, atol: float) -> None:
    """actual == e^{i phi} expected for one global phase phi, entrywise within atol."""
    overlap = np.vdot(actual, expected)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    np.testing.assert_allclose(actual * phase, expected, rtol=0, atol=atol)


def csv_rows(rows: list[tuple], header: tuple[str, ...]) -> str:
    """CSV text built one row at a time: repr for a float cell, str for any other."""
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return buf.getvalue()


def distribution_peaks_loop(
    probs: np.ndarray,
    tie_rtol: float = 1e-6,
    floor_rtol: float = 1e-12,
) -> list[DistributionPeak]:
    """Local maxima of P(n) with 1/e half-widths, scanning one count at a time.

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
            DistributionPeak(n=peak, P=float(p[peak]), half_width=half / math.sqrt(2.0))
        )
        i = j + 1
    return peaks

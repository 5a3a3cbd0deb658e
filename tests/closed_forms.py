"""The paper's closed forms and small helpers that only the tests use.

No command, kernel or benchmark calls them: they are test oracles for the
photon-number moments of the initial state, the null-measurement width,
the normalisation of a hand-built state, and the map from a laboratory
config to the dimensionless model, written as one formula per quantity.
"""

from __future__ import annotations

import math

import numpy as np

from dickesim.errors import DomainError, ShapeError, TruncationError
from dickesim.physical_params import SPON_COUPLING_CONSTANT, DerivedStrengths, PhysicalConfig
from dickesim.pulse_scattering import PhotonDistribution
from dickesim.spin_basis import DickeState


def normalized(state: DickeState) -> DickeState:
    """The state with its amplitudes scaled to unit norm; dephasing kept."""
    n = np.sqrt(state.norm_sq)
    if n == 0.0:
        raise DomainError("cannot normalize the zero vector")
    return DickeState(state.amplitudes / n, state.dephasing)


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
    if state.n_atoms % 2 != 0:
        raise ShapeError("M = 0 lattice point requires an even atom number")
    pop = state.populations()
    center = state.n_atoms // 2
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


def c_spon(config: PhysicalConfig) -> float:
    """sqrt(gamma * integral(|chi|^2 dt) / delta^2): single-atom emission amplitude."""
    return math.sqrt(config.gamma * config.chi_sq_integral) / abs(config.delta)


def measurement_strength(config: PhysicalConfig) -> float:
    """C = [3/(16 pi^2) (lambda^2/A) C_spon^2]^(1/2)."""
    cs = c_spon(config)
    return math.sqrt(SPON_COUPLING_CONSTANT * (config.wavelength**2 / config.area) * cs * cs)


def measurement_strength_photon_form(config: PhysicalConfig) -> float:
    """Cross-check form C ~ (gamma/delta) (d_res/N_a) sqrt(N_ph)."""
    d_res = optical_depths(config)[0]
    return (config.gamma / abs(config.delta)) * (d_res / config.N_a) * math.sqrt(config.N_ph)


def optical_depths(config: PhysicalConfig) -> tuple[float, float, float]:
    """(d_res, eta, C_bound): resonant depth, photon loss per atom, strength bound."""
    d_res = config.density * config.wavelength**2 * config.length
    eta = (d_res / config.N_a) * (config.gamma / config.delta) ** 2 * config.N_ph
    c_bound = math.sqrt(d_res / config.N_a)
    return d_res, eta, c_bound


def regime_notes(config: PhysicalConfig) -> list[str]:
    """The six regime notes, in order: three on the config itself, three on the model it maps to."""
    notes = []
    if abs(config.delta) / config.gamma < 10:
        notes.append(
            f"|delta|/gamma = {abs(config.delta) / config.gamma:.3g} < 10; far-off-resonance assumption is strained"
        )
    fresnel = config.area / (config.wavelength * config.length)
    if not 0.1 <= fresnel <= 10:
        notes.append(f"Fresnel number {fresnel:.3g} outside [0.1, 10]")
    implied = config.density * config.area * config.length
    if abs(implied - config.N_a) > 0.01 * config.N_a:
        notes.append(f"N_a = {config.N_a} inconsistent with density*area*length = {implied:.4g} (>1%)")
    d_res, eta, c_bound = optical_depths(config)
    c, c_photon = measurement_strength(config), measurement_strength_photon_form(config)
    if eta >= 1.0:
        notes.append(f"photon loss per atom exceeds 1 (eta = {eta:.3g}); low-damage regime violated")
    if c > c_bound:
        notes.append(f"C = {c:.3g} exceeds the bound sqrt(d_res/N_a) = {c_bound:.3g}")
    if c_photon > 0 and c > 0 and not 0.5 <= c / c_photon <= 2.0:
        notes.append(f"spontaneous-emission and photon-number forms of C disagree by factor {c / c_photon:.3g}")
    return notes


def derived_strengths(config: PhysicalConfig) -> DerivedStrengths:
    """DerivedStrengths assembled from the formulas above."""
    d_res, eta, c_bound = optical_depths(config)
    return DerivedStrengths(
        measurement_strength(config),
        c_spon(config),
        d_res,
        eta,
        c_bound,
        measurement_strength_photon_form(config),
        tuple(regime_notes(config)),
    )

"""Laboratory parameters -> dimensionless model (C, C_spon, d_res, eta).

The entanglement results are fully dimensionless in (C, mu, N_a, d_res);
this module owns the SI-unit bookkeeping that produces those numbers, the
photon-loss bound, every note on a config's regime, and the
decay-corrected squeezing optimum.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError, DomainError

# C^2 N_a / d_res = SPON_COUPLING_CONSTANT * C_spon^2 when N_a = n_a A L;
# the O(1) constant is pinned here once and asserted in the tests.
SPON_COUPLING_CONSTANT = 3.0 / (16.0 * math.pi**2)

__all__ = [
    "PhysicalConfig",
    "DerivedStrengths",
    "SPON_COUPLING_CONSTANT",
    "c_spon",
    "measurement_strength",
    "measurement_strength_photon_form",
    "optical_depths",
    "derive_strengths",
    "squeezing_with_decay",
    "optimal_strength",
]

@dataclass(frozen=True)
class PhysicalConfig:
    """Experimental parameters, SI units throughout.

    chi_sq_integral is the time integral of the squared Rabi frequency over
    the pulse, in 1/s.
    """

    gamma: float
    delta: float
    wavelength: float
    area: float
    length: float
    density: float
    N_a: int
    chi_sq_integral: float
    N_ph: float

    def __post_init__(self):
        for name in _CONFIG_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            if name in ("chi_sq_integral", "N_ph"):
                if value < 0:
                    raise ConfigError(f"{name} must be >= 0, got {value}")
            elif name == "delta":
                if value == 0:
                    raise ConfigError("delta must be nonzero")
            elif value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")

    @classmethod
    def from_json(cls, source: str | Path) -> "PhysicalConfig":
        """Load from a JSON document with exactly the dataclass field names."""
        text = Path(source).read_text() if isinstance(source, Path) else source
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(data) - set(_CONFIG_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = set(_CONFIG_FIELDS) - set(data)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        n_a = data["N_a"]
        if isinstance(n_a, float) and not n_a.is_integer():
            raise ConfigError(f"N_a must be an integer, got {n_a}")
        try:
            return cls(**{k: (int(data[k]) if k == "N_a" else float(data[k])) for k in _CONFIG_FIELDS})
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc

    def advisory_warnings(self) -> list[str]:
        """Soft sanity checks; violations warn but never fail."""
        notes = []
        if abs(self.delta) / self.gamma < 10:
            notes.append(
                f"|delta|/gamma = {abs(self.delta) / self.gamma:.3g} < 10; far-off-resonance assumption is strained"
            )
        fresnel = self.area / (self.wavelength * self.length)
        if not 0.1 <= fresnel <= 10:
            notes.append(f"Fresnel number {fresnel:.3g} outside [0.1, 10]")
        implied = self.density * self.area * self.length
        if abs(implied - self.N_a) > 0.01 * self.N_a:
            notes.append(
                f"N_a = {self.N_a} inconsistent with density*area*length = {implied:.4g} (>1%)"
            )
        return notes


_CONFIG_FIELDS = tuple(f.name for f in fields(PhysicalConfig))


@dataclass(frozen=True)
class DerivedStrengths:
    """The dimensionless model of a config and every regime note on it;
    asdict() of it is the physical command's output, in field order."""

    C: float
    C_spon: float
    d_res: float
    eta: float
    C_bound: float
    C_photon_form: float
    warnings: tuple[str, ...]


def c_spon(config: PhysicalConfig) -> float:
    """sqrt(gamma * integral(|chi|^2 dt) / delta^2): single-atom emission amplitude."""
    return math.sqrt(config.gamma * config.chi_sq_integral) / abs(config.delta)


def measurement_strength(config: PhysicalConfig) -> float:
    """C = [3/(16 pi^2) (lambda^2/A) C_spon^2]^(1/2)."""
    cs = c_spon(config)
    return math.sqrt(
        SPON_COUPLING_CONSTANT * (config.wavelength**2 / config.area) * cs * cs
    )


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


def derive_strengths(config: PhysicalConfig) -> DerivedStrengths:
    """The model parameters, with the config's advisory notes followed by the
    regime notes: photon loss eta >= 1, C above C_bound, and the two forms
    of C disagreeing by more than a factor 2."""
    d_res, eta, c_bound = optical_depths(config)
    c = measurement_strength(config)
    c_photon = measurement_strength_photon_form(config)
    notes = config.advisory_warnings()
    if eta >= 1.0:
        notes.append(f"photon loss per atom exceeds 1 (eta = {eta:.3g}); low-damage regime violated")
    if c > c_bound:
        notes.append(f"C = {c:.3g} exceeds the bound sqrt(d_res/N_a) = {c_bound:.3g}")
    if c_photon > 0 and c > 0 and not 0.5 <= c / c_photon <= 2.0:
        notes.append(f"spontaneous-emission and photon-number forms of C disagree by factor {c / c_photon:.3g}")
    return DerivedStrengths(c, c_spon(config), d_res, eta, c_bound, c_photon, tuple(notes))


def squeezing_with_decay(c: float, n_atoms: int, d_res: float) -> float:
    """Decay-corrected squeezing, sqrt(2) / (sqrt(S) C e^{-C^2 N_a / d_res}).

    Valid in the regime C >> 1/sqrt(S); a warning is emitted outside it.
    """
    if c <= 0:
        raise DomainError(f"pulse strength must be > 0, got {c}")
    if n_atoms < 1 or not 0 < d_res < math.inf:
        raise DomainError(f"need n_atoms >= 1 and 0 < d_res < inf, got d_res = {d_res}")
    s = n_atoms / 2.0
    if c < 1.0 / math.sqrt(s):
        warnings.warn(
            f"C = {c:.3g} below 1/sqrt(S) = {1 / math.sqrt(s):.3g}; formula regime strained",
            stacklevel=2,
        )
    c = float(c)  # Python floats overflow to inf without a numpy warning
    decay = math.exp(-c * c * n_atoms / d_res)
    if decay == 0.0:  # e^(C^2 N_a / d_res) overflows
        return math.inf
    return math.sqrt(2.0) / (math.sqrt(s) * c * decay)


def optimal_strength(n_atoms: int, d_res: float) -> tuple[float, float]:
    """Closed-form optimum: C_opt = sqrt(d_res/(2 N_a)), xi_min = 2 sqrt(e)/sqrt(d_res)."""
    if n_atoms < 1 or not 0 < d_res < math.inf:
        raise DomainError(f"need n_atoms >= 1 and 0 < d_res < inf, got d_res = {d_res}")
    return math.sqrt(d_res / (2.0 * n_atoms)), 2.0 * math.sqrt(math.e) / math.sqrt(d_res)

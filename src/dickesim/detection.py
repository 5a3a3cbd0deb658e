"""Conditional collapse on a detected photon count and sequential trajectories.

Every pulse and every count is diagonal in S_z, so conditioning on n
detected photons at efficiency mu multiplies the density matrix entrywise
by the Schur kernel

    K_MN = (C^2 M N)^n exp[(1 - mu) C^2 M N - C^2 (M^2 + N^2) / 2]
         = k_M k_N exp[-(1 - mu) C^2 (M - N)^2 / 2],
    k_M  = (C M)^n exp(-mu C^2 M^2 / 2),

and normalising by the trace.  So a state rho_MN = a_M a_N exp[-Gamma
(M - N)^2 / 2] with real a keeps that form, with a -> k a and Gamma ->
Gamma + (1 - mu) C^2: k is real, so the amplitudes stay real, and at mu = 1
a pure state stays pure.  b = k a is formed in log space from log|a_M|, not
a_M^2, so no amplitude is zeroed by an underflowing square.  The trace of
the conditioned state is P(n) n!/mu^n: P(n) and the collapse share one pass.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DickesimError, DomainError
from .pulse_scattering import JointState, PhotonDistribution, apply_pulse, photon_distribution
from .spin_basis import DickeState, spin_moments

LOG_PROB_FLOOR = math.log(1e-300)

__all__ = [
    "PulseSpec",
    "PulseResult",
    "TrajectoryRun",
    "collapse",
    "sample_outcome",
    "log_outcome_probability",
    "run_trajectory",
]


def _require_count(n_m) -> None:
    """DomainError unless n_m is a photon count: an integer >= 0 of any number
    type but bool, or an integral float."""
    integral = isinstance(n_m, numbers.Integral) or (isinstance(n_m, float) and n_m.is_integer())
    if isinstance(n_m, bool) or not integral or n_m < 0:
        raise DomainError(f"photon count must be an integer >= 0, got {n_m}")


def _condition(joint: JointState, n_m: int) -> tuple[np.ndarray, float, float]:
    """(b, t, log P(n_m)): b = k a scaled so max |b_M| = 1, formed in log space as
    log|a_M| - lambda_M / 2 + n_m log|C M| (so 0.0 only where a_M or C M is), and
    t = sum b_M^2, the trace of the unnormalised conditioned state."""
    _require_count(n_m)
    try:
        log_factorial = math.lgamma(n_m + 1)
    except OverflowError:  # n_m above ~2.6e305
        raise DomainError("photon count too large: log(n_m!) exceeds the double range") from None
    a = joint.state.amplitudes
    cm = joint.c * joint.state.m_values()
    with np.errstate(divide="ignore"):
        log_b = np.log(np.abs(a)) - 0.5 * joint.intensities()
        if n_m > 0:
            log_b += n_m * np.log(np.abs(cm))
    shift = float(np.max(log_b))
    if shift == -np.inf:
        return np.zeros_like(cm), 0.0, -math.inf
    b = np.copysign(np.exp(log_b - shift), a)
    if n_m % 2:
        b *= np.sign(cm)  # apart from a's sign: a * cm can underflow to 0
    t = float(np.sum(b * b))
    log_p = 2.0 * shift + math.log(t) - log_factorial
    if n_m > 0:
        log_p += n_m * math.log(joint.mu) if joint.mu > 0 else -math.inf
    return b, t, log_p


def log_outcome_probability(joint: JointState, n_m: int) -> float:
    """log P(n_m) of the detected-count law of the joint state."""
    return _condition(joint, n_m)[2]


def collapse(joint: JointState, n_m: int) -> DickeState:
    """Condition the atoms on n_m detected photons.

    The amplitudes become k a / sqrt(t), formed in log space so that every
    nonzero one is kept, and the dephasing grows by (1 - mu) C^2.  Raises
    DomainError when P(n_m) is below 1e-300 or NaN.
    """
    b, t, log_p = _condition(joint, n_m)
    if not log_p >= LOG_PROB_FLOOR:
        raise DomainError(f"outcome n_m={n_m} has probability below 1e-300")
    b *= 1.0 / math.sqrt(t)  # a reciprocal, not a division: keeps seeded outputs bit-stable
    dephasing = joint.state.dephasing + (1.0 - joint.mu) * joint.c * joint.c
    return DickeState(b, dephasing)


def sample_outcome(joint: JointState, rng: np.random.Generator) -> int:
    """Draw a detected count by Born sampling: branch M, then Poisson(lambda_M)."""
    weights = joint.state.populations()
    weights = weights / weights.sum()
    idx = rng.choice(weights.size, p=weights)
    lam = float(joint.intensities()[idx])
    if lam == 0.0:
        return 0
    try:
        return int(rng.poisson(lam))
    except ValueError as exc:  # numpy's sampler stops near lambda = 9.2e18
        raise DomainError(f"cannot sample a count at lambda = {lam:.4g}: {exc}") from exc


@dataclass(frozen=True)
class PulseSpec:
    """One pulse in a sequential run: strength, efficiency, optional forced outcome.
    Its values are checked where they are used, by JointState and collapse."""

    c: float
    mu: float = 1.0
    force_n: int | None = None


@dataclass(frozen=True)
class PulseResult:
    """One pulse's outcome; asdict() of it is its trajectory.jsonl record after the seed."""

    pulse_index: int
    C: float
    mu: float
    n_m: int
    post_var_Sz: float
    post_xi: float | None


@dataclass(frozen=True)
class TrajectoryRun:
    """Seeded sequence of pulse outcomes, the final state and, when collected,
    each pulse's detected-count law; replaying the seed reproduces it."""

    seed: int
    pulses: tuple[PulseResult, ...]
    final_state: DickeState
    distributions: tuple[PhotonDistribution, ...] | None = None

    def to_jsonl(self) -> str:
        """One JSON object per pulse: the seed, then the PulseResult fields in order."""
        return "".join(json.dumps({"seed": self.seed, **asdict(p)}) + "\n" for p in self.pulses)


def run_trajectory(
    initial: DickeState,
    pulses: list[PulseSpec],
    seed: int,
    collect_distributions: bool = False,
) -> TrajectoryRun:
    """Run a sequence of pulses with Born-sampled (or forced) outcomes.

    Each mu < 1 pulse adds (1 - mu) C^2 to the dephasing of the state; the
    state stays pure while every detection so far was perfect.  With
    collect_distributions, the detected-count law of every pulse is recorded
    before its outcome.  A DickesimError in pulse i is raised again as the
    same type with its message prefixed "pulse i: ".
    """
    rng = np.random.default_rng(seed)
    results: list[PulseResult] = []
    dists: list[PhotonDistribution] = []
    state = initial

    for idx, spec in enumerate(pulses):
        try:
            joint = apply_pulse(state, spec.c, spec.mu)
            if collect_distributions:
                dists.append(photon_distribution(joint))
            n_m = spec.force_n if spec.force_n is not None else sample_outcome(joint, rng)
            state = collapse(joint, n_m)
            moments = spin_moments(state)
        except DickesimError as exc:
            raise type(exc)(f"pulse {idx}: {exc}") from exc
        results.append(PulseResult(idx, spec.c, spec.mu, n_m, moments.var_sz, moments.xi))

    return TrajectoryRun(
        seed=seed,
        pulses=tuple(results),
        final_state=state,
        distributions=tuple(dists) if collect_distributions else None,
    )

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
a pure state stays pure.  The trace of the conditioned state is
P(n) n!/mu^n, so the outcome probability and the collapse share one sum.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DickesimError, DomainError
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


def _kernel_diagonal(joint: JointState, n_m: int) -> tuple[np.ndarray, float, float]:
    """(k, t, log P(n_m)) with k the kernel diagonal scaled so max rho_MM k_M^2 = 1
    and t = sum rho_MM k_M^2, the trace of the unnormalised conditioned state."""
    if n_m < 0:
        raise DomainError(f"photon count must be >= 0, got {n_m}")
    try:
        log_factorial = math.lgamma(n_m + 1)
    except OverflowError:  # n_m above ~2.6e305
        raise DomainError("photon count too large: log(n_m!) exceeds the double range") from None
    cm = joint.c * joint.state.m_values()
    log_k = -0.5 * joint.intensities()
    if n_m > 0:
        with np.errstate(divide="ignore"):
            log_k = log_k + n_m * np.log(np.abs(cm))
    pop = joint.populations()
    with np.errstate(divide="ignore"):
        log_w = np.log(pop, out=np.full(pop.shape, -np.inf), where=pop > 0) + 2.0 * log_k
    shift = float(np.max(log_w))
    if shift == -np.inf:
        return np.zeros_like(cm), 0.0, -math.inf
    k = np.exp(log_k - 0.5 * shift, out=np.zeros_like(cm), where=pop > 0)
    if n_m % 2:
        k *= np.sign(cm)
    t = float(np.sum(pop * k * k))
    log_p = shift + math.log(t) - log_factorial
    if n_m > 0:
        log_p += n_m * math.log(joint.mu) if joint.mu > 0 else -math.inf
    return k, t, log_p


def log_outcome_probability(joint: JointState, n_m: int) -> float:
    """log P(n_m) of the detected-count law of the joint state."""
    return _kernel_diagonal(joint, n_m)[2]


def collapse(joint: JointState, n_m: int) -> DickeState:
    """Condition the atoms on n_m detected photons.

    The amplitudes become k * a / sqrt(t) and the dephasing grows by
    (1 - mu) C^2.  Raises ConditioningError when P(n_m) < 1e-300.
    """
    k, t, log_p = _kernel_diagonal(joint, n_m)
    if log_p < LOG_PROB_FLOOR:
        raise ConditioningError(f"outcome n_m={n_m} has probability below 1e-300")
    state = joint.state
    k *= state.amplitudes
    k *= 1.0 / math.sqrt(t)  # a reciprocal, not a division: keeps seeded outputs bit-stable
    dephasing = state.dephasing + (1.0 - joint.mu) * joint.c * joint.c
    return DickeState(k, dephasing)


def sample_outcome(joint: JointState, rng: np.random.Generator) -> int:
    """Draw a detected count by Born sampling: branch M, then Poisson(lambda_M)."""
    weights = joint.populations()
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
    """One pulse in a sequential run: strength, efficiency, optional forced outcome."""

    c: float
    mu: float = 1.0
    force_n: int | None = None

    def __post_init__(self):
        if not self.c >= 0:  # also rejects nan
            raise DomainError(f"pulse strength must be >= 0, got {self.c}")
        if not 0.0 <= self.mu <= 1.0:
            raise DomainError(f"efficiency must lie in [0,1], got {self.mu}")
        if self.force_n is not None and self.force_n < 0:
            raise DomainError(f"forced outcome must be >= 0, got {self.force_n}")


@dataclass(frozen=True)
class PulseResult:
    pulse_index: int
    c: float
    mu: float
    n_m: int
    post_var_sz: float
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
        """One JSON object per pulse; field order fixed:
        seed, pulse_index, C, mu, n_m, post_var_Sz, post_xi."""
        return "".join(
            json.dumps(
                {
                    "seed": self.seed,
                    "pulse_index": p.pulse_index,
                    "C": p.c,
                    "mu": p.mu,
                    "n_m": p.n_m,
                    "post_var_Sz": p.post_var_sz,
                    "post_xi": p.post_xi,
                }
            )
            + "\n"
            for p in self.pulses
        )


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
    initial.require_normalized()
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
        results.append(
            PulseResult(
                pulse_index=idx,
                c=spec.c,
                mu=spec.mu,
                n_m=n_m,
                post_var_sz=moments.var_sz,
                post_xi=moments.xi,
            )
        )

    return TrajectoryRun(
        seed=seed,
        pulses=tuple(results),
        final_state=state,
        distributions=tuple(dists) if collect_distributions else None,
    )

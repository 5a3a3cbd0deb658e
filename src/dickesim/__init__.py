"""Conditional atomic entanglement from photon counting in one output channel.

Exact Dicke-basis simulation of pulsed Faraday scattering: photon-count
statistics, conditional collapse at any detection efficiency,
sequential-pulse trajectories, cat-state structure, and the
squeezing/decoherence trade-off, validated against a truncated-Fock oracle.
"""

__version__ = "0.1.0"

from .spin_basis import (
    SpinQuantum,
    DickeState,
    SpinMoments,
    initial_coherent_spin_state,
    spin_moments,
    mean_spin_with_decay,
)
from .pulse_scattering import (
    PulseStrength,
    JointState,
    PhotonDistribution,
    apply_pulse,
    photon_distribution,
    photon_moments_closed_form,
    photon_moments_numeric,
    faraday_variance_operator,
    distribution_peaks,
)
from .detection import (
    PulseSpec,
    TrajectoryRecord,
    TrajectoryRun,
    collapse,
    log_outcome_probability,
    sample_outcome,
    run_trajectory,
)
from .cat_analysis import (
    PeakReport,
    cat_peak_location,
    cat_peak_width,
    null_width,
    cat_squeezing_xi_x,
    cat_coherence,
)
from .physical_params import (
    PhysicalConfig,
    DerivedStrengths,
    c_spon,
    measurement_strength,
    optical_depths,
    faraday_angle,
    squeezing_with_decay,
    optimal_strength,
    inefficiency_optimum,
)
from .fock_oracle import (
    TruncatedJointState,
    oracle_evolve,
    oracle_project,
    oracle_detect,
    oracle_sequence,
)

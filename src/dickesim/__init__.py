"""Conditional atomic entanglement from photon counting in one output channel.

Exact Dicke-basis simulation of pulsed Faraday scattering: photon-count
statistics, conditional collapse at any detection efficiency,
sequential-pulse trajectories, cat-state structure, and the
squeezing/decoherence trade-off, validated against a truncated-Fock oracle.
"""

__version__ = "0.1.0"

# each module's __all__ is its public API, listed there once
from .spin_basis import *
from .pulse_scattering import *
from .detection import *
from .cat_analysis import *
from .physical_params import *
from .fock_oracle import *

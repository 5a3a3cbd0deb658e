"""Exception hierarchy shared by all dickesim modules."""


class DickesimError(Exception):
    """Base class for all dickesim errors."""


class DomainError(DickesimError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class ContractViolationError(DickesimError):
    """An input violates a documented precondition (e.g. unnormalized state)."""


class ConditioningError(DickesimError):
    """Requested measurement outcome is numerically impossible (P < 1e-300)."""


class TruncationError(DickesimError):
    """A truncated distribution or Fock space leaks more mass than allowed."""


class ShapeError(DickesimError):
    """A distribution does not have the shape required by the operation."""


class ConsistencyError(DickesimError):
    """Internal cross-check failed (closed form vs numerical disagreement)."""


class ConfigError(DickesimError, ValueError):
    """Malformed physical configuration input."""

"""The dickesim exception hierarchy: each class carries its CLI exit code and stderr label."""


class DickesimError(Exception):
    """Base class for all dickesim errors; DomainError inherits its exit code and label."""

    exit_code, label = 2, "error"


class ConfigError(DickesimError, ValueError):
    """A command line or a physical configuration that cannot be read."""

    exit_code, label = 1, "error"


class DomainError(DickesimError, ValueError):
    """A value outside an operation's domain: an argument out of range, an unnormalised
    state, an outcome below probability 1e-300, a leaking truncation or a shape a routine needs."""


class ConsistencyError(DickesimError):
    """Internal cross-check failed (closed form vs numerical disagreement)."""

    exit_code, label = 3, "internal consistency failure"

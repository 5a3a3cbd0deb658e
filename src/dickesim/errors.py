"""Exception hierarchy shared by all dickesim modules: one class per CLI exit code."""


class DickesimError(Exception):
    """Base class for all dickesim errors."""


class ConfigError(DickesimError, ValueError):
    """Exit 1: malformed physical configuration input."""


class DomainError(DickesimError, ValueError):
    """Exit 2: a value outside an operation's domain: an argument out of range, an unnormalised
    state, an outcome below probability 1e-300, a leaking truncation or a shape a routine needs."""


class ConsistencyError(DickesimError):
    """Exit 3: internal cross-check failed (closed form vs numerical disagreement)."""

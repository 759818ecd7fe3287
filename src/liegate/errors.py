"""Exception taxonomy shared by all liegate modules.

The CLI maps these onto its exit codes: ConfigError -> 2, CausticError
-> 4, every other LiegateError (DomainError and its other subclasses,
IntegrationError, ConsistencyError) -> 3.  Any other exception is a
genuine bug; the CLI reports it as an internal error, exit code 5.
"""


class LiegateError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LiegateError):
    """Input outside an operation's mathematical domain."""


class ConfigError(LiegateError):
    """Malformed run configuration (bad type, unknown key, missing field)."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class CausticError(DomainError):
    """Time at or beyond the first focal point of a parameter trajectory."""

    def __init__(self, message: str, valid_to: float | None = None):
        super().__init__(message)
        self.valid_to = valid_to


class ResonanceError(DomainError):
    """Closed-form denominator vanishes (resonant drive)."""


class IntegrationError(LiegateError):
    """Adaptive integration failed (step-size underflow, event blow-up or
    work budget spent)."""

    def __init__(self, message: str, last_time: float | None = None):
        super().__init__(message)
        self.last_time = last_time


class ConsistencyError(LiegateError):
    """Internal invariant violated (e.g. algebra closure failure)."""

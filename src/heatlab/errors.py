"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ValidationError -> 2,
InconclusiveError -> 3, NumericalError (and subclasses) -> 4.
"""


class HeatLabError(Exception):
    """Base class for all package errors."""


class ValidationError(HeatLabError):
    """Bad user input: malformed config, unknown fixture, inconsistent arguments."""


class InconclusiveError(HeatLabError):
    """A limit could not be certified within the ambient truncation."""


class NumericalError(HeatLabError):
    """A numerical procedure failed (singular restriction, nonconvergence, ...)."""


class NegativeLambda0Error(NumericalError):
    """The standing assumption lambda0 >= 0 is violated for the given operator."""

    def __init__(self, lambda0, message=None):
        self.lambda0 = lambda0
        super().__init__(message or f"principal eigenvalue is negative: {lambda0}")


class NoSignChangeError(NumericalError):
    """The sought transition lies outside the given bracket."""


class QuadratureError(NumericalError):
    """Time quadrature failed its step-halving self check."""

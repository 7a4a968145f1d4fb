"""Error taxonomy shared across the package."""


class LiqscreenError(Exception):
    """Base class for all package-specific errors."""


class DomainError(LiqscreenError):
    """An argument lies outside the domain a routine is defined on."""


class BracketError(LiqscreenError):
    """A root bracket does not contain a sign change."""


class ConvergenceError(LiqscreenError):
    """An iteration hit its budget before meeting tolerance.

    Carries the last iterate so callers can inspect how close it got.
    """

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


class DegeneracyError(LiqscreenError):
    """A model configuration makes the requested quantity ill-defined."""


class SingularityError(LiqscreenError):
    """A quantity a solver divides by vanishes; t is the type where it first does."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t

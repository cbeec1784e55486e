"""Exception hierarchy shared by all heatlab modules.

An input past a size limit (the zoomed runs' step budget, a sweep's
combination count) is a :class:`ConfigurationError`, like any other bad
input: it fails before any step.
"""


class HeatlabError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(HeatlabError, ValueError):
    """A run or object was set up with inconsistent or unusable parameters."""


class DomainError(HeatlabError, ValueError):
    """An evaluation was requested outside the mathematical domain of validity."""


class NumericalError(HeatlabError, RuntimeError):
    """An iterative procedure failed to converge or a linear solve broke down."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


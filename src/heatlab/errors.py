"""Exception hierarchy shared by all heatlab modules."""


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


class BudgetError(HeatlabError, RuntimeError):
    """A requested computation exceeds the configured step/time budget."""

    def __init__(self, message, limiting_parameter=None):
        super().__init__(message)
        self.limiting_parameter = limiting_parameter


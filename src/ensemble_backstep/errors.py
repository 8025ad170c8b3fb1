"""Exception types shared across the package."""


class EnsembleBackstepError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(EnsembleBackstepError):
    """A run configuration is invalid (bad value, failed CFL precheck, ...)."""


class DimensionError(EnsembleBackstepError):
    """A sample array does not match the grid it is used with."""


class DomainError(EnsembleBackstepError):
    """A query point lies outside the admissible domain."""


class NonconvergenceError(EnsembleBackstepError):
    """An iteration failed to converge within its budget.

    Attributes
    ----------
    final_delta : float or None
        Size of the last increment when the budget ran out, if applicable.
    """

    def __init__(self, message, final_delta=None):
        super().__init__(message)
        self.final_delta = final_delta


class NumericError(EnsembleBackstepError):
    """A computation produced or received non-finite values, or values the
    grid does not resolve."""


class DivergenceError(EnsembleBackstepError):
    """A simulation blew up; carries the last time with finite state.

    Attributes
    ----------
    t : float
        Last simulated time at which the state was still finite.
    """

    def __init__(self, message, t):
        super().__init__(message)
        self.t = t

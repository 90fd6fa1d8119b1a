"""Exception hierarchy shared by all ris_lab modules.

The CLI maps these onto exit codes: config problems -> 2, numerical
validity problems -> 3, I/O problems -> 4.
"""


class RisLabError(Exception):
    """Base class for all ris_lab errors."""


class InvalidParameterError(RisLabError, ValueError):
    """A scalar or dimension argument violates its documented domain."""


class ConfigValidationError(RisLabError, ValueError):
    """An experiment configuration is inconsistent or infeasible."""


class IllConditionedError(RisLabError):
    """A linear system is singular or numerically unusable.

    Carries the estimated condition number when available.
    """

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond


class DegenerateConfigError(RisLabError):
    """A configuration makes an operation meaningless (e.g. zero MRT norm)."""


class BoundInvalidError(RisLabError):
    """The eavesdropper capacity bound is outside its validity region.

    Raised when the moment-matched Wishart degrees of freedom do not
    exceed the eavesdropper antenna count, or when a bound denominator
    turns non-positive.
    """


class InfiniteEveCapacityError(RisLabError):
    """No AN and no transmit distortion: the eavesdropper SINR diverges."""


class NoRealRootError(RisLabError):
    """The secrecy gap falls from xi = 0 on: it is negative at every power split."""


class IllConditionedWarning(UserWarning):
    """Attached to results computed from a badly conditioned system."""

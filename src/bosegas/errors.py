"""Exception types shared across the package."""

from __future__ import annotations


class BosegasError(Exception):
    """Base class for all package errors."""


class InvalidPotential(BosegasError, ValueError):
    """Potential parameters violate the repulsive / finite-range contract."""


class NotConverged(BosegasError):
    """A solve failed or left a residual above its tolerance."""

    def __init__(self, message: str, last_delta: float | None = None):
        super().__init__(message)
        self.last_delta = last_delta


class RegionUndefined(BosegasError):
    """A trial state occupies a mode whose lambda is missing, non-finite or zero.

    `fock.weight_f` is its only raiser.
    """


class BudgetExceeded(BosegasError):
    """An enumeration grew past its configured budget."""


class ZeroConditionProbability(BosegasError):
    """A conditional statistic was requested on an event of probability zero."""


class IdentityViolation(BosegasError):
    """Input data fail an exact identity beyond the allowed tolerance."""


class ConfigInvalid(BosegasError, ValueError):
    """A run configuration failed validation."""


class EmptyAnnulus(BosegasError, ValueError):
    """A shell sum's annulus holds no lattice shell at the schedule's spacing."""


class DivergentIntegrand(BosegasError, ValueError):
    """A lattice summand evaluated to a non-finite value on an included mode."""

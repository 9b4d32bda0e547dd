"""Exception and warning types shared across the package."""


class ThermalOpsError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(ThermalOpsError, ValueError):
    """A physical parameter is outside its admissible range."""


class ConsistencyError(ThermalOpsError):
    """An internal numerical invariant was violated beyond rounding level.

    Raised when a quantity that is mathematically guaranteed (probability
    normalization, variance positivity, PCC bounds) drifts by more than the
    tolerance that separates rounding noise from logic bugs.
    """


class DegenerateCycleError(ThermalOpsError):
    """The composed cycle map is (numerically) the identity, so its fixed
    point is not unique."""


class RegimeMismatchError(ThermalOpsError):
    """Interaction strengths of a config do not match the requested
    closed-form regime."""


class ZeroHeatError(ThermalOpsError):
    """Efficiency is undefined because the hot-bath heat vanishes."""


class ZeroWorkError(ThermalOpsError):
    """Variance-to-work ratio is undefined because the work mean vanishes."""


class CountingOverflowError(ThermalOpsError):
    """Counting-field evaluation would exceed the floating-point exponent
    budget."""


class NonPrimitiveMapError(ThermalOpsError):
    """The untilted cycle map is not primitive, so the dominant eigenvalue
    is degenerate and scaled cumulants are undefined."""


class ZeroVarianceError(ThermalOpsError):
    """Single-cycle work variance vanishes; correlation coefficients are
    undefined."""


class EnumerationSizeError(ThermalOpsError):
    """Requested cycle count exceeds the exact-enumeration budget."""


class TruncationError(ThermalOpsError):
    """Fock-space truncation is too small for the requested thermal tail
    bound."""


class NotAnEngineWarning(UserWarning):
    """Configuration operates outside the heat-engine regime (W <= 0)."""


class NoInteriorMaximumWarning(UserWarning):
    """Coarse scan placed the maximum at a range endpoint; the search range
    is probably too narrow."""


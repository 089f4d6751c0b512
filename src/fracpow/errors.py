"""Exception types shared by all fracpow modules.

The CLI maps these onto exit codes: UsageError exits 2, everything
else derived from FracpowError exits 1, InternalError included.
"""


class FracpowError(Exception):
    """Base class for all errors raised by this package."""

    kind = "error"


class UsageError(FracpowError):
    """The call shape is wrong (mismatched cutoffs, malformed flags)."""

    kind = "usage"


class DomainError(FracpowError):
    """An input lies outside the documented domain of an operation."""

    kind = "domain"


class NotInvertibleError(DomainError):
    """Series with zero constant term passed where a unit is required."""

    kind = "not-invertible"


class HypothesisError(FracpowError):
    """A theorem-level hypothesis on the form coefficients fails."""

    kind = "hypothesis"


class CapacityError(FracpowError):
    """Input needs factorizations beyond the configured sieve limit."""

    kind = "capacity"


class InternalError(FracpowError):
    """A self-check of the library failed: a bug, not a bad input."""

    kind = "internal"

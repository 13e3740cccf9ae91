"""Exception types shared across the package."""


class SumsetCoverError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(SumsetCoverError):
    """Operands live over different moduli or ambient dimensions."""


class EnumerationTooLarge(SumsetCoverError):
    """An operation would enumerate more points/monomials than the cap allows."""


class DegreeTooHigh(SumsetCoverError):
    """A polynomial exceeds the total-degree budget of the requested split."""


class BoundViolated(SumsetCoverError):
    """A certified inequality failed; signals a bug upstream, not bad input."""


class SearchTooLarge(SumsetCoverError):
    """An exhaustive subset search exceeds the configured cap."""


class ParseError(SumsetCoverError):
    """An instance file is unreadable or structurally malformed."""


class ValidationError(SumsetCoverError):
    """An instance file parses but carries out-of-range or inconsistent data."""


class PreconditionFailed(SumsetCoverError):
    """A checker was invoked on input that fails its stated precondition."""

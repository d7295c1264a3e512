"""Exception types shared across the package."""


class StreamviError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(StreamviError):
    """Operands have incompatible dimensions."""


class NotNegativeDefinite(StreamviError):
    """A natural-parameter matrix is not negative definite."""


class NotSPD(StreamviError):
    """A covariance matrix lost positive definiteness."""


class BadBounds(StreamviError):
    """Clipping bounds are empty or inverted."""


class MissingBound(StreamviError):
    """Accept-reject sampling requested without an upper bound on the potential."""


class DegenerateRow(StreamviError):
    """An importance-weight row has zero total mass."""


class NonFiniteStatistic(StreamviError):
    """A particle statistic became NaN or infinite."""


class ModelMismatch(StreamviError):
    """An operation requires a different model class."""


class ConflictingSetting(StreamviError):
    """Two places that set one knob hold different values."""

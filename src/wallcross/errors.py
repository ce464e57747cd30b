"""Exception types shared across the package.

Every error raised by library code derives from WallcrossError so callers
(and the CLI) can distinguish computation failures from programming bugs.
"""


class WallcrossError(Exception):
    """Base class for all library errors."""


class PoleError(WallcrossError):
    """A fractional-linear map was evaluated at its pole."""


class DegenerateMapError(WallcrossError):
    """A fractional-linear map with vanishing determinant was requested."""


class MissingDataError(WallcrossError):
    """A family record lacks the fields needed for the requested operation."""


class OutOfRangeError(WallcrossError):
    """A coordinate fell outside the open unit interval."""


class BadCodimError(WallcrossError):
    """A codimension outside 0..k was requested."""


class DimensionMismatchError(WallcrossError):
    """Vector or point length does not match the ambient dimension."""


class UnsupportedDimensionError(WallcrossError):
    """A diagram format does not support the requested number of factors."""


class MismatchedWallSetsError(WallcrossError):
    """Factors grouped for folding do not carry identical wall sets."""


class ArityError(WallcrossError):
    """A product-map classification needs exactly two factor slots."""


class GroupTooLargeError(WallcrossError):
    """Generator closure exceeded the configured group-order bound."""


class BoundExceededError(WallcrossError):
    """A brute-force enumeration exceeded its configured bound."""


class UnsupportedError(WallcrossError):
    """The requested configuration is outside the supported range."""


class ConsistencyError(WallcrossError):
    """A cross-check that must hold did not."""

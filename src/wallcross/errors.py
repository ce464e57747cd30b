"""Exception types shared across the package.

Library code refuses in two families.  A ValueError means malformed input:
a value that is not a rational, an overlay record with a bad field, walls
out of order.  A WallcrossError subclass means a valid input asks for what
cannot be done: a pole, a missing wall table, a bound exceeded, a failed
cross-check.  The CLI exits 2 on either; anything else (TypeError and
AttributeError from Python's own protocols among them) is a programming bug.
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

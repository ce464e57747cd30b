"""Exception types shared across the package.

Library code refuses in two families.  A plain ValueError means malformed
input: a value that is not a rational, an overlay record with a bad field,
walls out of order, a point outside (0, 1) or of the wrong length, a
codimension outside 0..k, a degenerate map, unequal wall sets grouped for
folding, a product map of other than two slots.  A WallcrossError means a
valid input asks for what cannot be done, in one of five kinds: a pole, a
missing wall table, a bound exceeded, an unsupported configuration, a failed
cross-check.  The CLI exits 3 on a failed cross-check and 2 on any other of
these; anything else (TypeError and AttributeError from Python's own protocols
among them) is a programming bug.
"""


class WallcrossError(Exception):
    """Base class for all library errors."""


class PoleError(WallcrossError):
    """A fractional-linear map was evaluated at its pole."""


class MissingDataError(WallcrossError):
    """A family record lacks the fields needed for the requested operation."""


class BoundExceededError(WallcrossError):
    """An enumeration or a generated group exceeded its configured bound."""


class UnsupportedError(WallcrossError):
    """The requested configuration is outside the supported range."""


class ConsistencyError(WallcrossError):
    """A cross-check that must hold did not."""

"""Exception types shared across the package, and the one integer rule."""

import operator


class RingError(Exception):
    """Base class for all fusion-ring errors."""


class MalformedRingError(RingError):
    """Structurally broken input: dual not an involution, bad indices, ..."""


class RingFormatError(RingError):
    """Unparseable or schema-violating JSON input."""


class NonConvergenceError(RingError):
    """Power iteration failed to converge (signals a broken ring)."""


class InconsistentGradingError(RingError):
    """Fusion components do not multiply single-valuedly."""


class FixedPointError(RingError):
    """De-equivariantization subgroup has a fixed simple."""

    def __init__(self, message, invertible=None, fixed=None):
        super().__init__(message)
        self.invertible = invertible
        self.fixed = fixed


class NotASubgroupError(RingError):
    """De-equivariantization input is not a subgroup of the invertibles."""


class DegenerateGradeError(RingError):
    """The requested graded piece is empty."""


class SearchCapExceededError(RingError):
    """The completion search exceeded its node budget."""


class NoSolutionError(RingError):
    """No completion satisfies the constraints; carries the first conflict."""

    def __init__(self, message, conflict=None):
        super().__init__(message)
        self.conflict = conflict


class NonUniqueCompletionError(RingError):
    """A generator graph admitted several ring completions where one was
    required."""


class InvalidActionError(RingError):
    """Group action matrix is not a valid module structure for the acting
    group (not invertible, or its order does not divide the group order)."""


class BoundsExceededError(RingError):
    """A computation asked to run outside the bounds it is exact or
    affordable in: the bar-complex H^2 oracle past m <= 12, |A| <= 16,
    associativity sums that could reach 2**53 (ring.check_exact_sums), or a
    dense array past config.MAX_DENSE_BYTES (ring.check_dense)."""


class UnknownFamilyError(RingError):
    """Catalog lookup for a family that is not in the tables."""


def as_integer(value, error):
    """``value`` as an int if it is a Python or numpy integer; anything else,
    a ``bool`` included, raises the exception class ``error`` instead of
    being truncated or read as 0 or 1."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise error("expected an integer, got %r" % (value,)) from None

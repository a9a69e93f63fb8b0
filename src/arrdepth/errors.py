"""Exception types shared across the package."""


class ArrDepthError(Exception):
    """Base class for all package errors."""


class InvalidHyperplane(ArrDepthError):
    """Raised for a degenerate hyperplane (zero normal, negative weight)."""


class DimensionError(ArrDepthError):
    """Raised when a point/vector has the wrong number of coordinates."""


class GenerationError(ArrDepthError):
    """Raised when the instance generator exhausts its retry budget."""


class InvalidDirection(ArrDepthError):
    """Raised for a zero direction vector."""


class NoDeepPoint(ArrDepthError):
    """Raised when asked for a deepest point of an empty arrangement."""


class PartitionError(ArrDepthError):
    """Raised for a structurally invalid partition of an arrangement."""


class ExactBudgetExceeded(ArrDepthError):
    """Raised when an exact combinatorial search exceeds its instance-size budget.

    Carries an optional lower ``bound`` established before giving up.
    """

    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


class CertificateError(ArrDepthError):
    """Raised for malformed certificates (bad indices, overlapping groups, ...)."""


class OriginIncidenceError(ArrDepthError):
    """Raised when a hyperplane passes through the origin where that is disallowed."""


class FlatError(ArrDepthError):
    """Raised for a dependent basis of a linear flat."""


class FlatMembershipError(ArrDepthError):
    """Raised when a query point does not lie on the required flat."""


class PrecisionExceeded(ArrDepthError):
    """Raised when the planar center-transversal solver exhausts its exact
    critical directions without a verified solution."""

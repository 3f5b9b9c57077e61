"""Exception types shared across the package."""


class SphereGeomError(Exception):
    """Base class for all geometric errors raised by this package."""


class DegenerateArc(SphereGeomError):
    """Arc endpoints are equal or antipodal; no unique great circle."""


class DegenerateLune(SphereGeomError):
    """Lune poles are equal or antipodal; thickness is not defined."""


class AmbiguousSide(SphereGeomError):
    """A side hint is orthogonal to the pole line and cannot pick a sign."""


class InvalidBody(SphereGeomError):
    """A convex body failed validation and cannot be used."""


class NotOnBoundary(SphereGeomError):
    """A query point is not on the boundary of the body."""


class NotSelfDual(SphereGeomError):
    """The operation requires a body equal to its polar dual."""


class NotSupporting(SphereGeomError):
    """The given hemisphere does not support the body."""


class NotStrictlyConvex(SphereGeomError):
    """The operation requires a small-circle (strictly convex) piece."""


class DualOverlap(SphereGeomError):
    """The dual arc of a chord is missing or collides with the primal arc.

    Callers should refine the subdivision and retry.
    """


class NotConstantWidth(SphereGeomError):
    """The input body is not of constant width pi/2 within tolerance."""


class BudgetExhausted(SphereGeomError):
    """A construction needs more work than its fixed limit allows.

    Raised when epsilon is so small that one arc interval would need
    ``approx.MAX_SUBARCS`` or more chords, before anything is built, and
    when the self-dual completion runs out of insertions.  Carries the best
    body reached so far, if any, in ``partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class CertificationFailed(SphereGeomError):
    """An independently recomputed certificate bound was violated.

    ``bound`` names the violated quantity.
    """

    def __init__(self, message, bound=None):
        super().__init__(message)
        self.bound = bound


class SeedNotSubdual(SphereGeomError):
    """A completion seed is not contained in its own polar dual."""


class BadRadius(SphereGeomError):
    """Cap radius outside the open interval (0, pi/2)."""


class FarPair(SphereGeomError):
    """A point of one body lies pi/2 or more from the other, where the closed-form Hausdorff distance does
    not hold (``metrics.boundary_sup_distance``)."""

"""Computational geometry of spherical convex bodies of constant width pi/2.

Provides exact spherical primitives, piecewise-circular convex bodies with
polar duality, certified width/diameter/Hausdorff metrics, generators of
self-dual test bodies, and the chord-cut algorithm approximating any
constant-width-pi/2 body by a polytope of the same width within a prescribed
Hausdorff distance.
"""

from .sphere import (
    GreatArc,
    SmallCircleArc,
    arc_pole,
    arcs_intersect,
    geodesic_distance,
    lune_thickness,
    point_to_piece_distance,
    sample_piece,
    unit,
)
from .body import (
    ConvexBody,
    Polytope,
    SupportSet,
    ValidationReport,
    contains,
    diametral_partner,
    polar_dual,
    support_poles_at,
    to_polytope,
    validate,
    validate_polytope,
)
from .metrics import (
    WidthReport,
    diameter,
    hausdorff,
    is_constant_width,
    self_duality_residual,
    thickness,
    width_wrt,
)
from .approx import (
    ApproximationConfig,
    Certificate,
    StepRecord,
    approximate_polytope,
    certify,
    cut_step,
    subdivide_piece,
)
from .generators import (
    cap,
    complete_selfdual,
    octant,
    random_selfdual_polytope,
)
from .formats import dumps_body, loads_body
from .render import render_svg

__all__ = [
    "ApproximationConfig",
    "Certificate",
    "ConvexBody",
    "GreatArc",
    "Polytope",
    "SmallCircleArc",
    "StepRecord",
    "SupportSet",
    "ValidationReport",
    "WidthReport",
    "approximate_polytope",
    "arc_pole",
    "arcs_intersect",
    "cap",
    "certify",
    "complete_selfdual",
    "contains",
    "cut_step",
    "diameter",
    "diametral_partner",
    "dumps_body",
    "geodesic_distance",
    "hausdorff",
    "is_constant_width",
    "loads_body",
    "lune_thickness",
    "octant",
    "point_to_piece_distance",
    "polar_dual",
    "random_selfdual_polytope",
    "render_svg",
    "sample_piece",
    "self_duality_residual",
    "subdivide_piece",
    "support_poles_at",
    "thickness",
    "to_polytope",
    "unit",
    "validate",
    "validate_polytope",
    "width_wrt",
]

__version__ = "0.1.0"

"""Hemispherical convex bodies with piecewise-circular boundaries.

A body is a closed cyclic chain of boundary pieces plus an interior witness
point.  Every piece is a circle arc in the one parametrisation of ``sphere``
(centre z, radius r, tangent frame, parameter range), a great arc being the
r = pi/2 case.  A convex body is the intersection of its supporting
hemispheres, so a point x is a member when x . K >= -tol for every support
pole K; membership and boundary distance evaluate all pieces of a body in
one numpy expression over its stacked arrays (``ConvexBody.arcs``), in
blocks of at most ``BLOCK_ELEMENTS`` rows x pieces; so do the interior
witness and the dual's corner poles.  That stack is every body's data, and
``ArcStack.great`` tells its great arcs from its small-circle arcs.
Validation is one exact report for every body, polygons included, each
check read off the stacked arcs in closed form.  Every polygon the library
builds is a ``Polytope``, whose edges come from its vertices in one pass
(``sphere.great_arc_stack``); a curved body stacks its pieces once, or
takes its stack as it is (``chain_body``), and is edited on the stack:
``polar_dual`` maps its rows, ``merge_flat`` joins flat junctions.  The
piece objects (``pieces``), validation, junction poles and run pairing are
made from the stack on first use, so neither it nor ``vertices`` may
change after.
The chain is traversed counterclockwise as seen from the interior side: at
every smooth boundary point P with unit tangent T, the support pole of the
body is P x T.  Under that convention polar duality maps pieces to pieces
in traversal order, one stack row to at most two:

* circle arc (Z, r < pi/2, span)  ->  circle arc (Z, pi/2 - r, span + pi)
* great arc (r = pi/2)            ->  its pole, as a dual vertex
* junction vertex                 ->  great arc between the adjacent poles

so the dual of a valid body is again a valid body, and the double dual has
the original's pieces, in the same cyclic order, up to roundoff.  Its chain
need not start at the same piece: a polytope's double dual starts at vertex
1, the pole of the dual edge that joins the poles of edges 0 and 1.

On a self-dual body the pieces pair up along that correspondence: each arc
run with its partner run (``ConvexBody.run_pairing``, one table with a row
per great-arc piece or arc run, built once from the stacked arcs and indexed
by the gate, the chord construction and its certificate), each corner with
a great-arc piece, and a polytope's edge poles with its vertices.  Duality
keeps the cyclic order, so each pairing is a rotation of the chain, with no
search: of R runs, run k pairs with run k + R/2 (an order-keeping
involution that fixes no run), corner k with great-arc piece k + s, and
edge pole i of an n-gon with vertex i + (n + 1) // 2.  The proved bounds on
H(C, C*), ``selfdual_residual_bound`` for a polytope and
``pairing_residual_bound`` for a curved body, are read off those pairings;
``residual_bound`` takes the one that applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .errors import DegenerateArc, InvalidBody, NotOnBoundary, NotSelfDual
from .sphere import (
    BOUNDARY_EPS,
    DOT_EPS,
    TWO_PI,
    ArcStack,
    CircleArc,
    GreatArc,
    Vec,
    acos_clamped_np,
    arc_dot_range,
    arc_pieces,
    cross_rows,
    distance_to_piece,
    great_arc_stack,
    join_stacks,
    max_distance_to_piece,
    min_support_dot,
    norm_rows,
    row_dots,
    small_arc_stack,
    stack_arcs,
    unit,
    unit_rows,
    wrap_angle,
)

# Junction poles closer than this chord distance are treated as one smooth
# support pole.  Must sit above the GreatArc degeneracy floor (~1.4e-6, from
# the 1e-12 dot-product guard) so skipped junctions can never demand an arc
# too short to represent.
POLE_MERGE_EPS = 1e-5
# Radius, azimuth and span tolerance when pairing arc intervals.
PAIR_EPS = 1e-9
# Default residual tolerance when an operation requires a self-dual body.
SELF_DUAL_EPS = 1e-6
# Rows x pieces evaluated per numpy expression by the batched kernels, which
# bounds their temporaries whatever the number of query points.
BLOCK_ELEMENTS = 8192


class ConvexBody:
    """Spherical convex body bounded by a closed chain of pieces.

    Its data is the stack of its arcs, ``arcs``: the pieces given with an
    interior point are stacked once, here, and ``chain_body`` takes a stack
    as it is; a ``Polytope`` stacks its edges from its vertices.  ``pieces``
    is the rows of ``arcs`` as piece objects, made on first read.
    """

    def __init__(self, pieces, interior):
        self.arcs = stack_arcs(pieces)
        self.interior = unit(interior)

    def __repr__(self) -> str:
        return "ConvexBody(pieces=%r, interior=%r)" % (self.pieces, self.interior)

    def circle_piece_indices(self) -> list[int]:
        return np.flatnonzero(~self.arcs.great).tolist()

    def is_polytope(self) -> bool:
        return bool(self.arcs.great.all())

    @cached_property
    def pieces(self) -> list[CircleArc]:
        """The rows of ``arcs`` as piece objects, bit for bit (``sphere.arc_pieces``), made on first read."""
        return arc_pieces(self.arcs)

    @cached_property
    def validation(self) -> ValidationReport:
        """``validate(self)``, run on first read only: the body must not change afterwards."""
        return validate(self)

    @cached_property
    def junction_poles(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The poles k_end, k_next either side of each junction, their chord gap and whether it is a
        corner (a gap above ``POLE_MERGE_EPS``); row i is junction i, from piece i to piece i + 1.  The
        poles are ``arcs.support_pole_at`` of t1 and t0, bit for bit, from the stack's ``end_trig``."""
        a = self.arcs
        cos, sin = a.end_trig
        k_start, k_end = a.sin_r[:, None] * a.z - a.cos_r[:, None] * (cos[..., None] * a.u + sin[..., None] * a.v)
        k_next = _next_rows(k_start)
        gap = norm_rows(k_end - k_next)
        return k_end, k_next, gap, gap > POLE_MERGE_EPS

    @cached_property
    def run_pairing(self) -> RunPairing:
        """The ``_pair_runs`` of the ``_boundary_units`` of ``arcs``, built on first read: the body must
        not change afterwards.  Raises ``NotSelfDual``, on every read, when a run has no partner."""
        return _pair_runs(*_boundary_units(self.arcs))


class Polytope(ConvexBody):
    """Convex body bounded by great arcs, stored by its vertices.

    The edge stack, edges and witness are built from ``vertices`` on first
    use, so ``vertices`` must not change afterwards.
    """

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3:
            raise ValueError("vertices must be an (n, 3) array")
        with np.errstate(over="ignore"):  # inf only past the float range
            norms = np.hypot.reduce(v, axis=1)
        bad = np.flatnonzero(~np.isfinite(norms) | (norms < DOT_EPS))
        if len(bad):
            raise InvalidBody(
                "vertex rows with zero or non-finite norm: "
                + "; ".join("%d %s" % (i, v[i].tolist()) for i in bad)
            )
        self.vertices = unit_rows(v)

    def __repr__(self) -> str:
        return "Polytope(vertices=%r)" % (self.vertices,)

    def __len__(self) -> int:
        return len(self.vertices)

    def is_polytope(self) -> bool:
        return True

    @cached_property
    def arcs(self) -> ArcStack:
        """The edges, edge i from vertex i to vertex i + 1, as stacked arrays in one pass; raises ``DegenerateArc``
        on a repeated vertex."""
        return great_arc_stack(self.vertices, _next_rows(self.vertices))

    @cached_property
    def interior(self) -> Vec:
        # normalised twice on purpose: the second ``unit`` can move the last
        # bits, and every result downstream of the witness keeps these bits
        return unit(unit(self.vertices.mean(axis=0)))

    def edge_poles(self) -> np.ndarray:
        return self.arcs.z.copy()


def as_body(b: ConvexBody) -> ConvexBody:
    """The body itself: every body, a ``Polytope`` included, is a ``ConvexBody``."""
    return b


def to_polytope(body: ConvexBody) -> Polytope:
    """The body as a ``Polytope``: a ``Polytope`` itself, with its caches, or one made from the arc starts.

    The arcs must form a closed chain, each ending within ``BOUNDARY_EPS``
    of the next one's start, or the polygon of the starts would not be the
    body.
    """
    if isinstance(body, Polytope):
        return body
    if not body.is_polytope():
        raise InvalidBody("body still has strictly convex pieces")
    a = body.arcs
    if not len(a) or _closure(a).max() > BOUNDARY_EPS:
        raise InvalidBody("the arcs do not form a closed chain")
    return Polytope(a.start)


def chain_body(arcs: ArcStack, interior: Optional[Vec] = None) -> ConvexBody:
    """The body of the chain of arcs ``arcs``, its pieces made on first read.

    The witness is ``interior`` normalised, or else the mean of five samples
    a piece, which is interior, normalised twice.
    """
    if interior is None:
        interior = unit(arcs.point_at(np.linspace(arcs.t0, arcs.t1, 5)).swapaxes(0, 1).reshape(-1, 3).mean(axis=0))
    body = ConvexBody.__new__(ConvexBody)
    body.arcs, body.interior = arcs, unit(interior)
    return body


# ---------------------------------------------------------------- validation


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    magnitude: float


@dataclass(frozen=True)
class ValidationReport:
    checks: list[ValidationCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def __str__(self) -> str:
        return "; ".join(
            "%s=%s(%.3e)" % (c.name, "ok" if c.passed else "FAIL", c.magnitude)
            for c in self.checks
        )


def _next_rows(x: np.ndarray) -> np.ndarray:
    """``np.roll(x, -1, axis=0)`` in one concatenation: row i holds row i + 1, of the piece after junction i."""
    return np.concatenate((x[1:], x[:1]))


def _closure(a: ArcStack) -> np.ndarray:
    """The chord from each piece's end to the next piece's start, row i for junction i."""
    return norm_rows(a.end - _next_rows(a.start))


def validate(body: ConvexBody) -> ValidationReport:
    """Check the boundary-chain invariants exactly and report each with its worst violation.

    The one report of every body, a ``Polytope`` included, each check read
    off ``body.arcs`` in closed form.  When the stack cannot be built (a
    ``Polytope`` with a repeated vertex) the report is edges-nondegenerate
    alone.  Otherwise: piece count; chain closure; hemisphericity, the
    least x . k over each arc (``arc_dot_range``) for k the interior witness
    or the mean support pole, the integral of K(t) over every arc (an
    interior point of the polar dual certifies containment); support
    orientation, the least w . K over the support poles of each arc
    (``min_support_dot``), which must be positive so that every support
    pole sees the witness w strictly inside, and which also forces
    small-circle arcs to bulge outward; junction convexity and no cusp, from
    the turn about the junction point P from the pole K_end to K_next
    (``ConvexBody.junction_poles``), which is the tangent turn as K = P x T;
    piece non-degeneracy; and no redundant vertices, two great arcs meeting
    at a junction whose poles differ by at most ``BOUNDARY_EPS``.  A body
    should only be used when all pass.
    """
    try:
        a = body.arcs
    except DegenerateArc:
        return ValidationReport([ValidationCheck("edges-nondegenerate", False, 1.0)])
    n = len(a)
    checks = [ValidationCheck("piece-count", n >= 1, float(max(0, 1 - n)))]
    if n == 0:
        return ValidationReport(checks)

    gap = float(_closure(a).max())
    checks.append(ValidationCheck("closure", gap <= BOUNDARY_EPS, gap))

    # candidate hemisphere poles, each against every arc: the witness w, and
    # the mean support pole (an interior point of the polar dual certifies
    # containment exactly), the sum over the arcs of the integral of
    # K(t) = sin r z - cos r (cos t u + sin t v), from the stack's one cos/sin round
    cos, sin = a.end_trig
    ring = (sin[1] - sin[0])[:, None] * a.u + (cos[0] - cos[1])[:, None] * a.v
    pole_sum = ((a.sin_r * a.span)[:, None] * a.z - a.cos_r[:, None] * ring).sum(axis=0)
    w = body.interior
    candidates = np.array([w, unit(pole_sum)]) if math.sqrt(pole_sum.dot(pole_sum)) > DOT_EPS else w[None]
    lo = arc_dot_range(a, candidates[:, None])[0]
    min_dot = float(lo.min(axis=1).max())
    checks.append(ValidationCheck("hemispherical", min_dot >= -BOUNDARY_EPS, -min_dot))

    worst_support = min(1.0, float(min_support_dot(w[None], a).min()))
    checks.append(ValidationCheck("support-orientation", worst_support > DOT_EPS, -worst_support))

    k_end, k_next, pole_gap, _ = body.junction_poles
    turns = np.arctan2((cross_rows(k_end, k_next) * a.end).sum(axis=1), (k_end * k_next).sum(axis=1))
    min_turn, max_turn = float(turns.min()), float(turns.max())
    checks.append(ValidationCheck("convex-turns", min_turn >= -BOUNDARY_EPS, -min_turn))
    checks.append(ValidationCheck("corner-not-cusp", max_turn <= math.pi - 1e-9, max_turn))

    min_len = float((a.span * a.sin_r).min())
    checks.append(ValidationCheck("piece-nondegenerate", min_len > 1e-12, -min_len))

    great = a.great
    flat = float(pole_gap[great & _next_rows(great)].min(initial=np.inf))
    checks.append(ValidationCheck("no-redundant-vertices", flat > BOUNDARY_EPS, -flat))
    return ValidationReport(checks)


def validate_polytope(poly: Polytope) -> ValidationReport:
    """``poly.validation``, the one report of ``validate``."""
    return poly.validation


def require_valid(body: ConvexBody):
    rep = body.validation
    if not rep.ok:
        raise InvalidBody("invalid body: " + ", ".join(rep.failed()))


# -------------------------------------------------------------- membership


def _blocks(rows: int, pieces: int) -> list[tuple[slice, slice]]:
    """(rows, pieces) blocks of at most ``BLOCK_ELEMENTS`` elements, widest in pieces."""
    r = max(1, min(rows, BLOCK_ELEMENTS))
    k = max(1, BLOCK_ELEMENTS // r)
    return [
        (slice(i, i + r), slice(j, min(j + k, pieces)))
        for i in range(0, rows, r)
        for j in range(0, pieces, k)
    ]


def _reduce_pieces(body: ConvexBody, points: np.ndarray, kernel, reduce, start: float) -> np.ndarray:
    """``reduce`` (``np.minimum`` or ``np.maximum``) of ``kernel`` over all pieces, per row.

    Raises ``InvalidBody`` on a body without pieces, whose empty reduction
    would read as inside everything and nowhere near its boundary.
    """
    if not len(body.arcs):
        raise InvalidBody("body has no pieces")
    x = np.asarray(points, dtype=float)
    d = np.full(len(x), start)
    every = slice(0, len(body.arcs))
    for rows, cols in _blocks(len(x), len(body.arcs)):
        arcs = body.arcs if cols == every else body.arcs[cols]
        d[rows] = reduce(d[rows], reduce.reduce(kernel(x[rows], arcs), axis=1))
    return d


def contains_many(body: ConvexBody, points: np.ndarray, tol: float = BOUNDARY_EPS) -> np.ndarray:
    """Whether each row lies in the body: x . K >= -tol for every support pole K.

    A convex body is the intersection of its supporting hemispheres, so this
    is exact membership with ``tol`` a tolerance on dot products (the sine
    of a distance to a supporting great circle).  One blocked minimum of
    ``min_support_dot`` runs over the pieces.  Junctions need no term of
    their own: the corner poles sweep a great arc from the incoming to the
    outgoing piece's end pole, shorter than pi (the ``corner-not-cusp``
    check), and x . K is a sinusoid along it, which is nonnegative on all
    of an arc shorter than pi when it is nonnegative at both ends.  With
    ``tol > 0`` the accepted band at a corner of turn theta widens to
    tol / cos(theta / 2).  The witness w is inside, and its antipode
    outside, whenever ``tol`` is below the least w . K, which the
    ``support-orientation`` check keeps positive.
    """
    return _reduce_pieces(body, points, min_support_dot, np.minimum, np.inf) >= -tol


def contains(body: ConvexBody, p: Vec, tol: float = BOUNDARY_EPS) -> bool:
    return bool(contains_many(body, np.asarray(p, dtype=float)[None, :], tol)[0])


def boundary_distance_many(body: ConvexBody, points: np.ndarray) -> np.ndarray:
    return _reduce_pieces(body, points, distance_to_piece, np.minimum, np.inf)


def boundary_max_distance_many(body: ConvexBody, points: np.ndarray) -> np.ndarray:
    return _reduce_pieces(body, points, max_distance_to_piece, np.maximum, 0.0)


def body_distance_many(
    body: ConvexBody, points: np.ndarray, tol: float = BOUNDARY_EPS, signed: bool = False
) -> np.ndarray:
    """Geodesic distance to the body: zero inside, or with ``signed`` minus the distance to the boundary.

    Inside and outside are those of ``contains_many``, from one pass of its
    least x . K.  Inside, a corner's sinusoid is least at an end, so that
    dot is the sine of the distance to the boundary; the signed value,
    clipped to 0 in the band, is 1-Lipschitz and at most the distance.
    """
    x = np.asarray(points, dtype=float)
    m = _reduce_pieces(body, x, min_support_dot, np.minimum, np.inf)
    out = ~(m >= -tol)
    d = np.minimum(0.0, -np.arcsin(np.minimum(1.0, m))) if signed else np.zeros(len(x))
    d[out] = boundary_distance_many(body, x[out])
    return d


def body_distance(body: ConvexBody, p: Vec) -> float:
    return float(body_distance_many(body, np.asarray(p, dtype=float)[None, :])[0])


# ------------------------------------------------------------------ duality


def polar_dual(body: ConvexBody) -> ConvexBody:
    """Polar body, with the piecewise-circular structure mapped exactly.

    See the module docstring for the piece-by-piece correspondence.  The
    traversal order of the dual follows the primal order, so the result is a
    valid body and ``polar_dual(polar_dual(c))`` has the pieces of ``c`` up
    to roundoff, in the same cyclic order but not always from the same
    first piece: for a polytope it starts at vertex 1.  A body bounded by
    great arcs has the ``Polytope`` of its corner edge poles, kept bit for bit.
    Any other body has a chain of stacked rows: for each piece i in turn,
    the image (Z, pi/2 - r, t + pi) of a small-circle piece
    (``sphere.small_arc_stack``, which renormalises Z and takes its frame),
    then the great arc of junction i if it is a corner.
    """
    require_valid(body)
    a = body.arcs
    k_end, k_next, _, corner = body.junction_poles
    if body.is_polytope():
        # every piece maps to a dual vertex and every corner to a great arc
        if not corner.any():
            raise InvalidBody("dual boundary is empty")
        dual = Polytope.__new__(Polytope)  # the unit poles kept bit for bit, which Polytope() would renormalise
        dual.vertices = a.z[corner]
        return dual
    small = ~a.great
    images = small_arc_stack(a.z[small], 0.5 * math.pi - a.radius[small], a.t0[small] + math.pi, a.t1[small] + math.pi)
    corners = great_arc_stack(k_end[corner], k_next[corner])
    return chain_body(join_stacks(images, corners, keys=[2 * np.flatnonzero(small), 2 * np.flatnonzero(corner) + 1]))


def selfdual_residual_bound(poly: Polytope) -> float:
    """Upper bound rho on the Hausdorff distance between a valid polytope P and P*.

    P* is the polar dual, whose vertices are the edge poles w_i of P, in
    order.  With n vertices v_j and s = (n + 1) // 2, pair w_i with
    v_{i+s}: c = max_i |w_i - v_{i+s}| (chord), and l is the longest edge
    of P or of P*.  Then rho = asin(c / cos(l/2)), or inf when the ratio
    reaches 1.  On a self-dual polytope n is odd and the pole of edge i is
    vertex i + s, so c is roundoff; any other pairing still gives a sound,
    only larger, bound.

    Proof.  For x outside P, closer than pi/2 to it, sin d(x, P) is the
    largest -x . K over the support poles K of P, which form the boundary
    of P*: the great arcs [w_i, w_{i+1}].  Take x in P*; then x . v >= 0
    for every vertex v of P, so x . w_i >= x . v_{i+s} - c >= -c.  For
    K = (a w_i + b w_{i+1}) / |a w_i + b w_{i+1}| with a, b >= 0,
    -x . K <= c (a + b) / |a w_i + b w_{i+1}| <= c / cos(l/2), the worst
    case being the midpoint.  So every point of P* is within rho of P.  The
    same argument with P and P* swapped (P** = P, its support poles the
    edges [v_j, v_{j+1}]) bounds the other direction: H(P, P*) <= rho.
    The factor 1/cos(l/2) is needed: the rho-neighbourhood of a spherical
    polygon is not convex (beside an edge it is bounded by a circle of
    radius pi/2 + rho), so matched vertices alone do not bound H.

    Widths follow: for a support pole k of P, width(P, k) is pi minus the
    largest d(k, y) over y in P*; over P that largest distance is exactly
    pi/2 (k . y >= 0 on P, with equality where H(k) touches), and
    y -> d(k, y) is 1-Lipschitz, so |width(P, k) - pi/2| <= rho.  The
    bound holds up to the roundoff of its own evaluation.
    """
    v = poly.vertices
    w = poly.arcs.z
    c = float(np.max(norm_rows(w - np.roll(v, -((len(v) + 1) // 2), axis=0))))
    # cos(l/2) = |a + b| / 2 for the unit ends a, b of an edge of length l
    half = 0.5 * min(float(np.min(norm_rows(x + np.roll(x, -1, axis=0)))) for x in (v, w))
    return math.asin(c / half) if c < half else math.inf


# ---------------------------------------------------------------- run pairing


@dataclass(frozen=True, eq=False)
class RunPairing:
    """``ConvexBody.run_pairing``: one row per boundary unit, in chain order.

    A unit is a great-arc piece, on its own row of ``body.arcs``, or a run of
    consecutive small-circle pieces on one circle as one arc, a full circle
    being two half runs.  ``partner`` is the row of each run's partner, run
    k + R/2 (mod R) of the R runs (``_pair_runs``), -1 on a great arc;
    ``chorded`` marks the first R/2 runs.  Unit k holds
    the pieces ``ids[bounds[k]:bounds[k + 1]]``, each starting ``offsets``
    (0 or less for the first) from the unit's start, in azimuth.
    """

    arcs: ArcStack
    partner: np.ndarray
    chorded: np.ndarray
    bounds: np.ndarray
    ids: np.ndarray
    offsets: np.ndarray

    def piece_at(self, rows: np.ndarray, offset: np.ndarray) -> np.ndarray:
        """Input piece id at each azimuth ``offset`` >= 0 from the start of unit ``rows``."""
        # numpy orders complex numbers by real part, then by imaginary part
        owner = np.repeat(np.arange(len(self.partner)), np.diff(self.bounds))
        k = np.searchsorted(owner + 1j * self.offsets, rows + 1j * (offset + PAIR_EPS), side="right")
        return self.ids[k - 1]


def _boundary_units(a: ArcStack) -> tuple[ArcStack, np.ndarray, np.ndarray, np.ndarray]:
    """The ``arcs``, ``bounds``, ``ids`` and ``offsets`` of the units of the stack ``a``.

    A piece joins the run of the piece before it when both are small-circle
    arcs with the same centre and radius.  The scan starts at the run that
    holds piece 0, so no run wraps the end of the chain.  A full circle is
    split into two half runs, each holding all its pieces.
    """
    m = len(a)
    prev = np.arange(m) - 1  # the piece before each piece
    small = ~a.great
    z, zb = a.z, a.z[prev]
    joins = (
        small
        & small[prev]
        & (zb[:, 0] * z[:, 0] + zb[:, 1] * z[:, 1] + zb[:, 2] * z[:, 2] >= 1.0 - DOT_EPS)
        & (np.abs(a.radius[prev] - a.radius) <= PAIR_EPS)
    )
    breaks = np.flatnonzero(~joins)
    order = (prev + 1 + (int(breaks[-1]) if joins[0] and len(breaks) else 0)) % m
    units, runs = [], []  # per unit its first piece, its pieces and their offsets; the azimuths of each run
    for group in np.split(order, np.flatnonzero(~joins[order[1:]]) + 1):
        first = int(group[0])
        if not small[first]:
            units.append((first, group, np.zeros(1)))
            continue
        spans = a.span[group]
        cover = np.concatenate([[0.0], np.cumsum(spans[:-1])])
        az, span = float(a.t0[first]), float(spans.sum())
        for lo, s in [(az, span)] if span < TWO_PI - PAIR_EPS else [(az, math.pi), (az + math.pi, math.pi)]:
            units.append((first, group, cover - (lo - az)))
            runs.append((lo, lo + s))
    heads, ids, offsets = zip(*units)
    heads = np.array(heads)
    run = small[heads]  # a great-arc unit keeps its piece's row, a run's row is its arc
    lo, hi = np.array(runs, dtype=float).reshape(-1, 2).T
    arcs = small_arc_stack(a.z[heads[run]], a.radius[heads[run]], lo, hi)
    rows = join_stacks(a[heads[~run]], arcs, keys=[np.flatnonzero(~run), np.flatnonzero(run)])
    return rows, np.cumsum([0] + [len(g) for g in ids]), np.concatenate(ids), np.concatenate(offsets)


def _remainder(x: np.ndarray) -> np.ndarray:
    """``math.remainder(x, TWO_PI)`` elementwise, and as exact, except within roundoff of -+pi."""
    return x - TWO_PI * np.rint(x / TWO_PI)


def _pair_runs(arcs: ArcStack, bounds: np.ndarray, ids: np.ndarray, offsets: np.ndarray) -> RunPairing:
    """The ``RunPairing`` of the ``_boundary_units``: run k of the R runs, k < R/2, is chorded and paired with run
    k + R/2 (the rotation of the module docstring), all pairs checked at once for (Z, r) and (Z, pi/2 - r), equal
    spans and starts pi apart.  Raises ``NotSelfDual`` on an odd R or naming the first pair that does not fit."""
    runs = np.flatnonzero(~arcs.great)
    if len(runs) % 2:
        raise NotSelfDual("%d arc runs cannot pair one to one; body is not self-dual" % len(runs))
    i, j = runs[: len(runs) // 2], runs[len(runs) // 2 :]
    fits = (
        (np.sum(arcs.z[i] * arcs.z[j], axis=1) >= 1.0 - DOT_EPS)
        & (np.abs(arcs.radius[i] + arcs.radius[j] - 0.5 * math.pi) <= PAIR_EPS)
        & (np.abs(arcs.span[i] - arcs.span[j]) <= PAIR_EPS)
        & (np.abs(_remainder(arcs.t0[j] - arcs.t0[i] - math.pi)) <= PAIR_EPS)
    )
    if not fits.all():
        k = int(np.argmin(fits))
        msg = "arc run %d (radius %.9f) and its opposite run %d (radius %.9f) differ in centre, radius sum, span or "
        raise NotSelfDual(msg % (k, arcs.radius[i[k]], k + len(i), arcs.radius[j[k]]) + "start; body is not self-dual")
    partner = np.full(len(arcs), -1)
    partner[i], partner[j] = j, i
    return RunPairing(arcs, partner, partner > np.arange(len(arcs)), bounds, ids, offsets)


def run_pairing_or_none(body: ConvexBody) -> Optional[RunPairing]:
    """``body.run_pairing``, or None when a run has no partner."""
    try:
        return body.run_pairing
    except NotSelfDual:
        return None


def _frame(a: ArcStack, rows: np.ndarray) -> np.ndarray:
    """The rows u, v, z of the frame of each arc ``rows`` of ``a``."""
    return np.stack([a.u[rows], a.v[rows], a.z[rows]], axis=-2)


def _run_term(pairing: RunPairing, a: ArcStack) -> float:
    """T, the largest 2 asin(c / 2) over the runs paired in ``pairing`` (see ``pairing_residual_bound``)."""
    # e_R of every run, from its pieces of the stack ``a``
    t, ids, own = pairing.arcs, pairing.ids, np.repeat(np.arange(len(pairing.partner)), np.diff(pairing.bounds))
    frame = np.sqrt(np.sum((_frame(a, ids) - _frame(t, own)) ** 2, axis=(1, 2)))
    shift = np.abs(wrap_angle(a.t0[ids] - t.t0[own] - pairing.offsets + math.pi) - math.pi)
    dev = np.maximum.reduceat(frame + np.abs(a.radius[ids] - t.radius[own]) + shift, pairing.bounds[:-1])
    last = pairing.bounds[1:] - 1
    end = pairing.offsets[last] + a.span[ids[last]]
    # the halves of a full circle hold the same pieces, and each takes the other's overhang
    first = ids[pairing.bounds[:-1]]
    e = dev + np.where(first == first[pairing.partner], np.maximum(0.0, t.span - end), np.abs(t.span - end))
    # c of each chorded run R and its partner R'
    i = np.flatnonzero(pairing.chorded)
    j = pairing.partner[i]
    s = _remainder(t.t0[j] - t.t0[i] - math.pi)
    f = np.sqrt(np.sum((_frame(t, i) - _frame(t, j)) ** 2, axis=(1, 2))) + np.abs(t.radius[i] + t.radius[j] - 0.5 * math.pi)
    c = e[i] + e[j] + (f + np.maximum(np.abs(s), np.abs(s + t.span[j] - t.span[i])))
    # asin is monotone, so the largest T is that of the largest c
    return 2.0 * math.asin(min(1.0, 0.5 * float(c.max(initial=0.0))))


def _corner_match(a: ArcStack, k_end: Vec, k_next: Vec) -> np.ndarray:
    """The great-arc rows of ``a`` rotated to start at the one whose ends are nearest ``k_end`` and ``k_next`` (least
    sum of the two chords): the piece of each corner, in order, given the first corner's poles."""
    g = np.flatnonzero(a.great)
    return np.roll(g, -int(np.argmin(norm_rows(a.start[g] - k_end) + norm_rows(a.end[g] - k_next))))


def pairing_residual_bound(body: ConvexBody) -> Optional[float]:
    """Upper bound rho on the Hausdorff distance between a valid curved body C and C*, or None.

    C* is the polar body.  Its boundary is the chain of the dual images of
    the pieces of C (``polar_dual``: a circle arc (Z, r, span) maps to
    (Z, pi/2 - r, span + pi), a great arc to its pole) joined at each
    junction j of C by the great arc of support poles [k_end_j, k_next_j]
    there.  Chord bounds below are sums of chord or geodesic lengths, each
    at least the chord it bounds; a chord c is a geodesic 2 asin(c / 2).

    Three kinds of term:

    * Each arc run R paired with its partner R' (``ConvexBody.run_pairing``):
      T = 2 asin(c / 2), c = e_R + e_R' + f + |r + r' - pi/2| +
      max(|s|, |s + S' - S|).  The run's arc (Z, r, frame F, from
      azimuth a over the span S) matches piece k of the run at parameter
      t0_k + t with the arc's point at azimuth a + o_k + t, o_k its offset
      (``RunPairing.offsets``); points x = F w(r, t) and x_k = F_k w(r_k, t_k)
      with |w| = 1 are at most |F_k - F| (Frobenius norm of the frames as
      matrices) + |r_k - r| + |t_k - t| (mod 2 pi) apart.  The largest such
      sum, plus the azimuths the pieces cover beyond the arc or leave
      uncovered on it, is e_R (``_run_term``).  The dual images are
      matched the same way, with the same e_R.  f = |F' - F|, which is at
      least the centre chord |Z' - Z|; s is the azimuth of R' less a + pi,
      so the dual image's azimuth range [a + pi, a + pi + S] and R''s
      [a + pi + s, a + pi + s + S'] are each within max(|s|, |s + S' - S|)
      of the other.  The frames come from
      ``tangent_basis``, which jumps where the smallest coordinate of a
      centre changes: two frames across such a jump differ by about 1, so
      e_R or f, and rho, grow, or the runs do not pair; a jump never lowers
      rho.  Swapping R and R' gives the same c, so R lies within T of the
      dual image of R' too.
    * Corner k of C in chain order, a junction whose poles differ by more
      than ``POLE_MERGE_EPS``, is matched with great-arc piece k + s of C
      (mod their count), s from the first corner (``_corner_match``): the
      rotation duality keeps, though any one-to-one match gives a sound
      bound.  With e the larger of the two end chords and c the least
      cos(l/2) of the two arcs, the shift lemma of ``approx.pairing_bound``
      puts each arc within 2 asin(e / c) of the other.
    * The junction term J, the largest over the junctions of the closure
      chord between a piece's end and the next start, plus the pole gap
      |k_end - k_next| where the junction is not a corner.  It is added to
      the largest of the other terms, rho = max(T, corner terms) + J, as
      the points it covers are within J of a point that is itself only
      within T of the other boundary.

    None also when a run has no partner, the corners and the great-arc
    pieces differ in number, two great arcs meet at a junction that is not
    a corner, rho is not below pi/2, or C fails validation.

    Proof.  (1) The matching bounds H(boundary of C, boundary of C*) by
    rho.  Every piece of C lies in a run or is a great arc, so it is within
    T of a partner's dual image or within a corner term of its corner's arc
    (a rotation is one to one, whatever s); a closure chord is within J of
    a piece end.  On the dual side, each dual image of a run and each
    corner arc is matched the same way; the pole gap arc of a junction that
    is not a corner, and the pole of a great arc whose two junctions are
    not corners, lie within J of the dual image of an adjacent circle arc,
    which is within T of C.  (2) As
    in ``approx.pairing_bound``, for x outside C*, closer than pi/2,
    sin d(x, C*) is the largest -x . K over the support poles K of C*,
    which form the boundary of C; for each K the largest -x . K over C is
    taken on its boundary, as -K is not in C when rho < pi/2 (C would hold
    a pair of antipodes, squeezing C* onto a great circle).  So every point
    of C within pi/2 of C* is within rho of it, and, as the distance is
    continuous on C and at most rho on its boundary, every point is.
    With C and C* swapped (C** = C), H(C, C*) <= rho.  (3) The width
    argument of ``selfdual_residual_bound`` then gives
    |width(C, k) - pi/2| <= rho for every support pole k.  The bound holds
    up to the roundoff of its own evaluation.
    """
    if not body.validation.ok:
        return None
    pairing = run_pairing_or_none(body)
    if pairing is None:
        return None
    a = body.arcs
    terms = [_run_term(pairing, a)]
    k_end, k_next, gap, corner = body.junction_poles
    great = a.great
    c = np.flatnonzero(corner)
    if np.count_nonzero(great) != len(c) or np.any(~corner & great & _next_rows(great)):
        return None
    if len(c):
        j = _corner_match(a, k_end[c[0]], k_next[c[0]])
        starts, ends = a.start[j], a.end[j]
        e = np.maximum(norm_rows(starts - k_end[c]), norm_rows(ends - k_next[c]))
        # cos(l/2) = |a + b| / 2 for the unit ends a, b of an arc of length l
        half = 0.5 * np.minimum(norm_rows(starts + ends), norm_rows(k_end[c] + k_next[c]))
        if np.any(e >= half):
            return None
        terms.append(float(np.max(2.0 * np.arcsin(e / half))))

    rho = max(terms) + float(np.max(_closure(a) + np.where(corner, 0.0, gap)))
    return rho if rho < 0.5 * math.pi else None


def residual_bound(body: ConvexBody) -> Optional[float]:
    """The proved self-duality bound rho of a valid body, else None.

    ``selfdual_residual_bound`` for a body bounded by great arcs,
    ``pairing_residual_bound`` (None when its run pairing or corner
    matching fails) for a curved one.
    """
    if not body.is_polytope():
        return pairing_residual_bound(body)
    poly = to_polytope(body)
    return selfdual_residual_bound(poly) if poly.validation.ok else None


# ------------------------------------------------------------------ support


@dataclass(frozen=True, eq=False)
class SupportSet:
    """Support poles of the body at one boundary point.

    ``poles`` is a single pole at smooth points and a great arc of poles at
    vertices; every pole K satisfies K . at = 0 with the body inside H(K).
    """

    at: Vec
    poles: Union[Vec, GreatArc]
    is_vertex: bool

    def representative(self) -> Vec:
        if not self.is_vertex:
            return self.poles
        return self.poles.point_at(0.5 * self.poles.length)[0]


def support_poles_at(body: ConvexBody, p, tol: float = BOUNDARY_EPS) -> SupportSet:
    """Support pole(s) at a boundary point ``p``.

    Smooth interior points of a piece yield the unique tangent pole; points
    at a junction yield the great arc of poles spanned by the two adjacent
    pieces.
    """
    p = unit(p)
    a = body.arcs
    k_end, k_next, _, corner = body.junction_poles
    i = next(iter(np.flatnonzero(norm_rows(a.end - p) <= tol)), None)  # the first junction at p
    if i is not None:
        if corner[i]:
            return SupportSet(at=p, poles=GreatArc(k_end[i], k_next[i]), is_vertex=True)
        return SupportSet(at=p, poles=k_end[i], is_vertex=False)
    dists = distance_to_piece(p[None, :], a)[0]
    i = int(np.argmin(dists))
    if dists[i] > tol:
        raise NotOnBoundary("point is %.3e from the boundary (tol %.1e)" % (dists[i], tol))
    t = np.mod(np.arctan2(p @ a.v[i], p @ a.u[i]), TWO_PI)  # the azimuth of p on piece i
    return SupportSet(at=p, poles=a.support_pole_at(t, i), is_vertex=False)


def diametral_partner(
    body: ConvexBody, p, tol: float = BOUNDARY_EPS, self_dual_tol: float = SELF_DUAL_EPS
) -> Vec:
    """Boundary point Q with P . Q = 0 whose hemisphere supports the body at P.

    Defined for self-dual bodies, where every support pole is itself a
    boundary point.  At vertices the midpoint of the pole arc is returned as
    the deterministic representative of the partner set.
    """
    s = support_poles_at(body, p, tol)
    q = s.representative()
    off = float(boundary_distance_many(body, q[None, :])[0])
    if off > self_dual_tol:
        raise NotSelfDual(
            "support pole is %.3e away from the boundary; body is not self-dual"
            % off
        )
    return q


# ------------------------------------------------------------- construction


def _flat_junctions(poles: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Whether each junction i, from great arc i to i + 1 of a closed chain, is flat: the poles within
    ``POLE_MERGE_EPS`` (one supporting circle) and the lengths summing below pi - 1e-9 (one arc spans both).
    A NaN pole is never flat."""
    bend = norm_rows(poles - _next_rows(poles))
    return (bend <= POLE_MERGE_EPS) & (lengths + _next_rows(lengths) < math.pi - 1e-9)


def merge_flat(a: ArcStack) -> ArcStack:
    """The chain ``a`` with each run of great arcs joined at flat junctions (``_flat_junctions``), which are
    no vertices, merged in one pass into the great arc from its first start to its last end.  The other rows
    stay, and the chain starts with the run that holds piece 0."""
    great = a.great
    flat = great & _next_rows(great) & _flat_junctions(a.z, a.span)
    heads = np.flatnonzero(~np.roll(flat, 1))  # the first piece of each run
    if len(heads) in (0, len(a)):
        return a
    heads = np.roll(heads, 1) if flat[-1] else heads  # the run across the end of the chain holds piece 0
    lasts = (np.roll(heads, -1) - 1) % len(a)
    joined = heads != lasts
    merged = great_arc_stack(a.start[heads[joined]], a.end[lasts[joined]])
    return join_stacks(a[heads[~joined]], merged, keys=[np.flatnonzero(~joined), np.flatnonzero(joined)])


def drop_flat_vertices(v: np.ndarray) -> np.ndarray:
    """The closed chain ``v`` without its flat vertices, all at once (``merge_flat`` on a vertex array): vertex
    i + 1 is flat when junction i of the edges v_i v_i+1 and v_i+1 v_i+2 is (``_flat_junctions``).  A NaN
    pole, from a repeated row, keeps its rows, for validation to reject."""
    nxt = _next_rows(v)
    flat = _flat_junctions(unit_rows(cross_rows(v, nxt)), acos_clamped_np(row_dots(v, nxt)))
    return np.delete(v, (np.flatnonzero(flat) + 1) % len(v), axis=0)


def strictly_convex_arc_length(body: ConvexBody) -> float:
    """Total length, span x sin r, of the small-circle (strictly convex) boundary arcs, summed in chain order."""
    a = body.arcs
    return sum((a.span * a.sin_r)[~a.great].tolist())

"""Width, thickness, diameter, Hausdorff distance and self-duality residual.

The support poles of a convex body are exactly the boundary points of its
polar dual, so every width query reduces to farthest-distance queries against
the dual boundary:

    width_wrt(C, K) = pi - max { dist(K, K') : K' on boundary of dual(C) }
    thickness(C)    = pi - diameter(dual(C))

The farthest distance from one pole to a whole boundary is one batched
closed-form query (``boundary_min_dot_many``).  A body bounded by great
arcs whose largest vertex-pair distance M is at most pi/2 has diameter M
(the lemma of ``_polygon_diameter``), and its thickness is the same formula
on its edge poles, the dual's vertices.  Any other body takes its exact
diameter, and a pair attaining it, from ``farthest_pair(body, body)``:
closed-form candidates over every pair of pieces (each arc end against
each arc, and the centre-line pair of two arcs when one is a small arc),
with nothing sampled.  Both share one kernel, ``sphere.min_dot_to_piece``,
and work on cosines: they reduce the least dots and take one arccos per
distance they report; ``width_wrt`` reads its touching gap as the least
dot itself.

The library knows one width, pi/2, the case the chord construction keeps,
and ``is_constant_width`` checks a body against it.  A valid body whose
proved self-duality bound rho has 2 rho <= tol is answered in closed form,
widths pi/2 -+ rho and residual rho, with no dual and no diameter.  The
bound is the body's own ``ConvexBody.residual_bound``, measured on its
first read, so a body gated again costs only its report: a polytope's rho
is ``body.selfdual_residual_bound``, from its edge-pole/vertex pairing; a
curved body's is ``body.pairing_residual_bound``, from the run pairing the
chord construction uses.  Every other body reports what it measures
exactly: the least width is ``thickness``, the residual r is its distance
to its dual, max(0, diameter - pi/2, pi/2 - thickness), and every width is
at most pi/2 + r (``is_constant_width``).

Every such extremum is a farthest pair.  For a point x less than pi/2 from
a body B, d(x, B) = max(0, asin(-min x . K)) over K on the boundary of B*,
so the directed distance from A to B is asin(max(0, -m)), m the least dot
between the boundaries of A and B* (``boundary_sup_distance``), and the
Hausdorff distance is the larger direction (``hausdorff``): two calls of
the same two-body kernel, ``farthest_pair``, which adds the antipodal
crossings of two arcs to its candidates.  The identity fails exactly when
A meets -B*, a point of A pi/2 or more from B; three checks detect that
case and raise ``FarPair``.  With B = A*, B* = A and the distance needs no
kernel call beyond the diameters: H(A, A*) = max(0, diam A - pi/2,
pi/2 - thickness A) (``self_duality_residual``).

Everything here is pure and safe to call concurrently; all reductions are
max/min over candidates and independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import FarPair, NotSupporting
from .sphere import (
    BOUNDARY_EPS,
    DOT_EPS,
    ArcStack,
    Vec,
    acos_clamped_np,
    cross_rows,
    farthest_on_arc,
    min_dot_to_piece,
    unit,
    unit_each,
    wrap_angle,
)
from .body import (
    SELF_DUAL_EPS,
    ConvexBody,
    body_distance_many,
    boundary_min_dot_many,
    contains_many,
    polar_dual,
    require_valid,
    row_blocks,
)

# Largest min over the body of k . x at which H(k) still touches it, for ``width_wrt``.
TOUCH_TOL = 1e-6
# Largest excess over pi/2 of a polygon's vertex-pair diameter that
# ``diameter`` and ``thickness`` report as the diameter (``_polygon_diameter``);
# above it they take ``farthest_pair``.  Self-dual polygons sit a few ulps above pi/2.
VERTEX_DIAMETER_SLACK = 1e-12


# ----------------------------------------------------------- farthest points


def _polygon_diameter(vertices: np.ndarray) -> Optional[float]:
    """Diameter of a set of minor great arcs with their ends in ``vertices``, or None.

    M is the largest vertex-pair distance, one Gram matrix (in the row
    blocks of ``body.row_blocks``).  Lemma: when
    M <= pi/2, the largest distance between two points of the arcs is M.

    Proof.  On an edge y(t) = a cos t + b sin t, t in [0, l], of length
    l <= M (its ends are vertices), x . y(t) = A cos(t - phi) with A >= 0.
    Take x a vertex.  If the least x . y(t), the farthest point, sits inside
    the edge, it is -A, at t* = phi + pi, and the nearer end lies
    delta <= l/2 <= pi/4 from t*, where x . y = -A cos delta.  That end is a
    vertex, so -A cos delta >= cos M >= 0, which forces A = 0: every point of
    the edge is pi/2 <= M from x.  So no boundary point is farther than M
    from a vertex.  The same argument with y fixed on the boundary and x
    along an edge, whose ends are now within M of y, gives the lemma.

    Roundoff puts M at pi/2 plus a few ulps on self-dual polygons, so M is
    reported up to pi/2 + ``VERTEX_DIAMETER_SLACK``.  For M = pi/2 + eta,
    eta > 0, the first step gives A cos delta <= sin eta, so no point is
    farther than pi/2 + eta1 from a vertex, eta1 = asin(sin eta / cos(M/2));
    the second step, with eta1, gives pi/2 + eta2.  So the diameter lies in
    [M, pi/2 + eta2], eta2 about eta / cos^2(M/2), about 2 eta: M falls
    short of it by at most about eta <= 1e-12.  Above the slack, None: an
    edge can hold the farthest point, as on a thin triangle whose apex is
    1.7 from the middle of its unit base but 1.684 from its ends.
    """
    least = min(float(np.min(vertices[rows] @ vertices.T)) for rows in row_blocks(len(vertices), len(vertices)))
    m = float(acos_clamped_np(least))
    return m if m <= 0.5 * math.pi + VERTEX_DIAMETER_SLACK else None


def _centre_line_points(s: ArcStack, p: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the circle of arc ``s[p[k]]`` meets the great circle through its centre and ``w[k]``: the two
    points (k, 2, 3) and whether each lies on the arc.

    The points sit at the azimuth of w and the opposite one: at
    cos r z -+ sin r e, with e the unit (u, v)-part of w.  A centre within
    ``DOT_EPS`` of +-w (concentric) gives none.
    """
    u, v = s.u[p], s.v[p]
    wu, wv = np.sum(w * u, axis=1), np.sum(w * v, axis=1)
    h = np.sqrt(wu * wu + wv * wv)
    on = wrap_angle(np.arctan2(wv, wu)[:, None] + np.array([0.0, math.pi]) - s.t0[p, None]) <= s.span[p, None]
    on &= (h > DOT_EPS)[:, None]
    e = (wu[:, None] * u + wv[:, None] * v) * (s.sin_r[p] / np.where(h > DOT_EPS, h, 1.0))[:, None]
    pts = (s.cos_r[p, None] * s.z[p])[:, None] + np.array([1.0, -1.0])[:, None] * e[:, None]
    return pts, on


def _centre_line_pairs(a: ArcStack, i: np.ndarray, b: ArcStack, j: np.ndarray):
    """The farthest point pair of arcs ``a[i[k]]`` and ``b[j[k]]`` on the great circle through their centres:
    its dot x . y (inf for none) and its points x, y.

    Concentric arcs give none: their maxima, opposite azimuths, form one
    azimuth interval bounded by an end of one of the arcs.
    """
    pa, on_a = _centre_line_points(a, i, b.z[j])
    pb, on_b = _centre_line_points(b, j, a.z[i])
    k = len(i)
    c = np.where(on_a[:, :, None] & on_b[:, None, :], np.matmul(pa, pb.swapaxes(1, 2)), np.inf).reshape(k, 4)
    best = c.argmin(axis=1)
    rows = np.arange(k)
    return c[rows, best], pa[rows, best // 2], pb[rows, best % 2]


def _on_arc(s: ArcStack, p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Whether the points x (k, 2, 3), on the circles of the arcs ``s[p[k]]``, lie within their spans."""
    xu, xv = np.sum(x * s.u[p, None], axis=2), np.sum(x * s.v[p, None], axis=2)
    return wrap_angle(np.arctan2(xv, xu) - s.t0[p, None]) <= s.span[p, None]


def _antipodal_pairs(a: ArcStack, i: np.ndarray, b: ArcStack, j: np.ndarray):
    """A point x of arc ``a[i[k]]`` whose antipode lies on arc ``b[j[k]]``: the dot -1 (inf for none) and
    the points x, -x.

    x lies on both circle (z_i, r_i) and circle (-z_j, r_j), so
    x = alpha z_i + beta z_j +- gamma (z_i x z_j), with x . z_i = cos r_i
    and x . z_j = -cos r_j.  Concentric circles, |z_i . z_j| within
    ``DOT_EPS`` of 1, give none: when they coincide the antipodal pairs form
    an interval bounded by an arc end.  A crossing at an arc end, which
    roundoff may put just outside the span, is an end candidate too.
    """
    zi, zj = a.z[i], b.z[j]
    ci, cj = a.cos_r[i], -b.cos_r[j]
    g = np.sum(zi * zj, axis=1)
    det = 1.0 - g * g
    ok = det > DOT_EPS
    det = np.where(ok, det, 1.0)
    alpha, beta = (ci - g * cj) / det, (cj - g * ci) / det
    gamma2 = (1.0 - alpha * ci - beta * cj) / det  # |alpha z_i + beta z_j|^2 = alpha ci + beta cj
    ok &= gamma2 >= 0.0
    n = cross_rows(zi, zj) * np.sqrt(np.maximum(gamma2, 0.0))[:, None]
    x = (alpha[:, None] * zi + beta[:, None] * zj)[:, None] + np.array([1.0, -1.0])[:, None] * n[:, None]
    on = ok[:, None] & _on_arc(a, i, x) & _on_arc(b, j, -x)
    first = np.argmax(on, axis=1)
    rows = np.arange(len(i))
    return np.where(on.any(axis=1), -1.0, np.inf), x[rows, first], -x[rows, first]


def _chain_points(a: ArcStack) -> np.ndarray:
    """Every arc start, and each arc end that is not bit for bit the next start (on a ``Polytope``, none)."""
    return np.concatenate([a.start, a.end[(a.end != np.concatenate((a.start[1:], a.start[:1]))).any(axis=1)]])


def _end_pairs(ends: np.ndarray, arcs: ArcStack) -> tuple[float, np.ndarray, np.ndarray]:
    """The least x . y over the rows x of ``ends`` and the points y of ``arcs``, and a pair attaining it.

    ``min_dot_to_piece`` in the row blocks of ``body.row_blocks``; the pair
    is read off the winning row and piece
    (``farthest_on_arc``).
    """
    n = len(arcs)
    least, at = math.inf, None
    for rows in row_blocks(len(ends), n):
        c = min_dot_to_piece(ends[rows], arcs)  # rows x pieces
        k = int(np.argmin(c))
        if c.flat[k] < least:
            least, at = float(c.flat[k]), (rows.start + k // n, k % n)
    x = ends[at[0]]
    return least, x, farthest_on_arc(x, arcs, at[1])


def farthest_pair(a: ConvexBody, b: ConvexBody) -> tuple[float, np.ndarray, np.ndarray]:
    """The least x . y over x on the boundary of ``a`` and y on that of ``b``, the cosine of the largest
    distance between them, and a pair x, y attaining it; ``farthest_pair(c, c)`` gives the diameter.

    Over arcs i of a and j of b the largest d(x, y) has x or y at an arc
    end, or both inside their arcs.  The end candidates, every arc end of
    either body against every arc of the other, are ``min_dot_to_piece``'s
    least dots, each end once (``_chain_points``; one pass when a is b).
    Inside both arcs, at a distance below pi, moving either point along its
    circle cannot lengthen xy, so the great circle through x and y passes
    through both centres (``_centre_line_pairs``).  Two cases need no such
    pair:

    - concentric arcs: the opposite-azimuth pairs, all maxima, form one
      azimuth interval bounded by an end of one of the arcs;
    - two great arcs: both circles pass through the pole N of the great
      circle xy, so x(t) . y(s) = cos t cos s cos D + sin t sin s with
      D = d(x, y), whose Hessian [[-cos D, 1], [1, -cos D]] has the
      eigenvalue -cos D - 1 < 0: a saddle for D < pi.

    At D = pi the great circle xy is not unique, and a maximum may sit
    inside both arcs wherever x on arc i has -x on arc j: the antipodal
    crossings of circle i with the image of circle j (``_antipodal_pairs``),
    which give x . y = -1.  A valid body lies in an open hemisphere, so it
    has none against itself, and a body bounded by great arcs takes the
    end candidates alone against itself.  Arc i lies within l/2 of its
    midpoint m (l its length), so d(x, y) <= max d(m, arc j) + l/2 over
    the pair; only the pairs whose bound exceeds the ends' best get the
    other candidates.
    Ends and midpoints go in the row blocks of ``body.row_blocks``.  No
    arccos is taken but for the midpoint bounds.
    """
    p, q = a.arcs, b.arcs
    least, x, y = _end_pairs(_chain_points(p), q)
    if q is not p:
        c, y2, x2 = _end_pairs(_chain_points(q), p)
        if c < least:
            least, x, y = c, x2, y2
    if q is not p or not p.great.all():
        best = float(acos_clamped_np(least))
        mid = p.point_at(0.5 * (p.t0 + p.t1))
        half = 0.5 * (p.span * p.sin_r)
        pairs = []
        for rows in row_blocks(len(p), len(q)):
            bound = acos_clamped_np(min_dot_to_piece(mid[rows], q)) + half[rows, None]
            r, j = np.nonzero(bound > best)
            pairs.append((r + rows.start, j))
        i, j = (np.concatenate(c) for c in zip(*pairs))
        line = ~(p.great[i] & q.great[j])
        for c, xs, ys in (_centre_line_pairs(p, i[line], q, j[line]), _antipodal_pairs(p, i, q, j)):
            if len(c):
                k = int(np.argmin(c))
                if c[k] < least:
                    least, x, y = float(c[k]), xs[k], ys[k]
    return least, x, y


def diameter(body: ConvexBody) -> float:
    """Maximum geodesic distance between boundary points.

    A body bounded by great arcs whose vertex-pair diameter M is at most
    pi/2 (up to ``VERTEX_DIAMETER_SLACK``) has diameter M, by the lemma of
    ``_polygon_diameter``: one Gram matrix of the arc starts and of each
    end that is not bit for bit the next start (``_chain_points``; on a
    ``Polytope``, none).  Any other body takes the exact farthest pair
    (``farthest_pair``).
    """
    if body.is_polytope():
        m = _polygon_diameter(_chain_points(body.arcs))
        if m is not None:
            return m
    return float(acos_clamped_np(farthest_pair(body, body)[0]))


# ------------------------------------------------------------------- widths


def width_wrt(body: ConvexBody, k: Vec) -> float:
    """Width of the body with respect to the supporting hemisphere H(k).

    The minimum lune thickness against all other supporting hemispheres;
    attained on the dual boundary, where the farthest-point query is closed
    form per piece.
    """
    k = unit(k)[None, :]
    # min over the boundary of k . x, the cosine of the farthest distance
    gap = float(boundary_min_dot_many(body, k)[0])
    if gap < -BOUNDARY_EPS:
        raise NotSupporting("hemisphere cuts into the body (min dot %.3e)" % gap)
    if gap > TOUCH_TOL:
        raise NotSupporting("hemisphere does not touch the body (min dot %.3e)" % gap)
    return math.pi - float(acos_clamped_np(boundary_min_dot_many(polar_dual(body), k))[0])


def thickness(body: ConvexBody) -> float:
    """Minimum width over all supporting hemispheres: pi - diameter(dual).

    The dual of a valid body bounded by great arcs is the polygon of its
    edge poles, in order, so the lemma of ``_polygon_diameter`` runs on the
    poles and no dual is built.  Each pole is normalised as ``unit`` would
    (``unit_each``), as ``polar_dual``'s great-arc stack normalises its ends,
    so where that dual merges no junction the answer is
    pi - diameter(polar_dual(body)) bit for bit.  Any other body, or poles
    whose vertex-pair diameter is above the slack, takes ``farthest_pair`` of
    ``polar_dual``.
    """
    if body.is_polytope():
        require_valid(body)
        m = _polygon_diameter(unit_each(body.arcs.z))
        if m is not None:
            return math.pi - m
    return math.pi - diameter(polar_dual(body))


# ---------------------------------------------------------------- Hausdorff


def boundary_sup_distance(a: ConvexBody, b: ConvexBody) -> float:
    """sup over the boundary of ``a`` of the distance to ``b``: asin(max(0, -m)), m the least x . K over x on
    the boundary of ``a`` and K on that of b* (``farthest_pair``).

    Identity.  For x less than pi/2 from b, d(x, b) = max(0, max over K in
    the boundary of b* of d(x, K) - pi/2): the great circle through x's
    nearest point p, perpendicular to xp, supports b, and its pole K on b's
    side has d(x, K) = pi/2 + d(x, p); every other K gives at most d(x, b),
    and a point of b has every K within pi/2.  With d(x, K) - pi/2 =
    asin(-x . K), the sup over x swaps with the max over K.  So the value
    holds when every point of ``a`` lies less than pi/2 from b, that is,
    when a misses -b*, the points pi/2 or more from b; then the sup over a
    is the sup over its boundary, since d(., b) grows along the geodesic
    away from the nearest point until it leaves a.  asin(-m) is exact near
    0, where acos(m) - pi/2 cancels.

    Domain.  a meets -b* if and only if one of these holds, and each raises
    ``FarPair``:

    - (a) m reaches -1 (within ``DOT_EPS``): x = -K lies in a and in -b*;
    - (b) the pair's point x of a lies pi/2 or more from b
      (``body_distance_many``);
    - (c) the antipode -K of the pair's point of b* lies in a
      (``contains_many``).

    Each of them puts a point in a and -b*.  Conversely, let a meet -b*.
    If the boundary of a does too, d(., b) along that closed curve either
    stays at pi/2 or more, and (b) holds, or takes the value pi/2 at some x,
    where -x lies on the boundary of b*, and (a) holds.  Otherwise the
    convex set -b* lies inside a, and so does -K: (c).
    """
    require_valid(a)
    m, x, k = farthest_pair(a, polar_dual(b))
    if m <= -1.0 + DOT_EPS:
        why = "(a) a boundary point of the first body is antipodal to one of the second's dual"
    elif body_distance_many(b, x[None, :])[0] >= 0.5 * math.pi:
        why = "(b) a boundary point of the first body lies pi/2 or more from the second"
    elif contains_many(a, -k[None, :])[0]:
        why = "(c) the first body holds the antipode of a boundary point of the second's dual"
    else:
        return math.asin(max(0.0, -m))
    raise FarPair("%s, so the Hausdorff distance is pi/2 or more (least x . K %.17g)" % (why, m))


def hausdorff(a: ConvexBody, b: ConvexBody) -> float:
    """Geodesic Hausdorff distance between two convex bodies: the larger ``boundary_sup_distance``.

    Raises ``FarPair`` when it is pi/2 or more, where the closed form does not hold.
    """
    return max(boundary_sup_distance(a, b), boundary_sup_distance(b, a))


def self_duality_residual(body: ConvexBody) -> float:
    """Hausdorff distance between the body and its polar dual: max(0, diam - pi/2, pi/2 - thickness).

    By the identity of ``boundary_sup_distance`` with b = a* (b* = a), the
    boundary of a lies max(0, diam a - pi/2) from a*, and that of a*
    max(0, diam a* - pi/2) from a, with diam a* = pi - thickness.  A valid
    body lies in an open hemisphere, so it misses its antipode -a = -(a*)*,
    and so does a*: no far check is needed.
    """
    return _residual(diameter(body), thickness(body))


def _residual(diam: float, thick: float) -> float:
    return max(0.0, diam - 0.5 * math.pi, 0.5 * math.pi - thick)


# ------------------------------------------------------------- width report


@dataclass(frozen=True)
class WidthReport:
    """Result of a constant-width-pi/2 verification.

    Each quantity has one source.  A valid body whose self-duality bound
    rho, the body's ``ConvexBody.residual_bound`` (measured once per body),
    satisfies 2 rho <= tol takes the closed form: the widths are the proved
    ends pi/2 -+ rho, the residual is rho, an upper end on the distance of
    the body to its dual, and the diameter and thickness are
    ``diameter(body)`` and ``thickness(body)``, measured on first read, so a
    caller that reads only the widths pays for the gate alone.  Any other
    body measures both once, keeps them (``measured_diameter``,
    ``measured_thickness``), and reports from them alone: ``width_min`` is
    the thickness, the residual r is the body's distance to its dual,
    max(0, diameter - pi/2, pi/2 - thickness) (``self_duality_residual``),
    and ``width_max`` is pi/2 + r, a proved upper end (``is_constant_width``).
    """

    tol: float
    width_min: float
    width_max: float
    passed: bool
    body: ConvexBody = field(repr=False, compare=False)
    measured_diameter: Optional[float] = field(default=None, repr=False, compare=False)
    measured_thickness: Optional[float] = field(default=None, repr=False, compare=False)

    @property
    def spread(self) -> float:
        return self.width_max - self.width_min

    @cached_property
    def thickness(self) -> float:
        return thickness(self.body) if self.measured_thickness is None else self.measured_thickness

    @cached_property
    def diameter(self) -> float:
        return diameter(self.body) if self.measured_diameter is None else self.measured_diameter

    @cached_property
    def self_duality_residual(self) -> float:
        """rho in closed form; else the Hausdorff distance of the body to its dual."""
        if self.measured_thickness is None:
            return self.body.residual_bound
        return _residual(self.diameter, self.thickness)


def require_tol(tol: float) -> None:
    """Raise ``ValueError`` unless ``tol`` is finite and >= 0 (a NaN fails every comparison)."""
    if not 0.0 <= tol < math.inf:
        raise ValueError("tol must be finite and >= 0, got %r" % tol)


def is_constant_width(body: ConvexBody, *, tol: float = SELF_DUAL_EPS) -> WidthReport:
    """Compare the widths of the body against pi/2, within ``tol`` (finite, >= 0).

    A valid body whose proved self-duality bound rho
    (``ConvexBody.residual_bound``, which the body measures on its first
    read and keeps, so a body gated again pays only for this report) has
    2 rho <= tol is answered in closed form: every width lies in
    [pi/2 - rho, pi/2 + rho].

    Any other body measures its thickness, the least width, and its
    diameter, and from them r = H(C, C*) = max(0, diameter - pi/2,
    pi/2 - thickness) (``self_duality_residual``).  Every width is at most
    pi/2 + r.  Take K on the boundary of C*: H(K) supports C at a touching
    point x0, so d(K, x0) = pi/2, and x0 lies within r of some K' in C*.
    Then d(K, K') >= pi/2 - r, and the width of C with respect to H(K),
    pi - max d(K, .) over C*, is at most pi/2 + r.  So the report's widths
    are [thickness, pi/2 + r], each end exact or proved, with nothing
    sampled; where roundoff puts the thickness above pi/2 + r (an ulp, on
    self-dual bodies), ``width_max`` is the thickness, so the range is never
    empty.  ``WidthReport`` says where each quantity comes from.
    """
    require_tol(tol)
    rho = body.residual_bound
    if rho is not None:
        wmin, wmax = 0.5 * math.pi - rho, 0.5 * math.pi + rho
        if wmax - wmin <= tol:  # 2 rho <= tol, on the ends as rounded
            return WidthReport(tol, wmin, wmax, True, body)
    # thickness validates the body first
    thick = thickness(body)
    diam = diameter(body)
    wmax = max(0.5 * math.pi + _residual(diam, thick), thick)
    passed = (wmax - thick <= tol) and abs(thick - 0.5 * math.pi) <= tol
    return WidthReport(tol, thick, wmax, passed, body, diam, thick)

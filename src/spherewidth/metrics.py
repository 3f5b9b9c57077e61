"""Width, thickness, diameter, Hausdorff distance and self-duality residual.

The support poles of a convex body are exactly the boundary points of its
polar dual, so every width query reduces to farthest-distance queries against
the dual boundary:

    width_wrt(C, K) = pi - max { dist(K, K') : K' on boundary of dual(C) }
    thickness(C)    = pi - diameter(dual(C))

Farthest distances to a whole boundary are one batched closed-form query
(``boundary_max_distance_many``).  A body bounded by great arcs whose
largest vertex-pair distance M is at most pi/2 has diameter M (the lemma of
``_polygon_diameter``), and its thickness is the same formula on its edge
poles, the dual's vertices; any other body runs one alternating
farthest-point ascent for all piece pairs at once.  For tau = pi/2,
``is_constant_width`` answers a valid body whose proved self-duality bound
rho has 2 rho <= tol in closed form, widths pi/2 -+ rho and residual rho,
with no dual and no ascent; its thickness and diameter are measured when
read.  A polytope's rho is ``body.selfdual_residual_bound``, from its
edge-pole/vertex pairing; a curved body's is
``body.pairing_residual_bound``, from the run pairing the chord
construction uses.  Every other body is swept along its dual boundary.

The Hausdorff distance runs a Lipschitz branch-and-bound (the signed
distance to a convex body, negative inside, is 1-Lipschitz along the
boundary, so an interval deep inside is pruned at once) over one flat
table of parameter intervals per direction, all pieces together, refined
until the bounds meet within ``tol``; each level is one prune and one
evaluator call over the whole table, and the largest upper bound of the
rows it prunes is kept, so it ends with [lb, hi] (``hausdorff_bounds``).  A
refinement still open after ``REFINE_LEVELS`` levels, or with more than
``REFINE_ROWS`` live rows, raises ``RefinementStalled``.  Each interval
also carries a closed-form structural cap, the least over the pieces of
the other body of a vertex, full-circle, concentric-arc,
coplanar-great-arc or nearby-edge bound.  The caps are windowed: every cap of an (interval, piece) pair is at
least d(m, c) - rho, with m the interval's midpoint, c the piece's
mid-parameter point and rho half the piece's length, so a pair whose lower
bound exceeds the largest live upper bound is skipped.  A row's upper bound
never grows once it is split, so a skipped cap could never prune a row: the
prune decisions, and the result, are those of capping against all pieces.
One elementwise numpy kernel caps the kept pairs.

Everything here is pure and safe to call concurrently; all reductions are
max/min over samples and independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import NotSupporting, RefinementStalled
from .sphere import (
    BOUNDARY_EPS,
    DOT_EPS,
    TWO_PI,
    ArcStack,
    Vec,
    acos_clamped_np,
    arc_dot_range,
    farthest_on_piece,
    length_weighted_counts,
    linspace_grid,
    unit,
    unit_each,
)
from .body import (
    BLOCK_ELEMENTS,
    ConvexBody,
    body_distance_many,
    boundary_max_distance_many,
    polar_dual,
    require_valid,
    residual_bound,
)

# Default certified accuracy of the Hausdorff refinement.
HAUSDORFF_TOL = 1e-7
# Split levels after which a refinement with live intervals is an error.
REFINE_LEVELS = 64
# Most live rows, all directions together, a refinement may split; past it
# the refinement is an error, so no table grows past twice as many rows.
REFINE_ROWS = 1 << 22
# Poles sampled along the dual boundary by the constant-width sweep.
WIDTH_SWEEP = 4096
# Largest min over the body of k . x at which H(k) still touches it, for ``width_wrt``.
TOUCH_TOL = 1e-6
# Largest excess over pi/2 of a polygon's vertex-pair diameter that
# ``diameter`` and ``thickness`` report as the diameter (``_polygon_diameter``);
# above it they run the ascent.  Self-dual polygons sit a few ulps above pi/2.
VERTEX_DIAMETER_SLACK = 1e-12


# ----------------------------------------------------------- farthest points


def _polygon_diameter(vertices: np.ndarray) -> Optional[float]:
    """Diameter of a set of minor great arcs with their ends in ``vertices``, or None.

    M is the largest vertex-pair distance, one Gram matrix (in blocks of
    ``BLOCK_ELEMENTS``).  Lemma: when
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
    per = max(1, BLOCK_ELEMENTS // len(vertices))  # Gram rows a block
    least = min(float(np.min(vertices[lo : lo + per] @ vertices.T)) for lo in range(0, len(vertices), per))
    m = float(acos_clamped_np(least))
    return m if m <= 0.5 * math.pi + VERTEX_DIAMETER_SLACK else None


def _ascent_diameter(body: ConvexBody) -> float:
    """Largest distance found by an alternating farthest-point ascent.

    Nine seeds on every piece pair i <= j, a block of pairs at once; a pair
    stops after 80 rounds or once its maximum grows by at most 1e-14.  A
    lower estimate: an ascent can stop at a local maximum.
    """
    arcs = body.arcs
    seeds = np.linspace(arcs.t0, arcs.t1, 9, axis=-1)
    ia, ja = np.triu_indices(len(arcs))
    per = BLOCK_ELEMENTS // (3 * 9)  # (pairs, 9, 3) arrays of BLOCK_ELEMENTS values
    best = 0.0
    for lo in range(0, len(ia), per):
        i, j = ia[lo : lo + per], ja[lo : lo + per]
        pa, pb = arcs[i[:, None]], arcs[j[:, None]]
        x = pa.point_at(seeds[i])
        top = np.zeros(len(i))
        live = np.arange(len(i))
        for _ in range(80):
            y = farthest_on_piece(x[live], pb[live])[0]
            x[live], dx = farthest_on_piece(y, pa[live])
            got = dx.max(axis=1)
            stop = got <= top[live] + 1e-14
            top[live] = np.where(stop, np.maximum(top[live], got), got)
            live = live[~stop]
            if not len(live):
                break
        best = max(best, float(top.max()))
    return best


def diameter(body: ConvexBody) -> float:
    """Maximum geodesic distance between boundary points.

    A body bounded by great arcs whose vertex-pair diameter M is at most
    pi/2 (up to ``VERTEX_DIAMETER_SLACK``) has diameter M, by the lemma of
    ``_polygon_diameter``: one Gram matrix.  Any other body runs the
    farthest-point ascent (``_ascent_diameter``).
    """
    if body.is_polytope():
        m = _polygon_diameter(np.concatenate([body.arcs.start, body.arcs.end]))
        if m is not None:
            return m
    return _ascent_diameter(body)


# ------------------------------------------------------------------- widths


def width_wrt(body: ConvexBody, k: Vec) -> float:
    """Width of the body with respect to the supporting hemisphere H(k).

    The minimum lune thickness against all other supporting hemispheres;
    attained on the dual boundary, where the farthest-point query is closed
    form per piece.
    """
    k = unit(k)[None, :]
    # min over the boundary of k . x, the cosine of the farthest distance
    gap = math.cos(float(boundary_max_distance_many(body, k)[0]))
    if gap < -BOUNDARY_EPS:
        raise NotSupporting("hemisphere cuts into the body (min dot %.3e)" % gap)
    if gap > TOUCH_TOL:
        raise NotSupporting("hemisphere does not touch the body (min dot %.3e)" % gap)
    return math.pi - float(boundary_max_distance_many(polar_dual(body), k)[0])


def thickness(body: ConvexBody) -> float:
    """Minimum width over all supporting hemispheres: pi - diameter(dual).

    The dual of a valid body bounded by great arcs is the polygon of its
    edge poles, in order, so the lemma of ``_polygon_diameter`` runs on the
    poles and no dual is built.  Each pole is normalised as ``unit`` would
    (``unit_each``), as ``polar_dual``'s great-arc stack normalises its ends,
    so where that dual merges no junction the answer is
    pi - diameter(polar_dual(body)) bit for bit.  Any other body, or poles
    whose vertex-pair diameter is above the slack, takes the ascent on
    ``polar_dual``.
    """
    if body.is_polytope():
        require_valid(body)
        m = _polygon_diameter(unit_each(body.arcs.z))
        if m is not None:
            return math.pi - m
    return math.pi - diameter(polar_dual(body))


# ---------------------------------------------------------------- Hausdorff


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.sum(x * y, axis=1)


def _pair_caps(pa: ArcStack, tl, tr, b: ArcStack) -> np.ndarray:
    """Structural caps of pairs: the arc of ``pa[k]`` over [tl[k], tr[k]] against piece ``b[k]``."""
    part = pa.part(tl, tr)
    span = part.span
    length = span * pa.sin_r
    great_a = pa.great
    great_b = b.great
    full_b = b.span >= TWO_PI - DOT_EPS
    # any single boundary point v gives sup dist(., b) <= sup d(., v), exact
    # on plateaus where a vertex is the nearest feature
    caps = [acos_clamped_np(arc_dot_range(part, v)[0]) for v in (b.start, b.end)]

    # the distance to a full circle is |d(x, z) - r|, whose range over the
    # arc is closed form; it also serves concentric small arcs below
    cmin, cmax, rho = arc_dot_range(part, b.z)
    ring = np.maximum(
        np.abs(acos_clamped_np(cmax) - b.radius), np.abs(acos_clamped_np(cmin) - b.radius)
    )
    caps.append(np.where(full_b, ring, np.inf))

    # small arcs about near-bit-identical centres share the canonical frame,
    # so the azimuth containment is meaningful; the centre mismatch enters
    # the bound as the chord gamma
    cc = _dot(pa.z, b.z)
    off = np.fmod(tl - b.t0, TWO_PI)
    off = np.where(off < 0.0, off + TWO_PI, off)
    off = np.where(off >= TWO_PI - 1e-6, 0.0, off)
    overhang = np.maximum(0.0, off + span - b.span)
    gamma = np.sqrt(np.maximum(0.0, 2.0 * (1.0 - cc)))
    ok = ~great_a & ~great_b & ~full_b & (cc >= 1.0 - 1e-15) & (overhang <= 1e-6)
    caps.append(np.where(ok, ring + overhang * b.sin_r + 2.0 * gamma, np.inf))

    # foot parameters of the arc's start, middle and end on each great circle
    ends = [part.start, pa.point_at(0.5 * (tl + tr)), part.end]
    ts, tm, te = (np.arctan2(_dot(x, b.v), _dot(x, b.u)) for x in ends)
    length_b = b.span * b.sin_r

    # a great arc on pb's great circle: rho is the exact sup of |x . pole|
    # over its circle; every point is that close to pb's full circle, and
    # its foot drifts by at most the same angle
    coplanar = great_a & great_b & (np.abs(cc) >= 1.0 - 1e-9)
    amp = np.arcsin(np.minimum(1.0, rho))
    overhang = np.maximum.reduce(
        [-np.minimum(ts, te), np.maximum(ts, te) - length_b, np.abs(np.abs(te - ts) - length)]
    ).clip(min=0.0)
    ok = coplanar & (overhang <= 1e-3 + 2.0 * amp)
    caps.append(np.where(ok, 1.01 * amp + overhang + 1e-12, np.inf))

    # a short arc against one edge: the sup of |asin(x . pole)| is closed
    # form and tight at the peak of a chord sliver; the foot map onto the
    # supporting circle stretches arc length by at most 1/cos(amp) < 1.1
    amp = np.arcsin(np.minimum(1.0, np.maximum(np.abs(cmin), np.abs(cmax))))
    reach = 1.1 * length
    lo = np.minimum(np.minimum(ts, tm), te) - reach
    hi = np.maximum(np.maximum(ts, tm), te) + reach
    overhang = np.maximum(-lo, hi - length_b).clip(min=0.0)
    ok = great_b & ~coplanar & (amp < 0.3)
    caps.append(np.where(ok, amp + overhang, np.inf))

    # arcs too short to stand alone get no cap: spans of 1e-9 or less, and
    # great arcs whose ends are equal or antipodal
    short = (span <= 1e-9) | (great_a & (np.abs(_dot(ends[0], ends[2])) >= 1.0 - DOT_EPS))
    return np.where(short, np.inf, np.minimum.reduce(caps))


def _window(mid: np.ndarray, b: ArcStack, bound: float):
    """Chunks of at most ``BLOCK_ELEMENTS`` (row, piece) pairs whose caps may be <= ``bound``.

    Every cap of a pair bounds the sup over the arc of the distance to that
    one piece from above, so it is at least the distance from the arc's
    midpoint m (row ``mid``) to the piece, and that is at least
    LB = d(m, c) - rho, with c the piece's mid-parameter point and rho half
    its length.  Pairs with LB > ``bound`` are dropped.  The dot m . c is
    raised by ``DOT_EPS``, above its rounding error, before the arccos, so
    roundoff cannot lift LB over the true distance.
    """
    c = b.point_at(0.5 * (b.t0 + b.t1))
    half = 0.5 * b.span * b.sin_r
    per = max(1, BLOCK_ELEMENTS // len(half))
    rows, cols = [], []
    for lo in range(0, len(mid), per):
        i, j = np.nonzero(acos_clamped_np(mid[lo : lo + per] @ c.T + DOT_EPS) - half <= bound)
        if rows and sum(map(len, rows)) + len(i) > BLOCK_ELEMENTS:
            yield np.concatenate(rows), np.concatenate(cols)
            rows, cols = [], []
        rows.append(i + lo)
        cols.append(j)
    if rows:
        yield np.concatenate(rows), np.concatenate(cols)


def _structural_caps(
    arcs: ArcStack, idx, tl, tr, b: ConvexBody, bound: float = math.inf
) -> np.ndarray:
    """Closed-form upper bound on the sup over each arc of the distance to ``b``.

    Row i is the arc of piece ``arcs[idx[i]]`` over the parameters
    [tl[i], tr[i]] in its own frame.  Its cap is the least, over the pieces
    of ``b`` in its window, of a vertex cap for each piece endpoint and of
    caps against a full-circle piece (the distance to a full circle is
    |d(x, Z) - r|), a small arc about the same centre with a covering span,
    a great arc on the same great circle, and an edge near a short arc.
    Everything else is left to the Lipschitz refinement (cap inf).  These
    caps collapse the plateau landscapes, e.g. concentric caps, a polytope
    edge equidistant from a cap, or a body compared against its own double
    dual.

    The window (``_window``) skips each pair of a row and a piece whose
    caps all provably exceed ``bound``.  So a row whose cap against all
    pieces is at most ``bound`` gets that cap bit for bit, and any other row
    a cap above ``bound``; a caller whose rows' upper bounds stay at most
    ``bound`` prunes exactly as with all pieces.  One elementwise kernel
    caps the kept pairs, at most ``BLOCK_ELEMENTS`` at a time, and each row
    takes the least of its pairs.
    """
    pa = arcs[idx]
    caps = np.full(len(tl), np.inf)
    for i, j in _window(pa.point_at(0.5 * (tl + tr)), b.arcs, bound):
        np.minimum.at(caps, i, _pair_caps(pa[i], tl[i], tr[i], b.arcs[j]))
    return caps


class _Direction:
    """Refinement state for sup over the boundary of ``a`` of dist(., b).

    One flat table of parameter intervals over all pieces of ``a``: six
    parallel arrays with one row per interval, the piece index ``idx``, the
    ends ``tl`` and ``tr``, the signed distances ``fl`` and ``fr`` there
    (negative inside ``b``, so a row deep inside is pruned below the lower
    bound 0), and a structural cap ``cap``, which bounds the distance and
    so the signed one too.  A row's upper bound is the least of its cap and
    its Lipschitz bound (the signed distance moves by at most sin r per
    unit of the parameter).  Each level prunes the table once, recaps all
    surviving rows every few levels, so plateaus straddling a feature of
    ``b`` still collapse, and evaluates all midpoints in one
    ``body_distance_many`` call.
    Each capping passes ``_structural_caps`` a window bound: the largest
    upper bound of the rows the new caps serve (at set-up, the largest
    Lipschitz bound of the grid), plus ``tol`` for roundoff.
    """

    RECAP_LEVELS = frozenset({6, 10, 14, 18, 22})

    def __init__(self, a: ConvexBody, b: ConvexBody, tol: float):
        self.b = b
        self.arcs = arcs = a.arcs
        self.level = 0
        n = np.clip(np.ceil(arcs.span * arcs.sin_r / 0.05), 4, 512).astype(int)
        idx, ts = linspace_grid(arcs.t0, arcs.t1, n + 1)
        fs = body_distance_many(b, arcs.point_at(ts, idx), signed=True)
        self.lb = float(fs.max())
        # left ends are all rows but each piece's last, right ends all but its first
        last = np.cumsum(n + 1) - 1
        self.idx, self.tl, self.tr = np.delete(idx, last), np.delete(ts, last), np.delete(ts, last - n)
        self.fl, self.fr = np.delete(fs, last), np.delete(fs, last - n)
        self.pruned = -math.inf  # the largest upper bound of the rows pruned so far
        bound = float(self._lips().max()) + tol
        self.cap = _structural_caps(arcs, np.arange(len(n)), arcs.t0, arcs.t1, b, bound)[self.idx]

    def _lips(self) -> np.ndarray:
        return 0.5 * (self.fl + self.fr) + 0.5 * self.arcs.sin_r[self.idx] * (self.tr - self.tl)

    def _ubs(self) -> np.ndarray:
        return np.minimum(self._lips(), self.cap)

    def refine_once(self, lb: float, tol: float) -> float:
        """One split level; returns the updated global lower bound."""
        self.level += 1
        ubs = self._ubs()
        keep = ubs > lb + tol
        if not np.any(keep):  # lb only grows, so these rows stay dead
            return lb
        self.pruned = max(self.pruned, float(ubs[~keep].max(initial=-math.inf)))
        idx, tl, tr = self.idx[keep], self.tl[keep], self.tr[keep]
        fl, fr, cap = self.fl[keep], self.fr[keep], self.cap[keep]
        if self.level in self.RECAP_LEVELS and len(tl) <= 65536:
            bound = float(ubs[keep].max()) + tol
            cap = np.minimum(cap, _structural_caps(self.arcs, idx, tl, tr, self.b, bound))
        tm = 0.5 * (tl + tr)
        fm = body_distance_many(self.b, self.arcs.point_at(tm, idx), signed=True)
        lb = max(lb, float(fm.max()))
        self.idx = np.concatenate([idx, idx])
        self.tl, self.tr = np.concatenate([tl, tm]), np.concatenate([tm, tr])
        self.fl, self.fr = np.concatenate([fl, fm]), np.concatenate([fm, fr])
        self.cap = np.concatenate([cap, cap])
        return lb

    def live(self, lb: float, tol: float) -> int:
        """The rows the next split keeps."""
        return int(np.count_nonzero(self._ubs() > lb + tol))


def _refine(directions: list[_Direction], tol: float) -> tuple[float, float]:
    """Refine the directed suprema against one shared lower bound, in order, to [lb, hi].

    lb is the largest distance found; hi, at least lb, the largest upper
    bound of every row, pruned or left, which together cover the
    boundaries.  Raises ``RefinementStalled`` when rows are still alive
    after ``REFINE_LEVELS`` levels, or more than ``REFINE_ROWS`` at once.
    """
    lb = max(0.0, *(d.lb for d in directions))  # a distance, though the rows are signed
    for _ in range(REFINE_LEVELS):
        live = [d.live(lb, tol) for d in directions]
        if not any(live) or sum(live) > REFINE_ROWS:
            break
        for d, n in zip(directions, live):
            if n:
                lb = d.refine_once(lb, tol)
    hi = max(lb, *(max(d.pruned, float(d._ubs().max())) for d in directions))
    if hi <= lb + tol:
        return lb, hi
    msg = "Hausdorff refinement open at %d levels or %d rows: [%.17g, %.17g]" % (REFINE_LEVELS, REFINE_ROWS, lb, hi)
    raise RefinementStalled(msg, lo=lb, hi=hi)


def boundary_sup_distance(a: ConvexBody, b: ConvexBody, tol: float = HAUSDORFF_TOL) -> float:
    """sup over the boundary of ``a`` of the distance to ``b``, within ``tol``: the refinement's lower end."""
    return _refine([_Direction(a, b, tol)], tol)[0]


def hausdorff_bounds(a: ConvexBody, b: ConvexBody, tol: float = HAUSDORFF_TOL) -> tuple[float, float]:
    """[lb, hi] about the geodesic Hausdorff distance between two convex bodies, hi <= lb + ``tol``.

    Both directed suprema are refined against a shared lower bound, so the
    smaller direction collapses immediately.  lb is a distance attained; hi
    is an upper end as sound as the rows' Lipschitz bounds and caps, up to
    the roundoff of its own evaluation.
    """
    return _refine([_Direction(a, b, tol), _Direction(b, a, tol)], tol)


def hausdorff(a: ConvexBody, b: ConvexBody, tol: float = HAUSDORFF_TOL) -> float:
    """Geodesic Hausdorff distance between two convex bodies, within ``tol`` below: ``hausdorff_bounds``' lb."""
    return hausdorff_bounds(a, b, tol)[0]


def self_duality_residual(body: ConvexBody, tol: float = HAUSDORFF_TOL) -> float:
    """Hausdorff distance between the body and its polar dual."""
    return hausdorff(body, polar_dual(body), tol=tol)


# ------------------------------------------------------------- width report


@dataclass(frozen=True)
class WidthReport:
    """Result of a constant-width verification.

    For tau = pi/2 and a valid body whose self-duality bound rho
    (``body.selfdual_residual_bound`` for a polytope or a body of great
    arcs, ``body.pairing_residual_bound`` for a curved one) satisfies
    2 rho <= tol, the widths are the proved ends pi/2 -+ rho and the
    self-duality residual is rho (``residual_bound``); no dual is built
    (``dual`` is None), and the thickness and diameter are measured on
    first read by ``thickness`` and ``diameter``.  Any other body is swept:
    the widths are sampled, the thickness is pi minus the dual's ascent
    diameter, and the diameter and the Hausdorff residual are measured on
    first read, so a caller that reads only the widths pays for the sweep
    alone.
    """

    tau: float
    tol: float
    width_min: float
    width_max: float
    passed: bool
    body: ConvexBody = field(repr=False, compare=False)
    dual: Optional[ConvexBody] = field(repr=False, compare=False)
    residual_bound: Optional[float] = field(default=None, repr=False, compare=False)
    swept_thickness: Optional[float] = field(default=None, repr=False, compare=False)

    @property
    def spread(self) -> float:
        return self.width_max - self.width_min

    @cached_property
    def thickness(self) -> float:
        # a swept body keeps the sweep's answer
        return thickness(self.body) if self.swept_thickness is None else self.swept_thickness

    @cached_property
    def diameter(self) -> float:
        # a swept body keeps the ascent's answer
        return diameter(self.body) if self.dual is None else _ascent_diameter(self.body)

    @cached_property
    def self_duality_residual(self) -> Optional[float]:
        """Distance of the body to its dual, for tau = pi/2 only."""
        if abs(self.tau - 0.5 * math.pi) >= 1e-9:
            return None
        if self.residual_bound is not None:
            return self.residual_bound
        return hausdorff(self.body, self.dual)


def is_constant_width(body: ConvexBody, tau: float, tol: float = 1e-6) -> WidthReport:
    """Compare the widths of the body against ``tau``, within ``tol``.

    For tau = pi/2, a valid body whose proved self-duality bound rho
    (``body.residual_bound``) has 2 rho <= tol is answered in closed form:
    every width lies in [pi/2 - rho, pi/2 + rho], so the sweep below would
    pass too.  The report then holds pi/2 -+ rho and rho, and measures the
    thickness and diameter only when they are read.

    Any other body is swept.  Poles are sampled along the dual boundary
    (where all supporting poles live) together with every piece endpoint;
    the minimum width is pinned by pi minus the dual's ascent diameter.  For
    tau = pi/2 the self-duality residual is reported as well, by the
    Hausdorff refinement.
    """
    if tau == 0.5 * math.pi:
        rho = residual_bound(body)
        if rho is not None:
            wmin, wmax = tau - rho, tau + rho
            if wmax - wmin <= tol:  # 2 rho <= tol, on the ends as rounded
                return WidthReport(tau, tol, wmin, wmax, True, body, None, rho)
    dual = polar_dual(body)
    idx, ts = linspace_grid(dual.arcs.t0, dual.arcs.t1, length_weighted_counts(dual.arcs, WIDTH_SWEEP))
    k = dual.arcs.point_at(ts, idx)
    widths = math.pi - boundary_max_distance_many(dual, k)
    thick = math.pi - _ascent_diameter(dual)
    wmin = min(float(widths.min()), thick)
    wmax = float(widths.max())
    passed = (wmax - wmin <= tol) and abs(wmin - tau) <= tol
    return WidthReport(tau, tol, wmin, wmax, passed, body, dual, swept_thickness=thick)

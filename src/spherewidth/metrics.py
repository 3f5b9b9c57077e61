"""Width, thickness, diameter, Hausdorff distance and self-duality residual.

The support poles of a convex body are exactly the boundary points of its
polar dual, so every width query reduces to farthest-distance queries against
the dual boundary:

    width_wrt(C, K) = pi - max { dist(K, K') : K' on boundary of dual(C) }
    thickness(C)    = pi - diameter(dual(C))

Farthest distances to a whole boundary are one batched closed-form query
(``boundary_max_distance_many``); the diameter runs one alternating
farthest-point ascent for all piece pairs at once.  The Hausdorff distance
runs a per-piece Lipschitz branch-and-bound (the distance to a convex body
is 1-Lipschitz along the boundary) plus closed-form caps for pieces lying on
a shared supporting circle, refined until the bounds meet within ``tol``.

Everything here is pure and safe to call concurrently; all reductions are
max/min over samples and independent of evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NotSupporting
from .sphere import (
    BOUNDARY_EPS,
    TWO_PI,
    CircleArc,
    GreatArc,
    SmallCircleArc,
    Vec,
    acos_clamped,
    dot,
    farthest_on_piece,
    length_weighted_params,
    unit,
)
from .body import (
    BLOCK_ELEMENTS,
    BodyLike,
    ConvexBody,
    as_body,
    body_distance_many,
    boundary_max_distance_many,
    polar_dual,
)

# Default certified accuracy of the Hausdorff refinement.
HAUSDORFF_TOL = 1e-7


# ----------------------------------------------------------- farthest points


def diameter(body: BodyLike) -> float:
    """Maximum geodesic distance between boundary points.

    Alternating farthest-point ascent from nine seeds on every piece pair
    i <= j, a block of pairs at once; a pair stops after 80 rounds or once
    its maximum grows by at most 1e-14.
    """
    b = as_body(body)
    arcs = b.arcs
    seeds = np.linspace(arcs.t0, arcs.t1, 9, axis=-1)
    ia, ja = np.triu_indices(len(b.pieces))
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


# ------------------------------------------------------------------- widths


def width_wrt(
    body: BodyLike,
    k: Vec,
    dual: Optional[ConvexBody] = None,
    touch_tol: float = 1e-6,
) -> float:
    """Width of the body with respect to the supporting hemisphere H(k).

    The minimum lune thickness against all other supporting hemispheres;
    attained on the dual boundary, where the farthest-point query is closed
    form per piece.
    """
    b = as_body(body)
    k = unit(k)[None, :]
    # min over the boundary of k . x, the cosine of the farthest distance
    gap = math.cos(float(boundary_max_distance_many(b, k)[0]))
    if gap < -BOUNDARY_EPS:
        raise NotSupporting("hemisphere cuts into the body (min dot %.3e)" % gap)
    if gap > touch_tol:
        raise NotSupporting("hemisphere does not touch the body (min dot %.3e)" % gap)
    if dual is None:
        dual = polar_dual(b, check=False)
    return math.pi - float(boundary_max_distance_many(dual, k)[0])


def thickness(body: BodyLike) -> float:
    """Minimum width over all supporting hemispheres: pi - diameter(dual)."""
    return math.pi - diameter(polar_dual(as_body(body)))


# ---------------------------------------------------------------- Hausdorff


def _dot_range_along_piece(pa: CircleArc, z: Vec) -> tuple[float, float]:
    """Exact range of x . z as x runs over the piece (closed form).

    x(t) . z = cos r (pa.z . z) + sin r (au cos t + av sin t), extreme at
    the ends and where t - atan2(av, au) is a multiple of pi.
    """
    g = pa.cos_r * dot(pa.z, z)
    au, av = dot(pa.u, z), dot(pa.v, z)
    tc = math.atan2(av, au)
    ts = [pa.t0, pa.t1]
    for t in (tc, tc + math.pi):
        rel = (t - pa.t0) % TWO_PI
        if rel <= pa.span:
            ts.append(pa.t0 + rel)
    cands = [g + pa.sin_r * (au * math.cos(t) + av * math.sin(t)) for t in ts]
    return min(cands), max(cands)


def _structural_cap(pa: CircleArc, b: ConvexBody) -> float:
    """Closed-form upper bound on sup over pa of the distance to one piece of b.

    Covers two families: a full-circle piece of ``b`` (the distance to a full
    circle is |d(x, Z) - r| whose range over pa is closed form) and a piece
    sharing pa's supporting circle with a covering span.  Everything else is
    left to the Lipschitz refinement.  These caps collapse the plateau
    landscapes, e.g. concentric caps, a polytope edge equidistant from a cap,
    or a body compared against its own double dual.
    """
    best = math.inf
    for pb in b.pieces:
        # any single boundary point v gives sup dist(., b) <= sup d(., v),
        # exact on plateaus where a vertex is the nearest feature
        for v in (pb.start, pb.end):
            cmin, _ = _dot_range_along_piece(pa, v)
            best = min(best, acos_clamped(cmin))
        if pb.is_full:
            cmin, cmax = _dot_range_along_piece(pa, pb.center)
            dmin, dmax = acos_clamped(cmax), acos_clamped(cmin)
            best = min(best, max(abs(dmin - pb.radius), abs(dmax - pb.radius)))
        elif isinstance(pa, SmallCircleArc) and isinstance(pb, SmallCircleArc):
            # near-bit-identical centers share the canonical frame, so the
            # azimuth containment below is meaningful; the center mismatch
            # enters the bound as the chord gamma
            cc = dot(pa.center, pb.center)
            if cc < 1.0 - 1e-15:
                continue
            gamma = math.sqrt(max(0.0, 2.0 * (1.0 - cc)))
            off = math.fmod(pa.az_from - pb.az_from, TWO_PI)
            if off < 0:
                off += TWO_PI
            if off >= TWO_PI - 1e-6:
                off = 0.0
            overhang = max(0.0, off + pa.span - pb.span)
            if overhang > 1e-6:
                continue
            cmin, cmax = _dot_range_along_piece(pa, pb.center)
            dmin, dmax = acos_clamped(cmax), acos_clamped(cmin)
            val = max(abs(dmin - pb.radius), abs(dmax - pb.radius))
            best = min(best, val + overhang * math.sin(pb.radius) + 2.0 * gamma)
        elif isinstance(pa, GreatArc) and isinstance(pb, GreatArc) and abs(
            dot(pa.pole, pb.pole)
        ) >= 1.0 - 1e-9:
            nb = pb.pole
            a, bb = pa.frame()
            # exact sup of |x . nb| over pa; every pa point is that close to
            # pb's full circle, and its foot drifts by at most the same angle
            amp = math.asin(min(1.0, math.hypot(dot(a, nb), dot(bb, nb))))
            ts = float(pb.param_of(pa.start))
            te = float(pb.param_of(pa.end))
            overhang = max(
                0.0,
                -min(ts, te),
                max(ts, te) - pb.length,
                abs(abs(te - ts) - pa.length),
            )
            if overhang > 1e-3 + 2.0 * amp:
                continue
            best = min(best, 1.01 * amp + overhang + 1e-12)
        elif isinstance(pb, GreatArc):
            # short pa sub-arc against one edge: the sup of |asin(x . pole)|
            # is closed form and tight at the peak of a chord sliver
            nb = pb.pole
            cmin, cmax = _dot_range_along_piece(pa, nb)
            amp = math.asin(min(1.0, max(abs(cmin), abs(cmax))))
            if amp >= 0.3:
                continue
            # the foot map onto the supporting circle stretches arc length by
            # at most 1/cos(amp) < 1.1 here, bounding the foot param range
            aa, ab = pb.frame()
            params = [
                math.atan2(dot(x, ab), dot(x, aa))
                for x in (pa.start, pa.midpoint(), pa.end)
            ]
            reach = 1.1 * pa.length
            lo = min(params) - reach
            hi = max(params) + reach
            overhang = max(0.0, -lo, hi - pb.length)
            best = min(best, amp + overhang)
    return best


class _Direction:
    """Refinement state for sup over the boundary of ``a`` of dist(., b).

    Intervals carry both the Lipschitz bound and a closed-form structural
    cap; caps are recomputed on the surviving sub-intervals every few levels
    so plateaus straddling a feature of ``b`` still collapse.
    """

    RECAP_LEVELS = frozenset({6, 10, 14, 18, 22})

    def __init__(self, a: ConvexBody, b: ConvexBody):
        self.b = b
        self.queues = []
        self.lb = 0.0
        self.level = 0
        for pa in a.pieces:
            lam = pa.sin_r
            n = int(np.clip(math.ceil(pa.span * lam / 0.05), 4, 512))
            ts = np.linspace(pa.t0, pa.t1, n + 1)
            fs = body_distance_many(b, pa.point_at(ts))
            self.lb = max(self.lb, float(fs.max()))
            cap = _structural_cap(pa, b)
            self.queues.append(
                {
                    "piece": pa,
                    "lam": lam,
                    "cap": np.full(n, cap),
                    "tl": ts[:-1],
                    "tr": ts[1:],
                    "fl": fs[:-1],
                    "fr": fs[1:],
                }
            )

    def _ubs(self, q) -> np.ndarray:
        lip = 0.5 * (q["fl"] + q["fr"]) + 0.5 * q["lam"] * (q["tr"] - q["tl"])
        return np.minimum(lip, q["cap"])

    def refine_once(self, lb: float, tol: float) -> float:
        """One split level; returns the updated global lower bound."""
        self.level += 1
        recap = self.level in self.RECAP_LEVELS
        for q in self.queues:
            if len(q["tl"]) == 0:
                continue
            alive = self._ubs(q) > lb + tol
            if not np.any(alive):
                q["tl"] = q["tl"][:0]
                continue
            tl, tr = q["tl"][alive], q["tr"][alive]
            fl, fr = q["fl"][alive], q["fr"][alive]
            cap = q["cap"][alive]
            if recap and len(tl) <= 65536:
                for i in range(len(tl)):
                    sub = q["piece"].sub(tl[i], tr[i])
                    if sub is not None:
                        cap[i] = min(cap[i], _structural_cap(sub, self.b))
            tm = 0.5 * (tl + tr)
            fm = body_distance_many(self.b, q["piece"].point_at(tm))
            lb = max(lb, float(fm.max()))
            q["tl"] = np.concatenate([tl, tm])
            q["tr"] = np.concatenate([tm, tr])
            q["fl"] = np.concatenate([fl, fm])
            q["fr"] = np.concatenate([fm, fr])
            q["cap"] = np.concatenate([cap, cap])
        return lb

    def alive(self, lb: float, tol: float) -> bool:
        for q in self.queues:
            if len(q["tl"]) and np.any(self._ubs(q) > lb + tol):
                return True
        return False


def _refine(directions: list[_Direction], tol: float) -> float:
    """Refine the directed suprema against one shared lower bound, in order."""
    lb = max(d.lb for d in directions)
    for _ in range(64):
        alive = [d for d in directions if d.alive(lb, tol)]
        if not alive:
            return lb
        for d in alive:
            lb = d.refine_once(lb, tol)
    return lb


def boundary_sup_distance(a: BodyLike, b: BodyLike, tol: float = HAUSDORFF_TOL) -> float:
    """sup over the boundary of ``a`` of the distance to ``b``, within ``tol``."""
    return _refine([_Direction(as_body(a), as_body(b))], tol)


def hausdorff(a: BodyLike, b: BodyLike, tol: float = HAUSDORFF_TOL) -> float:
    """Geodesic Hausdorff distance between two convex bodies.

    Both directed suprema are refined against a shared lower bound, so the
    smaller direction collapses immediately; the result underestimates the
    true value by at most ``tol``.
    """
    a = as_body(a)
    b = as_body(b)
    return _refine([_Direction(a, b), _Direction(b, a)], tol)


def self_duality_residual(body: BodyLike, tol: float = HAUSDORFF_TOL) -> float:
    """Hausdorff distance between the body and its polar dual."""
    b = as_body(body)
    return hausdorff(b, polar_dual(b), tol=tol)


# ------------------------------------------------------------- width report


@dataclass(frozen=True)
class WidthReport:
    """Result of a constant-width verification sweep."""

    tau: float
    tol: float
    width_min: float
    width_max: float
    diameter: float
    thickness: float
    self_duality_residual: Optional[float]
    passed: bool

    @property
    def spread(self) -> float:
        return self.width_max - self.width_min


def is_constant_width(
    body: BodyLike, tau: float, tol: float = 1e-6, sweep: int = 4096
) -> WidthReport:
    """Sweep all supporting hemispheres and compare widths against ``tau``.

    Poles are sampled along the dual boundary (where all supporting poles
    live) together with every piece endpoint; the exact minimum width is
    pinned by pi - diameter(dual).  For tau = pi/2 the self-duality residual
    is reported as well.
    """
    b = as_body(body)
    dual = polar_dual(b)
    params = length_weighted_params(dual.pieces, sweep)
    k = np.vstack([p.point_at(ts) for p, ts in zip(dual.pieces, params)])
    widths = math.pi - boundary_max_distance_many(dual, k)
    thick = math.pi - diameter(dual)
    wmin = min(float(widths.min()), thick)
    wmax = float(widths.max())
    body_diam = diameter(b)
    residual = None
    if abs(tau - 0.5 * math.pi) < 1e-9:
        residual = hausdorff(b, dual)
    passed = (wmax - wmin <= tol) and abs(wmin - tau) <= tol
    return WidthReport(
        tau=tau,
        tol=tol,
        width_min=wmin,
        width_max=wmax,
        diameter=body_diam,
        thickness=thick,
        self_duality_residual=residual,
        passed=passed,
    )

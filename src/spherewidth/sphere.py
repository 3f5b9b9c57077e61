"""Spherical primitives on the unit sphere.

Points are unit 3-vectors (numpy arrays of shape (3,)).  Every boundary piece
is an arc of a circle in one parametrisation,

    point(t) = cos r * z + sin r * (cos t * u + sin t * v),   t0 <= t <= t1,

with centre z, angular radius r in (0, pi/2] and a tangent frame (u, v) at z.
A ``SmallCircleArc`` has r < pi/2 and the canonical ``tangent_basis`` frame; a
``GreatArc`` is the r = pi/2 case about its pole.  Sampling, support poles,
distance and farthest-point queries are therefore one closed form for both.
``stack_arcs`` lays out a whole boundary as arrays: the nearest and farthest
distance kernels take it for one column per piece, ``farthest_on_piece``
takes a stack with one piece per block of points, and the Hausdorff
structural caps take one stack per body.  Everything here is a pure
function over immutable values and is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import AmbiguousSide, DegenerateArc, DegenerateLune

# Single global degeneracy threshold on dot products (equality / antipodality).
DOT_EPS = 1e-12
# Tolerance for "point lies on a piece / boundary" predicates.
BOUNDARY_EPS = 1e-9

TWO_PI = 2.0 * math.pi

Vec = np.ndarray


def unit(v) -> Vec:
    """Normalize ``v`` to a unit 3-vector."""
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ValueError("expected a 3-vector, got shape %s" % (a.shape,))
    n = float(np.linalg.norm(a))
    if n < DOT_EPS:
        raise ValueError("cannot normalize a near-zero vector")
    return a / n


def unit_rows(m) -> np.ndarray:
    """Normalize each row of an (n, 3) array."""
    a = np.asarray(m, dtype=float)
    n = np.linalg.norm(a, axis=-1, keepdims=True)
    return a / n


def dot(a: Vec, b: Vec) -> float:
    return float(a[0] * b[0] + a[1] * b[1] + a[2] * b[2])


def cross(a: Vec, b: Vec) -> Vec:
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def acos_clamped(x) -> float:
    """arccos with the argument clamped to [-1, 1].

    Every inverse-trig call in the package goes through this (or its numpy
    twin) so that floating-point drift at orthogonality or antipodality can
    never produce NaN.
    """
    return math.acos(min(1.0, max(-1.0, x)))


def acos_clamped_np(x) -> np.ndarray:
    return np.arccos(np.clip(x, -1.0, 1.0))


def wrap_angle(a) -> np.ndarray:
    """Angle(s) ``a`` reduced into [0, 2*pi]; several times cheaper than np.mod."""
    return a - TWO_PI * np.floor(a / TWO_PI)


def geodesic_distance(p: Vec, q: Vec) -> float:
    """Great-circle distance arccos(p . q) in [0, pi]."""
    return acos_clamped(dot(p, q))


def chord_distance(p: Vec, q: Vec) -> float:
    """Euclidean chord length; resolves tiny separations that arccos cannot.

    For unit vectors the chord 2 sin(d/2) agrees with the geodesic distance d
    to third order, so it is the right metric for near-coincidence tests at
    tolerances below 1e-8.
    """
    return float(np.linalg.norm(p - q))


def lune_thickness(pole_a: Vec, pole_b: Vec) -> float:
    """Thickness pi - arccos(pole_a . pole_b) of the lune H(a) & H(b)."""
    d = dot(pole_a, pole_b)
    if abs(d) >= 1.0 - DOT_EPS:
        raise DegenerateLune("lune poles are equal or antipodal")
    return math.pi - acos_clamped(d)


def arc_pole(p1: Vec, p2: Vec, side_hint: Vec) -> Vec:
    """Unit normal of the great circle through p1, p2, signed by ``side_hint``.

    The result is orthogonal to both inputs and has positive dot with the
    hint.  Raises ``DegenerateArc`` for equal/antipodal inputs and
    ``AmbiguousSide`` when the hint lies on the great circle itself.
    """
    if abs(dot(p1, p2)) >= 1.0 - DOT_EPS:
        raise DegenerateArc("arc endpoints are equal or antipodal")
    n = unit(cross(p1, p2))
    s = dot(n, side_hint)
    if abs(s) < DOT_EPS:
        raise AmbiguousSide("side hint is orthogonal to the pole line")
    return n if s > 0 else -n


def tangent_basis(z: Vec) -> tuple[Vec, Vec]:
    """Deterministic right-handed tangent frame (u, v) at ``z``.

    u is the normalized projection of the coordinate axis least aligned with
    ``z``; v = z x u.  Azimuths about ``z`` are measured from u toward v, so
    the frame fixes the parametrization of every circle centered at ``z``.
    """
    k = int(np.argmin(np.abs(z)))
    axis = np.zeros(3)
    axis[k] = 1.0
    u = unit(axis - dot(axis, z) * z)
    v = cross(z, u)
    return u, v


@dataclass(frozen=True, eq=False)
class Hemisphere:
    """Closed half-sphere ``{q : pole . q >= 0}``."""

    pole: Vec

    def __post_init__(self):
        object.__setattr__(self, "pole", unit(self.pole))

    def contains(self, q: Vec, tol: float = 0.0) -> bool:
        return dot(self.pole, q) >= -tol


@dataclass(frozen=True, eq=False)
class Lune:
    """Intersection of two distinct, non-opposite hemispheres."""

    pole_a: Vec
    pole_b: Vec

    def __post_init__(self):
        object.__setattr__(self, "pole_a", unit(self.pole_a))
        object.__setattr__(self, "pole_b", unit(self.pole_b))
        # Raises DegenerateLune for equal/antipodal poles.
        lune_thickness(self.pole_a, self.pole_b)

    @property
    def thickness(self) -> float:
        return lune_thickness(self.pole_a, self.pole_b)


class CircleArc:
    """Arc of the circle of angular radius r about the centre z.

    point(t) = cos r * z + sin r * (cos t * u + sin t * v) for t in [t0, t1],
    where (u, v) is a right-handed tangent frame at z (v = z x u), so t runs
    counterclockwise about z seen from outside the sphere.  Subclasses set
    ``z``, ``radius``, ``cos_r``, ``sin_r``, ``u``, ``v``, ``t0`` and ``t1``
    on construction and provide ``start`` and ``end``.
    """

    def _set_circle(self, z, radius, cos_r, sin_r, u, v, t0, t1):
        self.__dict__.update(
            z=z, radius=radius, cos_r=cos_r, sin_r=sin_r, u=u, v=v, t0=t0, t1=t1
        )

    @property
    def span(self) -> float:
        return self.t1 - self.t0

    @property
    def length(self) -> float:
        return self.span * self.sin_r

    @property
    def is_full(self) -> bool:
        return self.span >= TWO_PI - DOT_EPS

    def frame(self) -> tuple[Vec, Vec]:
        return self.u, self.v

    def _ring(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.outer(np.cos(t), self.u) + np.outer(np.sin(t), self.v)

    def point_at(self, t) -> np.ndarray:
        return self.cos_r * self.z + self.sin_r * self._ring(t)

    def support_pole_at(self, t) -> np.ndarray:
        """Pole of the tangent great circle at parameter ``t``.

        The pole lies in span{z, point} orthogonal to the point, on the
        centre side, so H(pole) contains the local cap; on a great arc it is
        the arc's pole everywhere.
        """
        return self.sin_r * self.z - self.cos_r * self._ring(t)

    def tangent_at(self, t: float) -> Vec:
        """Unit tangent in the direction of increasing ``t``."""
        return -math.sin(t) * self.u + math.cos(t) * self.v

    def azimuth_of(self, p) -> np.ndarray:
        """Azimuth of point(s) ``p`` about z in [0, 2*pi), measured from u."""
        p = np.asarray(p, dtype=float)
        return np.mod(np.arctan2(p @ self.v, p @ self.u), TWO_PI)

    def midpoint(self) -> Vec:
        return self.point_at(0.5 * (self.t0 + self.t1))[0]

    def sub(self, lo: float, hi: float):
        """Sub-arc over the parameter range [lo, hi], or None when degenerate."""
        if hi - lo <= 1e-9:
            return None
        return self._over(lo, hi)


@dataclass(frozen=True, eq=False)
class GreatArc(CircleArc):
    """Minor geodesic arc between two non-antipodal endpoints.

    The r = pi/2 circle arc about its pole: the frame is (start, b) with b
    the unit tangent at start toward end, t runs over [0, length], and
    cos r and sin r are exactly 0 and 1.  Spans of pi or more must be split
    by callers; the arc never contains the antipodes of its endpoints.
    """

    start: Vec
    end: Vec

    def __post_init__(self):
        s = unit(self.start)
        e = unit(self.end)
        c = dot(s, e)
        if abs(c) >= 1.0 - DOT_EPS:
            raise DegenerateArc("great arc endpoints equal or antipodal")
        object.__setattr__(self, "start", s)
        object.__setattr__(self, "end", e)
        b = unit(e - c * s)
        self._set_circle(unit(cross(s, e)), 0.5 * math.pi, 0.0, 1.0, s, b, 0.0, acos_clamped(c))

    @property
    def pole(self) -> Vec:
        """Pole of the supporting great circle, oriented start x end."""
        return self.z

    def param_of(self, p) -> np.ndarray:
        """Signed angle parameter of point(s) on the supporting circle."""
        p = np.asarray(p, dtype=float)
        return np.arctan2(p @ self.v, p @ self.u)

    def midpoint(self) -> Vec:
        return unit(self.start + self.end)

    def _over(self, lo: float, hi: float):
        p0 = self.point_at(lo)[0]
        p1 = self.point_at(hi)[0]
        if abs(dot(p0, p1)) >= 1.0 - DOT_EPS:
            return None
        return GreatArc(p0, p1)


@dataclass(frozen=True, eq=False)
class SmallCircleArc(CircleArc):
    """Arc of the circle at angular radius ``radius`` in (0, pi/2) about ``center``.

    The frame is the deterministic ``tangent_basis`` of the centre and the
    parameter is the azimuth: ``az_from`` is normalized into [0, 2*pi) and
    ``az_to - az_from`` must lie in (0, 2*pi].  Radius pi/2 is the great-arc
    case, which is built from its endpoints as ``GreatArc``.
    """

    center: Vec
    radius: float
    az_from: float
    az_to: float

    def __post_init__(self):
        z = unit(self.center)
        r = float(self.radius)
        if not (DOT_EPS < r < math.pi / 2 - DOT_EPS):
            raise ValueError("small circle radius must lie strictly in (0, pi/2)")
        span = self.az_to - self.az_from
        if not (DOT_EPS < span <= TWO_PI + DOT_EPS):
            raise ValueError("azimuth span must lie in (0, 2*pi]")
        span = min(span, TWO_PI)
        a0 = math.fmod(self.az_from, TWO_PI)
        if a0 < 0:
            a0 += TWO_PI
        object.__setattr__(self, "center", z)
        object.__setattr__(self, "az_from", a0)
        object.__setattr__(self, "az_to", a0 + span)
        self._set_circle(z, r, math.cos(r), math.sin(r), *tangent_basis(z), a0, a0 + span)

    @cached_property
    def start(self) -> Vec:
        return self.point_at(self.t0)[0]

    @cached_property
    def end(self) -> Vec:
        return self.point_at(self.t1)[0]

    def _over(self, lo: float, hi: float):
        return SmallCircleArc(self.center, self.radius, lo, hi)


@dataclass(frozen=True, eq=False)
class ArcStack:
    """The pieces of one boundary as stacked arrays, row i for piece i.

    The field names match the ``CircleArc`` attributes, so
    ``distance_to_piece`` takes either one piece (one distance per row) or a
    stack (rows x pieces); slicing gives the stack of a run of pieces.
    """

    z: np.ndarray
    u: np.ndarray
    v: np.ndarray
    start: np.ndarray
    end: np.ndarray
    radius: np.ndarray
    cos_r: np.ndarray
    sin_r: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    span: np.ndarray

    def __getitem__(self, key) -> ArcStack:
        return ArcStack(**{f.name: getattr(self, f.name)[key] for f in fields(self)})

    def point_at(self, t) -> np.ndarray:
        """Points at ``t``, which broadcasts against the stack's shape."""
        t = np.asarray(t, dtype=float)[..., None]
        ring = np.cos(t) * self.u + np.sin(t) * self.v
        return self.cos_r[..., None] * self.z + self.sin_r[..., None] * ring


def stack_arcs(pieces) -> ArcStack:
    return ArcStack(
        **{f.name: np.array([getattr(p, f.name) for p in pieces], dtype=float) for f in fields(ArcStack)}
    )


def sample_piece(piece: CircleArc, n: int) -> np.ndarray:
    """``n`` points evenly spaced in the piece's angle parameter, endpoints included."""
    if n < 2:
        raise ValueError("need at least two sample points")
    return piece.point_at(np.linspace(piece.t0, piece.t1, n))


def length_weighted_params(pieces, count: int) -> list[np.ndarray]:
    """Evenly spaced parameters on each piece, about ``count`` in all.

    Each piece gets a share proportional to its length, and at least four.
    """
    total = max(sum(p.length for p in pieces), 1e-12)
    return [
        np.linspace(p.t0, p.t1, max(4, int(round(count * p.length / total))))
        for p in pieces
    ]


def point_to_piece_distance(p: Vec, piece: CircleArc) -> float:
    """Minimum geodesic distance from ``p`` to any point of the piece."""
    return float(distance_to_piece(np.asarray(p, dtype=float)[None, :], piece)[0])


def _dots(x: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """``x @ vecs.T`` as one matrix-vector product per row of ``vecs``.

    Each column then equals ``x @ vec`` bit for bit, so a piece gets the
    same values alone as inside a stack of any size.  Vectors of shape
    (pieces, 1, 3) pair piece i with the rows ``x[i]`` of x (pieces, m, 3).
    """
    if vecs.ndim == 1:
        return x @ vecs
    if vecs.ndim == 3:
        return np.matmul(x, np.swapaxes(vecs, 1, 2))[..., 0]
    return np.matmul(x, vecs[:, :, None])[..., 0].T


def _far_param(xu: np.ndarray, xv: np.ndarray, piece: CircleArc) -> np.ndarray:
    """How far past t0, in [0, 2*pi), lies the azimuth opposite atan2(xv, xu)."""
    return np.mod(np.arctan2(xv, xu) + math.pi - piece.t0, TWO_PI)


def distance_to_piece(points: np.ndarray, piece) -> np.ndarray:
    """Vectorized minimum geodesic distance from each row of ``points``.

    ``piece`` is one piece, or an ``ArcStack`` for one column per piece.
    When the azimuth lies in the span the distance is |d(x, z) - r| to the
    supporting circle, whose sine is |rho cos r - (x . z) sin r| with
    rho = sin d(x, z); the endpoints take over when it falls outside.
    """
    x = np.asarray(points, dtype=float)
    xu, xv, xz = _dots(x, piece.u), _dots(x, piece.v), _dots(x, piece.z)
    rho = np.sqrt(xu * xu + xv * xv)
    rel = wrap_angle(np.arctan2(xv, xu) - piece.t0)
    on = (rel <= piece.span + BOUNDARY_EPS) | (rel >= TWO_PI - BOUNDARY_EPS)
    circ = np.arcsin(np.clip(np.abs(rho * piece.cos_r - xz * piece.sin_r), 0.0, 1.0))
    circ = np.where(xz * piece.cos_r + rho * piece.sin_r < 0.0, math.pi - circ, circ)
    d_ends = np.minimum(acos_clamped_np(_dots(x, piece.start)), acos_clamped_np(_dots(x, piece.end)))
    return np.where(on, circ, d_ends)


def max_distance_to_piece(points: np.ndarray, piece) -> np.ndarray:
    """Vectorized maximum geodesic distance from each row of ``points``.

    ``piece`` is one piece, or an ``ArcStack`` for one column per piece.
    The maximum over a circular arc is attained either at the azimuth
    opposite the query point (when inside the span), at distance
    arccos(cos d(x, z) cos r - sin d(x, z) sin r), or at an endpoint.
    """
    x = np.asarray(points, dtype=float)
    d_ends = np.maximum(acos_clamped_np(_dots(x, piece.start)), acos_clamped_np(_dots(x, piece.end)))
    xu, xv = _dots(x, piece.u), _dots(x, piece.v)
    on = _far_param(xu, xv, piece) <= piece.span + BOUNDARY_EPS
    d_far = acos_clamped_np(_dots(x, piece.z) * piece.cos_r - np.hypot(xu, xv) * piece.sin_r)
    return np.where(on, np.maximum(d_far, d_ends), d_ends)


def farthest_on_piece(points: np.ndarray, piece):
    """Vectorized farthest point of the piece from each row, with its distance.

    ``piece`` is one piece for (rows, 3) points, or ``arcs[idx[:, None]]`` for
    (pieces, m, 3) points.  The candidates are the point at the opposite
    azimuth (when inside the span) and the endpoints; ties go to that point,
    then to the start.
    """
    x = np.asarray(points, dtype=float)
    far = _far_param(_dots(x, piece.u), _dots(x, piece.v), piece)
    cand = piece.point_at(piece.t0 + np.minimum(far, piece.span))
    d_cand = np.where(
        far <= piece.span + BOUNDARY_EPS, acos_clamped_np(np.sum(x * cand, axis=-1)), -1.0
    )
    d_start = acos_clamped_np(_dots(x, piece.start))
    d_end = acos_clamped_np(_dots(x, piece.end))
    take = (d_cand >= d_start) & (d_cand >= d_end)
    end = np.where((d_start >= d_end)[..., None], piece.start, piece.end)
    return np.where(take[..., None], cand, end), np.where(take, d_cand, np.maximum(d_start, d_end))


def arcs_intersect(a: GreatArc, b: GreatArc, tol: float = BOUNDARY_EPS) -> bool:
    """Closed intersection predicate for two minor great arcs.

    Candidate points are the two intersections of the supporting great
    circles; the arcs intersect iff one of them lies on both arcs (within
    ``tol``).  Shared endpoints count as intersections.
    """
    na = cross(a.start, a.end)
    nb = cross(b.start, b.end)
    x = cross(na, nb)
    nx = float(np.linalg.norm(x))
    if nx < DOT_EPS:
        # Same supporting circle: arcs overlap iff some endpoint of one lies
        # on the other.
        return (
            _on_arc(a, b.start, tol)
            or _on_arc(a, b.end, tol)
            or _on_arc(b, a.start, tol)
            or _on_arc(b, a.end, tol)
        )
    x = x / nx
    for cand in (x, -x):
        if _on_arc(a, cand, tol) and _on_arc(b, cand, tol):
            return True
    return False


def _on_arc(arc: GreatArc, p: Vec, tol: float) -> bool:
    if abs(dot(p, arc.pole)) > math.sin(tol) + DOT_EPS:
        return False
    t = float(arc.param_of(p))
    return -tol <= t <= arc.length + tol

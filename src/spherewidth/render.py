"""SVG rendering of bodies under orthographic or stereographic projection.

Boundary pieces project to exact conic arcs: under orthographic projection a
spherical circle becomes an ellipse segment (written as an SVG arc command
with semi-axes from the projected conjugate radii), and under stereographic
projection it becomes a circular arc through three exactly projected points.
Output is deterministic for fixed inputs: fixed 1000 x 1000 viewBox, y down,
bodies scaled to 90 percent of the frame.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .body import ConvexBody
from .sphere import tangent_basis, unit

VIEWBOX = 1000.0
FILL_FRACTION = 0.9
STROKES = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

# split every piece into parameter sub-spans of at most this angle so each
# SVG arc segment is short, well conditioned, and never ambiguous
MAX_SEG_SPAN = 0.5 * math.pi
# boundary samples a piece that fix the frame's extent
FRAME_SAMPLES = 256


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _conjugate_frame(piece, a, b):
    """2D center and conjugate radii of the orthographic piece image."""
    c2 = piece.cos_r * np.array([piece.z @ a, piece.z @ b])
    e = piece.sin_r * np.array([piece.u @ a, piece.u @ b])
    f = piece.sin_r * np.array([piece.v @ a, piece.v @ b])
    return c2, e, f


def _ellipse_axes(e, f):
    """Semi-axes and rotation of the ellipse with conjugate radii e, f."""
    m = np.column_stack([e, f])
    uu, ss, _ = np.linalg.svd(m)
    theta = math.degrees(math.atan2(uu[1, 0], uu[0, 0]))
    return float(ss[0]), float(ss[1]), theta


class _Frame:
    """Affine map from projected plane coordinates to SVG pixels (y down)."""

    def __init__(self, pts: np.ndarray):
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
        self.center = 0.5 * (lo + hi)
        half = float(np.max(hi - lo)) / 2.0
        self.scale = FILL_FRACTION * (VIEWBOX / 2.0) / max(half, 1e-12)

    def to_px(self, q) -> np.ndarray:
        q = np.atleast_2d(q)
        px = VIEWBOX / 2.0 + self.scale * (q[:, 0] - self.center[0])
        py = VIEWBOX / 2.0 - self.scale * (q[:, 1] - self.center[1])
        return np.column_stack([px, py])


def _sweep_flag(p0, pm, p1) -> int:
    cross = (pm[0] - p0[0]) * (p1[1] - pm[1]) - (pm[1] - p0[1]) * (p1[0] - pm[0])
    return 1 if cross > 0 else 0


def _ortho_segment(piece, t0, t1, a, b, frame: _Frame) -> str:
    c2, e, f = _conjugate_frame(piece, a, b)
    q0 = c2 + math.cos(t0) * e + math.sin(t0) * f
    qm = c2 + math.cos(0.5 * (t0 + t1)) * e + math.sin(0.5 * (t0 + t1)) * f
    q1 = c2 + math.cos(t1) * e + math.sin(t1) * f
    p0, pm, p1 = frame.to_px(np.vstack([q0, qm, q1]))
    rx, ry, theta = _ellipse_axes(e, f)
    rx *= frame.scale
    ry *= frame.scale
    if ry < 1e-9 * max(rx, 1.0):
        return "L %s %s" % (_fmt(p1[0]), _fmt(p1[1]))
    # y flip mirrors the ellipse rotation
    return "A %s %s %s 0 %d %s %s" % (
        _fmt(rx),
        _fmt(ry),
        _fmt(-theta),
        _sweep_flag(p0, pm, p1),
        _fmt(p1[0]),
        _fmt(p1[1]),
    )


def _stereo_point(x, v, a, b) -> np.ndarray:
    w = 1.0 + float(x @ v)
    return np.array([float(x @ a), float(x @ b)]) / w


def _stereo_segment(piece, t0, t1, v, a, b, frame: _Frame) -> str:
    fn = piece.point_at
    q0 = _stereo_point(fn(t0)[0], v, a, b)
    qm = _stereo_point(fn(0.5 * (t0 + t1))[0], v, a, b)
    q1 = _stereo_point(fn(t1)[0], v, a, b)
    p0, pm, p1 = frame.to_px(np.vstack([q0, qm, q1]))
    # circumcircle of the three projected points
    ax, ay = p0
    bx, by = pm
    cx, cy = p1
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if abs(d) < 1e-9:
        return "L %s %s" % (_fmt(p1[0]), _fmt(p1[1]))
    ux = ((ax**2 + ay**2) * (by - cy) + (bx**2 + by**2) * (cy - ay) + (cx**2 + cy**2) * (ay - by)) / d
    uy = ((ax**2 + ay**2) * (cx - bx) + (bx**2 + by**2) * (ax - cx) + (cx**2 + cy**2) * (bx - ax)) / d
    r = math.hypot(ax - ux, ay - uy)
    if r > 1e7:
        return "L %s %s" % (_fmt(p1[0]), _fmt(p1[1]))
    return "A %s %s 0 0 %d %s %s" % (
        _fmt(r),
        _fmt(r),
        _sweep_flag(p0, pm, p1),
        _fmt(p1[0]),
        _fmt(p1[1]),
    )


def _segment_list(piece):
    n = max(1, int(math.ceil(piece.span / MAX_SEG_SPAN)))
    ts = np.linspace(piece.t0, piece.t1, n + 1)
    return list(zip(ts[:-1], ts[1:]))


def render_svg(bodies: Sequence[ConvexBody], projection: str = "orthographic", view=None) -> str:
    """Render bodies to an SVG document string.

    The view direction defaults to the unit mean of the bodies' interior
    witnesses.  Orthographic projection requires every body to lie in the
    open front hemisphere of the view direction.
    """
    if projection not in ("orthographic", "stereographic"):
        raise ValueError("projection must be orthographic or stereographic")
    if view is None:
        view = np.mean([body.interior for body in bodies], axis=0)
    v = unit(np.asarray(view, dtype=float))
    a, b = tangent_basis(v)

    cloud = []
    for body in bodies:
        pts = body.boundary_samples(FRAME_SAMPLES)
        front = pts @ v
        if projection == "orthographic":
            if float(front.min()) <= 0.0:
                raise ValueError("body is not contained in the front hemisphere")
            cloud.append(np.column_stack([pts @ a, pts @ b]))
        else:
            if float(front.min()) <= -1.0 + 1e-6:
                raise ValueError("body passes through the projection point")
            w = 1.0 + front
            cloud.append(np.column_stack([(pts @ a) / w, (pts @ b) / w]))
    frame = _Frame(np.vstack(cloud))

    paths = []
    for k, body in enumerate(bodies):
        start = body.pieces[0].start
        if projection == "orthographic":
            p0 = frame.to_px([[start @ a, start @ b]])[0]
        else:
            p0 = frame.to_px(_stereo_point(start, v, a, b))[0]
        cmds = ["M %s %s" % (_fmt(p0[0]), _fmt(p0[1]))]
        for piece in body.pieces:
            for t0, t1 in _segment_list(piece):
                if projection == "orthographic":
                    cmds.append(_ortho_segment(piece, t0, t1, a, b, frame))
                else:
                    cmds.append(_stereo_segment(piece, t0, t1, v, a, b, frame))
        cmds.append("Z")
        stroke = STROKES[k % len(STROKES)]
        paths.append(
            '<path d="%s" fill="none" stroke="%s" stroke-width="2"/>'
            % (" ".join(cmds), stroke)
        )

    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="0 0 1000 1000">\n'
        + "\n".join(paths)
        + "\n</svg>\n"
    )

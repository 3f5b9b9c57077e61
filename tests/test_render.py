import math
import re

import numpy as np
import pytest
from fixtures import acceptance_corpus, curved_bodies, rotated_reuleaux
from oracles import boundary_samples, render_svg_per_segment

from spherewidth.approx import ApproximationConfig, approximate_polytope
from spherewidth.body import ConvexBody, Polytope, polar_dual
from spherewidth.generators import cap, octant, rotated, rotation_from_seed
from spherewidth.render import projected_box, render_svg
from spherewidth.sphere import min_dot_to_piece, sample_piece, tangent_basis, unit, unit_rows

E3 = np.array([0.0, 0.0, 1.0])
VIEW = unit([1.0, 1.0, 1.0])


def test_octant_orthographic_structure():
    svg = render_svg([octant()], view=VIEW)
    assert svg.startswith('<?xml version="1.0"')
    assert 'viewBox="0 0 1000 1000"' in svg
    paths = re.findall(r"<path d=\"([^\"]+)\"", svg)
    assert len(paths) == 1
    # three edges, each split into arc segments; path closes
    assert paths[0].startswith("M ")
    assert paths[0].endswith("Z")
    assert paths[0].count("A ") >= 3


def test_overlay_two_closed_paths():
    b = cap(E3, math.pi / 4)
    poly, _, _ = approximate_polytope(b, ApproximationConfig(epsilon=0.2))
    svg = render_svg([b, poly], view=unit([0.2, 0.1, 1.0]))
    paths = re.findall(r"<path d=\"([^\"]+)\"", svg)
    assert len(paths) == 2
    assert all(p.endswith("Z") for p in paths)


def test_render_deterministic():
    b = cap(E3, 0.6)
    s1 = render_svg([b], view=unit([0.3, -0.2, 1.0]))
    s2 = render_svg([b], view=unit([0.3, -0.2, 1.0]))
    assert s1 == s2


def test_path_endpoints_close_loop():
    # the path must return to its starting pixel
    svg = render_svg([cap(E3, 0.7)], view=E3)
    d = re.findall(r"<path d=\"([^\"]+)\"", svg)[0]
    start = re.match(r"M (\S+) (\S+)", d)
    x0, y0 = float(start.group(1)), float(start.group(2))
    last = re.findall(r"A \S+ \S+ \S+ \d \d (\S+) (\S+)", d)[-1]
    assert math.hypot(float(last[0]) - x0, float(last[1]) - y0) < 1e-3


def test_rejected_views():
    # no body: refused first, before the mean view or any projection
    for view in (None, E3):
        with pytest.raises(ValueError, match="render_svg needs at least one body"):
            render_svg([], view=view)
        with pytest.raises(ValueError, match="at least one arc per body"):
            render_svg([octant(), ConvexBody([], E3)], view=view)
    # a second body is checked as the first: behind the view, or through its antipode
    with pytest.raises(ValueError, match="front hemisphere"):
        render_svg([octant(), Polytope(-octant().vertices)], view=VIEW)
    through = Polytope(unit_rows([-VIEW, -VIEW + [0.3, 0.0, 0.0], -VIEW + [0.0, 0.3, 0.0]]))
    with pytest.raises(ValueError, match="projection point"):
        render_svg([octant(), through], "stereographic", view=VIEW)
    with pytest.raises(ValueError):
        render_svg([octant()], view=(0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        # octant is behind the -z viewpoint
        render_svg([octant()], view=(0.0, 0.0, -1.0))


def test_stereographic_renders_circles():
    svg = render_svg([cap(E3, 0.5)], projection="stereographic", view=E3)
    d = re.findall(r"<path d=\"([^\"]+)\"", svg)[0]
    radii = {m for m in re.findall(r"A (\S+) (\S+)", d)}
    # stereographic images of circles are circles: rx == ry
    assert all(rx == ry for rx, ry in radii)


@pytest.mark.parametrize("projection", ["orthographic", "stereographic"])
def test_stacked_render_is_the_per_segment_render_byte_for_byte(projection):
    scenes = []
    for _, body in acceptance_corpus().values():
        scenes += [[body], [polar_dual(body)]]
    # many small-circle rows, and mixed great and small ones, seen from their witnesses
    for body in curved_bodies().values():
        scenes += [[body], [body, polar_dual(body)]]
    for seed in (1, 2, 3):
        c = rotated(cap(E3, math.pi / 4), rotation_from_seed(seed))
        for eps in (0.2, 0.003):
            poly = approximate_polytope(c, ApproximationConfig(eps))[0]
            scenes += [[c, poly], [poly, polar_dual(poly)]]
    for bodies in scenes:
        assert render_svg(bodies, projection) == render_svg_per_segment(bodies, projection)
    # seen from a point on the great circle of one edge, that edge's image is
    # flat in both projections, a line command
    poly = Polytope(unit_rows([[0.3, 0.0, 1.0], [-0.1, 0.2, 1.0], [-0.2, -0.1, 1.0]]))
    a = poly.arcs
    for t in (0.5 * a.t1[0], -0.1):
        view = a.point_at(t, 0)
        svg = render_svg([poly], projection, view)
        assert " L " in svg
        assert svg == render_svg_per_segment([poly], projection, view)


def _dipping_view(body, least):
    """A view v for the one-piece cap ``body`` with least x . v = ``least`` on its rim, reached at the
    azimuth midway between the 40th and 41st of 256 evenly spaced samples."""
    a = body.arcs
    t = a.t0[0] + 40.5 * a.span[0] / 255
    theta = math.acos(least) - a.radius[0]  # the rim's least x . v is cos(r + theta)
    rim = math.cos(t) * a.u[0] + math.sin(t) * a.v[0]
    return math.cos(theta) * a.z[0] - math.sin(theta) * rim


@pytest.mark.parametrize("projection", ["orthographic", "stereographic"])
def test_front_check_is_exact_between_samples(projection):
    # a cap whose rim dips 1e-6 behind the view plane (orthographic) or 1e-7
    # past x . v = -1 + 1e-6 (stereographic) between two of 256 samples a
    # piece: the sampled least x . v is on the good side of the limit, the
    # exact one is not, so the body is refused
    limit, dip = (0.0, 1e-6) if projection == "orthographic" else (-1.0 + 1e-6, 1e-7)
    c = cap(unit([0.2, -0.4, 1.0]), 0.6)
    v = _dipping_view(c, limit - dip)
    assert float(np.min(boundary_samples(c, 256) @ v)) > limit + 1e-5
    # the rim's exact least x . v, cos(r + d(z, v)), is on the bad side
    assert math.cos(c.arcs.radius[0] + math.acos(float(c.arcs.z[0] @ v))) < limit
    with pytest.raises(ValueError):
        render_svg([c], projection, view=v)
    # the same rim as far on the other side of the limit renders
    assert render_svg([c], projection, view=_dipping_view(c, limit + dip)).count("<path ") == 1


def _box_scenes():
    """Bodies under seeded random views that keep them at least 0.05 in front of the view plane: one view
    for each acceptance body and its dual, three for each rotated cap and Reuleaux body."""
    corpus = [body for _, body in acceptance_corpus().values()]
    curved = [rotated(cap(unit([0.3, -0.2, 1.0]), r), rotation_from_seed(s)) for s, r in enumerate((0.3, 0.6, math.pi / 4, 1.0), 1)]
    curved += [rotated_reuleaux(k, delta) for k, delta in ((3, 0.1), (5, 0.15), (9, 0.2))]
    rng = np.random.default_rng(7)
    for body, count in [(b, 1) for b in corpus + [polar_dual(b) for b in corpus]] + [(b, 3) for b in curved]:
        a = body.arcs
        views = []
        while len(views) < count:
            v = unit(body.interior + 0.5 * rng.normal(size=3))
            if float(min_dot_to_piece(v[None], a).min()) >= 0.05:
                views.append(v)
        yield body, views


def test_projected_box_is_the_dense_sample_box():
    # at least 20001 samples a piece, at most 1e-4 apart in the parameter: the
    # sampled extremes miss the exact ones by under 1e-8 on these scenes
    boxes = 0
    for body, views in _box_scenes():
        pts = np.vstack([sample_piece(p, max(20001, math.ceil(p.span / 1e-4) + 1)) for p in body.pieces])
        for v in views:
            a, b = tangent_basis(v)
            x = pts @ np.column_stack([a, b, v])
            for stereographic, q in ((False, x[:, :2]), (True, x[:, :2] / (1.0 + x[:, 2:]))):
                lo, hi = projected_box(body.arcs, v, a, b, stereographic)
                q_lo, q_hi = q.min(axis=0), q.max(axis=0)
                assert np.all(lo <= q_lo + 1e-12) and np.all(hi >= q_hi - 1e-12)
                assert np.all(q_lo - lo <= 1e-8) and np.all(hi - q_hi <= 1e-8)
                boxes += 1
    assert boxes == 2 * (100 + 3 * 7)

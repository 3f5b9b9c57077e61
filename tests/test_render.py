import math
import re

import numpy as np
import pytest
from fixtures import acceptance_corpus
from oracles import render_svg_per_segment

from spherewidth.approx import ApproximationConfig, approximate_polytope
from spherewidth.body import polar_dual
from spherewidth.generators import cap, octant, rotated, rotation_from_seed
from spherewidth.render import render_svg
from spherewidth.sphere import unit

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
    for seed in (1, 2, 3):
        c = rotated(cap(E3, math.pi / 4), rotation_from_seed(seed))
        for eps in (0.2, 0.003):
            poly = approximate_polytope(c, ApproximationConfig(eps))[0]
            scenes += [[c, poly], [poly, polar_dual(poly)]]
    for bodies in scenes:
        assert render_svg(bodies, projection) == render_svg_per_segment(bodies, projection)

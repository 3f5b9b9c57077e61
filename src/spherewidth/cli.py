"""Command-line front end.

Verbs: generate | dual | metrics | approximate | certify | render.
Exit codes: 0 success, 1 invalid input or parameters, 2 certification
failure.  The violated invariant name goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from .approx import ApproximationConfig, approximate_polytope, certify
from .body import SELF_DUAL_EPS, Polytope, polar_dual, to_polytope
from .errors import CertificationFailed, SphereGeomError
from .formats import dumps_body, dumps_certificate, dumps_step_log, loads_body
from .generators import cap, complete_selfdual, octant, random_selfdual_polytope, rounded_reuleaux
from .metrics import is_constant_width
from .render import render_svg
from .sphere import unit


def _parse_vec(text: str) -> np.ndarray:
    parts = [float(t) for t in text.split(",")]
    if len(parts) != 3:
        raise ValueError("expected three comma-separated coordinates")
    return unit(parts)


def _read_body(path: str):
    """The body of a file, validated once; a ``pc-body`` of great arcs only is read as its ``Polytope``."""
    body = loads_body(Path(path).read_text())
    if body.is_polytope():
        body = to_polytope(body)
    rep = body.validation
    if not rep.ok:
        raise SphereGeomError("invalid body in %s: %s" % (path, ", ".join(rep.failed())))
    return body


def cmd_generate(args) -> int:
    if args.kind == "octant":
        body = octant()
    elif args.kind == "cap":
        body = cap(_parse_vec(args.center), args.radius)
    elif args.kind == "completion":
        # the completion of a cap is unique up to a turn about its centre, so
        # the seed picks that turn: the azimuth the cap's circle starts at
        azimuth = 2.0 * math.pi * np.random.default_rng(args.seed).random()
        body = complete_selfdual(cap(_parse_vec(args.center), args.radius, azimuth), tol=args.tol)
    elif args.kind == "reuleaux":
        body = rounded_reuleaux(args.k, args.delta, _parse_vec(args.center))
    else:
        body = random_selfdual_polytope(args.n, args.seed)
    text = dumps_body(body)
    Path(args.out).write_text(text)
    unit_name = "vertices" if isinstance(body, Polytope) else "pieces"
    print("wrote %s (%s, %d %s)" % (args.out, args.kind, len(body.arcs), unit_name))
    return 0


def cmd_dual(args) -> int:
    body = _read_body(args.input)
    Path(args.out).write_text(dumps_body(polar_dual(body)))
    print("wrote %s" % args.out)
    return 0


def cmd_metrics(args) -> int:
    body = _read_body(args.input)
    rep = is_constant_width(body, tol=args.tol)
    print(
        '{"thickness":%.17g,"diameter":%.17g,"width_min":%.17g,'
        '"width_max":%.17g,"self_duality_residual":%.17g}'
        % (
            rep.thickness,
            rep.diameter,
            rep.width_min,
            rep.width_max,
            rep.self_duality_residual,
        )
    )
    return 0


def cmd_approximate(args) -> int:
    body = _read_body(args.input)
    config = ApproximationConfig(epsilon=args.epsilon, self_dual_tol=args.tol)
    poly, cert, steps = approximate_polytope(body, config)
    Path(args.out).write_text(dumps_body(poly))
    if args.certificate:
        Path(args.certificate).write_text(dumps_certificate(cert) + "\n")
    if args.log:
        Path(args.log).write_text(dumps_step_log(steps))
    print(
        "wrote %s (%d vertices, %d steps, hausdorff %.6g <= 2*eps %.6g)"
        % (args.out, len(poly), cert.steps, cert.hausdorff_bound, 2 * args.epsilon)
    )
    return 0


def cmd_certify(args) -> int:
    original = _read_body(args.original)
    result = _read_body(args.result)
    config = ApproximationConfig(epsilon=args.epsilon, self_dual_tol=args.tol)
    cert = certify(original, result, config)
    print(dumps_certificate(cert))
    return 0


def cmd_render(args) -> int:
    bodies = [_read_body(p) for p in args.inputs]
    view = None if args.view is None else _parse_vec(args.view)
    svg = render_svg(bodies, projection=args.projection, view=view)
    Path(args.out).write_text(svg)
    print("wrote %s" % args.out)
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb, built once per process.

    ``parse_args`` fills a new namespace on each call, so no option or
    default carries over from one ``main`` call to the next.
    """
    top = argparse.ArgumentParser(
        prog="spherewidth",
        description="Constant-width spherical bodies: generation, duality, "
        "metrics, polytope approximation and rendering.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a body JSON file")
    g.add_argument("kind", choices=["octant", "cap", "completion", "random-polytope", "reuleaux"])
    g.add_argument("--center", default="0,0,1", help="cap or Reuleaux polygon center x,y,z")
    g.add_argument("--radius", type=float, default=math.pi / 4, help="cap radius")
    g.add_argument("--n", type=int, default=6, help="target vertex count")
    g.add_argument("--k", type=int, default=3, help="Reuleaux polygon vertex count (odd)")
    g.add_argument("--delta", type=float, default=0.1,
                   help="rounding radius of the Reuleaux polygon, in (0, pi/4)")
    g.add_argument("--seed", type=int, default=0, help="random seed of random-polytope; for "
                   "completion, the turn of the seed cap about its centre")
    g.add_argument("-o", "--out", required=True)

    d = sub.add_parser("dual", help="write the polar dual of a body")
    d.add_argument("input")
    d.add_argument("-o", "--out", required=True)

    m = sub.add_parser("metrics", help="print thickness/diameter/width JSON")
    m.add_argument("input")

    a = sub.add_parser("approximate", help="approximate by a constant-width polytope")
    a.add_argument("input")
    a.add_argument("--epsilon", type=float, required=True)
    a.add_argument("-o", "--out", required=True)
    a.add_argument("--certificate", help="write the certificate JSON here")
    a.add_argument("--log", help="write the step log (JSON lines) here")

    c = sub.add_parser("certify", help="re-check an (input, polytope) pair")
    c.add_argument("original")
    c.add_argument("result")
    c.add_argument("--epsilon", type=float, required=True)

    r = sub.add_parser("render", help="render bodies to SVG")
    r.add_argument("inputs", nargs="+")
    r.add_argument("--projection", choices=["orthographic", "stereographic"],
                   default="orthographic")
    r.add_argument("--view", help="view direction x,y,z (default: the mean of the "
                   "bodies' interior witnesses)")
    r.add_argument("-o", "--out", required=True)

    # --tol on the verbs that read it; dual and render have no tolerance
    for p in (g, m, a, c):
        p.add_argument("--tol", type=float, default=SELF_DUAL_EPS, help="self-duality tolerance")
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        # looked up on each call, so a rebound ``cmd_<verb>`` is the one run
        return globals()["cmd_" + args.command](args)
    except CertificationFailed as exc:
        print("%s: %s" % (exc.bound or "certification", exc), file=sys.stderr)
        return 2
    except (SphereGeomError, ValueError, OSError) as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

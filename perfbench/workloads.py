"""The three benchmark workloads, built only on the public spherewidth API.

Ops call the package through ``sw.<name>`` so that the tracer's wrappers,
installed in the package namespaces, see them.  Each workload has ``generate`` (set-up: builds the inputs from the seed),
``run`` (one timed op) and ``check`` (verifies one op's output and returns
its deterministic output counts).  ``check`` raises ``CheckFailed``.
README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import spherewidth as sw
from spherewidth import (
    ApproximationConfig,
    Polytope,
    cap,
    dumps_body,
    loads_body,
    to_polytope,
    validate_polytope,
)
from spherewidth.body import as_body
from spherewidth.cli import main as cli_main
from spherewidth.generators import rotated, rotation_from_seed

CAP_RADIUS = 0.25 * math.pi
NORTH = np.array([0.0, 0.0, 1.0])
SELF_DUAL_TOL = ApproximationConfig(epsilon=1.0).self_dual_tol
# Tolerance of the one-to-one edge-pole/vertex match, as in the acceptance suite.
POLE_MATCH_TOL = 1e-9


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def check_polytope(poly: Polytope) -> None:
    """Valid, and combinatorially self-dual: edge poles and vertices match one-to-one."""
    rep = validate_polytope(poly)
    if not rep.ok:
        raise CheckFailed("invalid output polytope: %s" % ", ".join(rep.failed()))
    poles = poly.edge_poles()
    d = np.linalg.norm(poles[:, None, :] - poly.vertices[None, :, :], axis=2)
    match = d < POLE_MATCH_TOL
    if not (np.all(match.sum(axis=1) == 1) and np.all(match.sum(axis=0) == 1)):
        raise CheckFailed("edge poles do not match vertices (worst %.2e)" % d.min(axis=1).max())


def check_certificate(cert, epsilon: float) -> None:
    if not cert.hausdorff_bound <= 2.0 * epsilon:
        raise CheckFailed("hausdorff bound %.6g exceeds 2*eps" % cert.hausdorff_bound)
    half_pi = 0.5 * math.pi
    if max(abs(cert.width_min - half_pi), abs(cert.width_max - half_pi)) > SELF_DUAL_TOL:
        raise CheckFailed("certified width range is not pi/2")
    if not cert.self_duality_residual <= SELF_DUAL_TOL:
        raise CheckFailed("certified self-duality residual too large")


def rotated_cap(seed: int):
    return rotated(cap(NORTH, CAP_RADIUS), rotation_from_seed(seed))


class CapFine:
    """``approximate_polytope`` on pi/4 caps rotated by ``rotation_from_seed(seed+i)``."""

    name = "cap-fine"
    epsilon = 0.002
    pool = 32

    def generate(self, seed, workdir):
        return [rotated_cap(seed + i) for i in range(self.pool)]

    def run(self, inputs, i):
        return sw.approximate_polytope(inputs[i % self.pool], ApproximationConfig(self.epsilon))

    def check(self, inputs, i, out):
        poly, cert, _ = out
        check_certificate(cert, self.epsilon)
        check_polytope(poly)
        return {"vertices": len(poly), "cuts": cert.steps, "rounds": cert.rounds}


class RandomPolytope:
    """``random_selfdual_polytope(30, seed+i)``: completion, coarse approximation, gate."""

    name = "random-polytope"
    n_target = 30
    pool = 64

    def generate(self, seed, workdir):
        return [seed + i for i in range(self.pool)]

    def run(self, inputs, i):
        return sw.random_selfdual_polytope(self.n_target, inputs[i % self.pool])

    def check(self, inputs, i, poly):
        check_polytope(poly)
        return {"vertices": len(poly)}


class VerifyCli:
    """In-process CLI jobs on (rotated cap, its eps=0.003 polytope) file pairs.

    The polytope is approximated once, for the cap rotated by the seed; the
    other pairs rotate that pair as a whole, which keeps set-up to one
    approximation.
    """

    name = "verify-cli"
    epsilon = 0.003
    pairs = 4

    def generate(self, seed, workdir):
        base = rotated_cap(seed)
        poly, _, _ = sw.approximate_polytope(base, ApproximationConfig(self.epsilon))
        jobs = []
        digest = hashlib.sha256()
        for k in range(self.pairs):
            rot = np.eye(3) if k == 0 else rotation_from_seed(seed + k)
            body, pk = rotated(base, rot), rotated(poly, rot)
            paths = {}
            for role, b in (("cap", body), ("poly", pk)):
                text = dumps_body(b)
                digest.update(text.encode())
                paths[role] = Path(workdir) / ("%s_%d.json" % (role, k))
                paths[role].write_text(text)
            paths["dual"] = Path(workdir) / ("dual_%d.json" % k)
            paths["svg"] = Path(workdir) / ("render_%d.svg" % k)
            view = ",".join(repr(float(c)) for c in body.pieces[0].center)
            jobs.append((paths, view))
        return {"jobs": jobs, "digest": digest.hexdigest()}

    def run(self, inputs, i):
        paths, view = inputs["jobs"][i % self.pairs]
        cap_f, poly_f = str(paths["cap"]), str(paths["poly"])
        argvs = [
            ["certify", cap_f, poly_f, "--epsilon", repr(self.epsilon)],
            ["metrics", poly_f],
            ["dual", poly_f, "-o", str(paths["dual"])],
            ["render", cap_f, poly_f, "--view=" + view, "-o", str(paths["svg"])],
        ]
        results = []
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli_main(argv)
            results.append((argv[0], code, out.getvalue(), err.getvalue()))
        return results

    def check(self, inputs, i, results):
        paths, _ = inputs["jobs"][i % self.pairs]
        stdout = {}
        for verb, code, out, err in results:
            if code != 0:
                raise CheckFailed("%s exited %d: %s" % (verb, code, err.strip()))
            stdout[verb] = out
        cert = json.loads(stdout["certify"])
        if not (cert["passed"] and cert["hausdorff_bound"] <= 2.0 * self.epsilon):
            raise CheckFailed("certify output does not pass: %s" % stdout["certify"])
        rep = json.loads(stdout["metrics"])
        half_pi = 0.5 * math.pi
        if max(abs(rep["width_min"] - half_pi), abs(rep["width_max"] - half_pi)) > SELF_DUAL_TOL:
            raise CheckFailed("metrics widths are not pi/2: %s" % stdout["metrics"])
        dual = to_polytope(as_body(loads_body(paths["dual"].read_text())))
        check_polytope(dual)
        svg = paths["svg"].read_text()
        if svg.count("<path ") != 2 or not svg.rstrip().endswith("</svg>"):
            raise CheckFailed("render did not write an SVG of both bodies")
        return {"vertices": len(dual), "input_digest": inputs["digest"]}


WORKLOADS = {w.name: w for w in (CapFine(), RandomPolytope(), VerifyCli())}

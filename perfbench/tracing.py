"""Per-layer timing of the spherewidth package, installed from outside it.

A ``Tracer`` replaces chosen public functions by wrappers that record one
span per call: its name, start, end, parent span and op id, plus small
counters (query rows, bytes, cuts).  A function is replaced in every
``spherewidth`` module namespace that binds it, so calls between modules and
inside a module are seen too; ``installed()`` restores every binding on exit.
Spans stay in memory until ``write_spans`` puts them in a file.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter


def _rows(arg_index):
    def measure(args, kwargs, result):
        pts = args[arg_index] if len(args) > arg_index else kwargs["points"]
        shape = getattr(pts, "shape", None)
        return {"points": shape[0] if shape and len(shape) == 2 else 1}

    return measure


def _text_in(args, kwargs, result):
    return {"bytes": len(args[0] if args else kwargs["text"])}


def _text_out(args, kwargs, result):
    return {"bytes": len(result)}


def _approximation(args, kwargs, result):
    cert = result[1]
    return {"rounds": cert.rounds, "cuts": cert.steps}


PACKAGE = "spherewidth"

# (module, attribute, span name, counter function).  Span names follow
# ``<module>.<function>``; the CLI verbs are named ``cli.<verb>``.
TARGETS = [
    ("sphere", "distance_to_piece", "sphere.distance_to_piece", _rows(0)),
    ("sphere", "max_distance_to_piece", "sphere.max_distance_to_piece", _rows(0)),
    ("body", "body_distance", "body.body_distance", None),
    ("body", "body_distance_many", "body.body_distance_many", _rows(1)),
    ("body", "contains_many", "body.contains_many", _rows(1)),
    ("body", "boundary_distance_many", "body.boundary_distance_many", _rows(1)),
    ("body", "polar_dual", "body.polar_dual", None),
    ("body", "validate", "body.validate", None),
    ("metrics", "hausdorff", "metrics.hausdorff", None),
    ("metrics", "boundary_sup_distance", "metrics.boundary_sup_distance", None),
    ("metrics", "diameter", "metrics.diameter", None),
    ("metrics", "thickness", "metrics.thickness", None),
    ("metrics", "is_constant_width", "metrics.is_constant_width", None),
    ("approx", "approximate_polytope", "approx.approximate_polytope", _approximation),
    ("approx", "certify", "approx.certify", None),
    ("approx", "subdivide_piece", "approx.subdivide_piece", None),
    ("approx", "cut_step", "approx.cut_step", None),
    ("generators", "complete_selfdual", "generators.complete_selfdual", None),
    ("generators", "convex_hull_with_point", "generators.convex_hull_with_point", None),
    ("formats", "loads_body", "formats.loads_body", _text_in),
    ("formats", "dumps_body", "formats.dumps_body", _text_out),
    ("render", "render_svg", "render.render_svg", _text_out),
    ("cli", "cmd_certify", "cli.certify", None),
    ("cli", "cmd_metrics", "cli.metrics", None),
    ("cli", "cmd_dual", "cli.dual", None),
    ("cli", "cmd_render", "cli.render", None),
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "counters")

    def __init__(self, name, parent, op, start=0.0, end=0.0, error=None, counters=None):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = end
        self.error = error
        self.counters = counters


class Tracer:
    """Collects spans from wrapped package functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, name, fn, measure):
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, tracer.op)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if measure is not None:
                span.counters = measure(args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target in every package namespace that binds it."""
        saved = []
        try:
            fns = [getattr(importlib.import_module(PACKAGE + "." + m), a) for m, a, _, _ in TARGETS]
            namespaces = [
                mod
                for key, mod in list(sys.modules.items())
                if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
            ]
            for fn, (_, _, name, measure) in zip(fns, TARGETS):
                wrapper = self._wrap(name, fn, measure)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            saved.append((ns, key, fn))
                            setattr(ns, key, wrapper)
            yield self
        finally:
            for ns, key, fn in reversed(saved):
                setattr(ns, key, fn)

    def write_spans(self, path):
        """Write the spans as gzipped tab-separated lines."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart\tend\tparent\top\terror\tcounters\n")
            for i, s in enumerate(self.spans):
                fh.write(
                    "%d\t%s\t%.9f\t%.9f\t%d\t%d\t%s\t%s\n"
                    % (i, s.name, s.start, s.end, s.parent, s.op, s.error or "", s.counters or "")
                )


# ------------------------------------------------------------------ analysis


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((s.end - s.start) - covered)
    return out


def _has_ancestor(spans, i, name):
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def op_layer_stats(spans):
    """Per-name statistics of one op's spans, as re-indexed by ``split_by_op``.

    ``s`` sums the durations of outermost spans of a name only, so recursion
    is not counted twice; ``self_s`` sums self times of all spans of a name.
    """
    selfs = self_times(spans)
    stats: dict[str, dict[str, float]] = {}
    evals = cuts = 0
    gate_s = 0.0
    for i, s in enumerate(spans):
        st = stats.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "errors": 0})
        st["calls"] += 1
        st["self_s"] += selfs[i]
        if not _has_ancestor(spans, i, s.name):
            st["s"] += s.end - s.start
        if s.error:
            st["errors"] += 1
        for key, value in (s.counters or {}).items():
            st[key] = st.get(key, 0) + value
        if s.name == "body.body_distance" and _has_ancestor(spans, i, "approx.subdivide_piece"):
            evals += 1
        if s.name == "approx.cut_step" and not s.error:
            cuts += 1
        if (
            s.name == "metrics.is_constant_width"
            and s.parent >= 0
            and spans[s.parent].name == "approx.approximate_polytope"
        ):
            gate_s += s.end - s.start
    return stats, {"subdivide_evals": evals, "cuts": cuts, "gate_s": gate_s}


def split_by_op(spans):
    """Spans of each op id, re-indexed so parents point inside the list."""
    groups: dict[int, list[int]] = {}
    for i, s in enumerate(spans):
        groups.setdefault(s.op, []).append(i)
    out = {}
    for op, idxs in groups.items():
        remap = {g: k for k, g in enumerate(idxs)}
        out[op] = [
            Span(spans[g].name, remap.get(spans[g].parent, -1), op, spans[g].start,
                 spans[g].end, spans[g].error, spans[g].counters)
            for g in idxs
        ]
    return out


# Metric name -> (span name, statistic).  Times are per-op medians, counts
# per-op means; see ``layer_metrics``.
LAYER_METRICS = {
    "approx.subdivide_piece.calls": ("approx.subdivide_piece", "calls"),
    "approx.subdivide_piece.s": ("approx.subdivide_piece", "s"),
    "approx.cut_step.calls": ("approx.cut_step", "calls"),
    "approx.cut_step.s": ("approx.cut_step", "s"),
    "approx.cut_step.deferred": ("approx.cut_step", "errors"),
    "approx.rounds": ("approx.approximate_polytope", "rounds"),
    "approx.certify.calls": ("approx.certify", "calls"),
    "approx.certify.s": ("approx.certify", "s"),
    "approx.approximate_polytope.s": ("approx.approximate_polytope", "s"),
    "approx.approximate_polytope.self_s": ("approx.approximate_polytope", "self_s"),
    "metrics.hausdorff.calls": ("metrics.hausdorff", "calls"),
    "metrics.hausdorff.s": ("metrics.hausdorff", "s"),
    "metrics.hausdorff.self_s": ("metrics.hausdorff", "self_s"),
    "metrics.boundary_sup_distance.calls": ("metrics.boundary_sup_distance", "calls"),
    "metrics.boundary_sup_distance.s": ("metrics.boundary_sup_distance", "s"),
    "metrics.diameter.calls": ("metrics.diameter", "calls"),
    "metrics.diameter.s": ("metrics.diameter", "s"),
    "metrics.thickness.calls": ("metrics.thickness", "calls"),
    "metrics.thickness.s": ("metrics.thickness", "s"),
    "metrics.is_constant_width.calls": ("metrics.is_constant_width", "calls"),
    "metrics.is_constant_width.s": ("metrics.is_constant_width", "s"),
    "metrics.is_constant_width.self_s": ("metrics.is_constant_width", "self_s"),
    "body.polar_dual.calls": ("body.polar_dual", "calls"),
    "body.polar_dual.s": ("body.polar_dual", "s"),
    "body.validate.calls": ("body.validate", "calls"),
    "body.validate.s": ("body.validate", "s"),
    "body.body_distance_many.calls": ("body.body_distance_many", "calls"),
    "body.body_distance_many.points": ("body.body_distance_many", "points"),
    "body.body_distance_many.s": ("body.body_distance_many", "s"),
    "body.contains_many.calls": ("body.contains_many", "calls"),
    "body.contains_many.points": ("body.contains_many", "points"),
    "body.contains_many.s": ("body.contains_many", "s"),
    "body.boundary_distance_many.calls": ("body.boundary_distance_many", "calls"),
    "body.boundary_distance_many.points": ("body.boundary_distance_many", "points"),
    "body.boundary_distance_many.s": ("body.boundary_distance_many", "s"),
    "sphere.distance_to_piece.calls": ("sphere.distance_to_piece", "calls"),
    "sphere.distance_to_piece.points": ("sphere.distance_to_piece", "points"),
    "sphere.distance_to_piece.s": ("sphere.distance_to_piece", "s"),
    "sphere.max_distance_to_piece.calls": ("sphere.max_distance_to_piece", "calls"),
    "sphere.max_distance_to_piece.points": ("sphere.max_distance_to_piece", "points"),
    "sphere.max_distance_to_piece.s": ("sphere.max_distance_to_piece", "s"),
    "generators.complete_selfdual.calls": ("generators.complete_selfdual", "calls"),
    "generators.complete_selfdual.s": ("generators.complete_selfdual", "s"),
    "generators.convex_hull_with_point.calls": ("generators.convex_hull_with_point", "calls"),
    "generators.convex_hull_with_point.s": ("generators.convex_hull_with_point", "s"),
    "formats.loads_body.calls": ("formats.loads_body", "calls"),
    "formats.loads_body.bytes": ("formats.loads_body", "bytes"),
    "formats.loads_body.s": ("formats.loads_body", "s"),
    "formats.dumps_body.calls": ("formats.dumps_body", "calls"),
    "formats.dumps_body.bytes": ("formats.dumps_body", "bytes"),
    "formats.dumps_body.s": ("formats.dumps_body", "s"),
    "render.render_svg.calls": ("render.render_svg", "calls"),
    "render.render_svg.bytes": ("render.render_svg", "bytes"),
    "render.render_svg.s": ("render.render_svg", "s"),
    "cli.certify.s": ("cli.certify", "s"),
    "cli.metrics.s": ("cli.metrics", "s"),
    "cli.dual.s": ("cli.dual", "s"),
    "cli.render.s": ("cli.render", "s"),
}

TIME_STATS = ("s", "self_s")


def layer_metrics(per_op):
    """Per-layer metrics from a list of ``op_layer_stats`` results.

    Times are the median over ops of each op's total, counts the mean over
    ops, and ``approx.evals_per_cut`` is a ratio of sums.
    """
    out = {}
    for metric, (name, stat) in LAYER_METRICS.items():
        values = [stats.get(name, {}).get(stat, 0) for stats, _ in per_op]
        if stat in TIME_STATS:
            out[metric] = statistics.median(values)
        else:
            out[metric] = sum(values) / len(values)
    cuts = sum(extra["cuts"] for _, extra in per_op)
    evals = sum(extra["subdivide_evals"] for _, extra in per_op)
    out["approx.cuts"] = cuts / len(per_op)
    out["approx.evals_per_cut"] = evals / cuts if cuts else 0.0
    out["approx.gate.s"] = statistics.median(extra["gate_s"] for _, extra in per_op)
    return out


_UNITS = {"s": "s", "self_s": "s", "points": "rows", "bytes": "B",
          "evals_per_cut": "evals/cut", "overhead": "ratio"}


def layer_unit(metric):
    return _UNITS.get(metric.rsplit(".", 1)[-1], "count")


def count_fingerprint(stats, extra):
    """The deterministic counts of one traced op, for the count fingerprint."""
    counts = {}
    for name in sorted(stats):
        for key, value in sorted(stats[name].items()):
            if key not in TIME_STATS:
                counts["%s.%s" % (name, key)] = value
    counts["approx.cuts"] = extra["cuts"]
    counts["approx.subdivide_evals"] = extra["subdivide_evals"]
    return counts

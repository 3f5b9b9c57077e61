"""JSON serialization of bodies, certificates and step logs.

Numbers are written with 17 significant digits (``%.17g``), which
round-trips binary64 exactly; the writer emits keys in a fixed order so
equal inputs produce byte-identical files.  Each vertex, piece record,
certificate and step record is one ``%`` format, and a body's rows, like
a step table's, are formatted by C-level ``map`` calls over its stacked
arrays, with no Python code per number.  The readers take numbers only as
JSON numbers, never as strings or booleans, and raise ``InvalidBody`` on
any malformed input, broken JSON included.  A ``pc-body`` file is read
column by column: its great-arc records make one ``great_arc_stack``, its
small-circle records one ``small_arc_stack``, and the two are joined in
record order.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter

import numpy as np

from .approx import Certificate, StepRecord, StepTable
from .body import ConvexBody, Polytope, chain_body
from .errors import InvalidBody
from .sphere import great_arc_stack, join_stacks, small_arc_stack

_VEC = "[%.17g,%.17g,%.17g]"
_GREAT = '{"type":"great","from":' + _VEC + ',"to":' + _VEC + "}"
_CIRCLE = '{"type":"circle","center":' + _VEC + ',"radius":%.17g,"az_from":%.17g,"az_to":%.17g}'


def format_rows(fmt: str, values: np.ndarray) -> list[str]:
    """``fmt % row`` for each row of the 2-D ``values``, mapped at C level: no Python code runs per row."""
    return list(map(fmt.__mod__, map(tuple, values.tolist())))


def format_rows_by(mask: np.ndarray, fmt: str, values: np.ndarray, other: str, other_values: np.ndarray) -> list[str]:
    """One string per entry of ``mask``: where it is set, ``fmt`` of the next row of ``values``, elsewhere ``other``
    of the next row of ``other_values`` (``format_rows`` each)."""
    out = np.empty(len(mask), dtype=object)
    out[mask] = format_rows(fmt, values)
    out[~mask] = format_rows(other, other_values)
    return out.tolist()


def dumps_body(body: ConvexBody) -> str:
    """Serialize a polytope or piecewise-circular body.

    The pieces are written from the body's stack: a great arc by its ends,
    a small-circle arc by its centre, radius and azimuth range (``z``,
    ``radius``, ``t0`` and ``t1`` of the stack).
    """
    if isinstance(body, Polytope):
        return '{"kind":"polytope","vertices":[%s]}' % ",".join(format_rows(_VEC, body.vertices))
    a = body.arcs
    great, small = a.great, ~a.great
    parts = format_rows_by(
        great,
        _GREAT,
        np.hstack([a.start[great], a.end[great]]),
        _CIRCLE,
        np.column_stack([a.z[small], a.radius[small], a.t0[small], a.t1[small]]),
    )
    return '{"kind":"pc-body","interior":%s,"pieces":[%s]}' % (_VEC % tuple(body.interior.tolist()), ",".join(parts))


def _json(text: str):
    """The parsed ``text``; a JSON syntax error raises ``InvalidBody`` with the parser's message."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidBody("malformed JSON: %s" % exc) from None


_NUMBER_TYPES = {int, float}


def _number(x) -> float:
    """A JSON number as a float; a string or a bool, which ``float`` would take, raises ``TypeError``."""
    if type(x) not in _NUMBER_TYPES:
        raise TypeError("expected a number, got %s" % type(x).__name__)
    return float(x)


def _count(x) -> int:
    """A JSON integer; a bool, which ``operator.index`` would take, raises ``TypeError``."""
    if type(x) is not int:
        raise TypeError("expected an integer, got %s" % type(x).__name__)
    return x


def _numbers(v, depth: int) -> np.ndarray:
    """JSON lists of numbers nested ``depth`` deep as a float array.

    Every entry's type is checked in one C-level ``map(type, ...)`` pass over
    the flattened lists: a string or a bool, which numpy would read as a
    number, or a list nested deeper, raises ``TypeError``.
    """
    flat = v
    for _ in range(depth - 1):
        flat = chain.from_iterable(flat)
    bad = set(map(type, flat)) - _NUMBER_TYPES
    if bad:
        raise TypeError("expected numbers, got %s" % ", ".join(sorted(t.__name__ for t in bad)))
    return np.asarray(v, dtype=float)


def _present(obj, key: str):
    """``obj[key]``, or ``InvalidBody`` when ``obj`` is not a JSON object or has no field ``key``."""
    if not isinstance(obj, dict):
        raise InvalidBody("expected a JSON object, got %s" % type(obj).__name__)
    if key not in obj:
        raise InvalidBody("missing field %r" % key)
    return obj[key]


def _converted(key: str, convert, value):
    """``convert(value)``, or ``InvalidBody`` naming the ill-typed field ``key``."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise InvalidBody("ill-typed field %r: %s" % (key, exc)) from None


def _field(obj, key: str, convert):
    """``convert(obj[key])``, or ``InvalidBody`` naming a missing or ill-typed field."""
    return _converted(key, convert, _present(obj, key))


def _column(records: list, key: str, convert):
    """``convert`` of the list of field ``key`` of every record, read by one C-level ``map``.

    A record that is not an object or lacks the field raises ``InvalidBody``
    naming it, as ``_field`` does; an ill-typed value anywhere in the column
    names the field too.
    """
    try:
        values = list(map(itemgetter(key), records))
    except (KeyError, TypeError):
        for rec in records:  # malformed files only: the first record at fault raises
            _present(rec, key)
        raise
    return _converted(key, convert, values)


def _vec3(v) -> np.ndarray:
    a = _numbers(v, 1)
    if a.shape != (3,):
        raise ValueError("expected a 3-vector, got shape %s" % (a.shape,))
    return a


def _vertices(v) -> np.ndarray:
    a = _numbers(v, 2)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError("expected an (n, 3) array, got shape %s" % (a.shape,))
    return a


def _points(v) -> np.ndarray:
    """One 3-vector per record, as an (n, 3) array; no records give (0, 3)."""
    return _vertices(v) if v else np.empty((0, 3))


def _floats(v) -> np.ndarray:
    return _numbers(v, 1)


def loads_body(text: str) -> ConvexBody:
    """Parse a body; malformed records raise ``InvalidBody`` naming the field.

    A ``polytope`` file gives a ``Polytope``.  A ``pc-body`` file gives the
    body of its interior point and of the one stack of its records, great
    arcs only or not (``to_polytope`` reads such a body as a polygon): the
    great-arc records are built as one ``great_arc_stack``, the small-circle
    records as one ``small_arc_stack``, bit for bit the stack of the
    records' ``GreatArc`` and ``SmallCircleArc`` objects, and a degenerate
    record raises what its object would (``DegenerateArc`` or
    ``ValueError``).
    """
    obj = _json(text)
    kind = _field(obj, "kind", str)
    if kind == "polytope":
        return Polytope(_field(obj, "vertices", _vertices))
    if kind == "pc-body":
        records = _field(obj, "pieces", list)
        tags = _column(records, "type", lambda v: list(map(str, v)))
        tag = np.array(tags, dtype=object)  # compared as Python strings
        is_great, is_small = tag == "great", tag == "circle"
        unknown = np.flatnonzero(~(is_great | is_small))
        if len(unknown):
            raise InvalidBody("unknown piece type %r" % tags[unknown[0]])
        great, small = np.flatnonzero(is_great), np.flatnonzero(is_small)
        g = list(map(records.__getitem__, great.tolist()))
        c = list(map(records.__getitem__, small.tolist()))
        great_arcs = great_arc_stack(_column(g, "from", _points), _column(g, "to", _points))
        small_arcs = small_arc_stack(
            _column(c, "center", _points),
            _column(c, "radius", _floats),
            _column(c, "az_from", _floats),
            _column(c, "az_to", _floats),
        )
        return chain_body(join_stacks(great_arcs, small_arcs, keys=[great, small]), _field(obj, "interior", _vec3))
    raise InvalidBody("unknown body kind %r" % kind)


def dumps_certificate(cert: Certificate) -> str:
    """Serialize a certificate, ``"passed":true`` last: a certificate exists only for a pair that passed."""
    return (
        '{"epsilon":%.17g,"hausdorff_bound":%.17g,"width_min":%.17g,"width_max":%.17g,'
        '"self_duality_residual":%.17g,"steps":%d,"rounds":%d,"passed":true}'
        % (
            cert.epsilon,
            cert.hausdorff_bound,
            cert.width_min,
            cert.width_max,
            cert.self_duality_residual,
            cert.steps,
            cert.rounds,
        )
    )


def loads_certificate(text: str) -> Certificate:
    """Parse a certificate; a missing or ill-typed field raises ``InvalidBody`` naming it."""
    obj = _json(text)
    return Certificate(
        epsilon=_field(obj, "epsilon", _number),
        hausdorff_bound=_field(obj, "hausdorff_bound", _number),
        width_min=_field(obj, "width_min", _number),
        width_max=_field(obj, "width_max", _number),
        self_duality_residual=_field(obj, "self_duality_residual", _number),
        steps=_field(obj, "steps", _count),
        rounds=_field(obj, "rounds", _count),
    )


_STEP = (
    '{"p1":%s,"p2":%s,"q1":%s,"q2":%s,"r1":%s,' % ((_VEC,) * 5)
    + '"primal_piece_id":%d,"dual_piece_id":%d,"r1_distance":%.17g}'
)


def dumps_step(rec: StepRecord) -> str:
    """One step record, in one ``%`` format."""
    points = np.concatenate([rec.p1, rec.p2, rec.q1, rec.q2, rec.r1]).tolist()
    return _STEP % (*points, rec.primal_piece_id, rec.dual_piece_id, rec.r1_distance)


def dumps_step_log(steps: StepTable) -> str:
    """One step record per line (JSON lines): the table's rows in one ``format_rows`` call over its ``columns``."""
    return "".join(map("%s\n".__mod__, format_rows(_STEP, steps.columns())))


def loads_step_log(text: str) -> list[StepRecord]:
    """Parse a step log, one record per non-blank line; a missing or ill-typed field, or a point that is
    not a 3-vector, raises ``InvalidBody`` naming it."""
    return [
        StepRecord(
            p1=_field(obj, "p1", _vec3),
            p2=_field(obj, "p2", _vec3),
            q1=_field(obj, "q1", _vec3),
            q2=_field(obj, "q2", _vec3),
            r1=_field(obj, "r1", _vec3),
            primal_piece_id=_field(obj, "primal_piece_id", _count),
            dual_piece_id=_field(obj, "dual_piece_id", _count),
            r1_distance=_field(obj, "r1_distance", _number),
        )
        for obj in (_json(line) for line in text.splitlines() if line.strip())
    ]

"""JSON serialization of bodies, certificates and step logs.

Numbers are written with 17 significant digits, which round-trips binary64
exactly; the writer emits keys in a fixed order so equal inputs produce
byte-identical files.  The readers take numbers only as JSON numbers, never
as strings or booleans, and raise ``InvalidBody`` on any malformed input,
broken JSON included.
"""

from __future__ import annotations

import json

import numpy as np

from .approx import Certificate, StepRecord
from .body import ConvexBody, Polytope
from .errors import InvalidBody
from .sphere import GreatArc, SmallCircleArc


def _num(x: float) -> str:
    return format(float(x), ".17g")


def _vec(v) -> str:
    return "[%s]" % ",".join(_num(c) for c in v)


def dumps_body(body: ConvexBody) -> str:
    """Serialize a polytope or piecewise-circular body.

    The pieces are written from the body's stack: a great arc by its ends,
    a small-circle arc by its centre, radius and azimuth range (``z``,
    ``radius``, ``t0`` and ``t1`` of the stack).
    """
    if isinstance(body, Polytope):
        verts = ",".join(_vec(v) for v in body.vertices.tolist())
        return '{"kind":"polytope","vertices":[%s]}' % verts
    a = body.arcs
    parts = []
    for great, start, end, z, r, t0, t1 in zip(
        a.great.tolist(),
        a.start.tolist(),
        a.end.tolist(),
        a.z.tolist(),
        a.radius.tolist(),
        a.t0.tolist(),
        a.t1.tolist(),
    ):
        if great:
            parts.append('{"type":"great","from":%s,"to":%s}' % (_vec(start), _vec(end)))
        else:
            parts.append(
                '{"type":"circle","center":%s,"radius":%s,"az_from":%s,"az_to":%s}'
                % (_vec(z), _num(r), _num(t0), _num(t1))
            )
    return '{"kind":"pc-body","interior":%s,"pieces":[%s]}' % (
        _vec(body.interior),
        ",".join(parts),
    )


def _json(text: str):
    """The parsed ``text``; a JSON syntax error raises ``InvalidBody`` with the parser's message."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidBody("malformed JSON: %s" % exc) from None


def _number(x) -> float:
    """A JSON number as a float; a string or a bool, which ``float`` would take, raises ``TypeError``."""
    if type(x) not in (int, float):
        raise TypeError("expected a number, got %s" % type(x).__name__)
    return float(x)


def _count(x) -> int:
    """A JSON integer; a bool, which ``operator.index`` would take, raises ``TypeError``."""
    if type(x) is not int:
        raise TypeError("expected an integer, got %s" % type(x).__name__)
    return x


def _numbers(v) -> np.ndarray:
    """Nested JSON lists of numbers (``_number``) as a float array."""
    todo = [v]
    while todo:
        x = todo.pop()
        if type(x) is list:
            todo.extend(x)
        else:
            _number(x)
    return np.asarray(v, dtype=float)


def _field(obj, key: str, convert):
    """``convert(obj[key])``, or ``InvalidBody`` naming a missing or ill-typed field."""
    if not isinstance(obj, dict):
        raise InvalidBody("expected a JSON object, got %s" % type(obj).__name__)
    if key not in obj:
        raise InvalidBody("missing field %r" % key)
    try:
        return convert(obj[key])
    except (TypeError, ValueError) as exc:
        raise InvalidBody("ill-typed field %r: %s" % (key, exc)) from None


def _vec3(v) -> np.ndarray:
    a = _numbers(v)
    if a.shape != (3,):
        raise ValueError("expected a 3-vector, got shape %s" % (a.shape,))
    return a


def _vertices(v) -> np.ndarray:
    a = _numbers(v)
    if a.ndim != 2 or a.shape[1] != 3:
        raise ValueError("expected an (n, 3) array, got shape %s" % (a.shape,))
    return a


def loads_body(text: str) -> ConvexBody:
    """Parse a body; malformed records raise ``InvalidBody`` naming the field.

    A ``polytope`` file gives a ``Polytope``, a ``pc-body`` file the
    ``ConvexBody`` of its records, read one by one, and of its interior
    point, great arcs only or not (``to_polytope`` reads such a body as a
    polygon).
    """
    obj = _json(text)
    kind = _field(obj, "kind", str)
    if kind == "polytope":
        return Polytope(_field(obj, "vertices", _vertices))
    if kind == "pc-body":
        pieces = []
        for rec in _field(obj, "pieces", list):
            tag = _field(rec, "type", str)
            if tag == "great":
                pieces.append(GreatArc(_field(rec, "from", _vec3), _field(rec, "to", _vec3)))
            elif tag == "circle":
                pieces.append(
                    SmallCircleArc(
                        _field(rec, "center", _vec3),
                        _field(rec, "radius", _number),
                        _field(rec, "az_from", _number),
                        _field(rec, "az_to", _number),
                    )
                )
            else:
                raise InvalidBody("unknown piece type %r" % tag)
        return ConvexBody(pieces, _field(obj, "interior", _vec3))
    raise InvalidBody("unknown body kind %r" % kind)


def dumps_certificate(cert: Certificate) -> str:
    """Serialize a certificate, ``"passed":true`` last: a certificate exists only for a pair that passed."""
    fields = [
        ('"epsilon":%s' % _num(cert.epsilon)),
        ('"hausdorff_bound":%s' % _num(cert.hausdorff_bound)),
        ('"width_min":%s' % _num(cert.width_min)),
        ('"width_max":%s' % _num(cert.width_max)),
        ('"self_duality_residual":%s' % _num(cert.self_duality_residual)),
        ('"steps":%d' % cert.steps),
        ('"rounds":%d' % cert.rounds),
        '"passed":true',
    ]
    return "{%s}" % ",".join(fields)


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


def dumps_step(rec: StepRecord) -> str:
    return (
        '{"p1":%s,"p2":%s,"q1":%s,"q2":%s,"r1":%s,'
        '"primal_piece_id":%d,"dual_piece_id":%d,"r1_distance":%s}'
        % (
            _vec(rec.p1),
            _vec(rec.p2),
            _vec(rec.q1),
            _vec(rec.q2),
            _vec(rec.r1),
            rec.primal_piece_id,
            rec.dual_piece_id,
            _num(rec.r1_distance),
        )
    )


def dumps_step_log(steps) -> str:
    """One step record per line (JSON lines)."""
    return "".join(dumps_step(s) + "\n" for s in steps)


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

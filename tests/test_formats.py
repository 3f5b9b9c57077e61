import json
import math

import numpy as np
import pytest

from spherewidth.approx import ApproximationConfig, approximate_polytope
from spherewidth.body import Polytope
from spherewidth.errors import InvalidBody
from spherewidth.formats import (
    dumps_body,
    dumps_certificate,
    dumps_step_log,
    loads_body,
    loads_certificate,
    loads_step_log,
)
from spherewidth.generators import cap, octant
from spherewidth.sphere import unit

E3 = np.array([0.0, 0.0, 1.0])


def test_polytope_roundtrip_exact():
    p = octant()
    q = loads_body(dumps_body(p))
    assert isinstance(q, Polytope)
    assert np.array_equal(p.vertices, q.vertices)


def test_pc_body_roundtrip_exact():
    b = cap(unit([0.123456789012345, -0.9, 0.43]), 0.6543210987654321)
    c = loads_body(dumps_body(b))
    assert np.array_equal(b.interior, c.interior)
    p0, p1 = b.pieces[0], c.pieces[0]
    assert np.array_equal(p0.center, p1.center)
    assert p0.radius == p1.radius
    assert p0.az_from == p1.az_from
    assert p0.az_to == p1.az_to


def test_mixed_body_roundtrip_exact():
    body, _, steps = approximate_polytope(cap(E3, math.pi / 4), ApproximationConfig(epsilon=0.4))
    text = dumps_body(body)
    assert text == dumps_body(loads_body(text))


def test_serialization_deterministic():
    b = cap(E3, math.pi / 4)
    assert dumps_body(b) == dumps_body(b)


def test_certificate_roundtrip():
    _, cert, steps = approximate_polytope(cap(E3, math.pi / 4), ApproximationConfig(epsilon=0.3))
    text = dumps_certificate(cert)
    back = loads_certificate(text)
    assert back == cert
    log = dumps_step_log(steps)
    back_steps = loads_step_log(log)
    assert len(back_steps) == len(steps)
    for s0, s1 in zip(steps, back_steps):
        assert np.array_equal(s0.r1, s1.r1)
        assert s0.r1_distance == s1.r1_distance
        assert s0.primal_piece_id == s1.primal_piece_id


def _loads_per_record(text):
    """The body of a ``pc-body`` file built one piece object per record."""
    import json

    from spherewidth.body import ConvexBody
    from spherewidth.sphere import GreatArc, SmallCircleArc

    obj = json.loads(text)
    pieces = [
        GreatArc(rec["from"], rec["to"])
        if rec["type"] == "great"
        else SmallCircleArc(rec["center"], rec["radius"], rec["az_from"], rec["az_to"])
        for rec in obj["pieces"]
    ]
    return ConvexBody(pieces, obj["interior"])


def test_great_arc_files_load_as_stacks_bit_for_bit():
    # a pc-body of great arcs only, the format ``dual`` wrote for a polygon
    # until it wrote polytope files, is still read record by record: its
    # stack is the one-pass stack of the file's ends, its interior the
    # file's, and as a polygon it is the polytope file of the same dual
    import json
    from dataclasses import fields

    from fixtures import acceptance_corpus
    from spherewidth.body import chain_body, polar_dual, to_polytope
    from spherewidth.sphere import great_arc_stack

    great = 0
    for _, body in acceptance_corpus().values():
        dual = polar_dual(body)
        if not isinstance(dual, Polytope):
            continue
        new = loads_body(dumps_body(dual))
        text = dumps_body(chain_body(dual.arcs))
        got, ref = loads_body(text), _loads_per_record(text)
        assert type(new) is Polytope and type(got) is not Polytope
        records = json.loads(text)["pieces"]
        want = great_arc_stack(*(np.array([r[key] for r in records]) for key in ("from", "to")))
        for f in fields(want):
            assert np.array_equal(getattr(got.arcs, f.name), getattr(want, f.name)), f.name
        assert np.array_equal(got.interior, ref.interior)
        assert dumps_body(got) == dumps_body(ref)
        assert np.abs(to_polytope(got).vertices - new.vertices).max() <= 1e-15
        great += 1
    assert great > 30


@pytest.mark.parametrize(
    "record, field",
    [('{"type":"great","from":[1,0,0]}', "'to'"), ('{"type":"great","from":[1,0],"to":[0,1,0]}', "'from'")],
)
def test_malformed_great_record_names_its_field(record, field):
    text = '{"kind":"pc-body","interior":[0,0,1],"pieces":[{"type":"great","from":[0,1,0],"to":[1,0,0]},%s]}' % record
    with pytest.raises(InvalidBody, match=field):
        loads_body(text)


STEP = '{"p1":[1,0,0],"p2":[0,1,0],"q1":[0,0,1],"q2":[0,1,0],"r1":[0,0,1],"primal_piece_id":0,"dual_piece_id":1,"r1_distance":0.001}'
CERT = '{"epsilon":0.01,"hausdorff_bound":0.002,"width_min":1.5,"width_max":1.6,"self_duality_residual":0,"steps":3,"rounds":1,"passed":true}'


def _edit(text, key, value):
    """``text`` with field ``key`` set to the JSON ``value``, or removed for None."""
    obj = json.loads(text)
    if value is None:
        del obj[key]
    else:
        obj[key] = json.loads(value)
    return json.dumps(obj)


@pytest.mark.parametrize(
    "key, value",
    [
        ("p2", None),  # missing
        ("r1_distance", None),
        ("primal_piece_id", '"0"'),  # ill-typed
        ("dual_piece_id", "1.5"),
        ("r1_distance", "[0.001]"),
        ("q1", '"north"'),
        ("p1", "[1, 0]"),  # wrong-shaped points
        ("r1", "[[0, 0, 1]]"),
        ("primal_piece_id", "true"),  # a bool or a string for a number
        ("r1_distance", '"0.001"'),
        ("p1", '["1", 0, 0]'),
        ("q2", "[0, true, 0]"),
    ],
)
def test_malformed_step_record_names_its_field(key, value):
    good = loads_step_log(STEP + "\n\n" + STEP)
    assert len(good) == 2 and good[0].dual_piece_id == 1 and good[0].p1.shape == (3,)
    with pytest.raises(InvalidBody, match=repr(key)):
        loads_step_log(STEP + "\n" + _edit(STEP, key, value))


@pytest.mark.parametrize(
    "key, value",
    [
        ("epsilon", None),
        ("rounds", None),
        ("steps", "2.5"),
        ("width_min", '"wide"'),
        ("hausdorff_bound", "[0.1]"),
        ("steps", "true"),  # a bool or a string for a number
        ("rounds", "false"),
        ("epsilon", '"0.01"'),
    ],
)
def test_malformed_certificate_names_its_field(key, value):
    assert loads_certificate(CERT).steps == 3
    with pytest.raises(InvalidBody, match=repr(key)):
        loads_certificate(_edit(CERT, key, value))


BODIES = {
    "pc-body": '{"kind":"pc-body","interior":[0,0,1],'
    '"pieces":[{"type":"circle","center":[0,0,1],"radius":0.75,"az_from":0,"az_to":6.25}]}',
    "polytope": '{"kind":"polytope","vertices":[[1,0,0],[0,1,0],[0,0,1]]}',
}


@pytest.mark.parametrize(
    "kind, good, bad, field",
    [
        ("pc-body", '"radius":0.75', '"radius":"0.75"', "'radius'"),
        ("pc-body", '"center":[0,0,1]', '"center":["0",0,true]', "'center'"),
        ("pc-body", '"interior":[0,0,1]', '"interior":[0,0,true]', "'interior'"),
        ("pc-body", '"az_from":0', '"az_from":false', "'az_from'"),
        ("polytope", "[0,1,0]", '[0,"1",0]', "'vertices'"),
    ],
    ids=["radius-string", "center-string-bool", "interior-bool", "az_from-bool", "vertex-string"],
)
def test_body_numbers_are_json_numbers(kind, good, bad, field):
    # float() and numpy read "0.75" and true as numbers; the loader refuses them
    assert good in BODIES[kind] and len(loads_body(BODIES[kind]).arcs) >= 1
    with pytest.raises(InvalidBody, match=field):
        loads_body(BODIES[kind].replace(good, bad))


@pytest.mark.parametrize("loads", [loads_body, loads_certificate, loads_step_log])
def test_broken_json_is_an_invalid_body_with_the_parser_message(loads):
    with pytest.raises(InvalidBody, match="Expecting ',' delimiter: line 1 column 13"):
        loads('{"kind":"a" "b"}')


def test_step_log_record_must_be_an_object():
    with pytest.raises(InvalidBody, match="JSON object"):
        loads_step_log("[1, 0, 0]")

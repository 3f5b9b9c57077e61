import json
import math

import numpy as np
import oracles
import pytest
from fixtures import curved_bodies, curved_selfdual_bodies

from spherewidth.approx import ApproximationConfig, approximate_polytope
from spherewidth.body import ConvexBody, Polytope, polar_dual
from spherewidth.errors import DegenerateArc, InvalidBody
from spherewidth.formats import (
    dumps_body,
    dumps_certificate,
    dumps_step_log,
    loads_body,
    loads_certificate,
    loads_step_log,
)
from spherewidth.generators import cap, octant
from spherewidth.sphere import GreatArc, SmallCircleArc, unit

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
        got, ref = loads_body(text), oracles.loads_body_per_record(text)
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


def _signed_zero_bodies():
    """A polytope and a pc-body of great and small arcs that carry -0.0 in their numbers."""
    poly = Polytope([[1.0, -0.0, 0.0], [-0.0, 1.0, 0.0], [0.0, -0.0, 1.0]])
    pieces = [
        GreatArc([1.0, -0.0, 0.0], [-0.0, 1.0, 0.0]),
        SmallCircleArc([-0.0, 0.0, 1.0], 0.5, -0.0, 1.0),
        GreatArc([0.0, 1.0, -0.0], [1.0, -0.0, 0.0]),
    ]
    return [poly, ConvexBody(pieces, [0.3, -0.0, 1.0])]


def _writer_corpus():
    bodies = _signed_zero_bodies() + [octant(), cap(E3, math.pi / 4)]
    selfdual = curved_selfdual_bodies()
    for name, body in curved_bodies().items():
        bodies += [body, polar_dual(body)]
        if name in selfdual:
            bodies.append(approximate_polytope(body, ApproximationConfig(0.05))[0])
    return bodies


def test_body_writer_is_the_per_number_writer_byte_for_byte():
    # one % format per vertex or record, mapped over the stack's rows, writes
    # the bytes of formatting each number on its own, -0.0 as "-0"
    bodies = _writer_corpus()
    assert {type(b) for b in bodies} == {Polytope, ConvexBody}
    for body in bodies:
        assert dumps_body(body) == oracles.dumps_body_per_number(body)
    assert all('"-0"' not in x and "-0," in x for x in map(dumps_body, _signed_zero_bodies()))


def test_pc_body_files_load_as_the_stack_of_their_records():
    # the great-arc records of a mixed file make one great_arc_stack, its
    # small-circle records one small_arc_stack, joined in record order: bit
    # for bit the stack of one piece object per record
    from dataclasses import fields

    mixed = 0
    for body in _writer_corpus():
        if isinstance(body, Polytope):
            continue
        text = dumps_body(body)
        got, want = loads_body(text), oracles.loads_body_per_record(text)
        for f in fields(want.arcs):
            assert getattr(got.arcs, f.name).tobytes() == getattr(want.arcs, f.name).tobytes(), f.name
        assert got.interior.tobytes() == want.interior.tobytes()
        mixed += 0 < int(got.arcs.great.sum()) < len(got.arcs)
    assert mixed >= 8
    # an empty chain still loads, and fails validation on its piece count
    assert len(loads_body('{"kind":"pc-body","interior":[0,0,1],"pieces":[]}').arcs) == 0


@pytest.mark.parametrize("tag", ['"great\\u0000"', '"Great"', "1", '"circle "'])
def test_unknown_piece_type_is_refused(tag):
    # tags compare as Python strings: a trailing NUL, which a numpy string
    # array would drop, or a number is no piece type
    text = '{"kind":"pc-body","interior":[0,0,1],"pieces":[{"type":%s,"from":[1,0,0],"to":[0,1,0]}]}' % tag
    with pytest.raises(InvalidBody, match="unknown piece type"):
        loads_body(text)


@pytest.mark.parametrize(
    "record, error",
    [
        ('{"type":"great","from":[1,0,0],"to":[1,0,0]}', DegenerateArc),
        ('{"type":"great","from":[0,0,0],"to":[1,0,0]}', ValueError),
        ('{"type":"circle","center":[0,0,1],"radius":1.6,"az_from":0,"az_to":1}', ValueError),
        ('{"type":"circle","center":[0,0,1],"radius":0.5,"az_from":1,"az_to":1}', ValueError),
        ('{"type":"circle","center":[0,0,0],"radius":0.5,"az_from":0,"az_to":1}', ValueError),
    ],
)
def test_degenerate_record_raises_what_its_object_does(record, error):
    text = '{"kind":"pc-body","interior":[0,0,1],"pieces":[{"type":"circle","center":[0,0,1],"radius":0.7,"az_from":0,"az_to":3},%s]}' % record
    with pytest.raises(error) as want:
        oracles.loads_body_per_record(text)
    with pytest.raises(error) as got:
        loads_body(text)
    assert type(got.value) is type(want.value) and not isinstance(got.value, InvalidBody)


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

"""Linked verdict functions against the reference tree walk.

`PropertyEngine.predicate` links a predicate into one function of what it
binds.  Seeded random predicates (nested `&`, `|`, `!` and comparisons by
every operator, empty conjunctions and disjunctions among them) are decided
on objects whose values are Undefined, bools, ints, floats and strings,
some computed on demand (a memoized intrinsic or not), some already on the
object.  Each linked verdict must equal `_reference_verdict.verdict`'s, with
the same property calls, cost and values left on the objects: the same
short-circuit order, and `compare`'s rules (an ordered comparison holds for
numbers only, and a bool is not one).
"""

import random

import pytest

from vidquery.datamodel import UNDEFINED, Edge, VObjInstance
from vidquery.dsl.ast import COMPARISON_OPS, ORDERED_OPS, And, Compare, Not, \
    Or, PropRef
from vidquery.executor import ExecConfig, ExecStats, PropertyEngine, Session
from vidquery.operators import PlanLinkError
from vidquery.planner import plan_query

from _reference_verdict import verdict as reference_verdict
from conftest import CAR_PROGRAM, frozen_registry, make_program, meta_1000

SEED = 34
CASES = 400

PROGRAM = """
vobj Car {
  detector: "general_car"
  property a: stateless(impl="attr:a") intrinsic
  property b: stateless(impl="attr:b")
  property c: stateless(impl="attr:c") intrinsic
  property d: stateless(impl="attr:d")
}
vobj Person {
  detector: "general_person"
  property a: stateless(impl="attr:a") intrinsic
  property b: stateless(impl="attr:b")
}
"""
PROPS = {"Car": "abcd", "Person": "ab"}
EDGE_PROPS = ("near", "far")

# a value an object or an edge may hold, and a comparison's literal
SCALARS = [True, False, 0, 1, 2, -1, 1.0, 2.5, -0.5, "red", "blue", ""]
NUMBERS = [0, 1, 2, -1, 1.0, 2.5, -0.5]


def draw_value(rng):
    """An attribute's value, or None for an absent one (Undefined)."""
    return rng.choice(SCALARS + [None, None])


def draw_compare(rng, refs):
    op = rng.choice(COMPARISON_OPS)
    if op in ORDERED_OPS:
        literal = rng.choice(NUMBERS)
    elif op == "in":
        literal = tuple(rng.sample(SCALARS, rng.randint(0, 3)))
    else:
        literal = rng.choice(SCALARS)
    return Compare(rng.choice(refs), op, literal)


def draw_predicate(rng, refs, depth=3):
    kind = rng.choice(("cmp", "cmp", "and", "or", "not")) if depth else "cmp"
    if kind == "cmp":
        return draw_compare(rng, refs)
    if kind == "not":
        return Not(draw_predicate(rng, refs, depth - 1))
    items = tuple(draw_predicate(rng, refs, depth - 1)
                  for _ in range(rng.randint(0, 3)))
    return And(items) if kind == "and" else Or(items)


def draw_objects(rng, vobj, track, count=2):
    """`count` objects of `track`, each with drawn attributes, and some with
    a value already on the object (Undefined among them)."""
    objects = []
    for i in range(count):
        attrs = {p: v for p in PROPS[vobj]
                 if (v := draw_value(rng)) is not None}
        on_node = {p: rng.choice(SCALARS + [UNDEFINED])
                   for p in PROPS[vobj] if rng.random() < 0.2}
        objects.append(VObjInstance((i, 0), vobj, i, (0.0, 0.0, 1.0, 1.0),
                                    attrs=attrs, properties=on_node,
                                    track=track))
    return objects


def engine(memo=True):
    engine = PropertyEngine(make_program(PROGRAM), frozen_registry(),
                            meta_1000(10), ExecConfig(memo=memo), ExecStats())
    engine.link("Car")
    engine.link("Person")
    return engine


def same(a, b) -> bool:
    return type(a) is type(b) and a == b


def copies(objects):
    return [VObjInstance(n.node_id, n.class_name, n.frame_id, n.bbox,
                         dict(n.attrs), dict(n.properties), n.track)
            for n in objects]


@pytest.mark.parametrize("memo", [True, False])
def test_a_linked_verdict_is_the_reference_verdict(memo):
    refs = [PropRef("c", p) for p in PROPS["Car"]]
    for case in range(CASES):
        rng = random.Random(f"{SEED} object {memo} {case}")
        expr = draw_predicate(rng, refs)
        linked, reference = engine(memo), engine(memo)
        track = linked.track("tracker", "Car", 1)
        objects = draw_objects(rng, "Car", track)
        twins = copies(objects)
        verdict = linked.predicate(expr, {"c": "Car"})
        for node, twin in zip(objects, twins):
            want = reference_verdict(reference.get, expr, {"c": twin})
            got = verdict(node)
            where = f"case {case}: {expr} on {twin.attrs} {twin.properties}"
            assert same(got, want), f"{where}: {got!r} != {want!r}"
            assert node.properties == twin.properties, where
        assert linked.stats.property_calls == reference.stats.property_calls
        assert repr(linked.stats.cost_units) == \
            repr(reference.stats.cost_units)


def test_a_linked_edge_verdict_is_the_reference_verdict():
    refs = [PropRef("c", p) for p in PROPS["Car"]] \
        + [PropRef("p", p) for p in PROPS["Person"]] \
        + [PropRef(None, p, "Near", ("c", "p")) for p in EDGE_PROPS]
    for case in range(CASES):
        rng = random.Random(f"{SEED} edge {case}")
        expr = draw_predicate(rng, refs)
        linked, reference = engine(), engine()
        car, person = (draw_objects(rng, t, linked.track("tracker", t, 1), 1)[0]
                       for t in ("Car", "Person"))
        properties = {p: v for p in EDGE_PROPS
                      if (v := draw_value(rng)) is not None}
        edge = Edge(car, person, properties)
        twin = Edge(*copies([car, person]), properties)
        verdict = linked.predicate(expr, {"c": "Car", "p": "Person"},
                                   ("c", "p"))
        want = reference_verdict(reference.get, expr,
                                 {"c": twin.a, "p": twin.b}, twin)
        got = verdict(edge)
        assert same(got, want), f"case {case}: {expr}: {got!r} != {want!r}"
        assert (edge.a.properties, edge.b.properties) == \
            (twin.a.properties, twin.b.properties)
        assert linked.stats.property_calls == reference.stats.property_calls
        assert repr(linked.stats.cost_units) == \
            repr(reference.stats.cost_units)


@pytest.mark.parametrize("op", ORDERED_OPS)
@pytest.mark.parametrize("value", [True, False])
def test_an_ordered_comparison_on_a_bool_is_false(op, value):
    node = VObjInstance((0, 0), "Car", 0, (0.0, 0.0, 1.0, 1.0),
                        properties={"a": value})
    verdict = engine().predicate(Compare(PropRef("c", "a"), op, 0),
                                 {"c": "Car"})
    assert verdict(node) is False


def test_empty_conjunctions_and_disjunctions():
    node = VObjInstance((0, 0), "Car", 0, (0.0, 0.0, 1.0, 1.0))
    linked = engine()
    assert linked.predicate(And(()), {"c": "Car"})(node) is True
    assert linked.predicate(Or(()), {"c": "Car"})(node) is False
    assert linked.predicate(None, {"c": "Car"})(node) is True


def test_a_property_the_program_lacks_fails_when_the_pass_links():
    registry, meta = frozen_registry(), meta_1000(10)
    dag = plan_query(make_program(CAR_PROGRAM + """
query reds {
  bind c: Car
  frame_constraint: c.color == "red"
}
"""), "reds", registry, meta=meta)
    other = make_program(CAR_PROGRAM.replace(
        '  property color: stateless(impl="attr:color") intrinsic\n', ""))
    with pytest.raises(PlanLinkError, match="Car has no property 'color'"):
        Session(other, registry, meta).start([dag])

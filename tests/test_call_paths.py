"""The layer functions a pass calls are looked up where they live, on every
call: what replaces `executor.call_property_impl`, `executor.window` or
`operators.relation_value` after a pass has linked its readers and
predicates is what the pass runs.  Span tracing (`bench/tracing.py`)
replaces them there, so a reader or verdict function that held the function
it found at link time would hide its calls from the tracer."""

from vidquery import executor, operators
from vidquery.executor import Session, trace_batches
from vidquery.planner import plan_query
from vidquery.synth import write_world

from conftest import CAR_PROGRAM, frozen_registry, make_program, \
    red_car_and_adult

PROGRAM = CAR_PROGRAM + """
vobj Person {
  detector: "general_person"
  property role: stateless(impl="attr:role") intrinsic
}
relation Near(Car, Person) {
  property distance_px: stateless(impl="distance_px")
}
query reds {
  bind c: Car
  frame_constraint: c.color == "red" & c.speed > 0.5
  frame_output: c.direction
}
query right_reds {
  bind c: Car
  frame_constraint: c.color == "red"
  video_constraint: c.direction == "right"
  video_output: count_distinct(c)
}
query adults {
  bind p: Person
  frame_constraint: p.role == "adult"
}
spatial query near_red {
  first: reds
  second: adults
  relation: Near
  predicate: Near(c, p).distance_px < 400 & c.direction == "right"
}
"""
QUERIES = ["reds", "right_reds", "adults", "near_red"]


def counted(module, name, monkeypatch) -> list:
    """Replace `module.name` with a wrapper that records each call."""
    calls, original = [], getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_every_call_after_linking_goes_through_the_module(tmp_path,
                                                         monkeypatch):
    world = red_car_and_adult(30)
    trace = write_world(world, tmp_path / "w")["trace"]
    vprog, registry = make_program(PROGRAM), frozen_registry()
    dags = [plan_query(vprog, q, registry, meta=world.meta) for q in QUERIES]
    session = Session(vprog, registry, world.meta)
    session.start(dags)  # links every op, reader and predicate
    impl = counted(executor, "call_property_impl", monkeypatch)
    windows = counted(executor, "window", monkeypatch)
    relations = counted(operators, "relation_value", monkeypatch)
    for batch in trace_batches(trace, world.meta, 16):
        session.feed(batch)
    outcomes = session.finish()
    assert all(o.satisfied for o in outcomes), outcomes
    stats = session.stats
    object_calls = sum(n for name, n in stats.property_calls.items()
                       if not name.startswith("Near."))
    assert len(impl) == object_calls > 0
    assert len(relations) == stats.property_calls["Near.distance_px"] > 0
    # one window per stateful value read: speed and direction, each computed
    # once on each car after its warm-up
    assert {args[1] for args in windows} == {5}
    assert len(windows) >= stats.property_calls["Car.speed"] \
        + stats.property_calls["Car.direction"] > 0

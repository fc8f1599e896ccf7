"""Each binding sees only its own objects, also when two bindings share a
type.  The expected values come from the world scripts."""

from vidquery.synth import ObjectScript, WorldSpec, write_world

from conftest import (CAR_PROGRAM, car, make_program, meta_1000, row_objects,
                      run_single)

PROGRAM = CAR_PROGRAM + """
relation Near(Car, Car) {
  property distance_px: stateless(impl="distance_px")
}
query red_and_blue {
  bind a: Car
  bind b: Car
  frame_constraint: a.color == "red" & b.color == "blue"
  video_output: count_distinct(b)
}
query reds { bind a: Car
  frame_constraint: a.color == "red" }
query blues { bind b: Car
  frame_constraint: b.color == "blue" }
query movers { bind m: Car
  frame_constraint: m.speed > 1 }
spatial query red_near_blue {
  first: reds
  second: blues
  relation: Near
  predicate: Near(a, b).distance_px < 100
}
spatial query red_near_mover {
  first: reds
  second: movers
  relation: Near
  predicate: Near(a, m).distance_px < 100
}
"""


def nodes(row, binding):
    return [tuple(o["node"]) for o in row_objects(row, binding)]


def two_reds_near_one_far_blue(tmp_path, frames=8):
    """Trace indices 0 and 1 are red cars 60 px apart; 2 is blue, far off."""
    meta = meta_1000(frames)
    world = WorldSpec(meta=meta, objects=[
        car(1, 0, frames - 1, (100.0, 100.0)),
        car(2, 0, frames - 1, (160.0, 100.0)),
        car(3, 0, frames - 1, (800.0, 800.0), color="blue"),
    ])
    return write_world(world, tmp_path / "w")["trace"], meta


def test_bindings_of_one_type_keep_their_own_objects(tmp_path):
    trace, meta = two_reds_near_one_far_blue(tmp_path)
    outcome, _s, _d = run_single(make_program(PROGRAM), "red_and_blue",
                                 trace, meta)
    assert outcome.satisfied == list(range(8))
    for row in outcome.rows:
        f = row["frame"]
        assert nodes(row, "a") == [(f, 0), (f, 1)]
        assert nodes(row, "b") == [(f, 2)]
    assert outcome.video["value"] == 1  # the one blue car


def test_same_type_relation_needs_one_object_per_binding(tmp_path):
    # the reds are near each other, but no red is near the blue
    trace, meta = two_reds_near_one_far_blue(tmp_path)
    outcome, _s, _d = run_single(make_program(PROGRAM), "red_near_blue",
                                 trace, meta)
    assert outcome.satisfied == []
    assert outcome.rows == []


def test_an_object_in_both_bindings_is_not_related_to_itself(tmp_path):
    # one red car that moves: it is in both `reds` and `movers`, and its
    # distance to itself would be 0
    meta = meta_1000(10)
    world = WorldSpec(meta=meta, objects=[
        car(1, 0, 9, (100.0, 100.0), velocity=(3.0, 0.0)),
    ])
    trace = write_world(world, tmp_path / "w")["trace"]
    vprog = make_program(PROGRAM)
    outcome, _s, _d = run_single(vprog, "red_near_mover", trace, meta)
    assert outcome.satisfied == []

    # a second, parked red car next to it relates the two, both ways round
    world.objects.append(car(2, 0, 9, (100.0, 160.0)))
    trace = write_world(world, tmp_path / "w2")["trace"]
    outcome, _s, _d = run_single(vprog, "red_near_mover", trace, meta)
    assert outcome.satisfied == list(range(4, 10))  # speed's window fills
    for row in outcome.rows:
        f = row["frame"]
        assert nodes(row, "a") == [(f, 0), (f, 1)]
        assert nodes(row, "m") == [(f, 0)]


TOGETHER = CAR_PROGRAM + """
vobj Person {
  detector: "general_person"
  property role: stateless(impl="attr:role") intrinsic
}
relation Near(Car, Person) {
  property distance_px: stateless(impl="distance_px")
}
query reds { bind c: Car
  frame_constraint: c.color == "red" }
query people { bind p: Person
  frame_constraint: p.role == "adult" }
spatial query together { first: reds second: people relation: Near }
"""


def test_a_spatial_query_without_a_predicate_holds_for_any_pair(tmp_path):
    # with no predicate every pair is related, however far apart
    meta = meta_1000(10)
    red = car(1, 0, 9, (100.0, 100.0))
    person = ObjectScript(label=2, class_name="person", start_frame=3,
                          end_frame=6, start_center=(900.0, 900.0),
                          size=(20.0, 24.0), attrs={"role": "adult"})
    world = WorldSpec(meta=meta, objects=[red, person])
    trace = write_world(world, tmp_path / "w")["trace"]
    outcome, _s, _d = run_single(make_program(TOGETHER), "together",
                                 trace, meta)
    both = [f for f in range(10) if red.alive(f) and person.alive(f)]
    assert both == [3, 4, 5, 6]
    assert outcome.satisfied == both
    for row in outcome.rows:
        f = row["frame"]
        assert (nodes(row, "c"), nodes(row, "p")) == ([(f, 0)], [(f, 1)])

"""Each binding sees only its own objects, also when two bindings share a
type.  The expected values come from the world scripts."""

import math

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

    # a second, parked red car next to it relates the two; the moving car
    # is related only as a mover, so row `a` lists the parked car alone
    world.objects.append(car(2, 0, 9, (100.0, 160.0)))
    trace = write_world(world, tmp_path / "w2")["trace"]
    outcome, _s, _d = run_single(vprog, "red_near_mover", trace, meta)
    assert outcome.satisfied == list(range(4, 10))  # speed's window fills
    for row in outcome.rows:
        f = row["frame"]
        assert nodes(row, "a") == [(f, 1)]
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


# a spatial row lists, and a duration over it tracks, only the objects of
# the pairs that held
NEAR = TOGETHER + """
spatial query near {
  first: reds
  second: people
  relation: Near
  predicate: Near(c, p).distance_px < 150
}
duration query lingering { base: near min_frames: 5 }
"""


def adult(label, start, end, center):
    return ObjectScript(label=label, class_name="person", start_frame=start,
                        end_frame=end, start_center=center,
                        attrs={"role": "adult"})


def related(world, f):
    """The objects alive on frame `f` that are in a pair within 150 px, by
    the world script's exact centres."""
    alive = [o for o in world.objects if o.alive(f)]
    pairs = [(c, p) for c in alive if c.class_name == "car"
             for p in alive if p.class_name == "person"
             and math.dist(c.center(f), p.center(f)) < 150]
    return {id(o) for pair in pairs for o in pair}


def expected_nodes(world, f, class_name):
    """The trace nodes of frame `f`'s related objects of `class_name`: a
    trace lists the objects alive on a frame in script order."""
    near = related(world, f)
    alive = [o for o in world.objects if o.alive(f)]
    return [(f, i) for i, o in enumerate(alive)
            if o.class_name == class_name and id(o) in near]


def test_a_spatial_row_lists_only_related_objects(tmp_path):
    # car 1 drives right past the adult: 200 px off on frame 0, 140 px on
    # frame 3, level on frame 10; car 3 is parked 100 px from the adult and
    # car 4 parked far from it, so frame 0 holds a near pair and a far car
    world = WorldSpec(meta=meta_1000(20), objects=[
        car(1, 0, 19, (100.0, 500.0), velocity=(20.0, 0.0)),
        adult(2, 0, 19, (300.0, 500.0)),
        car(3, 0, 19, (300.0, 600.0)),
        car(4, 0, 19, (900.0, 100.0)),
    ])
    trace = write_world(world, tmp_path / "w")["trace"]
    outcome, _s, _d = run_single(make_program(NEAR), "near", trace,
                                 world.meta)
    assert outcome.satisfied == list(range(20))
    for row in outcome.rows:
        f = row["frame"]
        assert nodes(row, "c") == expected_nodes(world, f, "car")
        assert nodes(row, "p") == expected_nodes(world, f, "person")
    listed = {n for row in outcome.rows for n in nodes(row, "c")}
    assert (0, 0) not in listed and (3, 0) in listed  # car 1, far then near
    assert not any(n[1] == 3 for n in listed)  # car 4, never near


def test_a_duration_fires_only_on_a_related_stretch(tmp_path):
    # car 1 is near adult 2 on frames 5-7 only, three frames of the five
    # `lingering` needs; car 3 is near adult 4 on every frame, so every
    # frame holds a pair
    world = WorldSpec(meta=meta_1000(12), objects=[
        car(1, 0, 11, (100.0, 100.0)),
        adult(2, 5, 7, (200.0, 100.0)),
        car(3, 0, 11, (700.0, 700.0)),
        adult(4, 0, 11, (800.0, 700.0)),
    ])
    trace = write_world(world, tmp_path / "w")["trace"]
    outcome, _s, _d = run_single(make_program(NEAR), "lingering", trace,
                                 world.meta)
    # each car's track, by the label of the object its rows list
    label = {}
    for row in outcome.rows:
        alive = [o for o in world.objects if o.alive(row["frame"])]
        for obj in row_objects(row, "c"):
            label[obj["track"]] = alive[obj["node"][1]].label
    fires = sorted((label[t], f) for t, f in outcome.duration_fires)
    # the script's runs of five related frames, every car born on frame 0
    want = [(c.label, f) for c in world.objects if c.class_name == "car"
            for f in range(4, 12)
            if all(id(c) in related(world, g) for g in range(f - 4, f + 1))]
    assert want == [(3, f) for f in range(4, 12)]
    assert fires == want

"""Results do not depend on the evaluation flags or on the batch size.

Seeded synth worlds of cars and persons, with missed frames and a Scene
channel that gates one query, run a mixed-shaped program: a stateful
window in a filter, a frame output and a video constraint, a gated query,
a spatial query, a duration and a temporal query.  Each query's result
bytes must be the same under the defaults, under `lazy=False` alone and
under `memo=False` alone, and at batch sizes 1, 3, 16 and 64.  Counted
work must be the same at every batch size, but for the relation property
that the spatial query's bound prunes: the relation projector computes the
first pair of each batch in full, so how often it computes that property,
and `cost_units` with it, still depend on the batch size (and so does the
order in which `cost_units` adds up floats).
"""

import json
import random

import pytest

from vidquery.executor import ExecConfig, Session, serialize_outcome
from vidquery.planner import plan_query
from vidquery.synth import ObjectScript, WorldSpec, write_world

from conftest import CAR_PROGRAM, car, frozen_registry, make_program, meta_1000

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
  frame_constraint: c.color == "red"
  frame_output: c.speed
}
query right_blues {
  bind c: Car
  frame_constraint: c.color == "blue"
  frame_output: c.direction
  video_constraint: c.direction == "right"
  video_output: count_distinct(c)
}
query gated_fast {
  bind s: Scene
  bind c: Car
  frame_constraint: s.motion_score >= 0.4 & c.speed > 1.0
}
query adults {
  bind p: Person
  frame_constraint: p.role == "adult"
}
spatial query near_red {
  first: reds
  second: adults
  relation: Near
  predicate: Near(c, p).distance_px < 250
}
duration query lingering {
  base: near_red
  min_frames: 3
  gap_tolerance: 1
}
temporal query red_then_fast {
  first: reds
  then: gated_fast
  max_interval_frames: 10
}
"""
QUERIES = ["reds", "right_blues", "gated_fast", "adults", "near_red",
           "lingering", "red_then_fast"]
FRAMES = 40
BATCH_SIZES = (1, 3, 16, 64)


def draw_world(seed: int) -> WorldSpec:
    """Cars in lanes 90 px apart, each missed on a few frames, the first red
    and the second blue; persons standing or walking by the lanes, the first
    an adult by the red car's; and a Scene `motion_score`."""
    rng = random.Random(seed)
    objects = []
    for label in range(1, rng.randint(3, 7)):
        start = rng.randrange(0, 10)
        end = rng.randrange(start + 12, FRAMES)
        life = range(start + 1, end)
        objects.append(car(
            label, start, end, (rng.uniform(50.0, 300.0), 90.0 * label),
            velocity=(rng.choice((-1, 1)) * rng.uniform(2.0, 15.0),
                      rng.uniform(-1.0, 1.0)),
            color=("red", "blue")[label - 1] if label < 3
            else rng.choice(("red", "blue")), jitter=1.0,
            dropout_frames=frozenset(rng.sample(life, rng.randint(0, 3)))))
    for label in range(len(objects) + 1, len(objects) + rng.randint(2, 4)):
        first = label == len(objects) + 1
        lane = 1 if first else rng.randint(1, len(objects))
        objects.append(ObjectScript(
            label=label, class_name="person", start_frame=rng.randrange(0, 8),
            end_frame=FRAMES - 1,
            start_center=(rng.uniform(100.0, 500.0), 90.0 * lane + 45.0),
            velocity=(rng.uniform(-2.0, 2.0), 0.0), size=(20.0, 40.0),
            attrs={"role": "adult" if first
                   else rng.choice(("adult", "child"))}))
    scores = [round(rng.random(), 2) for _ in range(FRAMES)]
    return WorldSpec(meta=meta_1000(FRAMES), seed=seed, objects=objects,
                     channels={"motion_score": scores})


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_results_do_not_depend_on_flags_or_batch_size(seed, tmp_path):
    world = draw_world(seed)
    trace = write_world(world, tmp_path / "w")["trace"]
    vprog, registry = make_program(PROGRAM), frozen_registry()
    dags = [plan_query(vprog, q, registry, meta=world.meta) for q in QUERIES]

    def run(config: ExecConfig):
        session = Session(vprog, registry, world.meta, config)
        texts = [serialize_outcome(o) for o in session.run(dags, trace)]
        stats = session.stats
        calls = {k: n for k, n in stats.property_calls.items()
                 if k != "Near.distance_px"}
        return dict(zip(QUERIES, texts)), (stats.component_calls, calls)

    want, work = run(ExecConfig())
    for query in QUERIES[:5]:  # the world is drawn for these to hold
        assert json.loads(want[query])["satisfied"], query
    for config in (ExecConfig(lazy=False), ExecConfig(memo=False)):
        got, _cost = run(config)
        for query in QUERIES:
            assert got[query] == want[query], (config, query)
    for size in BATCH_SIZES:
        got, got_work = run(ExecConfig(batch_size=size))
        for query in QUERIES:
            assert got[query] == want[query], (size, query)
        assert got_work == work, size

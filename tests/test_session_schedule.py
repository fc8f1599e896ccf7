"""One seeded world through one shared session: result bytes pinned by
digest, solo runs byte-identical to the shared run, and every scheduled
operator invoked exactly once per batch."""

import hashlib
import math
import random

from vidquery.executor import ExecConfig, Session, serialize_outcome
from vidquery.planner import PlannerConfig, plan_query
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
  frame_constraint: c.color == "red" & c.direction == "right"
}
query blue_speeds {
  bind b: Car
  frame_constraint: b.color == "blue"
  frame_output: b.speed
  video_output: count_distinct(b)
}
query adults { bind p: Person
  frame_constraint: p.role == "adult" }
spatial query red_near_adult {
  first: reds
  second: adults
  relation: Near
  predicate: Near(c, p).distance_px < 150
}
duration query held { base: reds min_frames: 5 gap_tolerance: 1 }
temporal query seq { first: reds then: adults max_interval_frames: 10 }
"""

QUERIES = ["reds", "blue_speeds", "red_near_adult", "held", "seq"]
SEED = 18
FRAMES = 60
BATCH = 7

# frozen goldens: sha256 of each query's result file; a change here is a
# change to the engine's result bytes
GOLDEN = {
    "reds":
        "de77d6bfb29e1a411a0c8f828478c3e03f108120464ea9926a8ee704408537d2",
    "blue_speeds":
        "084a762c56cf55aeafc3363a207b5bbfcbf3980145e1924f1dfc67022f25a51a",
    "red_near_adult":
        "b2835978fb234a6491e4e86f1564e30c995a2ca22a528a48784dfc361e81b626",
    "held":
        "ee2be380639035815566d2fc406cc5d1cc5f6077d145c5e3429c7aaef9308c3b",
    "seq":
        "a393a09413bfbb0df5ee6da0f6c9895e7fcb91d7f74b7cda05809e8bbe99719e",
}


def _world(seed: int) -> WorldSpec:
    rng = random.Random(seed)
    objects = []
    for label in range(1, 9):
        start = rng.randint(0, 50)
        objects.append(car(
            label, start, min(FRAMES - 1, start + rng.randint(5, 20)),
            (rng.uniform(50, 400), rng.uniform(300, 700)),
            velocity=(rng.choice([-4.0, 3.0, 5.0]), rng.uniform(-1, 1)),
            color=rng.choice(["red", "red", "blue"]), jitter=1.0,
        ))
    for label in range(9, 13):
        start = rng.randint(0, 40)
        objects.append(ObjectScript(
            label=label, class_name="person", start_frame=start,
            end_frame=min(FRAMES - 1, start + rng.randint(5, 25)),
            start_center=(rng.uniform(100, 500), rng.uniform(300, 700)),
            velocity=(rng.uniform(-1, 2), 0.0),
            attrs={"role": rng.choice(["adult", "child"])},
        ))
    return WorldSpec(meta=meta_1000(FRAMES), objects=objects, seed=seed)


def _run(vprog, registry, dags, paths, meta):
    session = Session(vprog, registry, meta, ExecConfig(batch_size=BATCH))
    return session.run(dags, paths["trace"]), session.stats


def test_shared_session_pinned_and_equal_to_solo(tmp_path):
    world = _world(SEED)
    paths = write_world(world, tmp_path / "w")
    meta = world.meta
    vprog = make_program(PROGRAM)
    registry = frozen_registry()
    dags = [plan_query(vprog, q, registry, PlannerConfig(), meta)
            for q in QUERIES]

    outcomes, stats = _run(vprog, registry, dags, paths, meta)
    shared = {o.query: serialize_outcome(o) for o in outcomes}
    digests = {q: hashlib.sha256(t.encode()).hexdigest()
               for q, t in shared.items()}
    assert digests == GOLDEN

    for dag in dags:
        (solo,), _ = _run(vprog, registry, [dag], paths, meta)
        assert serialize_outcome(solo) == shared[dag.query]

    # every distinct operator of this session has its own op id (hence the
    # binding `b` in blue_speeds), so each count is that operator's alone
    batches = math.ceil(FRAMES / BATCH)
    assert stats.op_invocations
    assert set(stats.op_invocations.values()) == {batches}
    assert not [op_id for op_id in stats.op_invocations
                if op_id.startswith(("duration:", "temporal:"))]


def test_duration_query_reuses_its_base_plan(tmp_path):
    """`held` re-plans `reds` under `reds/`-prefixed op ids; its detector,
    tracker, fused chain and output op are still reds' own and run once per
    batch, with the pinned result bytes."""
    world = _world(SEED)
    paths = write_world(world, tmp_path / "w")
    vprog = make_program(PROGRAM)
    registry = frozen_registry()
    reds, held = (plan_query(vprog, q, registry, PlannerConfig(), world.meta)
                  for q in ("reds", "held"))
    assert {"fused:reds/proj:c.color", "reds/output:reds"} <= set(held.ops)

    outcomes, stats = _run(vprog, registry, [reds, held], paths, world.meta)
    assert set(stats.op_invocations) == {
        op_id for op_id, pop in reds.ops.items() if pop.kind != "reader"
    }
    assert set(stats.op_invocations.values()) == {math.ceil(FRAMES / BATCH)}
    assert [hashlib.sha256(serialize_outcome(o).encode()).hexdigest()
            for o in outcomes] == [GOLDEN["reds"], GOLDEN["held"]]

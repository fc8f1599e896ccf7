"""Per-track state belongs to the tracker that numbered the track, and to
one `Session.run`: plans with their own trackers give the same bytes in a
shared session as alone, and a session run twice gives the same bytes twice.
"""

import json
import random

import pytest

from vidquery.executor import Session, serialize_outcome
from vidquery.planner import PlannerConfig, plan_query
from vidquery.synth import WorldSpec, write_world

from conftest import (CAR_PROGRAM, car, frozen_registry, make_program,
                      meta_1000, op_signatures)

GATED_PROGRAM = CAR_PROGRAM + """
query reds {
  bind c: Car
  frame_constraint: c.color == "red"
}
query blues_gated {
  bind s: Scene
  bind c: Car
  frame_constraint: s.motion_score >= 0.5 & c.color == "blue"
}
"""


def _texts(vprog, registry, dags, trace, meta):
    outcomes = Session(vprog, registry, meta).run(dags, trace)
    return [serialize_outcome(o) for o in outcomes]


def _shared_and_solo(vprog, world, queries, tmp_path):
    paths = write_world(world, tmp_path / "w")
    registry = frozen_registry()
    dags = [plan_query(vprog, q, registry, PlannerConfig(), world.meta)
            for q in queries]
    shared = _texts(vprog, registry, dags, paths["trace"], world.meta)
    solo = [_texts(vprog, registry, [dag], paths["trace"], world.meta)[0]
            for dag in dags]
    return shared, solo


def test_gated_tracker_does_not_read_another_trackers_memo(tmp_path):
    """`blues_gated`'s tracker first sees the cars on frame 10 and numbers
    blue B and red C 1 and 2; `reds`' tracker numbers blue A 1 and B 2.  A
    memo keyed by (vobj, id) hands C the colour memoized for B."""
    world = WorldSpec(meta=meta_1000(20), seed=3, objects=[
        car(1, 0, 9, (100.0, 100.0), color="blue"),
        car(2, 10, 19, (300.0, 300.0), color="blue"),
        car(3, 10, 19, (600.0, 600.0), color="red"),
    ], channels={"motion_score": [0.0] * 10 + [1.0] * 10})
    vprog = make_program(GATED_PROGRAM)
    shared, solo = _shared_and_solo(
        vprog, world, ["reds", "blues_gated"], tmp_path
    )
    assert shared == solo
    gated = json.loads(solo[1])
    assert gated["satisfied"] == list(range(10, 20))
    centers = {
        ((o["bbox"][0] + o["bbox"][2]) / 2, (o["bbox"][1] + o["bbox"][3]) / 2)
        for row in gated["frames"] for o in row["objects"]["c"]
    }
    assert centers == {(300.0, 300.0)}  # blue B only


def test_second_run_of_a_session_repeats_the_first(tmp_path):
    world = WorldSpec(meta=meta_1000(20), seed=5, objects=[
        car(1, 0, 9, (100.0, 100.0), velocity=(3.0, 0.0)),
        car(2, 5, 19, (500.0, 500.0), velocity=(3.0, 0.0), color="blue"),
    ])
    paths = write_world(world, tmp_path / "w")
    vprog = make_program(GATED_PROGRAM)
    registry = frozen_registry()
    dag = plan_query(vprog, "reds", registry, PlannerConfig(), world.meta)
    session = Session(vprog, registry, world.meta)
    first, second = (
        serialize_outcome(session.run([dag], paths["trace"])[0])
        for _ in range(2)
    )
    assert first == second
    assert len(json.loads(first)["frames"]) == 10  # frames 0-9, once each
    sink = op_signatures(dag)[dag.sink]
    assert session.stats.op_invocations[sink] == 2 * 2  # 2 batches a run


COLORS = ["red", "blue", "green"]


def _random_case(seed: int):
    """A world with a motion gate and 6-10 cars of 2-3 colours, and a random
    set of gated and ungated colour queries plus a duration query over a
    gated base."""
    rng = random.Random(seed)
    frames = 40
    colors = COLORS[:rng.choice([2, 3])]
    objects = []
    for label in range(1, rng.randint(6, 10) + 1):
        start = rng.randint(0, frames - 6)
        objects.append(car(
            label, start, min(frames - 1, start + rng.randint(5, 25)),
            (rng.uniform(60, 900), rng.uniform(60, 900)),
            velocity=(rng.choice([-3.0, 0.0, 4.0]), rng.uniform(-1, 1)),
            color=rng.choice(colors), jitter=0.5,
        ))
    gate = [float(rng.random() < 0.5) for _ in range(frames)]
    world = WorldSpec(meta=meta_1000(frames), objects=objects,
                      channels={"motion_score": gate}, seed=seed)

    decls, names = [], []
    for i in range(rng.randint(2, 4)):
        color, gated = rng.choice(colors), rng.random() < 0.5
        name = f"q{i}"
        names.append(name)
        scene = "bind s: Scene\n  " if gated else ""
        pred = f'c.color == "{color}"'
        if gated:
            pred = f"s.motion_score >= 0.5 & {pred}"
        decls.append(
            f"query {name} {{\n  {scene}bind c: Car\n"
            f"  frame_constraint: {pred}\n}}"
        )
    base = rng.choice(colors)
    decls.append(
        "query gated_base {\n  bind s: Scene\n  bind c: Car\n"
        f'  frame_constraint: s.motion_score >= 0.5 & c.color == "{base}"\n}}'
    )
    decls.append(
        "duration query held { base: gated_base min_frames: 3 "
        "gap_tolerance: 2 }"
    )
    names.append("held")
    if rng.random() < 0.5:
        names.append("gated_base")
    rng.shuffle(names)
    return world, CAR_PROGRAM + "\n".join(decls), names


@pytest.mark.parametrize("seed", range(10))
def test_random_query_sets_same_shared_and_solo(seed, tmp_path):
    world, program, queries = _random_case(seed)
    shared, solo = _shared_and_solo(
        make_program(program), world, queries, tmp_path
    )
    for query, s, alone in zip(queries, shared, solo):
        assert s == alone, f"seed {seed}: {query} differs when shared"

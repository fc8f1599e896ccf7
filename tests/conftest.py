"""Shared helpers: program builders, scripted worlds, and run wrappers."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from vidquery.dsl import parse, validate
from vidquery.executor import ExecConfig, Session, op_signature
from vidquery.planner import PlanDag, PlanOp, plan_query
from vidquery.registry import (
    ErrorProfile,
    Registration,
    Registry,
    builtin_registry,
)
from vidquery.synth import ObjectScript, WorldSpec, write_world
from vidquery.trace_io import VideoMeta


def pytest_runtest_logreport(report):
    # one pass/fail line per acceptance criterion
    if report.when == "call" and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        verdict = "PASS" if report.passed else "FAIL"
        print(f"\n{name}: {verdict}")


def make_program(src: str, file: str = "test.vq"):
    return validate(parse(src, file=file), file=file)


def op_signatures(dag) -> dict[str, str]:
    """Each op id of `dag` -> its `op_signature`, the key of the op's
    `ExecStats.op_invocations` count."""
    sigs: dict[str, str] = {}
    for op_id in dag.topo_order():
        pop = dag.ops[op_id]
        sigs[op_id] = op_signature(pop, [sigs[i] for i in pop.inputs])
    return sigs


# a fused op's id: `fused:` and its first step's, `<path>proj:<binding>.<prop>`
# or `<path>filter:<binding>`
FUSED_ID = re.compile(r"fused:((?:\w+/)*)(?:proj:(\w+)\.\w+|filter:(\w+))")


def unfused(dag: PlanDag) -> PlanDag:
    """`dag` with each fused op replaced by its chain of steps, each under
    the id the planner names a step by, so a test can inspect a branch's
    stages."""
    out = PlanDag(query=dag.query)
    tails = {}  # a fused op's id -> its last step's
    for op_id in dag.topo_order():
        op = dag.ops[op_id]
        inputs = [tails.get(i, i) for i in op.inputs]
        if op.kind != "fused":
            out.add(PlanOp(op_id, op.kind, op.params, inputs))
            continue
        path, proj_binding, filter_binding = FUSED_ID.fullmatch(op_id).groups()
        binding = proj_binding or filter_binding
        for step in op.params["steps"]:
            params = step["params"]
            step_id = f"{path}proj:{binding}.{params['prop']}" \
                if step["kind"] == "projector" else f"{path}filter:{binding}"
            out.add(PlanOp(step_id, step["kind"], params, inputs))
            inputs = [step_id]
        tails[op_id] = step_id
    out.sink = tails.get(dag.sink, dag.sink)
    return out


def frozen_registry(extra: list[Registration] = ()) -> Registry:
    registry = builtin_registry()
    for reg in extra:
        registry.register(reg)
    registry.freeze()
    return registry


def specialized_red_car(miss_rate: float = 0.05, seed: int = 1234) -> Registration:
    return Registration(
        name="red_car",
        kind="detector",
        cost_units=20.0,
        params={
            "classes": ["car"],
            "requires_attrs": {"color": "red"},
            "specializes": "Car",
            "subsumes": {"color": "red"},
        },
        error_profile=ErrorProfile(miss_rate=miss_rate, seed=seed),
    )


CAR_PROGRAM = """
vobj Car {
  detector: "general_car"
  property color: stateless(impl="attr:color") intrinsic
  property center: stateless(impl="center", deps=[bbox])
  property direction: stateful(impl="direction", deps=[center], window=5)
  property speed: stateful(impl="speed", deps=[center], window=5)
}
"""


# `t` holds `suvs` twice: once bare, once as the tracked base of `held`
SUV_PROGRAM = """
vobj Car {
  detector: "general_car"
  property kindof: stateless(impl="attr:kind")
}
query suvs {
  bind c: Car
  frame_constraint: c.kindof == "suv"
}
duration query held { base: suvs min_frames: 3 }
temporal query t { first: suvs then: held max_interval_frames: 30 }
temporal query tt { first: t then: suvs max_interval_frames: 30 }
"""


def meta_1000(frames: int, fps: float = 10.0, px_per_m: float = 10.0) -> VideoMeta:
    return VideoMeta(
        fps=fps, width=1000, height=1000, frame_count=frames, px_per_m=px_per_m
    )


def car(label, start, end, center, velocity=(0.0, 0.0), color="red", **kw):
    return ObjectScript(
        label=label,
        class_name="car",
        start_frame=start,
        end_frame=end,
        start_center=center,
        velocity=velocity,
        attrs={"color": color},
        **kw,
    )


@pytest.fixture
def world_dir(tmp_path):
    def materialize(world: WorldSpec) -> dict[str, Path]:
        return write_world(world, tmp_path / "world")

    return materialize


def run_single(
    vprog,
    query: str,
    trace_path,
    meta,
    registry=None,
    exec_config: ExecConfig | None = None,
    result_store=None,
):
    """Plan one query, run it in a fresh session, return (outcome, stats, dag)."""
    registry = registry or frozen_registry()
    dag = plan_query(vprog, query, registry, meta=meta)
    session = Session(vprog, registry, meta, exec_config)
    outcome = session.run([dag], trace_path, result_store=result_store)[0]
    return outcome, session.stats, dag


def row_objects(row: dict, binding: str) -> list[dict]:
    """The row objects of `binding` in a result row, each a flat tuple
    `(frame, index, track, x1, y1, x2, y2)`, as the result file writes
    them: `{"bbox": [x1, y1, x2, y2], "node": [frame, index], "track":
    track}`."""
    objects = row["objects"][binding]
    assert all(type(obj) is tuple and len(obj) == 7 for obj in objects)
    return [{"bbox": list(obj[3:]), "node": list(obj[:2]), "track": obj[2]}
            for obj in objects]


def dense_state(slots) -> tuple[np.ndarray, np.ndarray]:
    """Tracker slots' means as (n, 7) and covariances as (n, 7, 7), the
    layout of the dense filter in `_scalar_tracker.py`, with +0.0 off the
    per-axis blocks."""
    x = np.zeros((len(slots), 7))
    P = np.zeros((len(slots), 7, 7))
    for i, s in enumerate(slots):
        x[i] = s.x
        p, c, v = s.cov[:4], s.cov[4:7], s.cov[7:]
        for j in range(3):
            P[i, j, j], P[i, j + 4, j + 4] = p[j], v[j]
            P[i, j, j + 4] = P[i, j + 4, j] = c[j]
        P[i, 3, 3] = p[3]
    return x, P


# a red car, an adult and a Scene `motion_score` channel, and the query
# shapes that the validator rejects: each once validated, and then failed
# to plan, failed after reading the trace, raised, or answered wrongly
SHAPE_TYPES = """
vobj Car {
  detector: "general_car"
  property color: stateless(impl="attr:color") intrinsic
  property center: stateless(impl="center", deps=[bbox])
  property direction: stateful(impl="direction", deps=[center], window=3)
}
vobj Person {
  detector: "general_person"
  property role: stateless(impl="attr:role") intrinsic
}
relation Near(Car, Person) {
  property distance_px: stateless(impl="distance_px")
}
relation Far(Car, Person) {
  property distance_px: stateless(impl="distance_px")
}
query reds { bind c: Car
  frame_constraint: c.color == "red" }
query adults { bind p: Person
  frame_constraint: p.role == "adult" }
"""


def _basic(*items: str) -> str:
    return "query q {\n  " + "\n  ".join(items) + "\n}\n"


def _spatial(first: str, predicate: str) -> str:
    return (f"spatial query pair {{ first: {first} second: adults "
            f"relation: Near predicate: {predicate} }}\n")


SCENE_CAR = ("bind s: Scene", "bind c: Car")
CAR_PERSON = ("bind c: Car", "bind p: Person")
NOT_AN_OBJECT = "which is no object binding"
VIDEO_READS = "a video_constraint reads no relation and only the aggregated"
FRAME_RELATION = "a frame_constraint reads no relation"
NOT_THE_RELATION = "is no property of the query's relation Near(c, p)"

BAD_SHAPES = [
    pytest.param(_basic(*SCENE_CAR, 'frame_constraint: s.motion_score > 0.5 '
                        '| c.color == "red"'),
                 "a conjunct may not read both a Scene and an object binding",
                 id="scene-or-object"),
    pytest.param(_basic(*SCENE_CAR, 'frame_constraint: !(s.motion_score > '
                        '0.5) & c.color == "red"'),
                 "a Scene conjunct must be a single comparison",
                 id="negated-scene"),
    pytest.param(_basic("bind c: Car",
                        "frame_constraint: Near(c, c).distance_px < 5"),
                 FRAME_RELATION, id="relation-of-one-binding"),
    pytest.param(_basic(*CAR_PERSON,
                        "frame_constraint: Near(c, p).distance_px < 5"),
                 FRAME_RELATION, id="relation-in-a-basic-query"),
    pytest.param(_basic(*CAR_PERSON, 'frame_constraint: c.color == "red"',
                        "video_constraint: Near(c, p).distance_px < 5"),
                 VIDEO_READS, id="relation-in-a-video-constraint"),
    pytest.param(_basic(*CAR_PERSON, 'frame_constraint: c.color == "red"',
                        'video_constraint: p.role == "adult"',
                        "video_output: count_distinct(c)"),
                 VIDEO_READS, id="video-constraint-off-the-count"),
    pytest.param(_basic(*SCENE_CAR, 'frame_constraint: c.color == "red"',
                        "video_constraint: s.motion_score > 0.5"),
                 VIDEO_READS, id="video-constraint-on-the-scene"),
    pytest.param(_basic(*SCENE_CAR, 'frame_constraint: c.color == "red"',
                        "video_output: count_distinct(s)"),
                 f"video_output names 's', {NOT_AN_OBJECT}",
                 id="count-the-scene"),
    pytest.param(_basic(*SCENE_CAR, 'frame_constraint: c.color == "red"',
                        "frame_output: s.motion_score"),
                 f"frame_output names 's', {NOT_AN_OBJECT}",
                 id="output-the-scene"),
    pytest.param(_basic("bind s: Scene",
                        "frame_constraint: s.motion_score > 0.5")
                 + _spatial("q", "Near(s, p).distance_px < 100"),
                 "'q' must bind exactly one VObj", id="spatial-over-a-scene"),
    pytest.param(_spatial("reds", "Far(c, p).distance_px < 1000"),
                 f"Far(c, p).distance_px {NOT_THE_RELATION}",
                 id="spatial-reads-another-relation"),
    pytest.param(_spatial("reds", "Near(c, c).distance_px < 1"),
                 f"Near(c, c).distance_px {NOT_THE_RELATION}",
                 id="spatial-relates-a-binding-to-itself"),
    pytest.param(_basic("bind d: Car", 'frame_constraint: d.color == "blue"')
                 + "spatial query pair { first: reds second: q relation: Near "
                   "predicate: Near(c, d).distance_px < 100 }\n",
                 "relation Near(Car, Person) does not relate Car and Car",
                 id="spatial-over-types-the-relation-does-not-relate"),
    pytest.param("relation Solo(Car) {\n  property distance_px: "
                 'stateless(impl="distance_px")\n}\n'
                 + _spatial("reds", "Near(c, p).distance_px < 100")
                 .replace("Near", "Solo"),
                 "relation 'Solo': arity must be >= 2",
                 id="spatial-over-a-relation-of-one"),
    pytest.param("relation Trio(Car, Person, Car) {\n  property distance_px: "
                 'stateless(impl="distance_px")\n}\n'
                 + _spatial("reds", "Near(c, p).distance_px < 100")
                 .replace("Near", "Trio"),
                 "relation Trio(Car, Person, Car) does not relate Car and "
                 "Person", id="spatial-over-a-relation-of-three"),
    pytest.param('vobj Thing {\n  property tag: stateless(impl="attr:tag")\n}\n'
                 + _basic("bind t: Thing", 'frame_constraint: t.tag == "x"'),
                 "binding 't' has type Thing, which declares no detector",
                 id="a-type-without-a-detector"),
]


def red_car_and_adult(frames: int) -> WorldSpec:
    """A red car driving right past a standing adult; the Scene's
    `motion_score` alternates 0.2 and 0.8."""
    return WorldSpec(meta=meta_1000(frames), seed=5, objects=[
        car(1, 0, frames - 1, (100.0, 500.0), velocity=(20.0, 0.0)),
        ObjectScript(label=2, class_name="person", start_frame=0,
                     end_frame=frames - 1, start_center=(300.0, 520.0),
                     attrs={"role": "adult"}),
    ], channels={"motion_score": [0.2, 0.8] * (frames // 2)})

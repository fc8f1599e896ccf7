"""Acceptance criteria: one test per criterion, each printing a PASS/FAIL
line (see conftest).  Expected values come from independent oracles: scripted
worlds, hand kinematics, brute-force recounts, and frozen seeded goldens."""

import hashlib
import json
import random

from click.testing import CliRunner

from vidquery.cli import main as cli_main
from vidquery.executor import ExecConfig, ResultStore, run_plans, serialize_outcome
from vidquery.operators import eval_duration, eval_temporal
from vidquery.planner import (
    PlannerConfig,
    enumerate_alternatives,
    f1_score,
    plan_query,
    profile,
    select_plan,
)
from vidquery.registry import ErrorProfile, Registration, seeded_flip
from vidquery.synth import WorldSpec, write_world
from vidquery.tracker import TrackerConfig
from vidquery.dsl import ValidationError, parse, validate
import pytest

from conftest import (
    CAR_PROGRAM,
    car,
    frozen_registry,
    make_program,
    meta_1000,
    row_objects,
    run_single,
    unfused,
)

REDS = CAR_PROGRAM + """
query reds {
  bind c: Car
  frame_constraint: c.color == "red"
}
"""


def row_tracks(outcome, binding="c"):
    """frame -> [track ids] from result rows."""
    return {
        row["frame"]: [o["track"] for o in row_objects(row, binding)]
        for row in outcome.rows
    }


def test_criterion_01_intrinsic_memoization(tmp_path):
    # 10 objects with non-overlapping 30-frame lifetimes, 300 frames total
    meta = meta_1000(300)
    objs = [
        car(i, 30 * i, 30 * i + 29, (500.0, 100.0 * i + 50.0))
        for i in range(10)
    ]
    paths = write_world(WorldSpec(meta=meta, objects=objs), tmp_path / "w")
    vprog = make_program(REDS)

    out_memo, stats_memo, _d = run_single(vprog, "reds", paths["trace"], meta)
    assert stats_memo.property_calls["Car.color"] == 10  # once per track

    out_plain, stats_plain, _d = run_single(
        vprog, "reds", paths["trace"], meta, exec_config=ExecConfig(memo=False)
    )
    assert stats_plain.property_calls["Car.color"] == 300  # once per frame
    assert serialize_outcome(out_memo) == serialize_outcome(out_plain)

    # noiseless world: zero id switches, exactly 10 tracks
    tracks = row_tracks(out_memo)
    ids = set()
    for i in range(10):
        lifetime = {tracks[f][0] for f in range(30 * i, 30 * i + 30)}
        assert len(lifetime) == 1, f"id switch within object {i}"
        ids |= lifetime
    assert len(ids) == 10


def test_criterion_02_lazy_evaluation(tmp_path):
    # 100 objects in a 10x10 grid, alive 5 frames, 10 red
    meta = meta_1000(5)
    objs = [
        car(i, 0, 4, (100.0 * (i % 10) + 50.0, 100.0 * (i // 10) + 50.0),
            velocity=(3.0, 0.0), color="red" if i < 10 else "blue")
        for i in range(100)
    ]
    paths = write_world(WorldSpec(meta=meta, objects=objs), tmp_path / "w")
    vprog = make_program(CAR_PROGRAM + """
    query red_right {
      bind c: Car
      frame_constraint: c.color == "red" & c.direction == "right"
    }
    """)
    out_lazy, stats_lazy, _d = run_single(
        vprog, "red_right", paths["trace"], meta
    )
    # direction's window fills only at frame 4; lazy short-circuiting
    # reaches it for the 10 red survivors alone
    assert stats_lazy.property_calls["Car.direction"] == 10

    out_eager, stats_eager, _d = run_single(
        vprog, "red_right", paths["trace"], meta,
        exec_config=ExecConfig(lazy=False),
    )
    assert stats_eager.property_calls["Car.direction"] == 100
    assert serialize_outcome(out_lazy) == serialize_outcome(out_eager)


def _red_car_detector(miss_rate, seed):
    return Registration(
        name="red_car", kind="detector", cost_units=20.0,
        params={
            "classes": ["car"], "requires_attrs": {"color": "red"},
            "specializes": "Car", "subsumes": {"color": "red"},
        },
        error_profile=ErrorProfile(miss_rate=miss_rate, seed=seed),
    )


def test_criterion_03_plan_selection(tmp_path):
    meta = meta_1000(60)
    objs = [
        car(1, 0, 59, (100.0, 100.0), velocity=(3.0, 0.0)),  # red, index 0
        car(2, 0, 59, (100.0, 400.0), velocity=(3.0, 0.0), color="blue"),
        car(3, 0, 59, (100.0, 700.0), velocity=(3.0, 0.0), color="blue"),
    ]
    paths = write_world(WorldSpec(meta=meta, objects=objs), tmp_path / "w")
    vprog = make_program(REDS)
    registry = frozen_registry([_red_car_detector(miss_rate=0.05, seed=4)])

    config = PlannerConfig(accuracy_target=0.9)
    dags = enumerate_alternatives(vprog, "reds", registry, config, meta)
    assert len(dags) == 2  # general reference first, then specialized
    reports = profile(dags, paths["trace"], meta, vprog, registry, config)

    # [DERIVED] frozen golden: seed 4 drops the red car on frames
    # {17, 32, 54} of 60, so specialized F1 = 2*57 / (2*57 + 3) = 38/39
    assert reports[0].f1 == 1.0
    assert abs(reports[1].f1 - 38.0 / 39.0) < 1e-12
    assert reports[1].cost_units < reports[0].cost_units

    chosen, fallback = select_plan(dags, reports, config)
    assert chosen is dags[1] and not fallback  # specialized at target 0.9

    strict = PlannerConfig(accuracy_target=0.99)
    chosen, fallback = select_plan(dags, reports, strict)
    assert chosen is dags[0] and not fallback  # general at target 0.99


def test_criterion_04_f1_oracle_equivalence(tmp_path):
    config = PlannerConfig()
    for seed in range(50):
        meta = meta_1000(30)
        objs = [
            car(1, 0, 29, (100.0, 100.0), velocity=(2.0, 0.0)),
            car(2, 0, 29, (100.0, 500.0), color="blue"),
        ]
        paths = write_world(
            WorldSpec(meta=meta, objects=objs), tmp_path / f"w{seed}"
        )
        vprog = make_program(REDS)
        registry = frozen_registry([_red_car_detector(miss_rate=0.1, seed=seed)])
        dags = enumerate_alternatives(vprog, "reds", registry, config, meta)
        reports = profile(dags, paths["trace"], meta, vprog, registry, config)

        # independent brute-force recount from fresh executions
        labels = []
        for dag in dags:
            outs, _s = run_plans(vprog, [dag], paths["trace"], registry, meta)
            labels.append(outs[0].labels(meta.frame_count))
        ref, cand = labels
        tp = sum(1 for r, c in zip(ref, cand) if r and c)
        fp = sum(1 for r, c in zip(ref, cand) if not r and c)
        fn = sum(1 for r, c in zip(ref, cand) if r and not c)
        expected = 1.0 if (tp + fp + fn) == 0 else 2 * tp / (2 * tp + fp + fn)
        assert abs(reports[1].f1 - expected) < 1e-12, f"seed {seed}"
        assert abs(reports[0].f1 - 1.0) < 1e-12


SUSPECT_PROGRAM = CAR_PROGRAM + """
vobj Person {
  detector: "general_person"
  property role: stateless(impl="attr:role") intrinsic
}
relation Near(Car, Person) {
  property distance_px: stateless(impl="distance_px")
}
query reds { bind c: Car
  frame_constraint: c.color == "red" }
query adults { bind p: Person
  frame_constraint: p.role == "adult" }
spatial query suspect_near_red_car {
  first: reds
  second: adults
  relation: Near
  predicate: Near(c, p).distance_px < 100
}
"""


def test_criterion_05_golden_dag_structure():
    vprog = make_program(SUSPECT_PROGRAM)
    dag = unfused(plan_query(  # keep stages inspectable
        vprog, "suspect_near_red_car", frozen_registry(), PlannerConfig(),
    ))

    def reachable(src):
        seen, stack = set(), [src]
        while stack:
            cur = stack.pop()
            for dep in dag.ops[cur].inputs:
                if dep not in seen:
                    seen.add(dep)
                    stack.append(dep)
        return seen

    detectors = [i for i, o in dag.ops.items() if o.kind == "detector"]
    assert len(detectors) == 2
    d1, d2 = detectors
    # parallel-eligible: neither branch depends on the other
    assert d1 not in reachable(d2) and d2 not in reachable(d1)

    (join_id,) = [i for i, o in dag.ops.items() if o.kind == "join"]
    upstream_of_join = reachable(join_id)
    assert d1 in upstream_of_join and d2 in upstream_of_join

    (proj_id,) = [i for i, o in dag.ops.items()
                  if o.kind == "relation_projector"]
    (filt_id,) = [i for i, o in dag.ops.items() if o.kind == "relation_filter"]
    assert dag.ops[proj_id].inputs == [join_id]
    assert dag.ops[filt_id].inputs == [proj_id]
    assert dag.ops[dag.sink].kind == "output"
    assert dag.ops[dag.sink].inputs == [filt_id]


def test_criterion_06_composition_rules():
    base = SUSPECT_PROGRAM + """
    duration query lingering {
      base: suspect_near_red_car
      min_frames: 5
    }
    """
    # Rule: duration over spatial is accepted
    vprog = validate(parse(base))
    assert vprog.queries["lingering"].kind == "duration"

    # Rule 1: spatial over duration is rejected
    with pytest.raises(ValidationError) as exc:
        validate(parse(base + """
        spatial query bad {
          first: lingering
          second: adults
          relation: Near
          predicate: Near(c, p).distance_px < 50
        }
        """))
    assert "Rule 1" in str(exc.value)

    # temporal over temporal is accepted
    vprog = validate(parse(base + """
    temporal query seq {
      first: reds
      then: adults
      max_interval_frames: 10
    }
    temporal query nested {
      first: seq
      then: reds
      max_interval_frames: 20
    }
    """))
    assert vprog.queries["nested"].kind == "temporal"


def test_criterion_07_stateful_window_semantics(tmp_path):
    meta = meta_1000(20)
    objs = [
        car(1, 0, 19, (100.0, 200.0), velocity=(3.0, 0.0)),
        car(2, 5, 19, (100.0, 600.0), velocity=(3.0, 0.0)),  # late entry
    ]
    paths = write_world(WorldSpec(meta=meta, objects=objs), tmp_path / "w")
    vprog = make_program(CAR_PROGRAM + """
    query reds {
      bind c: Car
      frame_constraint: c.color == "red"
      frame_output: c.direction
    }
    """)
    outcome, _stats, _dag = run_single(vprog, "reds", paths["trace"], meta)
    per_frame = {
        row["frame"]: row["outputs"]["c.direction"] for row in outcome.rows
    }
    for frame in range(20):
        values = per_frame[frame]
        # first object: Undefined (serialized null) on its first 4 frames
        assert values[0] == (None if frame < 4 else "right")
        if frame >= 5:  # second object enters at frame 5
            assert values[1] == (None if frame < 9 else "right")


def _random_world(rng, meta, n_objects):
    colors = ["red", "blue", "green"]
    velocities = [(3.0, 0.0), (0.0, 3.0), (-3.0, 0.0), (0.0, 0.0)]
    objs = []
    for i in range(n_objects):
        start = rng.randint(0, 3)
        objs.append(car(
            i, start, meta.frame_count - 1,
            (150.0 + 200.0 * (i % 4), 150.0 + 200.0 * (i // 4)),
            velocity=rng.choice(velocities),
            color=rng.choice(colors),
        ))
    return WorldSpec(meta=meta, objects=objs, seed=rng.randint(0, 10**6))


_QUERY_TEMPLATES = [
    'frame_constraint: c.color == "red"',
    'frame_constraint: c.color in ["red", "green"]',
    'frame_constraint: c.direction == "right"',
    'frame_constraint: c.color == "red" & c.direction == "right"',
    'frame_constraint: c.speed > 2\n  frame_output: c.speed',
    'frame_constraint: c.color == "red"\n  frame_output: c.direction',
    'frame_constraint: c.color == "red"\n  video_output: count_distinct(c)',
]


def test_criterion_08_optimization_soundness(tmp_path):
    rng = random.Random(88)
    no_opts_exec = ExecConfig(lazy=False, memo=False)
    for case in range(100):
        meta = meta_1000(12)
        world = _random_world(rng, meta, rng.randint(1, 4))
        paths = write_world(world, tmp_path / f"w{case}")
        two_bindings = rng.random() < 0.2
        if two_bindings:
            body = ('frame_constraint: a.color == "red" '
                    '& b.color == "blue"')
            src = CAR_PROGRAM + f"""
            query q {{
              bind a: Car
              bind b: Car
              {body}
            }}
            """
        else:
            body = rng.choice(_QUERY_TEMPLATES)
            src = CAR_PROGRAM + f"""
            query q {{
              bind c: Car
              {body}
            }}
            """
        vprog = make_program(src)
        out_opt, _s, _d = run_single(vprog, "q", paths["trace"], meta)
        out_plain, _s, _d = run_single(
            vprog, "q", paths["trace"], meta, exec_config=no_opts_exec,
        )
        assert serialize_outcome(out_opt) == serialize_outcome(out_plain), \
            f"case {case}: {body!r}"
        if two_bindings:
            _check_red_and_blue_bindings(world, out_opt, case)


def _check_red_and_blue_bindings(world, outcome, case):
    """Script oracle for `a.color == "red" & b.color == "blue"`: trace index
    i on frame f is the i-th script object alive on f; `a` lists exactly the
    red ones and `b` exactly the blue ones."""
    expected = {}
    for f in range(world.meta.frame_count):
        alive = [o for o in world.objects if o.alive(f)]
        by_color = {
            color: [[f, i] for i, o in enumerate(alive)
                    if o.attrs["color"] == color]
            for color in ("red", "blue")
        }
        if by_color["red"] and by_color["blue"]:
            expected[f] = by_color
    assert outcome.satisfied == sorted(expected), f"case {case}"
    for row in outcome.rows:
        got = {b: [o["node"] for o in row_objects(row, b)] for b in ("a", "b")}
        want = expected[row["frame"]]
        assert got == {"a": want["red"], "b": want["blue"]}, f"case {case}"


def test_criterion_09_tracker_quality(tmp_path):
    vprog = make_program(REDS)
    for n in (2, 5, 10):
        meta = meta_1000(25)
        objs = [
            car(i, 0, 24, (100.0, 100.0 * i + 50.0), velocity=(3.0, 0.0))
            for i in range(n)
        ]
        paths = write_world(WorldSpec(meta=meta, objects=objs),
                            tmp_path / f"sep{n}")
        outcome, _s, _d = run_single(vprog, "reds", paths["trace"], meta)
        tracks = row_tracks(outcome)
        per_object = list(zip(*[tracks[f] for f in range(25)]))
        assert all(len(set(ids)) == 1 for ids in per_object)  # 0 switches
        assert len({ids[0] for ids in per_object}) == n

    # one-frame dropout survives max_age 3 with the same id
    meta = meta_1000(20)
    objs = [car(1, 0, 19, (100.0, 500.0), velocity=(3.0, 0.0),
                dropout_frames=frozenset({10}))]
    paths = write_world(WorldSpec(meta=meta, objects=objs), tmp_path / "drop")
    registry = frozen_registry()
    dag = plan_query(vprog, "reds", registry, PlannerConfig(), meta)
    dag.ops["tracker:c"].params["config"] = TrackerConfig(max_age=3).to_json()
    (outcome,), _s = run_plans(vprog, [dag], paths["trace"], registry, meta)
    tracks = row_tracks(outcome)
    assert sorted(tracks) == [f for f in range(20) if f != 10]
    assert len({ids[0] for ids in tracks.values()}) == 1


def test_criterion_10_duration_and_temporal_evaluators(tmp_path):
    # duration fires exactly on {start+d-1 .. last} of a run of length >= d
    sat = {1: set(range(10, 21))}
    born = {1: 0}
    assert eval_duration(sat, born, 4) == {(1, f) for f in range(13, 21)}
    assert eval_duration({1: set(range(10, 13))}, born, 4) == set()  # too short

    # temporal: true iff the witness interval is within the window
    assert eval_temporal({0, 1, 2}, {5}, 3) == (True, [(2, 5)])
    assert eval_temporal({0, 1, 2}, {6}, 3) == (False, [])
    assert eval_temporal({5}, {3}, 10) == (False, [])  # wrong order

    # end to end: red car present frames 5..24, min_frames 5
    meta = meta_1000(30)
    objs = [car(1, 5, 24, (100.0, 500.0), velocity=(3.0, 0.0))]
    paths = write_world(WorldSpec(meta=meta, objects=objs), tmp_path / "w")
    vprog = make_program(REDS + """
    duration query held { base: reds min_frames: 5 }
    """)
    outcome, _s, _d = run_single(vprog, "held", paths["trace"], meta)
    assert outcome.satisfied == list(range(9, 25))
    assert [f for _t, f in outcome.duration_fires] == list(range(9, 25))


def test_criterion_11_video_aggregation(tmp_path):
    meta = meta_1000(20)
    objs = [
        car(i, 0, 19, (100.0, 100.0 * i + 50.0),
            velocity=(3.0, 0.0) if i < 3 else (0.0, 3.0))
        for i in range(7)
    ]
    paths = write_world(WorldSpec(meta=meta, objects=objs), tmp_path / "w")
    vprog = make_program(CAR_PROGRAM + """
    query right_movers {
      bind c: Car
      frame_constraint: c.color == "red"
      video_constraint: c.direction == "right"
      video_output: count_distinct(c)
    }
    """)
    outcome, _s, _d = run_single(vprog, "right_movers", paths["trace"], meta)
    # one entity per track, never per-frame multiples
    assert outcome.video["value"] == 3
    assert outcome.video["value"] != 3 * 20
    assert len(outcome.video["per_track"]) == 7


def test_criterion_12_multi_query_reuse(tmp_path):
    meta = meta_1000(20)
    objs = [car(1, 0, 19, (100.0, 500.0), velocity=(3.0, 0.0))]
    paths = write_world(WorldSpec(meta=meta, objects=objs), tmp_path / "w")
    vprog = make_program(CAR_PROGRAM + """
    query reds { bind c: Car
      frame_constraint: c.color == "red" }
    query blues { bind c: Car
      frame_constraint: c.color == "blue" }
    query movers { bind c: Car
      frame_constraint: c.direction == "right" }
    """)
    registry = frozen_registry()
    cfg = PlannerConfig()
    names = ["reds", "blues", "movers"]
    dags = [plan_query(vprog, q, registry, cfg, meta) for q in names]

    _outs, shared = run_plans(vprog, dags, paths["trace"], registry, meta)
    assert shared.component_calls["general_car"] == 20  # exactly 1x

    separate = 0
    for q in names:
        _o, stats, _d = run_single(vprog, q, paths["trace"], meta)
        separate += stats.component_calls["general_car"]
    assert separate == 60  # 3x

    # cached identical re-run performs zero operator invocations
    store = ResultStore(tmp_path / "cache")
    run_single(vprog, "reds", paths["trace"], meta, result_store=store)
    _o, stats, _d = run_single(
        vprog, "reds", paths["trace"], meta, result_store=store
    )
    assert stats.total_op_invocations == 0


def test_criterion_13_determinism(tmp_path):
    meta = meta_1000(20)
    world = WorldSpec(meta=meta, seed=7, objects=[
        car(1, 0, 19, (100.0, 200.0), velocity=(3.0, 0.0), jitter=1.5),
        car(2, 0, 19, (100.0, 600.0), velocity=(0.0, 3.0), color="blue"),
    ])
    paths = write_world(world, tmp_path / "w")
    program = tmp_path / "q.vq"
    program.write_text(CAR_PROGRAM + """
    query reds {
      bind c: Car
      frame_constraint: c.color == "red"
      frame_output: c.direction
    }
    """)
    runner = CliRunner()
    digests = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        result = runner.invoke(cli_main, [
            "run", "-p", str(program), "-q", "reds",
            "--trace", str(paths["trace"]), "--meta", str(paths["meta"]),
            "--out", str(out),
        ])
        assert result.exit_code == 0, result.output
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]

"""Profiling reads the canary once and feeds every candidate's own session:
each report equals the one a solo `Session.run` of its candidate gives on
the canary-bounded video."""

import json
import random
from dataclasses import asdict, replace

import pytest

from vidquery import executor
from vidquery.executor import ExecConfig, Session
from vidquery.planner import (
    PlannerConfig,
    ProfileReport,
    enumerate_alternatives,
    f1_score,
    profile,
)
from vidquery.registry import ErrorProfile, Registration
from vidquery.synth import WorldSpec, generate
from vidquery.trace_io import write_trace

from conftest import CAR_PROGRAM, car, frozen_registry, make_program, meta_1000

PROGRAM = CAR_PROGRAM + """
query gated_reds {
  bind s: Scene
  bind c: Car
  frame_constraint: s.motion_score >= 0.5 & c.color == "red"
  frame_output: c.direction
  video_output: count_distinct(c)
}
"""


def _registry(seed: int):
    """Two specializations of Car beside the general detector: three
    candidates, each specialized one with a seeded miss rate."""
    return frozen_registry([
        Registration(
            name="red_car", kind="detector", cost_units=20.0,
            params={"classes": ["car"], "requires_attrs": {"color": "red"},
                    "specializes": "Car", "subsumes": {"color": "red"}},
            error_profile=ErrorProfile(miss_rate=0.1, seed=seed),
        ),
        Registration(
            name="car_lite", kind="detector", cost_units=30.0,
            params={"classes": ["car"], "specializes": "Car"},
            error_profile=ErrorProfile(miss_rate=0.3, seed=seed),
        ),
    ])


def _world(seed: int, tmp_path, frames: int = 90):
    """Random red and blue cars, a motion gate open on about half the
    frames, and a trace with runs of frames absent."""
    rng = random.Random(f"profile:{seed}")
    objects = []
    for label in range(rng.randint(3, 6)):
        start = rng.randint(0, frames - 10)
        objects.append(car(
            label, start, min(frames - 1, start + rng.randint(10, 40)),
            (rng.uniform(60, 900), rng.uniform(60, 900)),
            velocity=(rng.choice([-3.0, 0.0, 4.0]), rng.uniform(-1, 1)),
            color=rng.choice(["red", "red", "blue"]), jitter=0.5,
        ))
    gate = [float(rng.random() < 0.5) for _ in range(frames)]
    world = WorldSpec(meta=meta_1000(frames), objects=objects,
                      channels={"motion_score": gate}, seed=seed)
    gaps = set()
    for _ in range(3):
        g0 = rng.randrange(frames)
        gaps.update(range(g0, g0 + rng.randint(1, 6)))
    trace = tmp_path / f"trace{seed}.jsonl"
    write_trace((r for r in generate(world) if r.frame_id not in gaps), trace)
    return world.meta, trace


def _solo_reports(dags, trace, meta, vprog, registry, config):
    """One fresh session per candidate, each reading the canary itself."""
    canary_meta = replace(meta, frame_count=min(
        meta.frame_count, config.canary_frames or meta.frame_count))
    runs = []
    for dag in dags:
        session = Session(vprog, registry, canary_meta,
                          ExecConfig(batch_size=config.batch_size))
        outcome = session.run([dag], trace)[0]
        runs.append((outcome.labels(canary_meta.frame_count), session.stats))
    return [
        ProfileReport(
            plan_id=dag.plan_id,
            f1=f1_score(runs[0][0], labels),
            cost_units=stats.cost_units,
            op_count=len(dag.ops),
            breakdown=dict(sorted(stats.component_costs.items())),
        )
        for dag, (labels, stats) in zip(dags, runs)
    ]


def test_reports_equal_solo_sessions_of_each_candidate(tmp_path):
    vprog = make_program(PROGRAM)
    missed = 0
    for seed in range(6):
        meta, trace = _world(seed, tmp_path)
        registry = _registry(seed)
        for canary_frames, batch_size in ((0, 16), (50, 7)):
            config = PlannerConfig(canary_frames=canary_frames,
                                   batch_size=batch_size)
            dags = enumerate_alternatives(vprog, "gated_reds", registry,
                                          config, meta)
            assert len(dags) == 3
            reports = profile(dags, trace, meta, vprog, registry, config)
            assert reports == _solo_reports(dags, trace, meta, vprog,
                                            registry, config), \
                f"seed {seed}, canary_frames {canary_frames}"
            missed += sum(1 for r in reports if r.f1 < 1.0)
    assert missed  # the seeded misses make some candidate inexact


def _report_bytes(report: ProfileReport) -> bytes:
    return json.dumps(asdict(report), sort_keys=True).encode()


@pytest.mark.parametrize("batch_size", [1, 4, 16, 100])
def test_shared_frame_states_leak_nothing_between_candidates(tmp_path,
                                                             batch_size):
    """Every candidate's session reads the same initial frame states of a
    batch; each report is byte for byte the one a solo session of its
    candidate gives, whatever the batch size."""
    vprog = make_program(PROGRAM)
    for seed in range(3):
        meta, trace = _world(seed, tmp_path)
        registry = _registry(seed)
        config = PlannerConfig(batch_size=batch_size)
        dags = enumerate_alternatives(vprog, "gated_reds", registry, config,
                                      meta)
        shared = profile(dags, trace, meta, vprog, registry, config)
        solo = _solo_reports(dags, trace, meta, vprog, registry, config)
        assert [_report_bytes(r) for r in shared] == \
            [_report_bytes(r) for r in solo], f"seed {seed}"


def test_profile_opens_the_canary_once(tmp_path, monkeypatch):
    opened = []
    real = executor.open_trace

    def counting(path, meta=None):
        opened.append(path)
        return real(path, meta)

    monkeypatch.setattr(executor, "open_trace", counting)
    vprog = make_program(PROGRAM)
    meta, trace = _world(1, tmp_path)
    registry = _registry(1)
    config = PlannerConfig()
    dags = enumerate_alternatives(vprog, "gated_reds", registry, config, meta)
    assert len(dags) == 3
    profile(dags, trace, meta, vprog, registry, config)
    assert opened == [trace]


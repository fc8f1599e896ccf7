"""Shared helpers: program builders, scripted worlds, and run wrappers."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from vidquery.dsl import parse, validate
from vidquery.executor import ExecConfig, Session, op_signature
from vidquery.planner import PlannerConfig, plan_query
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
    planner_config: PlannerConfig | None = None,
    exec_config: ExecConfig | None = None,
    result_store=None,
):
    """Plan one query, run it in a fresh session, return (outcome, stats, dag)."""
    registry = registry or frozen_registry()
    planner_config = planner_config or PlannerConfig()
    dag = plan_query(vprog, query, registry, planner_config, meta)
    session = Session(vprog, registry, meta, exec_config)
    outcome = session.run([dag], trace_path, result_store=result_store)[0]
    return outcome, session.stats, dag


def dense_state(slots) -> tuple[np.ndarray, np.ndarray]:
    """Tracker slots' means as (n, 7) and covariances as (n, 7, 7), the
    layout of the dense filter in `_scalar_tracker.py`, with +0.0 off the
    per-axis blocks."""
    x = np.zeros((len(slots), 7))
    P = np.zeros((len(slots), 7, 7))
    for i, s in enumerate(slots):
        x[i] = s.x
        for j in range(3):
            P[i, j, j], P[i, j + 4, j + 4] = s.p[j], s.v[j]
            P[i, j, j + 4] = P[i, j + 4, j] = s.c[j]
        P[i, 3, 3] = s.p[3]
    return x, P

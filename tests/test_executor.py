"""Execution semantics: laziness, memoization, warm-up windows, operator
sharing, result caching, and byte-stable serialization."""

import hashlib
import importlib.util
import json
import marshal
import math
import random
import re
import struct
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from vidquery import executor
from vidquery.datamodel import UNDEFINED, FrameGraph, VObjInstance
from vidquery.dsl.ast import Compare, PropRef
from vidquery.executor import (
    DIGEST_SIZE,
    OPERATOR_CLASSES,
    ExecConfig,
    ExecStats,
    PropertyEngine,
    QueryOutcome,
    ResultStore,
    Session,
    build_runtime_op,
    run_plans,
    serialize_outcome,
    trace_batches,
)
from vidquery.operators import EMPTY_GRAPH, compare
from vidquery.planner import PlannerConfig, PlanOp, plan_query
from vidquery.registry import Registration, Registry, load_manifest
from vidquery.synth import ObjectScript, WorldSpec, write_world
from vidquery.trace_io import (Detection, TraceParseError, TraceRecord,
                               open_trace, write_trace)
from vidquery.tracker import TrackerConfig

from conftest import (
    CAR_PROGRAM,
    SUV_PROGRAM,
    car,
    frozen_registry,
    make_program,
    meta_1000,
    row_objects,
    run_single,
)


def red_world(tmp_path, frames=20):
    meta = meta_1000(frames)
    world = WorldSpec(meta=meta, objects=[
        car(1, 0, frames - 1, (100.0, 500.0), velocity=(3.0, 0.0)),
    ])
    return write_world(world, tmp_path / "w"), meta


REDS = CAR_PROGRAM + """
query reds {
  bind c: Car
  frame_constraint: c.color == "red"
}
"""


class TestConfigAndCompare:
    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            ExecConfig(batch_size=0)

    def test_compare_semantics(self):
        assert compare("red", "==", "red")
        assert compare("red", "in", ("red", "blue"))
        assert compare("red", ">", 3) is False   # non-numeric ordered
        assert compare(True, ">", 0) is False    # bools are not numbers here
        assert compare(5.0, ">=", 5.0)
        # an Undefined operand is neither equal nor unequal: no verdict
        engine = PropertyEngine(make_program(CAR_PROGRAM), frozen_registry(),
                                meta_1000(1), ExecConfig(), ExecStats())
        node = VObjInstance(node_id=(0, 0), class_name="Car", frame_id=0,
                            bbox=(0.0, 0.0, 10.0, 10.0),
                            properties={"direction": UNDEFINED})
        for op in ("==", "!="):
            expr = Compare(PropRef("c", "direction"), op, 1)
            assert engine.verdict(expr, {"c": node}) is None


class TestStats:
    def test_counters(self):
        stats = ExecStats()
        stats.count_component("det", 100.0)
        stats.count_component("det", 100.0)
        stats.count_property("Car.color", 5.0)
        stats.count_op("detector:c")
        assert stats.component_calls["det"] == 2
        assert stats.component_costs["det"] == 200.0
        assert stats.cost_units == 205.0
        assert stats.total_op_invocations == 1


class TestWarmupWindows:
    def test_stateful_undefined_until_window_full(self, tmp_path):
        paths, meta = red_world(tmp_path, frames=20)
        vprog = make_program(CAR_PROGRAM + """
        query movers {
          bind c: Car
          frame_constraint: c.direction == "right"
        }
        """)
        outcome, stats, _dag = run_single(
            vprog, "movers", paths["trace"], meta
        )
        # window=5 over center: first defined at the track's fifth frame
        assert outcome.satisfied == list(range(4, 20))
        # warm-up frames never enter the implementation body
        assert stats.property_calls["Car.direction"] == 16
        # the windows read the dependency on every frame of the track
        assert stats.property_calls["Car.center"] == 20

    def test_windows_ignore_batch_lookahead(self, tmp_path):
        # one batch spans the whole trace: the track holds all 20 objects
        # before the filter evaluates frame 4, yet its window must stop there
        paths, meta = red_world(tmp_path, frames=20)
        vprog = make_program(CAR_PROGRAM + """
        query movers {
          bind c: Car
          frame_constraint: c.direction == "right"
        }
        """)
        big = ExecConfig(batch_size=64)
        out_big, _s, _d = run_single(
            vprog, "movers", paths["trace"], meta, exec_config=big,
        )
        tiny = ExecConfig(batch_size=1)
        out_tiny, _s2, _d2 = run_single(
            vprog, "movers", paths["trace"], meta, exec_config=tiny,
        )
        assert serialize_outcome(out_big) == serialize_outcome(out_tiny)


MOVING = """
vobj Car {
  detector: "general_car"
  property w: stateless(impl="attr:w")
  property center: stateless(impl="center", deps=[bbox])
  property direction: stateful(impl="direction", deps=[center], window=3)
  property mv: stateful(impl="direction", deps=[bbox], window=3)
  property spd: stateful(impl="speed", deps=[center], window=3)
}
query moving_right { bind c: Car frame_constraint: c.direction == "right" }
"""


def moving_car_trace(tmp_path, frames, w=lambda f: 1.0, last=None):
    """One car moving right 10 px a frame on frames 0..`last`, with a
    per-frame attribute `w` and its position as attribute `pos`; a frame
    after `last` has no detection."""
    last = frames - 1 if last is None else last
    path = tmp_path / "moving.jsonl"
    write_trace([
        TraceRecord(f, (Detection(
            "car", (100.0 + 10 * f, 500.0, 140.0 + 10 * f, 540.0), 0.95,
            {"w": w(f), "pos": f"{10 * f},0"}),) if f <= last else ())
        for f in range(frames)], path)
    return path, meta_1000(frames)


# pos is Undefined while direction warms up; drift is a window over it
DRIFTING = MOVING.replace("}\nquery", """
  property pos: stateless(impl="attr_vector:pos", deps=[direction])
  property drift: stateful(impl="direction", deps=[pos], window=3)
}
query""", 1)


class TestTrackWindows:
    """A stateful window is its track's latest objects, whatever else the
    session, the plan or the flags compute."""

    def test_shared_with_an_untracked_query_equals_solo(self, tmp_path):
        trace, meta = moving_car_trace(tmp_path, 20)
        vprog = make_program(MOVING + """
        query anywhere { bind c: Car frame_constraint: c.center != 0 }
        """)
        registry = frozen_registry()
        dags = [plan_query(vprog, q, registry, PlannerConfig(), meta)
                for q in ("anywhere", "moving_right")]
        (_anywhere, shared), _s = run_plans(vprog, dags, trace, registry, meta)
        (solo,), _s = run_plans(vprog, dags[1:], trace, registry, meta)
        assert solo.satisfied == list(range(2, 20))
        assert serialize_outcome(shared) == serialize_outcome(solo)

    def test_a_filter_ahead_of_the_dependency_leaves_the_window_whole(
            self, tmp_path):
        # w is 0 on frame 5 only; w comes first in dependency order, so the
        # filter drops that object before center is projected, but the
        # track still holds it
        trace, meta = moving_car_trace(tmp_path, 10, w=lambda f: float(f != 5))
        vprog = make_program(MOVING + """
        query q { bind c: Car frame_constraint: c.w > 0.5
                  frame_output: c.spd }
        """)
        speeds = {}
        for lazy in (True, False):
            outcome, _s, dag = run_single(
                vprog, "q", trace, meta, exec_config=ExecConfig(lazy=lazy))
            speeds[lazy] = {r["frame"]: r["outputs"]["c.spd"]
                            for r in outcome.rows}
        steps = [s["params"].get("prop", s["kind"])
                 for s in dag.ops["fused:proj:c.w"].params["steps"]]
        assert steps.index("vobj_filter") < steps.index("center")
        assert speeds[True] == speeds[False]
        # 20 px over a 3-object window at 10 fps and 10 px/m
        assert speeds[True][6] == speeds[True][7] == [20 * 10 / 3 / 10]
        assert 5 not in speeds[True]

    def test_a_window_over_a_builtin_fills(self, tmp_path):
        trace, meta = moving_car_trace(tmp_path, 10)
        vprog = make_program(MOVING + """
        query mv_right { bind c: Car frame_constraint: c.mv == "right" }
        """)
        outcome, _s, _d = run_single(vprog, "mv_right", trace, meta)
        assert outcome.satisfied == list(range(2, 10))

    def test_a_window_over_a_window_reads_back_far_enough(self, tmp_path):
        # drift's 3 values of pos each need direction's window of 5 objects,
        # 7 objects in all.  Frames 14 and 15 are dropped before pos is
        # projected, so frame 16, first of its batch of 16, computes pos on
        # frame 14 from objects 10-14 (frames before 6 are dropped too,
        # as pos is Undefined until direction has warmed up)
        trace, meta = moving_car_trace(
            tmp_path, 40, w=lambda f: float(f >= 6 and f not in (14, 15)))
        vprog = make_program(DRIFTING + """
        query q { bind c: Car frame_constraint: c.w > 0.5
                  frame_output: c.drift }
        """)
        texts = {
            batch: serialize_outcome(run_single(
                vprog, "q", trace, meta,
                exec_config=ExecConfig(batch_size=batch))[0])
            for batch in (1, 3, 16, 64)
        }
        assert len(set(texts.values())) == 1
        drift = {r["frame"]: r["outputs"]["c.drift"]
                 for r in json.loads(texts[16])["frames"]}
        assert sorted(drift) == [6, 7, 8, 9, 10, 11, 12, 13] + list(range(16, 40))
        assert drift[16] == ["right"]

    @pytest.mark.parametrize("batch", [1, 3, 16, 64])
    def test_a_window_over_undefined_entries_is_undefined(self, tmp_path,
                                                          batch):
        # the car's pos attribute moves 10 px right a frame.  direction's
        # window of 3 first fills on frame 2, so pos is Undefined on frames
        # 0-1, and drift's window of 3 holds one of those through frame 3
        frames = 20
        trace, meta = moving_car_trace(tmp_path, frames)
        vprog = make_program(DRIFTING + """
        query q { bind c: Car video_constraint: c.drift == "right"
                  frame_output: c.drift }
        """)
        outcome, stats, _d = run_single(
            vprog, "q", trace, meta, exec_config=ExecConfig(batch_size=batch))
        drift = {r["frame"]: r["outputs"]["c.drift"] for r in outcome.rows}
        assert drift == {f: [None if f < 4 else "right"]
                         for f in range(frames)}
        assert list(outcome.video["per_track"].values()) == [
            {"true": 16, "false": 0, "undefined": 4}]
        assert stats.property_calls["Car.drift"] == 16

    def test_a_similarity_window_with_an_undefined_entry_is_undefined(
            self, tmp_path):
        # the car has no emb on frame 2, so the windows of frames 2-4 hold an
        # Undefined entry and only frame 5's window is whole
        path = tmp_path / "emb.jsonl"
        write_trace([
            TraceRecord(f, (Detection(
                "car", (100.0 + 10 * f, 500.0, 140.0 + 10 * f, 540.0), 0.95,
                {} if f == 2 else {"emb": "1,0"}),))
            for f in range(6)], path)
        registry = frozen_registry([Registration(
            name="like_x", kind="property_fn", cost_units=5.0,
            params={"impl": "cosine_similarity", "reference": [1, 0]})])
        vprog = make_program("""
        vobj Car {
          detector: "general_car"
          property emb: stateless(impl="attr_vector:emb")
          property sim: stateful(impl="like_x", deps=[emb], window=3)
        }
        query q { bind c: Car video_constraint: c.sim > 0.5
                  frame_output: c.sim }
        """)
        outcome, stats, _d = run_single(vprog, "q", path, meta_1000(6),
                                        registry=registry)
        sims = [r["outputs"]["c.sim"] for r in outcome.rows]
        assert sims == [[None]] * 5 + [[1.0]]
        assert list(outcome.video["per_track"].values()) == [
            {"true": 1, "false": 0, "undefined": 5}]
        assert stats.property_calls["Car.sim"] == 1

    def test_retired_track_readable_in_its_last_batch_then_released(
            self, tmp_path):
        # the car leaves after frame 9 and max_age 1 retires its track on
        # frame 11, inside the first batch of 16
        trace, meta = moving_car_trace(tmp_path, 40, last=9)
        vprog = make_program(MOVING)
        registry = frozen_registry()
        dag = plan_query(vprog, "moving_right", registry, PlannerConfig(), meta)
        dag.ops["tracker:c"].params["config"] = \
            TrackerConfig(max_age=1).to_json()
        session = Session(vprog, registry, meta, ExecConfig(batch_size=16))
        session.start([dag])
        first, second, _third = trace_batches(trace, meta, 16)
        session.feed(first)
        (track,) = session.engine.tracks.values()
        assert [n.frame_id for n in track.objects] == list(range(10))
        session.feed(second)
        assert list(track.objects) == []
        (outcome,) = session.finish()
        assert outcome.satisfied == list(range(2, 10))


class TestMemoization:
    def test_intrinsic_once_per_track(self, tmp_path):
        paths, meta = red_world(tmp_path, frames=20)
        vprog = make_program(REDS)
        _out, stats, _dag = run_single(vprog, "reds", paths["trace"], meta)
        assert stats.property_calls["Car.color"] == 1

    def test_memo_off_recomputes_per_frame(self, tmp_path):
        paths, meta = red_world(tmp_path, frames=20)
        vprog = make_program(REDS)
        out_on, _s, _d = run_single(vprog, "reds", paths["trace"], meta)
        out_off, stats, _d = run_single(
            vprog, "reds", paths["trace"], meta,
            exec_config=ExecConfig(memo=False),
        )
        assert stats.property_calls["Car.color"] == 20
        assert serialize_outcome(out_on) == serialize_outcome(out_off)


class TestLaziness:
    def world(self, tmp_path):
        meta = meta_1000(10)
        objs = [
            car(i, 0, 9, (100.0 * (i + 1), 100.0), velocity=(2.0, 0.0),
                color="red" if i < 2 else "blue")
            for i in range(6)
        ]
        return write_world(WorldSpec(meta=meta, objects=objs),
                           tmp_path / "w"), meta

    def prog(self):
        return make_program(CAR_PROGRAM + """
        query red_speeds {
          bind c: Car
          frame_constraint: c.color == "red" & c.speed >= 0
          frame_output: c.speed
        }
        """)

    def test_lazy_computes_survivors_only(self, tmp_path):
        paths, meta = self.world(tmp_path)
        _out, stats, _dag = run_single(
            self.prog(), "red_speeds", paths["trace"], meta)
        # `&` stops at a blue car's colour, so speed is demanded only for
        # the 2 red cars on frames 4..9
        assert stats.property_calls["Car.speed"] == 2 * 6

    def test_eager_computes_everything(self, tmp_path):
        paths, meta = self.world(tmp_path)
        lazy_out, _s, _d = run_single(
            self.prog(), "red_speeds", paths["trace"], meta)
        eager_out, stats, _d = run_single(
            self.prog(), "red_speeds", paths["trace"], meta,
            exec_config=ExecConfig(lazy=False),
        )
        # the filter reads speed, so it runs after speed's projector, which
        # computes it for all 6 cars
        assert stats.property_calls["Car.speed"] == 6 * 6
        assert serialize_outcome(lazy_out) == serialize_outcome(eager_out)


class TestAggregate:
    def test_count_distinct_skips_warmup(self, tmp_path):
        meta = meta_1000(20)
        objs = [
            car(1, 0, 19, (100.0, 100.0), velocity=(3.0, 0.0)),
            car(2, 0, 19, (100.0, 300.0), velocity=(3.0, 0.0)),
            car(3, 0, 19, (100.0, 500.0), velocity=(0.0, 3.0)),  # moves down
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
        outcome, _stats, _dag = run_single(
            vprog, "right_movers", paths["trace"], meta
        )
        assert outcome.video["value"] == 2
        # warm-up frames are recorded as undefined, not false
        per = outcome.video["per_track"]
        assert all(v["undefined"] == 4 for v in per.values())


class TestDuration:
    PROGRAM = CAR_PROGRAM + """
    query movers { bind c: Car frame_constraint: c.direction == "right" }
    duration query held { base: movers min_frames: 3 gap_tolerance: 1 }
    duration query strict { base: movers min_frames: 3 }
    """

    def test_a_window_may_start_before_the_first_satisfied_frame(self,
                                                                 tmp_path):
        # the car is tracked from frame 0, but `direction` fills its window
        # of 5 only on frame 4; the window [3, 5] starts after the track's
        # birth and misses one satisfied frame, so `held` fires on frame 5,
        # which it would not if the track began where the base first held
        paths, meta = red_world(tmp_path, frames=12)
        vprog = make_program(self.PROGRAM)
        satisfied = {
            q: run_single(vprog, q, paths["trace"], meta)[0].satisfied
            for q in ("movers", "held", "strict")}
        assert satisfied == {"movers": list(range(4, 12)),
                             "held": list(range(5, 12)),
                             "strict": list(range(6, 12))}

    def test_rows_are_the_fired_frames_of_the_base(self, tmp_path):
        paths, meta = red_world(tmp_path, frames=12)
        vprog = make_program(self.PROGRAM)
        session = Session(vprog, frozen_registry(), meta)
        dags = [plan_query(vprog, q, frozen_registry(), PlannerConfig(), meta)
                for q in ("movers", "held")]
        base, held = session.run(dags, paths["trace"])
        assert [r["frame"] for r in base.rows] == base.satisfied
        assert held.rows == [r for r in base.rows if r["frame"] >= 5]
        (track,) = {t for t, _f in held.duration_fires}
        assert held.duration_fires == [[track, f] for f in range(5, 12)]


class TestTemporal:
    PROGRAM = CAR_PROGRAM + """
    query reds { bind c: Car frame_constraint: c.color == "red" }
    query blues { bind c: Car frame_constraint: c.color == "blue" }
    temporal query in_frames { first: reds then: blues max_interval_frames: 0 }
    temporal query in_seconds { first: reds then: blues
      max_interval_seconds: 0 }
    temporal query in_a_frame { first: reds then: blues
      max_interval_seconds: 0.1 }
    duration query brief { base: reds min_seconds: 0.01 }
    """

    def test_a_zero_second_interval_is_zero_frames(self, tmp_path):
        meta = meta_1000(10)  # 10 fps
        red = car(1, 0, 4, (100.0, 100.0))
        blue = car(2, 5, 9, (500.0, 500.0), color="blue")
        paths = write_world(WorldSpec(meta=meta, objects=[red, blue]),
                            tmp_path / "w")
        vprog = make_program(self.PROGRAM)
        gap = blue.start_frame - red.end_frame  # the blue run starts 1 later
        for query, frames in [("in_frames", 0), ("in_seconds", 0),
                              ("in_a_frame", 1)]:
            outcome, _stats, dag = run_single(vprog, query, paths["trace"],
                                              meta)
            assert dag.ops[dag.sink].params["max_interval"] == frames
            assert outcome.temporal["matched"] is (gap <= frames), query
            assert outcome.satisfied == \
                ([blue.start_frame] if gap <= frames else []), query
        # a duration's period is at least one frame
        brief = plan_query(vprog, "brief", frozen_registry(), PlannerConfig(),
                           meta)
        assert brief.ops[brief.sink].params["min_frames"] == 1


class TestOperatorSharing:
    def test_shared_detector_runs_once(self, tmp_path):
        paths, meta = red_world(tmp_path, frames=20)
        vprog = make_program(CAR_PROGRAM + """
        query reds { bind c: Car
          frame_constraint: c.color == "red" }
        query blues { bind c: Car
          frame_constraint: c.color == "blue" }
        """)
        registry = frozen_registry()
        cfg = PlannerConfig()
        dags = [plan_query(vprog, q, registry, cfg, meta)
                for q in ("reds", "blues")]
        outcomes, stats = run_plans(
            vprog, dags, paths["trace"], registry, meta
        )
        assert stats.component_calls["general_car"] == 20  # not 40
        assert [o.query for o in outcomes] == ["reds", "blues"]
        assert outcomes[0].satisfied == list(range(20))
        assert outcomes[1].satisfied == []

    def test_separate_sessions_pay_twice(self, tmp_path):
        paths, meta = red_world(tmp_path, frames=20)
        vprog = make_program(REDS)
        _o1, s1, _d = run_single(vprog, "reds", paths["trace"], meta)
        _o2, s2, _d = run_single(vprog, "reds", paths["trace"], meta)
        assert s1.component_calls["general_car"] + \
            s2.component_calls["general_car"] == 40


class TestTrackerOwnership:
    """A tracker sets ids on its detector's nodes in place only when no
    other operator reads that detector's batch."""

    @pytest.mark.parametrize("batch", [1, 3, 16, 64])
    def test_a_detector_shared_with_an_untracked_query(self, tmp_path,
                                                       batch):
        trace, meta = moving_car_trace(tmp_path, 20)
        vprog = make_program(MOVING + """
        query anywhere { bind c: Car frame_constraint: c.center != 0 }
        """)
        registry = frozen_registry()
        config = ExecConfig(batch_size=batch)
        # the tracked query comes first, so its tracker has run on a batch
        # before the untracked query reads that batch's detections
        dags = [plan_query(vprog, q, registry,
                           PlannerConfig(batch_size=batch), meta)
                for q in ("moving_right", "anywhere")]
        shared, stats = run_plans(vprog, dags, trace, registry, meta, config)
        assert stats.component_calls["general_car"] == 20  # one detector
        for dag, outcome in zip(dags, shared):
            (solo,), _s = run_plans(vprog, [dag], trace, registry, meta,
                                    config)
            assert serialize_outcome(outcome) == serialize_outcome(solo)
        assert shared[0].satisfied == list(range(2, 20))
        untracked = [obj for row in shared[1].rows
                     for b in row["objects"] for obj in row_objects(row, b)]
        assert len(untracked) == 20
        assert all(obj["track"] is None for obj in untracked)

    def test_the_sole_reader_of_a_detector_copies_nothing(self, tmp_path):
        trace, meta = moving_car_trace(tmp_path, 6)
        vprog = make_program(MOVING)
        registry = frozen_registry()
        dag = plan_query(vprog, "moving_right", registry, PlannerConfig(),
                         meta)
        session = Session(vprog, registry, meta)
        session.start([dag])
        seen = {}  # kind -> (frame states, their nodes) per call

        def recording(rt):
            process = rt.process

            def record(engine, inputs):
                out = process(engine, inputs)
                seen.setdefault(rt.kind, []).append(
                    (list(out), [list(fs.graph.nodes) for fs in out]))
                return out
            return record

        trackers = []
        for rt, _inputs in session._schedule.values():
            if rt is not None and rt.kind in ("detector", "tracker"):
                rt.process = recording(rt)
                if rt.kind == "tracker":
                    trackers.append(rt)
        for base in trace_batches(trace, meta, 16):
            session.feed(base)
        (outcome,) = session.finish()
        assert outcome.satisfied == list(range(2, 6))
        assert [t.owns_input for t in trackers] == [True]
        ((detected, detected_nodes),) = seen["detector"]
        ((tracked, tracked_nodes),) = seen["tracker"]
        assert len(tracked) == 6
        assert all(a is b for a, b in zip(tracked, detected, strict=True))
        nodes = [(a, b) for fa, fb in zip(tracked_nodes, detected_nodes)
                 for a, b in zip(fa, fb, strict=True)]
        assert len(nodes) == 6 and all(a is b for a, b in nodes)
        assert all(a.track is not None for a, _b in nodes)


class TestResultStore:
    def test_cached_rerun_invokes_nothing(self, tmp_path):
        paths, meta = red_world(tmp_path, frames=20)
        vprog = make_program(REDS)
        store = ResultStore(tmp_path / "cache")
        out1, stats1, _dag = run_single(
            vprog, "reds", paths["trace"], meta, result_store=store
        )
        assert stats1.total_op_invocations > 0
        out2, stats2, _dag = run_single(
            vprog, "reds", paths["trace"], meta, result_store=store
        )
        assert stats2.total_op_invocations == 0
        assert serialize_outcome(out1) == serialize_outcome(out2)

    @pytest.mark.parametrize("chunks", [5.5, 1])  # trace size / chunk size
    def test_trace_hashed_in_chunks_keys_as_hashed_whole(self, tmp_path,
                                                          monkeypatch, chunks):
        paths, meta = red_world(tmp_path, frames=20)
        trace = Path(paths["trace"])
        monkeypatch.setattr(executor, "TRACE_CHUNK",
                            int(trace.stat().st_size / chunks))
        vprog = make_program(REDS)
        store = ResultStore(tmp_path / "cache")
        session = Session(vprog, frozen_registry(), meta)
        dag = plan_query(vprog, "reds", session.registry, PlannerConfig(),
                         meta)
        session.run([dag], trace, result_store=store)
        whole = session._inputs_digest(
            hashlib.sha256(trace.read_bytes()).hexdigest())
        assert [e.name for e in store.root.iterdir()] == [
            f"{ResultStore.key(whole, dag.plan_id)}.marshal"]

    def test_different_trace_misses(self, tmp_path):
        paths, meta = red_world(tmp_path, frames=20)
        meta2 = meta_1000(10)
        world2 = WorldSpec(meta=meta2, objects=[
            car(1, 0, 9, (200.0, 200.0), velocity=(1.0, 0.0)),
        ])
        paths2 = write_world(world2, tmp_path / "other")
        vprog = make_program(REDS)
        store = ResultStore(tmp_path / "cache")
        run_single(vprog, "reds", paths["trace"], meta, result_store=store)
        _out, stats, _dag = run_single(
            vprog, "reds", paths2["trace"], meta2, result_store=store
        )
        assert stats.total_op_invocations > 0


    def test_meta_change_misses(self, tmp_path):
        paths, meta = red_world(tmp_path, frames=150)
        short = replace(meta, frame_count=50)
        vprog = make_program(REDS)
        store = ResultStore(tmp_path / "cache")
        out_short, _s, _d = run_single(vprog, "reds", paths["trace"], short,
                                       result_store=store)
        assert out_short.satisfied[-1] == 49
        out, stats, _dag = run_single(vprog, "reds", paths["trace"], meta,
                                      result_store=store)
        assert stats.total_op_invocations > 0
        assert out.satisfied[-1] == 149
        uncached, _s, _d = run_single(vprog, "reds", paths["trace"], meta)
        assert serialize_outcome(out) == serialize_outcome(uncached)

    def test_registration_change_misses(self, tmp_path):
        # a detector's params are not in the plan, which names it only
        def registry(score_threshold):
            reg = Registry()
            reg.register(Registration(
                name="general_car", kind="detector", cost_units=100.0,
                params={"classes": ["car"],
                        "score_threshold": score_threshold},
            ))
            reg.freeze()
            return reg

        paths, meta = red_world(tmp_path, frames=20)
        vprog = make_program(REDS)
        store = ResultStore(tmp_path / "cache")
        out, _s, dag = run_single(vprog, "reds", paths["trace"], meta,
                                  registry=registry(0.0), result_store=store)
        assert out.satisfied == list(range(20))
        strict, stats, dag2 = run_single(
            vprog, "reds", paths["trace"], meta, registry=registry(0.99),
            result_store=store)
        assert dag2.plan_id == dag.plan_id
        assert stats.total_op_invocations > 0
        assert strict.satisfied == []  # the cars score 0.95

    def test_property_definition_change_misses(self, tmp_path):
        # a plan names the properties it reads but does not hold their
        # definitions
        trace, meta = moving_car_trace(tmp_path, 20)
        store = ResultStore(tmp_path / "cache")
        short = make_program(MOVING)
        long = make_program(MOVING.replace(
            'impl="direction", deps=[center], window=3',
            'impl="direction", deps=[center], window=8'))
        out, _s, dag = run_single(short, "moving_right", trace, meta,
                                  result_store=store)
        assert out.satisfied == list(range(2, 20))
        cached, stats, dag8 = run_single(long, "moving_right", trace, meta,
                                         result_store=store)
        assert dag8.plan_id == dag.plan_id
        assert stats.total_op_invocations > 0
        uncached, _s, _d = run_single(long, "moving_right", trace, meta)
        assert uncached.satisfied == list(range(7, 20))
        assert serialize_outcome(cached) == serialize_outcome(uncached)

    @pytest.mark.parametrize("damage", [
        b"{}",
        b"[]",
        b'{"query": "reds", "satisfied": 5}',
        b'{"query": "reds", "satisfied": [], "frames": {}}',
        b'{"frames":[],"query":"re',  # truncated
    ], ids=["empty-object", "array", "int-satisfied", "object-frames",
            "truncated"])
    def test_malformed_entry_is_a_miss(self, tmp_path, damage):
        paths, meta = red_world(tmp_path, frames=20)
        vprog = make_program(REDS)
        store = ResultStore(tmp_path / "cache")
        cold, _s, _d = run_single(vprog, "reds", paths["trace"], meta,
                                  result_store=store)
        (entry,) = store.root.iterdir()
        written = entry.read_bytes()
        entry.write_bytes(damage)
        out, stats, _dag = run_single(vprog, "reds", paths["trace"], meta,
                                      result_store=store)
        assert stats.total_op_invocations > 0  # recomputed
        assert serialize_outcome(out) == serialize_outcome(cold)
        assert list(store.root.iterdir()) == [entry]
        assert entry.read_bytes() == written  # rewritten

    def assert_each_is_a_miss(self, tmp_path, damage):
        """Each entry in `damage(entry bytes)` makes the entry a miss: the
        run recomputes the uncached result and rewrites the entry."""
        paths, meta = red_world(tmp_path, frames=20)
        vprog = make_program(REDS)
        store = ResultStore(tmp_path / "cache")
        cold, _s, _d = run_single(vprog, "reds", paths["trace"], meta,
                                  result_store=store)
        (entry,) = store.root.iterdir()
        written = entry.read_bytes()
        for damaged in damage(written):
            assert damaged != written
            entry.write_bytes(damaged)
            out, stats, _dag = run_single(vprog, "reds", paths["trace"], meta,
                                          result_store=store)
            assert stats.total_op_invocations > 0, damaged  # recomputed
            assert serialize_outcome(out) == serialize_outcome(cold)
            assert list(store.root.iterdir()) == [entry]
            assert entry.read_bytes() == written  # rewritten

    def test_flipped_byte_is_a_miss(self, tmp_path):
        # a digit flipped in an entry of JSON text still parses to an
        # outcome; no payload with a flipped byte is ever loaded
        def flipped(data):
            size = len(data) - DIGEST_SIZE
            for k in range(11):
                at = DIGEST_SIZE + size * k // 11
                yield data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]

        self.assert_each_is_a_miss(tmp_path, flipped)

    def test_huge_length_field_is_a_miss(self, tmp_path):
        def huge(data):
            # the length field of the `satisfied` list, which follows its key
            at = data.index(b"satisfied") + len(b"satisfied")
            assert data[at] & 0x7F == ord("[")
            damaged = data[:at + 1] + struct.pack("<I", 2**31) + data[at + 5:]
            payload = damaged[DIGEST_SIZE:]
            return [damaged, hashlib.sha256(payload).digest() + payload]

        self.assert_each_is_a_miss(tmp_path, huge)

    def test_truncated_entry_is_a_miss(self, tmp_path):
        self.assert_each_is_a_miss(
            tmp_path, lambda data: [data[:k] for k in range(0, len(data), 97)])

    @pytest.mark.parametrize("value", [
        compile("print('loaded')", "<entry>", "exec"),
        ["reds", [0, 1], []],
        {"satisfied": 5},
        {"query": "reds", "satisfied": (0, 1), "frames": []},
    ], ids=["code", "list", "int-satisfied", "tuple-satisfied"])
    def test_digest_checked_payload_of_another_shape_is_a_miss(
            self, tmp_path, capsys, value):
        payload = marshal.dumps(value)
        entry = hashlib.sha256(payload).digest() + payload
        self.assert_each_is_a_miss(tmp_path, lambda _data: [entry])
        assert capsys.readouterr().out == ""  # the code was never run

    def test_served_outcome_equals_uncached_on_random_outcomes(self,
                                                               tmp_path):
        rng = random.Random(20231)
        store = ResultStore(tmp_path / "cache")
        for i in range(200):
            outcome = random_outcome(rng, depth=2)
            store.put("inputs", f"plan{i}", outcome)
            served = store.get("inputs", f"plan{i}")
            assert serialize_outcome(served) == serialize_outcome(outcome)
            # row objects still 7-tuples, and no other tuple, set or
            # non-string key that a JSON entry would have normalised
            assert served == outcome
            assert_row_tuples_and_json(served.to_json())


FLOATS = [0.0, -0.0, 1e-7, -1e-7, 0.1, 1e300, 5e-324, 2.5]
SCALARS = FLOATS + [0, -1, 2**64 + 1, -(2**100), True, False, None, "", "red",
                    "Ünïcødé", "车 🚗", 'quote " and \\ tab \t', "\u2028"]
NAMES = ["reds", "", "qüery", "查询", "🚗 seq", "a.b", "0"]


# values the writer must write as `json.dumps` does, which the store test
# leaves out (NaN never equals itself, and a tuple is no JSON type):
# non-finite floats, and outputs that look like a row object, which are
# written as arrays
WRITER_SCALARS = SCALARS + [
    math.nan, math.inf, -math.inf, (7, 1, None, 0.5, 1.5, 2.5, 3.5),
    (7, 1, 3, 0.5, 1.5, 2.5, 3.5), [7, 1, 3, 0.5, 1.5, 2.5, 3.5], (), (True,)]


def random_json(rng, depth, scalars=SCALARS):
    """A random value of JSON's own types, from `scalars` at the leaves:
    lists, objects with string keys, strings, numbers, booleans and
    null."""
    kind = rng.randrange(4 if depth > 0 else 1)
    if kind == 0:
        return rng.choice(scalars + [rng.uniform(-1e6, 1e6),
                                     rng.randrange(-10**20, 10**20)])
    if kind == 1:
        return [random_json(rng, depth - 1, scalars)
                for _ in range(rng.randrange(4))]
    if kind == 2:
        return {rng.choice(NAMES): random_json(rng, depth - 1, scalars)
                for _ in range(rng.randrange(4))}
    return [] if rng.random() < 0.5 else {}


def random_outcome(rng, depth, scalars=SCALARS) -> QueryOutcome:
    """A random outcome of every part's shape, its row objects 7-tuples and
    its outputs drawn from `scalars`."""
    frames = sorted(rng.sample(range(10**6), rng.randrange(6)))
    coordinate = lambda: rng.choice(  # noqa: E731
        FLOATS + [rng.uniform(0, 1e4), rng.uniform(-1e4, 0)])
    rows = [{"frame": f,
             "objects": {rng.choice(NAMES): [
                 (f, rng.randrange(50),
                  rng.choice([None, 0, rng.randrange(10**12)]),
                  coordinate(), coordinate(), coordinate(), coordinate())
                 for _ in range(rng.randrange(3))]
                 for _ in range(rng.randrange(3))},
             "outputs": {f"c.{rng.choice(NAMES)}": [
                 random_json(rng, 2, scalars)]}}
            for f in frames]
    outcome = QueryOutcome(query=rng.choice(NAMES), satisfied=frames,
                           rows=rows)
    if rng.random() < 0.4:
        outcome.video = {
            "aggregate": "count_distinct", "binding": rng.choice(NAMES),
            "value": rng.randrange(10**30),
            "per_track": {str(t): {"true": rng.randrange(9),
                                   "false": 0, "undefined": 2**63}
                          for t in rng.sample(range(100), rng.randrange(3))}}
    if rng.random() < 0.4:
        outcome.duration_fires = [[rng.randrange(99), f] for f in frames]
    if depth > 0 and rng.random() < 0.5:
        first = random_outcome(rng, depth - 1, scalars)
        then = random_outcome(rng, depth - 1, scalars)
        outcome.temporal = {
            "matched": bool(first.satisfied and then.satisfied),
            "witnesses": [[e, s] for e in first.satisfied[:2]
                          for s in then.satisfied[:2]],
            "first": first.to_json(), "then": then.to_json()}
    return outcome


def dict_form(obj: dict) -> dict:
    """An outcome's `to_json` with each row object as the result file's
    dict (`row_objects`), in a temporal outcome's parts too."""
    form = dict(obj, frames=[
        dict(row, objects={b: row_objects(row, b) for b in row["objects"]})
        for row in obj["frames"]])
    if obj.get("temporal") is not None:
        form["temporal"] = dict(obj["temporal"],
                                first=dict_form(obj["temporal"]["first"]),
                                then=dict_form(obj["temporal"]["then"]))
    return form


def assert_row_tuples_and_json(obj: dict) -> None:
    """The row objects of `obj`, an outcome's `to_json`, are 7-tuples
    (`row_objects` checks), and everything else is of JSON's own types."""
    form = dict_form(obj)
    assert form == json.loads(json.dumps(form))


class TestWriter:
    """`serialize_outcome` writes what `json.dumps` writes for the outcome
    with its row objects as dicts."""

    @staticmethod
    def dumps(outcome):
        return json.dumps(dict_form(outcome.to_json()), indent=2,
                          sort_keys=True) + "\n"

    def test_equals_json_dumps_on_random_outcomes(self):
        rng = random.Random(20232)
        seen = Counter()
        for _ in range(400):
            outcome = random_outcome(rng, depth=2, scalars=WRITER_SCALARS)
            text = serialize_outcome(outcome)
            assert text == self.dumps(outcome)
            seen.update(token for token in ("NaN", "-Infinity", "5e-324",
                                            "1e-07", "-0.0", "\\u", "true",
                                            "18446744073709551617",
                                            '"temporal"', '"duration_fires"',
                                            "{}", "[]")
                        if token in text)
            objects = [o for row in outcome.rows
                       for objs in row["objects"].values() for o in objs]
            seen["row objects"] += len(objects)
            seen["untracked"] += sum(o[2] is None for o in objects)
            # a row-like tuple or list in the outputs, written as an array
            seen["near misses"] += len(re.findall(
                r"\[\s+7,\s+1,\s+(?:null|3),\s+0\.5,", text))
        # every case the draw is meant to reach, many times over
        assert len(seen) == 15 and min(seen.values()) >= 10, seen

    @pytest.mark.parametrize("value", [
        (7, 1, None, 0.5, 1.5, 2.5, 3.5), [7, 1, 3, 0.5, 1.5, 2.5, 3.5],
        {"bbox": [0.5, 1.5, 2.5, 3.5], "node": [7, 1], "track": None},
        [True, 1, False, 0, 2**64 + 1, -(2**100)], [math.nan, -math.inf],
        {}, [], {"": [{}], "é": ["\u2028", "车 🚗"]}])
    def test_outputs_that_look_like_rows_are_written_as_json(self, value):
        row = {"frame": 7, "objects": {"c": [(7, 1, None, 0.5, -0.0, 1e-7,
                                              5e-324)]},
               "outputs": {"c.x": [value], "c.y": value}}
        outcome = QueryOutcome("q", [7], [row], video={"value": value},
                               duration_fires=[[3, 7]])
        outcome.temporal = {"first": QueryOutcome("p", [7], [row]).to_json(),
                            "then": QueryOutcome("q", [], []).to_json(),
                            "matched": True, "witnesses": [value]}
        assert serialize_outcome(outcome) == self.dumps(outcome)

    def test_a_row_object_of_another_shape_is_refused(self):
        row = {"frame": 7, "objects": {"c": [
            {"bbox": [0.5, 1.5, 2.5, 3.5], "node": [7, 1], "track": None}]}}
        with pytest.raises(ValueError):
            serialize_outcome(QueryOutcome("q", [7], [row]))


SHAPES = CAR_PROGRAM + """
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
query right_movers {
  bind c: Car
  frame_constraint: c.color == "red"
  video_constraint: c.direction == "right"
  video_output: count_distinct(c)
}
query speeds {
  bind c: Car
  frame_constraint: c.color == "red"
  frame_output: c.speed
}
spatial query near {
  first: reds
  second: adults
  relation: Near
  predicate: Near(c, p).distance_px < 150
}
duration query held { base: reds min_frames: 5 }
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
"""


class TestCompactEntries:
    """Entries are digest-checked `marshal`; what is served from them is
    byte-for-byte what the uncached run gives, for every shape of outcome."""

    QUERIES = ["reds", "right_movers", "speeds", "near", "held", "nested"]

    def run(self, tmp_path, store=None):
        meta = meta_1000(40)
        world = WorldSpec(meta=meta, seed=5, objects=[
            car(1, 0, 8, (100.0, 300.0), velocity=(3.7, 0.0)),
            car(2, 20, 39, (300.0, 400.0), velocity=(0.5, -3.0)),
            car(3, 10, 25, (700.0, 500.0), velocity=(-2.5, 0.0),
                color="blue"),
            ObjectScript(label=4, class_name="person", start_frame=12,
                         end_frame=39, start_center=(240.0, 420.0),
                         velocity=(0.5, -3.0), size=(20.0, 24.0),
                         attrs={"role": "adult"}),
        ])
        paths = write_world(world, tmp_path / "w")
        vprog = make_program(SHAPES)
        registry = frozen_registry()
        dags = [plan_query(vprog, q, registry, PlannerConfig(), meta)
                for q in self.QUERIES]
        outcomes, stats = run_plans(vprog, dags, paths["trace"], registry,
                                    meta, result_store=store)
        return [serialize_outcome(o) for o in outcomes], stats

    def test_served_bytes_equal_uncached(self, tmp_path):
        uncached, _stats = self.run(tmp_path)
        shapes = [json.loads(text) for text in uncached]
        assert all(o["satisfied"] for o in shapes)
        assert shapes[1]["video"]["per_track"]
        assert any(isinstance(v, float) and v != int(v)
                   for r in shapes[2]["frames"]
                   for v in r["outputs"]["c.speed"] if v is not None)
        assert shapes[5]["temporal"]["first"]["temporal"]["matched"]
        assert shapes[4]["duration_fires"] and shapes[5]["temporal"]
        store = ResultStore(tmp_path / "cache")
        cold, _stats = self.run(tmp_path, store)
        warm, stats = self.run(tmp_path, store)
        assert stats.total_op_invocations == 0
        assert cold == uncached and warm == uncached
        entries = sorted(store.root.iterdir())
        assert len(entries) == len(self.QUERIES)
        for entry in entries:
            data = entry.read_bytes()
            payload = data[DIGEST_SIZE:]
            assert data[:DIGEST_SIZE] == hashlib.sha256(payload).digest()
            obj = marshal.loads(payload)
            QueryOutcome.from_json(obj)
            # 7-tuple row objects and only JSON's own types besides, as the
            # uncached outcome holds
            assert_row_tuples_and_json(obj)

    def test_old_json_entry_is_a_miss(self, tmp_path, monkeypatch):
        uncached, _stats = self.run(tmp_path)
        puts = []
        put = ResultStore.put

        def recording_put(store, *args):
            puts.append(args)
            put(store, *args)

        monkeypatch.setattr(ResultStore, "put", recording_put)
        self.run(tmp_path, ResultStore(tmp_path / "cache"))
        assert len(puts) == len(self.QUERIES)
        # the earlier entries: compact JSON, keyed without the format tag
        old = ResultStore(tmp_path / "old")
        for inputs_digest, plan_id, outcome in puts:
            key = hashlib.sha256(f"{inputs_digest}:{plan_id}".encode())
            (old.root / f"{key.hexdigest()}.json").write_text(json.dumps(
                outcome.to_json(), sort_keys=True, separators=(",", ":")))
        served, stats = self.run(tmp_path, old)
        assert stats.total_op_invocations > 0
        assert served == uncached
        assert len(puts) == 2 * len(self.QUERIES)  # each one recomputed
        assert sorted(p.suffix for p in old.root.iterdir()) == \
            [".json"] * len(self.QUERIES) + [".marshal"] * len(self.QUERIES)

    def test_old_dict_row_entry_is_never_opened(self, tmp_path, monkeypatch):
        uncached, _stats = self.run(tmp_path)
        puts = []
        put = ResultStore.put

        def recording_put(store, *args):
            puts.append(args)
            put(store, *args)

        monkeypatch.setattr(ResultStore, "put", recording_put)
        self.run(tmp_path, ResultStore(tmp_path / "cache"))
        # the entries of the previous format: the same digest-checked
        # marshal, keyed under its tag, of outcomes with dict row objects
        tag = "marshal{}-py{}.{}".format(marshal.version,
                                         *sys.version_info[:2])
        old = ResultStore(tmp_path / "old")
        for inputs_digest, plan_id, outcome in puts:
            payload = marshal.dumps(dict_form(outcome.to_json()))
            key = hashlib.sha256(f"{tag}:{inputs_digest}:{plan_id}".encode())
            (old.root / f"{key.hexdigest()}.marshal").write_bytes(
                hashlib.sha256(payload).digest() + payload)
        old_entries = {p: p.read_bytes() for p in old.root.iterdir()}
        loaded = []
        loads = marshal.loads
        monkeypatch.setattr(marshal, "loads",
                            lambda data: loaded.append(data) or loads(data))
        served, stats = self.run(tmp_path, old)
        assert loaded == []  # no old entry was read
        assert stats.total_op_invocations > 0
        assert served == uncached
        assert len(puts) == 2 * len(self.QUERIES)  # each one recomputed
        assert {p: p.read_bytes() for p in old_entries} == old_entries
        assert len(list(old.root.iterdir())) == 2 * len(self.QUERIES)
        # the rewritten entries serve the next run
        served, stats = self.run(tmp_path, old)
        assert len(loaded) == len(self.QUERIES)
        assert stats.total_op_invocations == 0
        assert served == uncached


class TestLinking:
    """A pass resolves each property of each detected type once, however
    many values it computes."""

    @pytest.mark.parametrize("frames, batch", [(10, 1), (10, 16), (40, 3),
                                               (40, 64)])
    def test_each_property_resolves_once_per_pass(self, tmp_path,
                                                  monkeypatch, frames, batch):
        meta = meta_1000(frames)
        world = WorldSpec(meta=meta, objects=[
            car(1, 0, frames - 1, (100.0, 300.0), velocity=(3.0, 0.0)),
            ObjectScript(label=2, class_name="person", start_frame=0,
                         end_frame=frames - 1, start_center=(160.0, 300.0),
                         velocity=(3.0, 0.0), size=(20.0, 24.0),
                         attrs={"role": "adult"}),
        ])
        paths = write_world(world, tmp_path / "w")
        vprog = make_program(SHAPES + """
        vobj Bus {
          detector: "general_bus"
          property plate: stateless(impl="attr:plate")
        }
        """)  # declared, never detected
        registry = frozen_registry()
        dags = [plan_query(vprog, q, registry, PlannerConfig(batch_size=batch),
                           meta)
                for q in ("reds", "adults", "right_movers", "speeds", "near")]
        resolved = Counter()
        resolve = Registry.resolve_property_fn

        def counting(self, name):
            resolved[name] += 1
            return resolve(self, name)

        monkeypatch.setattr(Registry, "resolve_property_fn", counting)
        session = Session(vprog, registry, meta, ExecConfig(batch_size=batch))
        for _pass in range(2):
            outcomes = session.run(dags, paths["trace"])
            assert all(o.satisfied for o in outcomes)
            assert session.stats.property_calls["Car.speed"] > 0
            assert resolved == Counter(["attr:color", "center", "direction",
                                        "speed", "attr:role"])
            resolved.clear()


class TestLinkTable:
    """Every operator kind a plan holds links through one table, a fused
    op's steps too."""

    PROGRAM = SHAPES + """
    query moving_reds { bind s: Scene bind c: Car
      frame_constraint: s.motion_score > 0.1 & c.color == "red" }
    """
    UNLINKED = {"reader", "duration", "temporal"}  # no runtime op of their own

    def test_every_planned_kind_links(self):
        vprog = make_program(self.PROGRAM)
        registry = frozen_registry([
            Registration(name="has_car", kind="classifier", cost_units=1.0,
                         params={"vobj": "Car", "target_class": "car"}),
            Registration(name="moving", kind="frame_filter", cost_units=0.5,
                         params={"auto": True, "channel": "motion_score",
                                 "op": ">=", "threshold": 0.2}),
        ])
        kinds = set()
        for query in vprog.query_order:
            dag = plan_query(vprog, query, registry, meta=meta_1000(20))
            for pop in dag.ops.values():
                kinds.add(pop.kind)
                if pop.kind in self.UNLINKED:
                    continue
                rt = build_runtime_op(pop, registry)
                steps = [(pop, rt)]
                if pop.kind == "fused":
                    steps += zip([PlanOp(pop.op_id, **s) for s in
                                  pop.params["steps"]], rt.steps,
                                 strict=True)
                for step, op in steps:
                    kinds.add(step.kind)
                    assert type(op) is OPERATOR_CLASSES[step.kind]
                    assert not isinstance(
                        getattr(op, "predicate", None), dict)
        assert kinds == set(OPERATOR_CLASSES) | self.UNLINKED

    def test_the_benchmark_tracer_wraps_every_linked_class(self):
        """A kind the tracer does not list would run untraced, silently."""
        path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("bench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        assert tracing.OPERATOR_CLASSES == OPERATOR_CLASSES


class TestNestedQueries:
    """A query inside a higher-order one answers as it does alone, under its
    own name."""

    def run(self, tmp_path, query):
        meta = meta_1000(20)
        world = WorldSpec(meta=meta, seed=3, objects=[ObjectScript(
            label=1, class_name="car", start_frame=0, end_frame=19,
            start_center=(200.0, 300.0), velocity=(2.0, 0.0),
            attrs={"kind": "suv"},
        )])
        paths = write_world(world, tmp_path / query)
        vprog = make_program(SUV_PROGRAM)
        outcome, _stats, _dag = run_single(vprog, query, paths["trace"], meta)
        return outcome.to_json()

    def test_then_part_equals_its_query_alone(self, tmp_path):
        held = self.run(tmp_path, "held")
        assert held["satisfied"] == list(range(2, 20))
        t = self.run(tmp_path, "t")
        assert t["temporal"]["then"] == held

    def test_each_outcome_names_its_own_query(self, tmp_path):
        tt = self.run(tmp_path, "tt")
        first = tt["temporal"]["first"]
        assert [tt["query"], first["query"], tt["temporal"]["then"]["query"]] \
            == ["tt", "t", "suvs"]
        assert first["temporal"]["first"]["query"] == "suvs"
        assert first["temporal"]["then"]["query"] == "held"


class TestTraceBatches:
    @pytest.mark.parametrize("frame_count, frames", [
        (5, [0, 3]),      # frame 7's record ends the read
        (8, [0, 3, 7]),   # frame 7 is the last: nothing after it is read
        (9, None),        # no record of frame 8: the bad line is read
    ])
    def test_reads_up_to_the_last_frame(self, tmp_path, frame_count, frames):
        trace = tmp_path / "trace.jsonl"
        lines = [json.dumps({"frame": f, "dets": []}) for f in (0, 3, 7)]
        trace.write_text("\n".join(lines + ['{"frame": 12, "de']) + "\n")
        batches = trace_batches(trace, meta_1000(frame_count), batch_size=2)
        if frames is None:
            with pytest.raises(TraceParseError):
                list(batches)
        else:
            assert [r.frame_id for b in batches for r in b] == frames

    def test_partition_without_meta(self, tmp_path):
        # with no meta every record is read, frame ids past 2**63 too
        frames = [2 ** 63 - 3 + i for i in range(7)]
        trace = tmp_path / "trace.jsonl"
        write_trace([TraceRecord(f) for f in frames], trace)
        batches = list(trace_batches(trace, None, batch_size=3))
        assert [len(b) for b in batches] == [3, 3, 1]
        assert [fs.frame_id for b in batches for fs in b] == frames

    def test_trace_is_closed_when_reading_stops(self, tmp_path, monkeypatch):
        trace = tmp_path / "trace.jsonl"
        write_trace([TraceRecord(f) for f in range(10)], trace)
        opened = []

        def kept_open_trace(path, meta=None):
            opened.append(open_trace(path, meta))
            return opened[-1]

        monkeypatch.setattr(executor, "open_trace", kept_open_trace)
        batches = list(trace_batches(trace, meta_1000(4), batch_size=2))
        assert [[fs.frame_id for fs in b] for b in batches] == [[0, 1], [2, 3]]
        assert opened[0].gi_frame is None  # closed, though still referenced
        batches = trace_batches(trace, None, batch_size=2)
        next(batches)
        batches.close()  # a consumer that stops early
        assert opened[1].gi_frame is None

    def test_no_operator_changes_an_input_graph(self, tmp_path):
        """Every initial frame state holds the one empty graph, and each
        operator of every kind leaves the graphs of its input batch as it
        found them: the same parts and edges, holding the same objects."""
        meta = meta_1000(30)
        world = WorldSpec(meta=meta, seed=5, objects=[
            car(1, 0, 29, (100.0, 300.0), velocity=(3.7, 0.0)),
            car(2, 5, 29, (300.0, 400.0), velocity=(0.5, -3.0)),
            ObjectScript(label=3, class_name="person", start_frame=0,
                         end_frame=29, start_center=(240.0, 420.0),
                         velocity=(0.5, -3.0), size=(20.0, 24.0),
                         attrs={"role": "adult"}),
        ], channels={"motion_score": [f % 4 / 4 for f in range(30)]})
        trace = write_world(world, tmp_path / "w")["trace"]
        vprog = make_program(TestLinkTable.PROGRAM)
        registry = frozen_registry([
            Registration(name="has_car", kind="classifier", cost_units=1.0,
                         params={"vobj": "Car", "target_class": "car"}),
            Registration(name="moving", kind="frame_filter", cost_units=0.5,
                         params={"auto": True, "channel": "motion_score",
                                 "op": ">=", "threshold": 0.2}),
        ])
        dags = [plan_query(vprog, q, registry, PlannerConfig(batch_size=4),
                           meta)
                for q in TestCompactEntries.QUERIES + ["moving_reds"]]
        session = Session(vprog, registry, meta,
                          ExecConfig(batch_size=4, lazy=False))
        session.start(dags)

        def shape(batch):
            return [(g, g.parts, [list(p) for p in g.parts], g.edges,
                     list(g.edges)) for g in (fs.graph for fs in batch)]

        def checked(op):
            process = op.process

            def check(engine, inputs):
                before = [shape(batch) for batch in inputs]
                out = process(engine, inputs)
                assert [shape(batch) for batch in inputs] == before, op.kind
                kinds.add(op.kind)
                return out
            return check

        kinds = set()
        for rt, _inputs in session._schedule.values():
            for op in [rt, *getattr(rt, "steps", [])] if rt else []:
                op.process = checked(op)
        for base in trace_batches(trace, meta, 4):
            assert all(fs.graph is EMPTY_GRAPH for fs in base)
            session.feed(base)
        assert EMPTY_GRAPH == FrameGraph((), ())
        assert kinds == set(OPERATOR_CLASSES)
        assert any(o.satisfied for o in session.finish())


class TestSerialization:
    def test_outcome_round_trip_and_stability(self, tmp_path):
        paths, meta = red_world(tmp_path, frames=10)
        vprog = make_program(REDS)
        out1, _s, _d = run_single(vprog, "reds", paths["trace"], meta)
        out2, _s, _d = run_single(vprog, "reds", paths["trace"], meta)
        text = serialize_outcome(out1)
        assert text == serialize_outcome(out2)
        assert text.endswith("\n")
        assert "plan_id" not in text
        restored = QueryOutcome.from_json(__import__("json").loads(text))
        assert restored.satisfied == out1.satisfied

    def test_labels(self):
        outcome = QueryOutcome(query="q", satisfied=[1, 3])
        assert outcome.labels(5) == [False, True, False, True, False]


class TestSceneFilter:
    def test_in_keeps_frames_whose_channel_is_listed(self, tmp_path):
        meta = meta_1000(5)
        world = WorldSpec(
            meta=meta, objects=[car(1, 0, 4, (100.0, 500.0))],
            channels={"motion_score": [0.5, 0.7, 0.1, 0.7, 0.9]},
        )
        paths = write_world(world, tmp_path / "w")
        vprog = make_program(CAR_PROGRAM + """
        query listed {
          bind s: Scene
          bind c: Car
          frame_constraint: s.motion_score in [0.5, 0.7] & c.color == "red"
        }
        """)
        outcome, _stats, _dag = run_single(vprog, "listed", paths["trace"],
                                           meta)
        assert outcome.satisfied == [0, 1, 3]

    def test_manifest_gate_compares_its_threshold(self, tmp_path):
        meta = meta_1000(5)
        world = WorldSpec(
            meta=meta, objects=[car(1, 0, 4, (100.0, 500.0))],
            channels={"motion_score": [0.0, 2.0, 1.0, 0.5, 3.0]},
        )
        paths = write_world(world, tmp_path / "w")
        manifest = tmp_path / "reg.json"
        manifest.write_text(
            '{"registrations": [{"name": "busy", "kind": "frame_filter",'
            ' "auto": true, "channel": "motion_score", "op": ">=",'
            ' "threshold": 1}]}'
        )
        registry = load_manifest(manifest)
        registry.freeze()
        vprog = make_program(REDS)
        outcome, _stats, dag = run_single(vprog, "reds", paths["trace"], meta,
                                          registry=registry)
        assert any(op.kind == "frame_filter" for op in dag.ops.values())
        assert outcome.satisfied == [1, 2, 4]

    def test_manifest_gate_charges_its_declared_cost(self, tmp_path):
        meta = meta_1000(5)
        world = WorldSpec(
            meta=meta, objects=[car(1, 0, 4, (100.0, 500.0))],
            channels={"motion_score": [0.0, 2.0, 1.0, 0.5, 3.0]},
        )
        paths = write_world(world, tmp_path / "w")
        vprog = make_program(REDS)
        costs, declared = [], []
        for gate in ("", ', "cost_units": 50'):
            manifest = tmp_path / "reg.json"
            manifest.write_text(
                '{"registrations": [{"name": "busy", "kind": "frame_filter",'
                ' "auto": true, "channel": "motion_score", "op": ">=",'
                f' "threshold": 1{gate}}}]}}'
            )
            registry = load_manifest(manifest)
            registry.freeze()
            _outcome, stats, _dag = run_single(vprog, "reds", paths["trace"],
                                               meta, registry=registry)
            costs.append(stats.cost_units)
            declared.append(registry.resolve("frame_filter", "busy").cost_units)
        assert declared[1] == 50
        # 5 frames through the gate, each at its declared cost
        assert costs[1] - costs[0] == pytest.approx(5 * (50 - declared[0]))

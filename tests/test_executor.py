"""Execution semantics: laziness, memoization, warm-up windows, operator
sharing, result caching, and byte-stable serialization."""

import pytest

from vidquery.datamodel import UNDEFINED, VObjInstance
from vidquery.dsl.ast import Compare, PropRef
from vidquery.executor import (
    ExecConfig,
    ExecStats,
    PropertyEngine,
    QueryOutcome,
    ResultStore,
    Session,
    run_plans,
    serialize_outcome,
)
from vidquery.operators import compare
from vidquery.planner import PlannerConfig, plan_query
from vidquery.synth import WorldSpec, write_world

from conftest import (
    CAR_PROGRAM,
    car,
    frozen_registry,
    make_program,
    meta_1000,
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
        assert stats.property_calls["Car.center"] == 20  # feeder, every frame

    def test_windows_ignore_batch_lookahead(self, tmp_path):
        # one batch spans the whole trace: feeders record all 20 frames
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
            vprog, "movers", paths["trace"], meta,
            planner_config=PlannerConfig(batch_size=64), exec_config=big,
        )
        tiny = ExecConfig(batch_size=1)
        out_tiny, _s2, _d2 = run_single(
            vprog, "movers", paths["trace"], meta,
            planner_config=PlannerConfig(batch_size=1), exec_config=tiny,
        )
        assert serialize_outcome(out_big) == serialize_outcome(out_tiny)


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
          frame_constraint: c.color == "red"
          frame_output: c.speed
        }
        """)

    # pull-up is disabled here so the filter sits after every projector;
    # otherwise the filter itself hides the lazy/eager difference
    NO_PULLUP = PlannerConfig(enable_pullup=False)

    def test_lazy_computes_survivors_only(self, tmp_path):
        paths, meta = self.world(tmp_path)
        _out, stats, _dag = run_single(
            self.prog(), "red_speeds", paths["trace"], meta,
            planner_config=self.NO_PULLUP,
        )
        # speed demanded only for the 2 red cars on frames 4..9
        assert stats.property_calls["Car.speed"] == 2 * 6

    def test_eager_computes_everything(self, tmp_path):
        paths, meta = self.world(tmp_path)
        lazy_out, _s, _d = run_single(
            self.prog(), "red_speeds", paths["trace"], meta,
            planner_config=self.NO_PULLUP,
        )
        eager_out, stats, _d = run_single(
            self.prog(), "red_speeds", paths["trace"], meta,
            planner_config=self.NO_PULLUP,
            exec_config=ExecConfig(lazy=False),
        )
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


class TestResultStore:
    def test_cached_rerun_invokes_nothing(self, tmp_path):
        paths, meta = red_world(tmp_path, frames=20)
        vprog = make_program(REDS)
        store = ResultStore(tmp_path / "cache")
        out1, stats1, dag = run_single(
            vprog, "reds", paths["trace"], meta, result_store=store
        )
        assert stats1.total_op_invocations > 0
        out2, stats2, _dag = run_single(
            vprog, "reds", paths["trace"], meta, result_store=store
        )
        assert stats2.total_op_invocations == 0
        assert serialize_outcome(out1) == serialize_outcome(out2)
        assert out2.plan_id == dag.plan_id  # restored, not serialized

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

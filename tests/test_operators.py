"""Graph operators in isolation, plus the pure higher-order evaluators
checked against brute-force oracles."""

import random
from dataclasses import dataclass, field
from typing import Any, Optional

import pytest

from vidquery.datamodel import Edge, EdgeKind, FrameGraph, VObjInstance
from vidquery.operators import (
    DetectorOp,
    FrameFilterOp,
    FrameState,
    InternalError,
    JoinOp,
    RelationFilterOp,
    RelationProjectorOp,
    TrackerOp,
    VObjFilterOp,
    count_distinct_tracks,
    eval_duration,
    eval_temporal,
)
from vidquery.executor import ExecStats
from vidquery.registry import ConfigurationError, Registration
from vidquery.trace_io import Detection, TraceRecord


@dataclass
class FakeEngine:
    touched: list = field(default_factory=list)
    keep: Any = None  # predicate on node, used by verdict
    keep_edge: Any = None

    def touch_track(self, vobj, track_id, frame_id):
        self.touched.append((vobj, track_id, frame_id))

    def verdict(self, predicate, env, edge=None):
        if edge is not None:
            return self.keep_edge(edge)
        (node,) = env.values()
        return self.keep(node)


@dataclass
class FakeCtx:
    stats: ExecStats = field(default_factory=ExecStats)
    engine: FakeEngine = field(default_factory=FakeEngine)
    meta: Optional[Any] = None


def record(frame, boxes=(), channels=None, cls="car", **attrs):
    return TraceRecord(
        frame_id=frame,
        detections=tuple(
            Detection(class_name=cls, bbox=b, score=0.9, attrs=attrs)
            for b in boxes
        ),
        channels=channels or {},
    )


def state_with_nodes(frame, *nodes):
    fs = FrameState.fresh(record(frame))
    for n in nodes:
        fs.graph.add_node(n)
    return fs


def node(nid, cls="Car", track=None, bbox=(0.0, 0.0, 10.0, 10.0), **props):
    return VObjInstance(
        node_id=nid, class_name=cls, frame_id=nid[0], bbox=bbox,
        track_id=track, properties=dict(props),
    )


class TestFrameFilterOp:
    def test_threshold_modes(self):
        op = FrameFilterOp("f", {"channel": "m", "mode": "threshold",
                                 "threshold": 0.5, "op": ">"})
        batch = [
            FrameState.fresh(record(0, channels={"m": 0.9})),
            FrameState.fresh(record(1, channels={"m": 0.5})),
            FrameState.fresh(record(2, channels={"m": 0.1})),
        ]
        out = op.process(FakeCtx(), [batch])
        assert [fs.frame_id for fs in out] == [0]

    def test_similar_to_prev_drops_near_duplicates(self):
        op = FrameFilterOp("f", {"channel": "m", "mode": "similar_to_prev",
                                 "tolerance": 0.1, "window": 1})
        values = [0.5, 0.55, 0.9, 0.91]
        batch = [FrameState.fresh(record(i, channels={"m": v}))
                 for i, v in enumerate(values)]
        out = op.process(FakeCtx(), [batch])
        assert [fs.frame_id for fs in out] == [0, 2]

    def test_missing_channel(self):
        op = FrameFilterOp("f", {"channel": "m"})
        with pytest.raises(ConfigurationError):
            op.process(FakeCtx(), [[FrameState.fresh(record(0))]])

    def test_unknown_mode(self):
        op = FrameFilterOp("f", {"channel": "m", "mode": "wavelet"})
        with pytest.raises(ConfigurationError):
            op.process(FakeCtx(), [[FrameState.fresh(
                record(0, channels={"m": 1.0})
            )]])


class TestDetectorOp:
    def test_nodes_from_trace_indices(self):
        reg = Registration(name="general_car", kind="detector", cost_units=100,
                           params={"classes": ["car"]})
        op = DetectorOp("d", {"vobj": "Car"}, reg)
        ctx = FakeCtx()
        out = op.process(ctx, [[FrameState.fresh(
            record(3, [(0.0, 0.0, 10.0, 10.0), (20.0, 0.0, 30.0, 10.0)])
        )]])
        ids = sorted(out[0].graph.nodes)
        assert ids == [(3, 0), (3, 1)]
        assert out[0].graph.nodes[(3, 0)].class_name == "Car"
        assert ctx.stats.component_calls["general_car"] == 1
        assert ctx.stats.component_costs["general_car"] == 100.0

    def test_counts_even_when_frame_empty(self):
        reg = Registration(name="general_car", kind="detector", cost_units=100,
                           params={"classes": ["car"]})
        op = DetectorOp("d", {"vobj": "Car"}, reg)
        ctx = FakeCtx()
        op.process(ctx, [[FrameState.fresh(record(0))]])
        assert ctx.stats.component_calls["general_car"] == 1


class TestTrackerOp:
    def test_ids_and_motion_edges(self):
        op = TrackerOp("t", {"vobj": "Car"})
        ctx = FakeCtx()
        batch = [
            state_with_nodes(0, node((0, 0))),
            state_with_nodes(1, node((1, 0), bbox=(2.0, 0.0, 12.0, 10.0))),
        ]
        out = op.process(ctx, [batch])
        t0 = out[0].graph.nodes[(0, 0)].track_id
        t1 = out[1].graph.nodes[(1, 0)].track_id
        assert t0 == t1 and t0 is not None
        # cross-frame motion edges cannot live in a single-frame graph
        assert out[1].graph.edges == []
        assert ctx.engine.touched == [("Car", t0, 0), ("Car", t0, 1)]

    def test_input_nodes_not_mutated(self):
        op = TrackerOp("t", {"vobj": "Car"})
        fs = state_with_nodes(0, node((0, 0)))
        out = op.process(FakeCtx(), [[fs]])
        assert fs.graph.nodes[(0, 0)].track_id is None
        assert out[0].graph.nodes[(0, 0)].track_id is not None


class TestVObjFilterOp:
    def test_removes_failing_nodes_copy_on_write(self):
        op = VObjFilterOp("v", {"vobj": "Car", "binding": "c",
                                "predicate": {}})
        ctx = FakeCtx()
        ctx.engine.keep = lambda n: n.node_id == (0, 0)
        fs = state_with_nodes(0, node((0, 0)), node((0, 1)))
        out = op.process(ctx, [[fs]])
        assert set(out[0].graph.nodes) == {(0, 0)}
        assert set(fs.graph.nodes) == {(0, 0), (0, 1)}  # input untouched

    def test_empty_frames_retained(self):
        op = VObjFilterOp("v", {"vobj": "Car", "binding": "c",
                                "predicate": {}})
        ctx = FakeCtx()
        ctx.engine.keep = lambda n: False
        out = op.process(ctx, [[state_with_nodes(0, node((0, 0)))]])
        assert len(out) == 1 and not out[0].graph.nodes


class TestJoinOp:
    def test_frame_alignment_and_type_requirement(self):
        op = JoinOp("j", {"required": ["Car", "Person"]})
        cars = [
            state_with_nodes(0, node((0, 0))),
            state_with_nodes(1, node((1, 0))),
            state_with_nodes(2),  # emptied by a filter upstream
        ]
        people = [
            state_with_nodes(1, node((1, 1), cls="Person")),
            state_with_nodes(2, node((2, 1), cls="Person")),
            state_with_nodes(3, node((3, 1), cls="Person")),
        ]
        out = op.process(FakeCtx(), [cars, people])
        assert [fs.frame_id for fs in out] == [1]
        assert set(out[0].graph.nodes) == {(1, 0), (1, 1)}

    def test_branch_count_checked(self):
        op = JoinOp("j", {"required": ["Car", "Person"]})
        with pytest.raises(InternalError):
            op.process(FakeCtx(), [[]])


class TestRelationOps:
    def pair(self):
        return state_with_nodes(
            0,
            node((0, 0), bbox=(0.0, 0.0, 10.0, 10.0)),
            node((0, 1), cls="Person", bbox=(30.0, 40.0, 40.0, 50.0)),
        )

    def test_projector_adds_edges_with_values(self):
        op = RelationProjectorOp("r", {
            "relation": "Near", "vobj_a": "Car", "vobj_b": "Person",
            "props": {"distance_px": "distance_px"},
        })
        fs = self.pair()
        out = op.process(FakeCtx(), [[fs]])
        (edge,) = out[0].graph.edges
        assert edge.kind is EdgeKind.SPATIAL and edge.relation == "Near"
        assert edge.src == (0, 0) and edge.dst == (0, 1)
        # centers (5,5) and (35,45): hypot(30,40) = 50
        assert edge.properties["distance_px"] == pytest.approx(50.0)
        assert fs.graph.edges == []  # input untouched

    def test_filter_drops_failing_edges_only(self):
        proj = RelationProjectorOp("r", {
            "relation": "Near", "vobj_a": "Car", "vobj_b": "Person",
            "props": {"distance_px": "distance_px"},
        })
        projected = proj.process(FakeCtx(), [[self.pair()]])
        unrelated = Edge(kind=EdgeKind.MOTION, src=(0, 0), dst=(0, 1))
        projected[0].graph.edges.append(unrelated)
        op = RelationFilterOp("f", {"relation": "Near", "predicate": {}})
        ctx = FakeCtx()
        ctx.engine.keep_edge = lambda e: False
        out = op.process(ctx, [projected])
        assert out[0].graph.edges == [unrelated]


def brute_duration(satisfied, present, min_frames, gap_tolerance):
    """Window-scan oracle for eval_duration."""
    fires = set()
    for t, sat in satisfied.items():
        pres = present.get(t, set())
        if not pres:
            continue
        lo = min(pres)
        for f in sat:
            start = f - min_frames + 1
            if start < lo:
                continue
            bad = sum(
                1 for g in range(start, f + 1)
                if g not in pres or g not in sat
            )
            if bad <= gap_tolerance:
                fires.add((t, f))
    return fires


class TestEvalDuration:
    def test_simple_run(self):
        sat = {1: {2, 3, 4, 5}}
        pres = {1: set(range(10))}
        assert eval_duration(sat, pres, 3) == {(1, 4), (1, 5)}

    def test_gap_tolerance(self):
        sat = {1: {0, 1, 3, 4}}
        pres = {1: set(range(5))}
        assert eval_duration(sat, pres, 4) == set()
        # [0..3] has one violation (frame 2); [1..4] likewise
        assert eval_duration(sat, pres, 4, gap_tolerance=1) == {(1, 3), (1, 4)}

    def test_window_cannot_precede_track(self):
        sat = {1: {5, 6}}
        pres = {1: {5, 6}}
        assert eval_duration(sat, pres, 3) == set()

    def test_min_frames_validated(self):
        with pytest.raises(ValueError):
            eval_duration({}, {}, 0)

    def test_randomized_against_oracle(self):
        rng = random.Random(2024)
        for _ in range(150):
            present = {}
            satisfied = {}
            for t in range(rng.randint(1, 3)):
                pres = {f for f in range(20) if rng.random() < 0.8}
                present[t] = pres
                satisfied[t] = {f for f in pres if rng.random() < 0.6}
            d = rng.randint(1, 6)
            g = rng.randint(0, 2)
            assert eval_duration(satisfied, present, d, g) == \
                brute_duration(satisfied, present, d, g)


class TestEvalTemporal:
    def test_witnesses(self):
        ok, wits = eval_temporal({0, 1, 2, 10}, {5, 6, 13}, 3)
        # runs of first end at 2 and 10; runs of second start at 5, 6->no (5,6
        # is one run starting at 5), and 13
        assert ok
        assert wits == [(2, 5), (10, 13)]

    def test_interval_boundary(self):
        ok, wits = eval_temporal({0}, {4}, 4)
        assert ok and wits == [(0, 4)]
        ok, _w = eval_temporal({0}, {5}, 4)
        assert not ok

    def test_strict_order(self):
        ok, _w = eval_temporal({5}, {5}, 10)
        assert not ok
        ok, _w = eval_temporal({6}, {5}, 10)
        assert not ok

    def test_overlapping_runs_use_maximal_extents(self):
        # first runs 0..4; second run 3..6 starts inside it -> no witness
        ok, _w = eval_temporal({0, 1, 2, 3, 4}, {3, 4, 5, 6}, 2)
        assert not ok

    def test_empty_sides(self):
        assert eval_temporal(set(), {1}, 5) == (False, [])
        assert eval_temporal({1}, set(), 5) == (False, [])


class TestCountDistinctTracks:
    def test_undefined_skipped(self):
        per_track = {
            1: [None, None, True, True],   # warm-up then true -> counts
            2: [None, True, False],        # a False disqualifies
            3: [None, None],               # never decided -> not counted
            4: [True],
        }
        assert count_distinct_tracks(per_track) == 2

    def test_empty(self):
        assert count_distinct_tracks({}) == 0

"""Graph operators in isolation, plus the pure higher-order evaluators
checked against brute-force oracles."""

import random
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional

import pytest

from vidquery.datamodel import Edge, FrameGraph, Track, VObjInstance
from vidquery.dsl.ast import COMPARISON_OPS
from vidquery.operators import (
    DetectorOp,
    FrameFilterOp,
    FrameState,
    JoinOp,
    RelationFilterOp,
    RelationProjectorOp,
    TrackerOp,
    VObjFilterOp,
    compare,
    count_distinct_tracks,
    eval_duration,
    eval_temporal,
)
from vidquery.executor import ExecStats
from vidquery.registry import ConfigurationError, Registration
from vidquery.trace_io import Detection, TraceRecord
from vidquery.tracker import TrackerConfig


@dataclass
class FakeEngine:
    """What operators read of a `PropertyEngine`."""

    stats: ExecStats = field(default_factory=ExecStats)
    meta: Optional[Any] = None
    tracks: dict = field(default_factory=dict)
    keep: Any = None  # predicate on node, used by verdict
    keep_edge: Any = None

    depth: int = 0  # latest objects each track keeps

    def track(self, tracker, vobj, track_id):
        return self.tracks.setdefault(
            (tracker, track_id), Track.create(track_id, self.depth)
        )

    def verdict(self, predicate, env, edge=None):
        if edge is not None:
            return self.keep_edge(edge)
        (node,) = env.values()
        return self.keep(node)


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
    """A branch's frame: one part holding `nodes`."""
    return FrameState(frame, record(frame), FrameGraph([list(nodes)]))


def node(nid, cls="Car", bbox=(0.0, 0.0, 10.0, 10.0), **props):
    return VObjInstance(
        node_id=nid, class_name=cls, frame_id=nid[0], bbox=bbox,
        properties=dict(props),
    )


# the params the planner writes for every frame filter, a gate or a scene
# filter; a gate's also hold `tolerance`, `window` and `cost_units`
PLANNED = {"channel": "m", "mode": "threshold", "op": ">=", "threshold": 0.0}


class TestFrameFilterOp:
    def test_threshold_modes(self):
        op = FrameFilterOp("f", dict(PLANNED, threshold=0.5, op=">"))
        batch = [
            FrameState.fresh(record(0, channels={"m": 0.9})),
            FrameState.fresh(record(1, channels={"m": 0.5})),
            FrameState.fresh(record(2, channels={"m": 0.1})),
        ]
        out = op.process(FakeEngine(), [batch])
        assert [fs.frame_id for fs in out] == [0]

    def test_similar_to_prev_drops_near_duplicates(self):
        op = FrameFilterOp("f", dict(PLANNED, mode="similar_to_prev",
                                     tolerance=0.1, window=1))
        values = [0.5, 0.55, 0.9, 0.91]
        batch = [FrameState.fresh(record(i, channels={"m": v}))
                 for i, v in enumerate(values)]
        out = op.process(FakeEngine(), [batch])
        assert [fs.frame_id for fs in out] == [0, 2]

    def test_missing_channel(self):
        op = FrameFilterOp("f", PLANNED)
        with pytest.raises(ConfigurationError):
            op.process(FakeEngine(), [[FrameState.fresh(record(0))]])

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            FrameFilterOp("f", dict(PLANNED, mode="wavelet"))

    @pytest.mark.parametrize("setting", [
        {"op": "~"}, {"threshold": "high"}, {"threshold": float("nan")},
        {"threshold": True}, {"op": "in", "threshold": 1},
        {"op": "in", "threshold": [1, "x"]}, {"tolerance": "x"},
        {"tolerance": float("inf")}, {"window": 0}, {"window": "2"},
        {"channel": ["m"]}, {"cost_units": "x"}, {"cost_units": float("nan")},
    ])
    def test_bad_setting_fails_at_construction(self, setting):
        with pytest.raises(ConfigurationError):
            FrameFilterOp("f", {**PLANNED, **setting})

    @pytest.mark.parametrize("param", ["channel", "mode", "op", "threshold"])
    def test_a_param_the_planner_writes_is_required(self, param):
        params = dict(PLANNED)
        del params[param]
        with pytest.raises(KeyError):
            FrameFilterOp("f", params)


def reference_frame_filter(params, batches):
    """The frames a frame filter keeps and the cost it counts, deciding each
    frame with `compare` and adding the cost on every frame in order."""
    channel, mode = params["channel"], params["mode"]
    op, threshold = params["op"], params["threshold"]
    history = deque(maxlen=params.get("window", 1))
    stats, kept = ExecStats(), []
    for batch in batches:
        for fs in batch:
            value = fs.record.channels[channel]
            if mode == "threshold":
                keep = compare(value, op, threshold)
            else:
                keep = all(abs(value - prev) > params["tolerance"]
                           for prev in history)
                history.append(value)
            stats.add_cost(params.get("cost_units", 0.1))
            if keep:
                kept.append(fs.frame_id)
    return kept, stats.cost_units


class TestLinkedFrameFilter:
    """The frame filter decides every frame as `compare` does, whatever
    number the channel holds, and adds its cost in the same order."""

    VALUES = (-2, -1, 0, 1, 2, 3, -1.5, -0.5, 0.0, 0.5, 1.0, 2.5, 1e-300,
              True, False)

    def batches(self, rng):
        values = [rng.choice(self.VALUES) for _ in range(60)]
        states = [FrameState.fresh(record(f, channels={"m": v}))
                  for f, v in enumerate(values)]
        cuts = sorted(rng.sample(range(1, 60), 4))
        return [states[a:b] for a, b in zip([0, *cuts], [*cuts, 60])]

    def check(self, params, batches):
        op = FrameFilterOp("f", params)
        engine = FakeEngine()
        kept = [fs.frame_id for batch in batches
                for fs in op.process(engine, [batch])]
        want, cost = reference_frame_filter(params, batches)
        assert kept == want
        assert struct.pack("<d", engine.stats.cost_units) == \
            struct.pack("<d", cost)

    @pytest.mark.parametrize("op", COMPARISON_OPS)
    def test_threshold_keeps_what_compare_keeps(self, op):
        rng = random.Random(f"frame filter {op}")
        for number in (int, float):
            for _ in range(20):
                literals = [number(rng.choice(self.VALUES[:6]))
                            for _ in range(rng.randint(1, 3))]
                threshold = literals if op == "in" else literals[0]
                self.check(dict(PLANNED, op=op, threshold=threshold,
                                cost_units=rng.choice((0.1, 0.3, 7))),
                           self.batches(rng))

    def test_similar_to_prev_keeps_what_the_reference_keeps(self):
        rng = random.Random("frame filter similar_to_prev")
        for _ in range(40):
            self.check(dict(PLANNED, mode="similar_to_prev",
                            tolerance=rng.choice((0, 0.5, 1, 1.5)),
                            window=rng.randint(1, 4),
                            cost_units=rng.choice((0.1, 0.3, 7))),
                       self.batches(rng))

    def test_similar_to_prev_compares_the_frames_of_its_window(self):
        """On a stream with gaps, frame f is compared with the frames among
        f - window .. f - 1 that reached the filter, however few."""
        rng = random.Random("frame filter similar_to_prev with gaps")
        for _ in range(40):
            params = dict(PLANNED, mode="similar_to_prev",
                          tolerance=rng.choice((0, 0.5, 1, 1.5)),
                          window=rng.randint(1, 4))
            frames = sorted(rng.sample(range(150), 60))
            seen = {f: rng.choice(self.VALUES) for f in frames}
            states = [FrameState.fresh(record(f, channels={"m": seen[f]}))
                      for f in frames]
            cuts = sorted(rng.sample(range(1, 60), 4))
            op = FrameFilterOp("f", params)
            kept = [fs.frame_id for a, b in zip([0, *cuts], [*cuts, 60])
                    for fs in op.process(FakeEngine(), [states[a:b]])]
            assert kept == [
                f for f in frames
                if all(abs(seen[f] - seen[g]) > params["tolerance"]
                       for g in range(f - params["window"], f) if g in seen)]


class TestDetectorOp:
    def test_nodes_from_trace_indices(self):
        reg = Registration(name="general_car", kind="detector", cost_units=100,
                           params={"classes": ["car"]})
        op = DetectorOp("d", {"vobj": "Car"}, reg)
        engine = FakeEngine()
        out = op.process(engine, [[FrameState.fresh(
            record(3, [(0.0, 0.0, 10.0, 10.0), (20.0, 0.0, 30.0, 10.0)])
        )]])
        (part,) = out[0].graph.parts
        assert [n.node_id for n in part] == [(3, 0), (3, 1)]
        assert part[0].class_name == "Car"
        assert engine.stats.component_calls["general_car"] == 1
        assert engine.stats.component_costs["general_car"] == 100.0

    def test_counts_even_when_frame_empty(self):
        reg = Registration(name="general_car", kind="detector", cost_units=100,
                           params={"classes": ["car"]})
        op = DetectorOp("d", {"vobj": "Car"}, reg)
        engine = FakeEngine()
        op.process(engine, [[FrameState.fresh(record(0))]])
        assert engine.stats.component_calls["general_car"] == 1


TRACKER = {"vobj": "Car", "config": TrackerConfig().to_json()}


class TestTrackerOp:
    def test_ids_and_motion_edges(self):
        op = TrackerOp("t", TRACKER)
        engine = FakeEngine(depth=5)
        batch = [
            state_with_nodes(0, node((0, 0))),
            state_with_nodes(1, node((1, 0), bbox=(2.0, 0.0, 12.0, 10.0))),
        ]
        out = op.process(engine, [batch])
        ((n0,),), ((n1,),) = out[0].graph.parts, out[1].graph.parts
        # cross-frame motion edges cannot live in a single-frame graph
        assert out[1].graph.edges == []
        # one record of the track, made for this tracker, on both frames
        track = n0.track
        assert track is not None and n1.track is track
        t0 = track.track_id
        assert track.first_frame == 0
        assert list(track.objects) == [n0, n1]  # the tracked copies, in order
        assert list(engine.tracks) == [(op, t0)]

    def test_a_track_keeps_the_frame_it_was_born_on(self):
        op = TrackerOp("t", TRACKER)
        engine = FakeEngine()
        far = (500.0, 500.0, 510.0, 510.0)
        # the first car is on frames 0-4, a second one appears on frame 3
        batch = [state_with_nodes(f, node((f, 0)),
                                  *([node((f, 1), bbox=far)] if f >= 3 else []))
                 for f in range(5)]
        out = op.process(engine, [batch])
        first, second = out[4].graph.parts[0]
        assert first.track is not second.track
        assert (first.track.first_frame, second.track.first_frame) == (0, 3)

    def test_retired_track_lets_its_objects_go_one_batch_later(self):
        config = TrackerConfig(max_age=1).to_json()
        op = TrackerOp("t", dict(TRACKER, config=config))
        engine = FakeEngine(depth=20)
        # the car is seen on frames 0-2; frame 4 retires it (two misses)
        batch = [state_with_nodes(f, node((f, 0))) for f in range(3)]
        batch += [state_with_nodes(f) for f in range(3, 16)]
        out = op.process(engine, [batch])
        track = out[0].graph.parts[0][0].track
        assert track.first_frame == 0
        assert op.tracker.slots == []
        # the batch that retired it may still read its windows
        assert [n.frame_id for n in track.objects] == [0, 1, 2]
        op.process(engine, [[state_with_nodes(16)]])
        assert list(track.objects) == []

    def test_nodes_out_of_id_order_get_their_own_tracks(self):
        op = TrackerOp("t", TRACKER)
        near, far = (0.0, 0.0, 10.0, 10.0), (500.0, 500.0, 510.0, 510.0)
        batch = [state_with_nodes(0, node((0, 1), bbox=far), node((0, 0))),
                 state_with_nodes(1, node((1, 0), bbox=far), node((1, 1)))]
        out = op.process(FakeEngine(depth=5), [batch])
        (f0, n0), (f1, n1) = out[0].graph.parts[0], out[1].graph.parts[0]
        assert (f0.track.track_id, n0.track.track_id) == (1, 2)  # part order
        assert list(f0.track.objects) == [f0, f1]
        assert list(n0.track.objects) == [n0, n1]

    def test_input_nodes_not_mutated(self):
        op = TrackerOp("t", TRACKER)
        fs = state_with_nodes(0, node((0, 0)))
        out = op.process(FakeEngine(), [[fs]])
        assert fs.graph.nodes[0].track is None
        assert out[0].graph.nodes[0].track is not None


class TestVObjFilterOp:
    def test_removes_failing_nodes_copy_on_write(self):
        op = VObjFilterOp("v", {"binding": "c", "predicate": None})
        engine = FakeEngine()
        engine.keep = lambda n: n.node_id == (0, 0)
        fs = state_with_nodes(0, node((0, 0)), node((0, 1)))
        out = op.process(engine, [[fs]])
        assert [n.node_id for n in out[0].graph.nodes] == [(0, 0)]
        assert [n.node_id for n in fs.graph.nodes] == [(0, 0), (0, 1)]

    def test_empty_frames_retained(self):
        op = VObjFilterOp("v", {"binding": "c", "predicate": None})
        engine = FakeEngine()
        engine.keep = lambda n: False
        out = op.process(engine, [[state_with_nodes(0, node((0, 0)))]])
        assert len(out) == 1 and out[0].graph.parts == [[]]


class TestJoinOp:
    def test_frame_alignment_and_type_requirement(self):
        op = JoinOp("j", {})
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
        out = op.process(FakeEngine(), [cars, people])
        assert [fs.frame_id for fs in out] == [1]
        assert [[n.node_id for n in part] for part in out[0].graph.parts] == \
            [[(1, 0)], [(1, 1)]]

    def test_input_i_is_part_i_even_for_one_type(self):
        red, blue = node((0, 0)), node((0, 1))
        reds = [state_with_nodes(0, red)]
        blues = [state_with_nodes(0, blue)]
        out = JoinOp("j", {}).process(FakeEngine(), [reds, blues])
        assert out[0].graph.parts == [[red], [blue]]
        out = JoinOp("j", {}).process(FakeEngine(), [blues, reds])
        assert out[0].graph.parts == [[blue], [red]]


NO_PREDICATE = {"predicate": None, "args": ["c", "p"]}


class TestRelationOps:
    def pair(self):
        return FrameState(0, record(0), FrameGraph([
            [node((0, 0), bbox=(0.0, 0.0, 10.0, 10.0))],
            [node((0, 1), cls="Person", bbox=(30.0, 40.0, 40.0, 50.0))],
        ]))

    def test_projector_adds_edges_with_values(self):
        op = RelationProjectorOp("r", {
            "relation": "Near", "props": {"distance_px": "distance_px"},
            "bound": None,
        })
        fs = self.pair()
        engine = FakeEngine()
        out = op.process(engine, [[fs]])
        (edge,) = out[0].graph.edges
        assert engine.stats.property_calls == {"Near.distance_px": 1}
        assert edge.a.node_id == (0, 0) and edge.b.node_id == (0, 1)
        # centers (5,5) and (35,45): hypot(30,40) = 50
        assert edge.properties["distance_px"] == pytest.approx(50.0)
        assert fs.graph.edges == []  # input untouched

    def test_projector_pairs_part_0_with_part_1_never_with_itself(self):
        a, b, c = node((0, 0)), node((0, 1)), node((0, 2))
        fs = FrameState(0, record(0), FrameGraph([[a, b], [b, c]]))
        op = RelationProjectorOp("r", {"relation": "Near", "props": {},
                                       "bound": None})
        out = op.process(FakeEngine(), [[fs]])
        pairs = [(e.a.node_id, e.b.node_id) for e in out[0].graph.edges]
        assert pairs == [((0, 0), (0, 1)), ((0, 0), (0, 2)),
                         ((0, 1), (0, 2))]

    def test_filter_drops_failing_edges_only(self):
        fs = self.pair()
        car, person = fs.graph.nodes
        near, far = Edge(car, person, {"d": 1.0}), Edge(car, person, {"d": 9.0})
        fs.graph.edges[:] = [near, far]
        op = RelationFilterOp("f", NO_PREDICATE)
        engine = FakeEngine()
        engine.keep_edge = lambda e: e.properties["d"] < 5
        out = op.process(engine, [[fs]])
        assert out[0].graph.edges == [near]
        assert out[0].graph.parts == fs.graph.parts
        assert fs.graph.edges == [near, far]  # input untouched

    def test_filter_drops_a_frame_with_no_kept_edge(self):
        car, person = self.pair().graph.nodes
        frames = [FrameState(f, record(f), FrameGraph([[car], [person]], edges))
                  for f, edges in enumerate(
                      ([Edge(car, person)], [Edge(car, person)], []))]
        verdicts = iter([True, None])  # frame 2 has no edge to test
        engine = FakeEngine()
        engine.keep_edge = lambda e: next(verdicts)
        out = RelationFilterOp("f", NO_PREDICATE).process(engine, [frames])
        assert [fs.frame_id for fs in out] == [0]


def brute_duration(satisfied, first_frame, min_frames, gap_tolerance):
    """Window-scan oracle for eval_duration."""
    fires = set()
    for t, sat in satisfied.items():
        for f in sat:
            start = f - min_frames + 1
            if start < first_frame[t]:
                continue
            bad = sum(1 for g in range(start, f + 1) if g not in sat)
            if bad <= gap_tolerance:
                fires.add((t, f))
    return fires


class TestEvalDuration:
    def test_simple_run(self):
        sat = {1: {2, 3, 4, 5}}
        assert eval_duration(sat, {1: 0}, 3) == {(1, 4), (1, 5)}

    def test_gap_tolerance(self):
        sat = {1: {0, 1, 3, 4}}
        assert eval_duration(sat, {1: 0}, 4) == set()
        # [0..3] has one violation (frame 2); [1..4] likewise
        assert eval_duration(sat, {1: 0}, 4, gap_tolerance=1) == \
            {(1, 3), (1, 4)}

    def test_window_cannot_precede_track(self):
        sat = {1: {5, 6}}
        assert eval_duration(sat, {1: 5}, 3) == set()
        assert eval_duration(sat, {1: 5}, 3, gap_tolerance=1) == set()
        # born a frame earlier, the window fits and frame 4 is its one gap
        assert eval_duration(sat, {1: 4}, 3, gap_tolerance=1) == {(1, 6)}

    def test_min_frames_validated(self):
        with pytest.raises(ValueError):
            eval_duration({}, {}, 0)

    def test_randomized_against_oracle(self):
        rng = random.Random(2024)
        for _ in range(150):
            first_frame = {}
            satisfied = {}
            for t in range(rng.randint(1, 3)):
                first_frame[t] = born = rng.randrange(10)
                satisfied[t] = {f for f in range(born, 20)
                                if rng.random() < 0.5}
            d = rng.randint(1, 6)
            g = rng.randint(0, 2)
            assert eval_duration(satisfied, first_frame, d, g) == \
                brute_duration(satisfied, first_frame, d, g)


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
        per_track = {  # [true, false, undefined] verdict counts
            1: [2, 0, 2],  # warm-up then true -> counts
            2: [1, 1, 1],  # a False disqualifies
            3: [0, 0, 2],  # never decided -> not counted
            4: [1, 0, 0],
        }
        assert count_distinct_tracks(per_track) == 2

    def test_empty(self):
        assert count_distinct_tracks({}) == 0

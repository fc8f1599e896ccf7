"""Graph-to-graph operators and higher-order query evaluators.

Every operator consumes a batch of per-frame graphs and produces a new batch;
filters and the join shrink the frame set, everything else preserves it.
Operators are deterministic given input and seed.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional

from .datamodel import Edge, EdgeKind, FrameGraph, VObjInstance
from .registry import (
    ConfigurationError,
    Registration,
    apply_detector,
    classify_frame,
    relation_value,
)
from .trace_io import TraceRecord
from .tracker import SortTracker, TrackerConfig


@dataclass
class FrameState:
    """One frame flowing through a pipeline branch."""

    frame_id: int
    record: TraceRecord
    graph: FrameGraph

    @classmethod
    def fresh(cls, record: TraceRecord) -> "FrameState":
        return cls(
            frame_id=record.frame_id,
            record=record,
            graph=FrameGraph(frame_range=(record.frame_id, record.frame_id)),
        )


Batch = list[FrameState]


class PlanLinkError(Exception):
    """Plan references a component the registry cannot resolve."""


class InternalError(Exception):
    """Executor-side invariant violation (a planner bug)."""


class RuntimeOp:
    """Base runtime operator; subclasses hold per-run iterator state."""

    kind = "op"

    def __init__(self, op_id: str, params: dict):
        self.op_id = op_id
        self.params = params

    def process(self, ctx, inputs: list[Batch]) -> Batch:
        raise NotImplementedError


_ORDERED = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def compare(value, op: str, literal) -> bool:
    """One defined value against a literal.  The ordered operators hold only
    for numbers, and a bool is not a number here."""
    if op == "==":
        return value == literal
    if op == "!=":
        return value != literal
    if op == "in":
        return value in literal
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    return _ORDERED[op](value, literal)


class FrameFilterOp(RuntimeOp):
    """Drops frames by a channel predicate; keeps a history of seen values."""

    kind = "frame_filter"

    def __init__(self, op_id: str, params: dict):
        super().__init__(op_id, params)
        self.channel = params["channel"]
        self.mode = params.get("mode", "threshold")
        self.window = int(params.get("window", 1))
        self._history: deque = deque(maxlen=self.window)

    def _keep(self, value: float) -> bool:
        if self.mode == "threshold":
            return compare(value, self.params.get("op", ">="),
                           float(self.params.get("threshold", 0.0)))
        if self.mode == "similar_to_prev":
            tolerance = float(self.params.get("tolerance", 0.0))
            if not self._history:
                return True
            return all(abs(value - prev) > tolerance for prev in self._history)
        raise ConfigurationError(f"unknown frame-filter mode {self.mode!r}")

    def process(self, ctx, inputs: list[Batch]) -> Batch:
        out = []
        for fs in inputs[0]:
            if self.channel not in fs.record.channels:
                raise ConfigurationError(
                    f"frame filter {self.op_id}: channel {self.channel!r} "
                    f"missing on frame {fs.frame_id}"
                )
            value = fs.record.channels[self.channel]
            keep = self._keep(value)
            self._history.append(value)
            ctx.stats.add_cost(self.params.get("cost_units", 0.1))
            if keep:
                out.append(fs)
        return out


class ClassifierOp(RuntimeOp):
    """Per-frame binary presence gate backed by a registered classifier."""

    kind = "classifier"

    def __init__(self, op_id: str, params: dict, reg: Registration):
        super().__init__(op_id, params)
        self.reg = reg

    def process(self, ctx, inputs: list[Batch]) -> Batch:
        out = []
        for fs in inputs[0]:
            ctx.stats.count_component(self.reg.name, self.reg.cost_units)
            if classify_frame(self.reg, fs.record):
                out.append(fs)
        return out


class DetectorOp(RuntimeOp):
    """Adds one node per emitted detection; node ids are trace indices."""

    kind = "detector"

    def __init__(self, op_id: str, params: dict, reg: Registration):
        super().__init__(op_id, params)
        self.reg = reg
        self.vobj = params["vobj"]

    def process(self, ctx, inputs: list[Batch]) -> Batch:
        out = []
        for fs in inputs[0]:
            ctx.stats.count_component(self.reg.name, self.reg.cost_units)
            graph = FrameGraph(frame_range=(fs.frame_id, fs.frame_id))
            for idx, det in apply_detector(self.reg, fs.record):
                graph.add_node(VObjInstance(
                    node_id=(fs.frame_id, idx),
                    class_name=self.vobj,
                    frame_id=fs.frame_id,
                    bbox=det.bbox,
                    score=det.score,
                    attrs=det.attrs,
                ))
            out.append(FrameState(fs.frame_id, fs.record, graph))
        return out


class TrackerOp(RuntimeOp):
    """Assigns persistent track ids."""

    kind = "tracker"

    def __init__(self, op_id: str, params: dict):
        super().__init__(op_id, params)
        self.vobj = params["vobj"]
        config = TrackerConfig.from_json(params["config"]) if "config" in params \
            else TrackerConfig()
        self.tracker = SortTracker(config)

    def process(self, ctx, inputs: list[Batch]) -> Batch:
        out = []
        for fs in inputs[0]:
            # copy nodes so sibling consumers of the upstream batch never see
            # this tracker's id assignments
            graph = FrameGraph(frame_range=fs.graph.frame_range)
            for node in fs.graph.nodes.values():
                graph.add_node(replace(node, properties=dict(node.properties)))
            graph.edges = list(fs.graph.edges)
            nodes = sorted(
                graph.nodes_of(self.vobj), key=lambda n: n.node_id
            )
            result = self.tracker.step(
                fs.frame_id, [(n.node_id, n.bbox) for n in nodes]
            )
            for node_id, track_id in result.assignments:
                graph.nodes[node_id].track_id = track_id
                ctx.engine.touch_track(self.vobj, track_id, fs.frame_id)
            out.append(FrameState(fs.frame_id, fs.record, graph))
        return out


class ProjectorOp(RuntimeOp):
    """Computes one declared property for every node of its binding type.

    History feeders (dependencies of stateful properties) are always computed
    so sliding windows fill; other properties are left to on-demand
    evaluation when lazy evaluation is enabled.
    """

    kind = "projector"

    def __init__(self, op_id: str, params: dict):
        super().__init__(op_id, params)
        self.vobj = params["vobj"]
        self.prop = params["prop"]

    def process(self, ctx, inputs: list[Batch]) -> Batch:
        for fs in inputs[0]:
            for node in sorted(fs.graph.nodes_of(self.vobj),
                               key=lambda n: n.node_id):
                ctx.engine.project(node, self.prop)
        return inputs[0]


class VObjFilterOp(RuntimeOp):
    """Keeps a node only on a True verdict of the predicate; frames are
    retained even when emptied (dropping frames is the join's job)."""

    kind = "vobj_filter"

    def __init__(self, op_id: str, params: dict):
        super().__init__(op_id, params)
        self.vobj = params["vobj"]
        self.binding = params["binding"]
        self.predicate = params["predicate"]  # planner-encoded expression

    def process(self, ctx, inputs: list[Batch]) -> Batch:
        out = []
        for fs in inputs[0]:
            doomed = []
            for node in sorted(fs.graph.nodes_of(self.vobj),
                               key=lambda n: n.node_id):
                if ctx.engine.verdict(self.predicate,
                                      {self.binding: node}) is not True:
                    doomed.append(node.node_id)
            if not doomed:
                out.append(fs)
                continue
            # copy before removal; the input batch may feed other queries
            graph = FrameGraph(
                frame_range=fs.graph.frame_range,
                nodes=dict(fs.graph.nodes),
                edges=list(fs.graph.edges),
            )
            graph.remove_nodes(doomed)
            out.append(FrameState(fs.frame_id, fs.record, graph))
        return out


class JoinOp(RuntimeOp):
    """Aligns branches by frame id; a frame survives iff every branch still
    has at least one node of its required type.  Graphs are merged."""

    kind = "join"

    def __init__(self, op_id: str, params: dict):
        super().__init__(op_id, params)
        self.required = params["required"]  # one vobj name per input branch

    def process(self, ctx, inputs: list[Batch]) -> Batch:
        if len(inputs) != len(self.required):
            raise InternalError(
                f"join {self.op_id}: {len(inputs)} inputs for "
                f"{len(self.required)} branches"
            )
        from .datamodel import graph_merge

        by_frame = [{fs.frame_id: fs for fs in b} for b in inputs]
        common = set(by_frame[0])
        for m in by_frame[1:]:
            common &= set(m)
        out = []
        for frame_id in sorted(common):
            states = [m[frame_id] for m in by_frame]
            if not all(
                s.graph.nodes_of(req)
                for s, req in zip(states, self.required)
            ):
                continue
            merged = states[0].graph
            for s in states[1:]:
                merged = graph_merge(merged, s.graph)
            out.append(FrameState(frame_id, states[0].record, merged))
        return out


class RelationProjectorOp(RuntimeOp):
    """Adds spatial-relation edges with computed properties for every
    participant pair in the same frame."""

    kind = "relation_projector"

    def __init__(self, op_id: str, params: dict):
        super().__init__(op_id, params)
        self.relation = params["relation"]
        self.vobj_a = params["vobj_a"]
        self.vobj_b = params["vobj_b"]
        self.props = params["props"]  # {prop_name: impl_name}

    def process(self, ctx, inputs: list[Batch]) -> Batch:
        out = []
        for fs in inputs[0]:
            graph = FrameGraph(
                frame_range=fs.graph.frame_range,
                nodes=dict(fs.graph.nodes),
                edges=list(fs.graph.edges),
            )
            nodes_a = sorted(graph.nodes_of(self.vobj_a),
                             key=lambda n: n.node_id)
            nodes_b = sorted(graph.nodes_of(self.vobj_b),
                             key=lambda n: n.node_id)
            for a in nodes_a:
                for b in nodes_b:
                    if a.node_id == b.node_id:
                        continue
                    properties = {}
                    for prop, impl in sorted(self.props.items()):
                        properties[prop] = relation_value(impl, a, b, ctx.meta)
                        ctx.stats.count_property(
                            f"{self.relation}.{prop}", 0.1
                        )
                    graph.add_edge(Edge(
                        kind=EdgeKind.SPATIAL,
                        src=a.node_id,
                        dst=b.node_id,
                        relation=self.relation,
                        properties=properties,
                    ))
            out.append(FrameState(fs.frame_id, fs.record, graph))
        return out


class RelationFilterOp(RuntimeOp):
    """Keeps spatial-relation edges on a True verdict of the predicate."""

    kind = "relation_filter"

    def __init__(self, op_id: str, params: dict):
        super().__init__(op_id, params)
        self.relation = params["relation"]
        self.predicate = params["predicate"]
        self.args = params.get("args")

    def process(self, ctx, inputs: list[Batch]) -> Batch:
        out = []
        for fs in inputs[0]:
            kept = []
            for edge in fs.graph.edges:
                if edge.kind is EdgeKind.SPATIAL and edge.relation == self.relation:
                    a = fs.graph.nodes[edge.src]
                    b = fs.graph.nodes[edge.dst]
                    env = {self.args[0]: a, self.args[1]: b} if self.args else {}
                    if ctx.engine.verdict(self.predicate, env, edge) is not True:
                        continue
                kept.append(edge)
            graph = FrameGraph(
                frame_range=fs.graph.frame_range,
                nodes=dict(fs.graph.nodes),
                edges=kept,
            )
            out.append(FrameState(fs.frame_id, fs.record, graph))
        return out


# --- higher-order evaluators (pure) ----------------------------------------

def eval_duration(
    satisfied: dict[int, set[int]],
    present: dict[int, set[int]],
    min_frames: int,
    gap_tolerance: int = 0,
) -> set[tuple[int, int]]:
    """Firing set of (track_id, frame_id).

    (t, f) fires iff the base held for t over [f - d + 1, f] with at most
    `gap_tolerance` violating frames (absent or unsatisfied), and the base
    holds for t at f itself.
    """
    if min_frames < 1:
        raise ValueError("min_frames must be >= 1")
    fires = set()
    for track_id, sat in satisfied.items():
        pres = present.get(track_id, set())
        if not pres:
            continue
        lo, hi = min(pres), max(pres)
        # prefix counts of violating frames over the track's span
        span = hi - lo + 1
        bad = [0] * (span + 1)
        for i, f in enumerate(range(lo, hi + 1)):
            bad[i + 1] = bad[i] + (0 if (f in pres and f in sat) else 1)
        for f in range(lo + min_frames - 1, hi + 1):
            if f not in sat:
                continue
            start = f - min_frames + 1
            if start < lo:
                continue
            violations = bad[f - lo + 1] - bad[start - lo]
            if violations <= gap_tolerance:
                fires.add((track_id, f))
    return fires


def _runs(frames: Iterable[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive frames as (first, last)."""
    out = []
    for f in sorted(frames):
        if out and f == out[-1][1] + 1:
            out[-1] = (out[-1][0], f)
        else:
            out.append((f, f))
    return out


def eval_temporal(
    occ1: Iterable[int], occ2: Iterable[int], max_interval: int
) -> tuple[bool, list[tuple[int, int]]]:
    """Sequential composition: true iff some maximal run of the first event
    ends at most `max_interval` frames before some run of the second starts.
    """
    ends = [last for _first, last in _runs(occ1)]
    starts = [first for first, _last in _runs(occ2)]
    witnesses = [
        (e, s)
        for e in ends
        for s in starts
        if e < s and (s - e) <= max_interval
    ]
    return bool(witnesses), sorted(witnesses)


def count_distinct_tracks(per_track: dict[int, list]) -> int:
    """Count tracks whose per-frame evaluations contain no False and at
    least one True (Undefined warm-up frames are skipped)."""
    count = 0
    for _track, values in sorted(per_track.items()):
        decided = [v for v in values if v is not None]
        if decided and all(decided):
            count += 1
    return count

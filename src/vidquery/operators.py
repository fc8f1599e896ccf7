"""Graph-to-graph operators and higher-order query evaluators.

Every operator consumes a batch of per-frame graphs and produces a new batch;
filters and the join shrink the frame set, everything else preserves it.
Operators are deterministic given input and seed.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Iterable, Optional

from .datamodel import Edge, FrameGraph, Track, VObjInstance
from .dsl.ast import COMPARISON_OPS, walk_refs
from .planner import decode_expr
from .registry import (
    GEOMETRIC_FN_COST,
    RELATION_IMPLS,
    ConfigurationError,
    Registration,
    apply_detector,
    box_centre,
    classify_frame,
    finite_number,
    relation_value,
)
from .trace_io import TraceRecord
from .tracker import SortTracker, TrackerConfig


# The graph of every initial frame state: a detector starts each branch's
# graph anew, and no operator changes an input graph.  Its parts and edges
# are empty tuples, so a change to it would raise.
EMPTY_GRAPH = FrameGraph((), ())


@dataclass(slots=True)
class FrameState:
    """One frame flowing through a pipeline branch."""

    frame_id: int
    record: TraceRecord
    graph: FrameGraph

    @classmethod
    def fresh(cls, record: TraceRecord) -> "FrameState":
        """The initial frame state of `record`."""
        return cls(record.frame_id, record, EMPTY_GRAPH)


Batch = list[FrameState]


class PlanLinkError(Exception):
    """Plan references a component the registry cannot resolve."""


class InternalError(Exception):
    """Executor-side invariant violation (a planner bug)."""


class RuntimeOp:
    """Base runtime operator, built from a plan op's id and params; each
    subclass reads the params it needs at construction and holds per-run
    iterator state."""

    kind = "op"
    # the parts that each input's frame graphs hold, which the pass checks
    # when it links: one, a branch's, unless an op says otherwise; None
    # takes any number
    reads_parts: Optional[int] = 1

    def __init__(self, op_id: str, params: dict):
        self.op_id = op_id

    def link(self, engine, source: Optional["RuntimeOp"],
             parts: tuple[str, ...]) -> None:
        """Link what this op decides once per pass into `engine`, the pass's
        `PropertyEngine`: `source` is the op of its first input (None when
        it has none and reads the trace's frame states) and `parts` the
        types of that input's parts, which the pass has checked against
        `reads_parts`.  Nothing, unless an op says otherwise."""

    def process(self, engine, inputs: list[Batch]) -> Batch:
        """One batch per input in, one batch out.  `engine` is the pass's
        `PropertyEngine`; an operator counts work in `engine.stats`."""
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


# `compare` by op, for values it decides alike on: a float against a frame
# filter's threshold under any op, and any value under `==` and `!=`
_LINKED = {**_ORDERED, "==": operator.eq, "!=": operator.ne,
           "in": lambda value, literal: value in literal}


def _check_settings(owner: str, checks) -> None:
    """Raise `ConfigurationError` naming the first (bad, what) pair that is
    bad; operators check their settings at construction, so a bad one fails
    before any frame is read."""
    for bad, what in checks:
        if bad:
            raise ConfigurationError(f"{owner}: bad {what}")


def _names(value) -> bool:
    """Whether `value` is a list (or tuple) of strings."""
    return isinstance(value, (list, tuple)) \
        and all(isinstance(v, str) for v in value)


def _check_refs(owner: str, predicate, bindings, edge: bool = False) -> None:
    """`_check_settings` for a predicate: every reference must read a named
    property of an object of `bindings`, or, if `edge`, of the edge that
    the predicate is decided on, so a verdict finds whatever it reads."""
    for ref in walk_refs(predicate):
        name = f"{ref.relation or ref.binding}.{ref.prop}"
        found = edge if ref.relation is not None else ref.binding in bindings
        _check_settings(owner, [(not (found and isinstance(ref.prop, str)),
                                 f"predicate reference {name!r}")])


class FrameFilterOp(RuntimeOp):
    """Drops frames by a channel predicate: in `threshold` mode, a
    comparison of the channel's value with the threshold; in
    `similar_to_prev` mode, a difference above the tolerance from the value
    of each of the last `window` frames that reached the filter.  A frame
    absent from the trace never reaches it and has no value, so that mode
    answers differently on a trace without its empty lines.  Every setting
    is checked here, so a bad one fails before any frame is read, and the
    mode's loop and the comparison are picked here too, so a frame only
    looks them up."""

    kind = "frame_filter"
    reads_parts = None

    def __init__(self, op_id: str, params: dict):
        super().__init__(op_id, params)
        self.channel, mode = params["channel"], params["mode"]
        self.op, self.threshold = params["op"], params["threshold"]
        # only a gate's params hold these; a scene filter's take defaults
        self.tolerance = params.get("tolerance", 0.0)
        window = params.get("window", 1)
        self.cost = params.get("cost_units", GEOMETRIC_FN_COST)
        literals = self.threshold if self.op == "in" else [self.threshold]
        _check_settings(f"frame filter {op_id}", (
            (not isinstance(self.channel, str), f"channel {self.channel!r}"),
            (mode not in ("threshold", "similar_to_prev"), f"mode {mode!r}"),
            (self.op not in COMPARISON_OPS, f"op {self.op!r}"),
            (not isinstance(literals, (list, tuple))
             or not all(map(finite_number, literals)),
             f"threshold {self.threshold!r}"),
            (not finite_number(self.tolerance),
             f"tolerance {self.tolerance!r}"),
            (type(window) is not int or window < 1, f"window {window!r}"),
            (not finite_number(self.cost), f"cost_units {self.cost!r}"),
        ))
        if mode == "threshold":
            self._frames = self._threshold_frames
            self._test = _LINKED[self.op]
        else:  # only `similar_to_prev` reads back the values it has seen
            self._frames = self._similar_frames
            self.window = window
            self._history = deque()  # (frame id, value), oldest first

    def process(self, engine, inputs: list[Batch]) -> Batch:
        return self._frames(engine.stats.add_cost, inputs[0])

    def _missing(self, fs: FrameState) -> ConfigurationError:
        return ConfigurationError(
            f"frame filter {self.op_id}: channel {self.channel!r} "
            f"missing on frame {fs.frame_id}")

    def _threshold_frames(self, add_cost, batch: Batch) -> Batch:
        # a float, what a trace holds, takes the linked test; any other
        # value takes `compare`, which decides alike for a float
        channel, op, threshold = self.channel, self.op, self.threshold
        test, cost = self._test, self.cost
        out = []
        for fs in batch:
            try:
                value = fs.record.channels[channel]
            except KeyError:
                raise self._missing(fs) from None
            keep = test(value, threshold) if value.__class__ is float \
                else compare(value, op, threshold)
            add_cost(cost)
            if keep:
                out.append(fs)
        return out

    def _similar_frames(self, add_cost, batch: Batch) -> Batch:
        channel, tolerance, cost = self.channel, self.tolerance, self.cost
        history, window = self._history, self.window
        out = []
        for fs in batch:
            try:
                value = fs.record.channels[channel]
            except KeyError:
                raise self._missing(fs) from None
            frame_id = fs.frame_id
            while history and history[0][0] < frame_id - window:
                history.popleft()
            keep = all(abs(value - prev) > tolerance for _f, prev in history)
            history.append((frame_id, value))
            add_cost(cost)
            if keep:
                out.append(fs)
        return out


class ClassifierOp(RuntimeOp):
    """Per-frame binary presence gate backed by a registered classifier,
    whose `target_class` (a string) and `requires_attrs` (an object) are
    checked here."""

    kind = "classifier"
    reads_parts = None

    def __init__(self, op_id: str, params: dict, reg: Registration):
        super().__init__(op_id, params)
        target = reg.params.get("target_class")
        required = reg.params.get("requires_attrs", {})
        _check_settings(f"classifier {reg.name}", (
            (not isinstance(target, str), f"target_class {target!r}"),
            (not isinstance(required, dict), f"requires_attrs {required!r}"),
        ))
        self.reg = reg

    def process(self, engine, inputs: list[Batch]) -> Batch:
        out = []
        for fs in inputs[0]:
            engine.stats.count_component(self.reg.name, self.reg.cost_units)
            if classify_frame(self.reg, fs.record):
                out.append(fs)
        return out


class DetectorOp(RuntimeOp):
    """Starts a branch: one part with a node per emitted detection, in
    trace-index order; node ids are trace indices.  The detector's
    `classes` (a list of strings), `score_threshold` (a finite number) and
    `requires_attrs` (an object) are checked here and kept in the form
    `apply_detector` compares them in."""

    kind = "detector"
    reads_parts = None

    def __init__(self, op_id: str, params: dict, reg: Registration):
        super().__init__(op_id, params)
        classes = reg.params.get("classes", [])
        threshold = reg.params.get("score_threshold", 0.0)
        required = reg.params.get("requires_attrs", {})
        _check_settings(f"detector {reg.name}", (
            (not _names(classes), f"classes {classes!r}"),
            (not finite_number(threshold), f"score_threshold {threshold!r}"),
            (not isinstance(required, dict), f"requires_attrs {required!r}"),
        ))
        self.reg = replace(reg, params={
            **reg.params, "classes": frozenset(classes),
            "score_threshold": float(threshold), "requires_attrs": required,
        })
        self.vobj = vobj = params["vobj"]
        _check_settings(op_id, [(not isinstance(vobj, str), f"vobj {vobj!r}")])

    def link(self, engine, source, parts) -> None:
        engine.link(self.vobj)

    def process(self, engine, inputs: list[Batch]) -> Batch:
        out = []
        for fs in inputs[0]:
            engine.stats.count_component(self.reg.name, self.reg.cost_units)
            part = [
                VObjInstance(
                    node_id=(fs.frame_id, idx),
                    class_name=self.vobj,
                    frame_id=fs.frame_id,
                    bbox=det.bbox,
                    attrs=det.attrs,
                )
                for idx, det in apply_detector(self.reg, fs.record)
            ]
            out.append(FrameState(fs.frame_id, fs.record, FrameGraph([part])))
        return out


class TrackerOp(RuntimeOp):
    """Assigns persistent tracks: gives each tracked node its track's record
    (`VObjInstance.track`, which holds the id), appends the node to the
    record's latest objects, linked to the one before it
    (`VObjInstance.prev`), and sets a new track's birth frame.

    A tracker that `owns_input` sets records on its input's nodes and passes
    its input's frame states on; `Session` grants that when the input is a
    detector's batch that no other operator reads.  Otherwise it copies the
    nodes, so the other consumers of its input never see its assignments."""

    kind = "tracker"

    def __init__(self, op_id: str, params: dict):
        super().__init__(op_id, params)
        self.vobj = vobj = params["vobj"]
        _check_settings(op_id, [(not isinstance(vobj, str), f"vobj {vobj!r}")])
        self.tracker = SortTracker(TrackerConfig.from_json(params["config"]))
        self.owns_input = False
        self._held: dict[int, Track] = {}  # records of live tracks, by id

    def link(self, engine, source, parts) -> None:
        engine.link(self.vobj)

    def process(self, engine, inputs: list[Batch]) -> Batch:
        # a track retired during the last batch stayed readable until that
        # batch ended; its record lets its objects go now
        held = self._held
        live = {slot.track_id for slot in self.tracker.slots}
        for track_id in [t for t in held if t not in live]:
            held.pop(track_id).objects.clear()
        owns, step = self.owns_input, self.tracker.step
        out = inputs[0] if owns else []
        for fs in inputs[0]:
            (part,) = fs.graph.parts
            if not owns:
                part = [
                    VObjInstance(n.node_id, n.class_name, n.frame_id, n.bbox,
                                 n.attrs, dict(n.properties), n.track)
                    for n in part
                ]
                out.append(FrameState(fs.frame_id, fs.record,
                                      FrameGraph([part])))
            result = step(fs.frame_id, [(n.node_id, n.bbox) for n in part])
            # the assignments follow the part's order
            for node, (_node_id, track_id) in zip(part, result.assignments):
                track = held.get(track_id)
                if track is None:  # born on this frame
                    track = held[track_id] = engine.track(
                        self, self.vobj, track_id)
                    track.first_frame = fs.frame_id
                node.track = track
                track.append(node)
        return out


class ProjectorOp(RuntimeOp):
    """Computes one declared property for every node of its branch, or, when
    lazy evaluation is enabled, leaves it to on-demand evaluation.  A
    stateful window fills from its track's objects, so no dependency of one
    is forced here."""

    kind = "projector"

    def __init__(self, op_id: str, params: dict):
        super().__init__(op_id, params)
        self.prop = prop = params["prop"]
        _check_settings(op_id, [(not isinstance(prop, str), f"prop {prop!r}")])

    def process(self, engine, inputs: list[Batch]) -> Batch:
        if not engine.config.lazy:
            for fs in inputs[0]:
                (part,) = fs.graph.parts
                for node in part:
                    engine.get(node, self.prop)
        return inputs[0]


class VObjFilterOp(RuntimeOp):
    """Keeps a node only on a True verdict of the predicate, which reads
    the node's `binding` only; frames are retained even when emptied
    (dropping frames is the join's job).  The verdict is one function of
    the node, linked with the pass (`PropertyEngine.predicate`) for the
    binding's type."""

    kind = "vobj_filter"

    def __init__(self, op_id: str, params: dict):
        super().__init__(op_id, params)
        self.binding = binding = params["binding"]
        self.predicate = decode_expr(params["predicate"])
        _check_settings(op_id, [
            (not isinstance(binding, str), f"binding {binding!r}")])
        _check_refs(op_id, self.predicate, (binding,))
        self.verdict = None  # set by `link`

    def link(self, engine, source, parts) -> None:
        self.verdict = engine.predicate(self.predicate,
                                        {self.binding: parts[0]})

    def process(self, engine, inputs: list[Batch]) -> Batch:
        verdict = self.verdict
        out = []
        for fs in inputs[0]:
            (part,) = fs.graph.parts
            kept = [node for node in part if verdict(node) is True]
            if len(kept) == len(part):
                out.append(fs)
            else:  # a new part: the input batch may feed other queries
                out.append(FrameState(fs.frame_id, fs.record,
                                      FrameGraph([kept])))
        return out


class JoinOp(RuntimeOp):
    """Aligns branches by frame id; a frame survives iff every branch still
    has a node on it.  Branch i's objects become part i of the output."""

    kind = "join"

    def process(self, engine, inputs: list[Batch]) -> Batch:
        by_frame = [{fs.frame_id: fs for fs in b} for b in inputs]
        common = set(by_frame[0])
        for m in by_frame[1:]:
            common &= set(m)
        out = []
        for frame_id in sorted(common):
            states = [m[frame_id] for m in by_frame]
            parts = [part for s in states for part in s.graph.parts]
            if all(parts):
                out.append(FrameState(frame_id, states[0].record,
                                      FrameGraph(parts)))
        return out


class RelationProjectorOp(RuntimeOp):
    """Adds a relation edge, with computed properties, for every pair of an
    object of part 0 and a different object of part 1 that the `bound`
    param, if any, can keep, in (part 0, part 1) order.

    The bound, `{"prop", "op", "limit"}`, is a conjunct of the relation
    predicate that the filter evaluates before anything that could fail:
    `prop`, a `distance_px` or `distance_m` property, `op` `<` or `<=` the
    number `limit`.  `math.dist` is faithfully rounded, so it never returns
    less than the difference of the two centres along one axis; a pair
    whose |dx| or |dy|, taken as a distance, already fails the bound fails
    that conjunct, and it is skipped without computing any property or
    counting any cost.  The first pair of each batch is computed in full,
    so an error that `relation_value` raises for the run's configuration
    (`distance_m` without `px_per_m`) is raised as without a bound, and
    only then is the `distance_m` scale read."""

    kind = "relation_projector"
    reads_parts = 2

    def __init__(self, op_id: str, params: dict):
        super().__init__(op_id, params)
        relation, impls = params["relation"], params["props"]
        _check_settings(op_id, [
            (not isinstance(impls, dict), f"props {impls!r}")])
        # (property, implementation, name in the stats), by property name
        self.props = [(prop, impl, f"{relation}.{prop}")
                      for prop, impl in sorted(impls.items())]
        for _prop, impl, _name in self.props:
            if impl not in RELATION_IMPLS:
                raise PlanLinkError(
                    f"{op_id}: unknown relation implementation {impl!r}")
        self.bound = bound = params["bound"]  # may be null
        self.metres = False  # whether the bound is in metres
        if bound is not None:
            impl, limit = impls.get(bound["prop"]), bound["limit"]
            if impl not in ("distance_px", "distance_m") \
                    or bound["op"] not in ("<", "<=") \
                    or not isinstance(limit, (int, float)) \
                    or isinstance(limit, bool):
                raise PlanLinkError(f"{op_id}: bad bound {bound!r}")
            self.metres = impl == "distance_m"

    def widen(self, bound: Optional[dict]) -> None:
        """Keep as well every pair that `bound` keeps: the op is shared with
        a plan whose projector differs in its bound only (`op_signature`),
        and each plan's relation filter still applies its own predicate."""
        mine = self.bound
        if mine is None or bound is None or bound["prop"] != mine["prop"]:
            self.bound = None
        # a higher limit keeps more, and at one limit `<=` more than `<`
        elif (bound["limit"], bound["op"]) > (mine["limit"], mine["op"]):
            self.bound = bound

    def process(self, engine, inputs: list[Batch]) -> Batch:
        meta, count, bound = engine.meta, engine.stats.count_property, \
            self.bound
        if bound is not None:
            # a distance d fails `d < limit` iff limit <= d
            fails = operator.le if bound["op"] == "<" else operator.lt
            limit = bound["limit"]
        scale = None  # the bound's px per unit, once a pair is computed
        out = []
        for fs in inputs[0]:
            edges = list(fs.graph.edges)
            for a in fs.graph.parts[0]:
                xa, ya = box_centre(a.bbox)
                for b in fs.graph.parts[1]:
                    if a.node_id == b.node_id:
                        continue
                    if scale is not None:
                        xb, yb = box_centre(b.bbox)
                        if fails(limit, abs(xa - xb) / scale) \
                                or fails(limit, abs(ya - yb) / scale):
                            continue
                    properties = {}
                    for prop, impl, name in self.props:
                        properties[prop] = relation_value(impl, a, b, meta)
                        count(name, GEOMETRIC_FN_COST)
                    edges.append(Edge(a, b, properties))
                    if scale is None and bound is not None:
                        scale = meta.px_per_m if self.metres else 1.0
            out.append(FrameState(fs.frame_id, fs.record,
                                  FrameGraph(fs.graph.parts, edges)))
        return out


class RelationFilterOp(RuntimeOp):
    """Keeps each edge on which the predicate's verdict, with `args` bound to
    the edge's `a` and `b`, is True, and a frame only if it keeps at least
    one: a spatial query holds on a frame where some pair holds.  Each part
    of a kept frame keeps only the objects of its kept edges, in node-id
    order, so a row lists and a duration tracks only related objects.  The
    verdict is one function of the edge, linked with the pass
    (`PropertyEngine.predicate`) for the two parts' types."""

    kind = "relation_filter"
    reads_parts = 2

    def __init__(self, op_id: str, params: dict):
        super().__init__(op_id, params)
        self.predicate = decode_expr(params["predicate"])
        self.args = args = params["args"]
        _check_settings(op_id, (
            (not _names(args) or len(args) != 2, f"args {args!r}"),))
        _check_refs(op_id, self.predicate, args, edge=True)
        self.verdict = None  # set by `link`

    def link(self, engine, source, parts) -> None:
        self.verdict = engine.predicate(
            self.predicate, dict(zip(self.args, parts)), tuple(self.args))

    def process(self, engine, inputs: list[Batch]) -> Batch:
        verdict = self.verdict
        out = []
        for fs in inputs[0]:
            kept = [edge for edge in fs.graph.edges if verdict(edge) is True]
            if kept:  # an object is unhashable: match it by identity
                related = ({id(e.a) for e in kept}, {id(e.b) for e in kept})
                parts = [[n for n in part if id(n) in ids]
                         for part, ids in zip(fs.graph.parts, related)]
                out.append(FrameState(fs.frame_id, fs.record,
                                      FrameGraph(parts, kept)))
        return out


# --- higher-order evaluators (pure) ----------------------------------------

def eval_duration(
    satisfied: dict[int, set[int]],
    first_frame: dict[int, int],
    min_frames: int,
    gap_tolerance: int = 0,
) -> set[tuple[int, int]]:
    """Firing set of (track_id, frame_id), from the frames on which the base
    held for each track and the frame each track was born on.

    (t, f) fires iff the base holds for t at f, and over [f - d + 1, f],
    which starts no earlier than t's birth, it failed to hold (t absent or
    unsatisfied) on at most `gap_tolerance` frames.
    """
    if min_frames < 1:
        raise ValueError("min_frames must be >= 1")
    fires = set()
    for track_id, sat in satisfied.items():
        frames = sorted(sat)
        lo = first_frame[track_id]
        i = 0  # frames[i:j + 1] are the satisfied frames of f's window
        for j, f in enumerate(frames):
            start = f - min_frames + 1
            while frames[i] < start:
                i += 1
            if start >= lo and min_frames - (j - i + 1) <= gap_tolerance:
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
    Witnesses are the sorted (end, start) pairs that show it.
    """
    starts = [first for first, _last in _runs(occ2)]  # sorted
    witnesses = []
    for _first, e in _runs(occ1):  # ends ascending
        lo = bisect_right(starts, e)
        hi = bisect_right(starts, e + max_interval, lo)
        witnesses.extend((e, s) for s in starts[lo:hi])
    return bool(witnesses), witnesses


def count_distinct_tracks(per_track: dict[int, list[int]]) -> int:
    """Count tracks whose per-frame verdict counts, [true, false,
    undefined], hold no False and at least one True (Undefined warm-up
    frames are skipped)."""
    return sum(1 for true, false, _undefined in per_track.values()
               if true and not false)

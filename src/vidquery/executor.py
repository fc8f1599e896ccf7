"""Plan execution: lazy property evaluation, intrinsic-value memoization,
cross-query operator sharing, and deterministic result serialization."""

from __future__ import annotations

import hashlib
import json
import marshal
import math
import os
import sys
import tempfile
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Optional

from .datamodel import UNDEFINED, Track, VObjInstance, window
from .dsl.ast import And, Compare, Not, Or, PropertyDef
from .dsl.validate import ValidatedProgram
from .operators import (
    EMPTY_GRAPH,
    Batch,
    ClassifierOp,
    DetectorOp,
    FrameFilterOp,
    FrameState,
    InternalError,
    JoinOp,
    PlanLinkError,
    RelationFilterOp,
    RelationProjectorOp,
    ProjectorOp,
    RuntimeOp,
    TrackerOp,
    VObjFilterOp,
    _LINKED,
    _ORDERED,
    _check_refs,
    _check_settings,
    _names,
    compare,
    count_distinct_tracks,
    eval_duration,
    eval_temporal,
)
from .planner import PlanDag, PlanLoadError, PlanOp, decode_expr
from .registry import (
    PropContext,
    Registration,
    Registry,
    RegistryError,
    call_property_impl,
)
from .trace_io import VideoMeta, open_trace


@dataclass
class ExecConfig:
    batch_size: int = 16
    lazy: bool = True
    memo: bool = True

    def __post_init__(self):
        if not 1 <= self.batch_size <= sys.maxsize:
            raise ValueError(f"batch_size must be in [1, {sys.maxsize}]")


@dataclass
class ExecStats:
    """Counted work: component calls, property-function entries, cost units,
    and operator invocations by signature (`op_signature`)."""

    cost_units: float = 0.0
    component_calls: Counter = field(default_factory=Counter)
    component_costs: dict[str, float] = field(default_factory=dict)
    property_calls: Counter = field(default_factory=Counter)
    op_invocations: Counter = field(default_factory=Counter)

    def add_cost(self, units: float) -> None:
        self.cost_units += units

    def count_component(self, name: str, cost: float) -> None:
        self.component_calls[name] += 1
        self.component_costs[name] = self.component_costs.get(name, 0.0) + cost
        self.cost_units += cost

    def count_property(self, name: str, cost: float) -> None:
        self.property_calls[name] += 1
        self.component_costs[name] = self.component_costs.get(name, 0.0) + cost
        self.cost_units += cost

    def count_op(self, sig: str) -> None:
        self.op_invocations[sig] += 1

    @property
    def total_op_invocations(self) -> int:
        return sum(self.op_invocations.values())


def _jsonable(value):
    if value is UNDEFINED:
        return None
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


class PropertyEngine:
    """On-demand property evaluation over frame-graph nodes, through
    functions linked once per pass.

    Linking a detected type (`link`) builds one reader per property: a
    function of a node that computes the value and keeps it on the node.
    Each reader is built for its case, a stateless property with its
    dependencies' readers or a stateful one with its window and its
    dependency's reader, wrapped for a memoized intrinsic; `bbox` and
    `frame_rate` read the node's box and the video's rate.  `get` takes the
    value kept on the node, else runs the reader.  Linking a predicate
    (`predicate`) builds its verdict as one function of what it binds, and
    each comparison in it reads through a reader linked then too.

    A property is computed at most once per node; intrinsic values are
    additionally memoized per track record.  A stateful property reads its
    dependency on its `window`: the node and the objects before it on its
    track (`datamodel.window`).  A value is Undefined, without entering its
    implementation, when any value it reads is: a dependency, a window
    entry, or a window still warming up.  One engine serves one
    `Session.run`.

    One `PropContext` serves the whole pass: every field a call reads is
    set just before `call_property_impl`, so an implementation must not call
    back into the engine, which would overwrite it.  A reader looks
    `call_property_impl` and `window` up in this module on every call, so
    whatever replaces them there after a pass links is what runs.
    """

    def __init__(
        self,
        vprog: ValidatedProgram,
        registry: Registry,
        meta: Optional[VideoMeta],
        config: ExecConfig,
        stats: ExecStats,
    ):
        self.vprog = vprog
        self.registry = registry
        self.meta = meta
        self.config = config
        self.stats = stats
        self.memo: dict[tuple[Track, str], Any] = {}
        self.tracks: dict[tuple[Any, int], Track] = {}  # by (tracker, id)
        # type -> property -> reader; only detected or tracked types are linked
        self.readers: dict[str, dict[str, Callable]] = {}
        self.ctx = PropContext(node=None, deps={}, window_values=None,
                               meta=meta)

    def link(self, vobj: str) -> None:
        """Link each property of the detected type `vobj` once, so a missing
        type or function fails before any frame is read."""
        if vobj in self.readers:
            return
        ftype = self.vprog.types.get(vobj)
        if ftype is None:  # a saved plan's type the program lacks
            raise PlanLinkError(f"the program declares no type {vobj!r}")
        regs = {}
        for name, pdef in ftype.props.items():
            try:
                regs[name] = self.registry.resolve_property_fn(pdef.impl)
            except RegistryError as exc:
                raise PlanLinkError(f"{vobj}.{name}: {exc}") from exc
        fps = self.meta.fps if self.meta else UNDEFINED
        readers = {"bbox": attrgetter("bbox"), "frame_rate": lambda _n: fps}
        # dependencies first; the built-in names are never in the order, so a
        # property declared under one of them is never read
        for name in ftype.prop_order:
            readers[name] = self._reader(
                ftype.props[name], regs[name], f"{vobj}.{name}", readers)
        self.readers[vobj] = readers

    def track(self, tracker, vobj: str, track_id: int) -> Track:
        """A new record for `tracker`'s new track `track_id` (a tracker
        never reuses an id)."""
        # a type without windows keeps no objects; one with them keeps a
        # batch more, as a batch's later objects are appended before its
        # earlier frames' windows are read (a deque's bound is at most
        # sys.maxsize)
        reach = self.vprog.types[vobj].max_window
        depth = min(reach + self.config.batch_size, sys.maxsize) if reach \
            else 0
        self.tracks[tracker, track_id] = track = Track.create(track_id, depth)
        return track

    def _reader(self, pdef: PropertyDef, reg: Registration, name: str,
                readers: dict) -> Callable:
        """The reader of `pdef`, whose dependencies' readers `readers`
        holds; `name` is its name in the stats."""
        prop, cost = pdef.name, reg.cost_units
        count, ctx = self.stats.count_property, self.ctx
        if pdef.kind == "stateful":
            k, dep = pdef.window, pdef.deps[0]
            read_dep = readers[dep]

            def read(node):
                objects = window(node, k)
                if objects is UNDEFINED:  # still warming up
                    value = UNDEFINED
                else:
                    values = [n.properties[dep] if dep in n.properties
                              else read_dep(n) for n in objects]
                    if UNDEFINED in values:
                        value = UNDEFINED
                    else:
                        count(name, cost)
                        ctx.node, ctx.deps = node, {}
                        ctx.window_values = values
                        ctx.window_frames = (objects[0].frame_id,
                                             objects[-1].frame_id)
                        value = call_property_impl(reg, ctx)
                node.properties[prop] = value
                return value
        else:
            deps = [(dep, readers[dep]) for dep in pdef.deps]

            def read(node):
                props, values = node.properties, {}
                for dep, read_dep in deps:
                    values[dep] = props[dep] if dep in props \
                        else read_dep(node)
                if UNDEFINED in values.values():
                    value = UNDEFINED
                else:
                    count(name, cost)
                    ctx.node, ctx.deps = node, values
                    ctx.window_values = ctx.window_frames = None
                    value = call_property_impl(reg, ctx)
                props[prop] = value
                return value
        if not (self.config.memo and pdef.intrinsic):
            return read
        memo, compute = self.memo, read

        def read(node):  # a defined value is kept on the track record too
            track = node.track
            if track is None:
                return compute(node)
            key = (track, prop)
            if key in memo:
                value = node.properties[prop] = memo[key]
                return value
            value = compute(node)
            if value is not UNDEFINED:
                memo[key] = value
            return value
        return read

    def reader(self, vobj: str, prop: str) -> Callable:
        """The reader of property `prop` of the linked type `vobj`."""
        read = self.readers[vobj].get(prop)
        if read is None:  # a saved plan's property the program lacks
            raise PlanLinkError(f"{vobj} has no property {prop!r}")
        return read

    def get(self, node: VObjInstance, prop: str):
        """`prop`'s value on `node`: the one kept on it, else its reader's."""
        props = node.properties
        if prop in props:
            return props[prop]
        return self.reader(node.class_name, prop)(node)

    # -- predicate linking --

    def predicate(self, expr, types: dict[str, str],
                  edge: Optional[tuple[str, str]] = None) -> Callable:
        """The Kleene three-valued verdict of `expr`, linked as one function:
        of the object of the one binding that `types` maps to its type, or,
        when `edge` holds a relation filter's two args, of an edge, whose
        `a` and `b` are bound to them and whose properties the relation
        references read.  A comparison on an Undefined operand (e.g. a
        stateful property still warming up) is None, `!` keeps None, `&`
        stops at the first False and `|` at the first True, in the order
        written, and an absent predicate is True."""
        if expr is None:
            return _always
        if isinstance(expr, Compare):
            return self._comparison(expr, types, edge)
        if isinstance(expr, Not):
            item = self.predicate(expr.item, types, edge)

            def verdict(x):
                v = item(x)
                return None if v is None else not v
            return verdict
        if isinstance(expr, (And, Or)):
            items = [self.predicate(i, types, edge) for i in expr.items]
            stop = isinstance(expr, Or)  # the value that decides alone
            whole = not stop

            def verdict(x):
                result = whole
                for item in items:
                    v = item(x)
                    if v is stop:
                        return stop
                    if v is None:
                        result = None
                return result
            return verdict
        raise InternalError(f"not a predicate: {expr!r}")

    def _comparison(self, expr: Compare, types: dict[str, str],
                    edge: Optional[tuple[str, str]]) -> Callable:
        # each op checks its predicate's references when it links
        ref, op, literal = expr.ref, expr.op, expr.literal
        prop = ref.prop
        if ref.relation is not None:
            def verdict(e):
                value = e.properties.get(prop, UNDEFINED)
                return None if value is UNDEFINED \
                    else compare(value, op, literal)
            return verdict
        test = _node_comparison(self.reader(types[ref.binding], prop), prop,
                                op, literal)
        if edge is None:
            return test
        if ref.binding == edge[1]:  # as in an env, the later arg wins
            return lambda e: test(e.b)
        return lambda e: test(e.a)


def _always(_x) -> bool:
    """The verdict of an absent predicate."""
    return True


def _node_comparison(read, prop: str, op: str, literal) -> Callable:
    """The verdict of comparing a node's `prop` with `literal`: the value
    kept on the node, else `read`'s, is None when Undefined and otherwise
    compared as `operators.compare` does, by the body picked here for
    `op`."""
    if op in _ORDERED:  # these hold for numbers only, and a bool is not one
        ordered = _ORDERED[op]

        def verdict(node):
            props = node.properties
            value = props[prop] if prop in props else read(node)
            if value is UNDEFINED:
                return None
            return isinstance(value, (int, float)) \
                and not isinstance(value, bool) and ordered(value, literal)
    elif op == "in":
        def verdict(node):
            props = node.properties
            value = props[prop] if prop in props else read(node)
            if value is UNDEFINED:
                return None
            return value in literal
    else:
        test = _LINKED[op]

        def verdict(node):
            props = node.properties
            value = props[prop] if prop in props else read(node)
            if value is UNDEFINED:
                return None
            return test(value, literal)
    return verdict


# --- sink-side runtime operators -------------------------------------------

class OutputOp(RuntimeOp):
    """Collects one result row per frame on which every part is non-empty,
    in frame order (batches arrive in frame order and the join emits sorted
    frames): the one record of what the query kept.  A spatial query's
    relation filter has already dropped the frames where no pair holds.
    Part i holds the objects of binding i, and each frame output reads its
    part through its property's reader, linked with the pass.  Also keeps
    the record of each track of the first binding, by id, for a duration
    over the query."""

    kind = "output"

    def __init__(self, op_id: str, params: dict):
        super().__init__(op_id, params)
        self.query = query = params["query"]
        self.bindings = bindings = params["bindings"]  # one name per part
        self.frame_output = refs = params["frame_output"]
        named = bool(bindings) and _names(bindings) \
            and len(set(bindings)) == len(bindings)  # one part per name
        _check_settings(op_id, [
            (not isinstance(query, str), f"query {query!r}"),
            (not named, f"bindings {bindings!r}"),
            (named and not (isinstance(refs, list) and all(
                isinstance(r, dict) and r.get("binding") in bindings
                and isinstance(r.get("prop"), str) for r in refs)),
             f"frame_output {refs!r}"),
        ])
        self.reads_parts = len(bindings)
        self.rows: list[dict] = []
        self.tracks: dict[int, Track] = {}
        self.frame_readers: list[tuple] = []  # (key, part, prop, reader)

    def link(self, engine, source, parts) -> None:
        part = {b: i for i, b in enumerate(self.bindings)}
        self.frame_readers = [
            (f"{r['binding']}.{r['prop']}", part[r["binding"]], r["prop"],
             engine.reader(parts[part[r["binding"]]], r["prop"]))
            for r in self.frame_output]

    def process(self, engine, inputs: list[Batch]) -> Batch:
        bindings = self.bindings
        for fs in inputs[0]:
            parts = fs.graph.parts
            if not all(parts):
                continue
            objects = {}
            row: dict[str, Any] = {"frame": fs.frame_id, "objects": objects}
            for b, nodes in zip(bindings, parts):
                objects[b] = [
                    (*n.node_id,
                     None if n.track is None else n.track.track_id, *n.bbox)
                    for n in nodes
                ]
            for n in parts[0]:
                if n.track is not None:
                    self.tracks[n.track.track_id] = n.track
            outputs = {}
            for key, i, prop, read in self.frame_readers:
                outputs[key] = [
                    _jsonable(n.properties[prop] if prop in n.properties
                              else read(n))
                    for n in parts[i]
                ]
            if outputs:
                row["outputs"] = outputs
            self.rows.append(row)
        return inputs[0]

    def outcome(self) -> QueryOutcome:
        return QueryOutcome(self.query, [r["frame"] for r in self.rows],
                            self.rows)


_VERDICT_SLOT = {True: 0, False: 1, None: 2}


class AggregateOp(RuntimeOp):
    """Counts per-track three-valued verdicts of the video constraint over
    the objects of part `part`, which its output op binds: [true, false,
    undefined] by track id, each from the constraint's verdict function,
    linked with the pass (`PropertyEngine.predicate`).  Its answer is its
    output op's, with the count as `video`."""

    kind = "aggregate"
    reads_parts = None  # `link` checks that its input is an output op

    def __init__(self, op_id: str, params: dict):
        super().__init__(op_id, params)
        self.agg_kind = params["kind"]
        self.part = params["part"]
        self.predicate = decode_expr(params["predicate"])
        self.per_track: dict[int, list[int]] = {}
        self.output: Optional[OutputOp] = None  # set by `link`
        self.verdict = None  # set by `link`

    def link(self, engine, source, parts) -> None:
        """Count over `source`, the op of this op's input, which must be an
        output op with a part `part`, whose binding it takes."""
        indexed = isinstance(source, OutputOp) and type(self.part) is int \
            and 0 <= self.part < len(source.bindings)
        _check_settings(self.op_id, [
            (self.agg_kind != "count_distinct", f"kind {self.agg_kind!r}"),
            (not indexed, f"part {self.part!r}"),
        ])
        binding = source.bindings[self.part]
        _check_refs(self.op_id, self.predicate, (binding,))
        self.output = source
        self.verdict = engine.predicate(
            self.predicate, {binding: parts[self.part]})

    def process(self, engine, inputs: list[Batch]) -> Batch:
        verdict, per_track = self.verdict, self.per_track
        for fs in inputs[0]:
            for node in fs.graph.parts[self.part]:
                if node.track is None:
                    continue
                slot = _VERDICT_SLOT[verdict(node)]
                per_track.setdefault(node.track.track_id, [0, 0, 0])[slot] += 1
        return inputs[0]

    def outcome(self) -> QueryOutcome:
        base = self.output.outcome()
        base.video = {
            "aggregate": self.agg_kind,
            "binding": self.output.bindings[self.part],
            "value": count_distinct_tracks(self.per_track),
            "per_track": {
                str(t): dict(zip(("true", "false", "undefined"), counts))
                for t, counts in sorted(self.per_track.items())}}
        return base


def _whole(value, least: int) -> bool:
    return type(value) is int and value >= least


class DurationSink:
    """A duration query's answer, made from its base's, an output op's or
    an aggregate's over one: the (track, frame) pairs at which a track of
    the first binding has held the base for `min_frames` frames, missing at
    most `gap_tolerance`.  A sink built over sinks processes no batches."""

    def __init__(self, op_id: str, params: dict, inputs: list):
        (self.base,) = inputs
        self.op_id = op_id
        self.query = params["query"]
        self.min_frames = params["min_frames"]
        self.gap_tolerance = params["gap_tolerance"]
        _check_settings(op_id, [
            (not isinstance(self.query, str), f"query {self.query!r}"),
            (not isinstance(self.base, (OutputOp, AggregateOp)),
             f"base {self.base.op_id!r}"),
            (not _whole(self.min_frames, 1),
             f"min_frames {self.min_frames!r}"),
            (not _whole(self.gap_tolerance, 0),
             f"gap_tolerance {self.gap_tolerance!r}"),
        ])
        self.output = self.base.output if isinstance(self.base, AggregateOp) \
            else self.base

    def outcome(self) -> QueryOutcome:
        base = self.base.outcome()
        first = self.output.bindings[0]
        satisfied: dict[int, set[int]] = {}
        for row in base.rows:
            for obj in row["objects"][first]:
                if obj[2] is not None:  # the row object's track
                    satisfied.setdefault(obj[2], set()).add(row["frame"])
        born = {t: self.output.tracks[t].first_frame for t in satisfied}
        fires = eval_duration(satisfied, born, min_frames=self.min_frames,
                              gap_tolerance=self.gap_tolerance)
        base.query = self.query
        base.duration_fires = [list(p) for p in sorted(fires)]
        base.satisfied = sorted({f for _t, f in fires})
        kept = set(base.satisfied)
        base.rows = [r for r in base.rows if r["frame"] in kept]
        return base


class TemporalSink:
    """A temporal query's answer, made from its parts': whether a run of the
    first ends at most `max_interval` frames before a run of the second."""

    def __init__(self, op_id: str, params: dict, inputs: list):
        self.first, self.then = inputs
        self.op_id = op_id
        self.query = params["query"]
        self.max_interval = params["max_interval"]
        _check_settings(op_id, [
            (not isinstance(self.query, str), f"query {self.query!r}"),
            (not _whole(self.max_interval, 0),
             f"max_interval {self.max_interval!r}"),
        ])

    def outcome(self) -> QueryOutcome:
        first, then = self.first.outcome(), self.then.outcome()
        matched, witnesses = eval_temporal(
            first.satisfied, then.satisfied, self.max_interval)
        return QueryOutcome(
            self.query, sorted({s for _e, s in witnesses}), [],
            temporal={"matched": matched,
                      "witnesses": [list(w) for w in witnesses],
                      "first": first.to_json(), "then": then.to_json()})


SINK_CLASSES = {"duration": DurationSink, "temporal": TemporalSink}


def _sink(dag: PlanDag, ops: dict, op_id: str):
    """The op built for `dag`'s op `op_id`, if that op makes an answer."""
    op = ops[op_id]
    if not isinstance(op, (OutputOp, AggregateOp, DurationSink, TemporalSink)):
        raise PlanLinkError(
            f"{op_id}: kind {dag.ops[op_id].kind!r} is not a sink")
    return op


class FusedOp(RuntimeOp):
    """Runs a fused chain of projector/filter steps as one operator."""

    kind = "fused"

    def __init__(self, op_id: str, params: dict, steps: list[RuntimeOp]):
        super().__init__(op_id, params)
        self.steps = steps

    def link(self, engine, source, parts) -> None:
        for step in self.steps:  # a step keeps its input's parts
            step.link(engine, source, parts)

    def process(self, engine, inputs: list[Batch]) -> Batch:
        batch = inputs[0]
        for step in self.steps:
            batch = step.process(engine, [batch])
        return batch


# --- runtime op construction ------------------------------------------------

FUSED_STEP_KINDS = ("projector", "vobj_filter")  # what the planner fuses
OPERATOR_CLASSES: dict[str, type[RuntimeOp]] = {cls.kind: cls for cls in (
    FrameFilterOp, ClassifierOp, DetectorOp, TrackerOp, ProjectorOp,
    VObjFilterOp, JoinOp, RelationProjectorOp, RelationFilterOp, OutputOp,
    AggregateOp, FusedOp,
)}


def build_runtime_op(plan_op: PlanOp, registry: Registry) -> RuntimeOp:
    """The runtime operator of `plan_op`: its class by kind and its
    registration resolved here, and its settings, a predicate included,
    read and checked by the class.  PlanLinkError, naming the op, if the
    plan does not link: an unknown kind, a bad predicate encoding, a missing
    param or a param of the wrong type or value."""
    op_id, kind, params = plan_op.op_id, plan_op.kind, plan_op.params
    cls = OPERATOR_CLASSES.get(kind)
    if cls is None:
        raise PlanLinkError(f"{op_id}: unknown operator kind {kind!r}")
    try:
        if kind == "fused":  # each step runs under the fused op's id
            steps = [build_runtime_op(PlanOp(op_id, s["kind"], s["params"]),
                                      registry)
                     for s in params["steps"]]
            for step in steps:
                if step.kind not in FUSED_STEP_KINDS:
                    raise PlanLinkError(
                        f"{op_id}: kind {step.kind!r} is not a fused step")
            return cls(op_id, params, steps)
        if kind in ("classifier", "detector"):
            reg = registry.try_resolve(kind, params[kind])
            if reg is None:
                raise PlanLinkError(
                    f"{op_id}: {kind} {params[kind]!r} not registered")
            return cls(op_id, params, reg)
        return cls(op_id, params)
    except PlanLoadError as exc:
        raise PlanLinkError(f"{op_id}: {exc}") from exc
    except KeyError as exc:
        raise PlanLinkError(f"{op_id}: missing param {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise PlanLinkError(f"{op_id}: bad params: {exc}") from exc


def _parts(rt: RuntimeOp, op_id: str,
           inputs: list[tuple[str, ...]]) -> tuple[str, ...]:
    """The types of the parts of the frame graphs that `rt` makes from
    inputs whose graphs hold parts of the types `inputs` (an op with no
    inputs reads the trace's frame states, whose graphs hold none): the
    detector's from a detector, each input's in turn from a join, and its
    input's from any other op.  PlanLinkError if an input holds other than
    the number of parts `rt` reads."""
    want = rt.reads_parts
    for types in inputs:
        if want is not None and len(types) != want:
            raise PlanLinkError(f"{op_id}: an input's frame graphs hold "
                                f"{len(types)} parts, not {want}")
    if isinstance(rt, DetectorOp):
        return (rt.vobj,)
    return sum(inputs, ()) if isinstance(rt, JoinOp) else inputs[0]


def op_signature(plan_op: PlanOp, input_sigs: list[str]) -> str:
    """Structural identity used for cross-query operator sharing: the kind,
    params and input signatures.  Op ids are deliberately excluded so
    identical stages in different plans unify; a fused op's steps hold no
    ids either.  A relation projector's `bound` is left out: projectors that
    differ in it only are one op, under the loosest bound
    (`RelationProjectorOp.widen`)."""
    params = plan_op.params
    if plan_op.kind == "relation_projector":
        params = {k: v for k, v in params.items() if k != "bound"}
    payload = json.dumps(
        {"kind": plan_op.kind, "params": params, "inputs": input_sigs},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# --- outcomes ---------------------------------------------------------------

@dataclass
class QueryOutcome:
    """One query's answer.  `rows` holds one row per kept frame, in frame
    order: `{"frame": f, "objects": {binding: [row object, ...]}}`, plus
    `"outputs": {"binding.prop": [value per object]}` when the query has a
    frame output.  A row object is one flat tuple `(frame, index, track,
    x1, y1, x2, y2)`: the node id, the track id (None when untracked) and
    the bbox.  The result file writes it as `{"bbox": [x1, y1, x2, y2],
    "node": [frame, index], "track": track}` (`serialize_outcome`)."""

    query: str
    satisfied: list[int] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    video: Optional[dict] = None
    duration_fires: Optional[list] = None
    temporal: Optional[dict] = None

    def labels(self, frame_count: int) -> list[bool]:
        sat = set(self.satisfied)
        return [f in sat for f in range(frame_count)]

    def to_json(self) -> dict:
        out: dict[str, Any] = {
            "query": self.query,
            "satisfied": self.satisfied,
            "frames": self.rows,
        }
        if self.video is not None:
            out["video"] = self.video
        if self.duration_fires is not None:
            out["duration_fires"] = self.duration_fires
        if self.temporal is not None:
            out["temporal"] = self.temporal
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "QueryOutcome":
        """The outcome whose `to_json` is `obj`; KeyError or TypeError if
        `obj` does not have that shape."""
        outcome = cls(
            query=obj["query"],
            satisfied=obj["satisfied"],
            rows=obj["frames"],
            video=obj.get("video"),
            duration_fires=obj.get("duration_fires"),
            temporal=obj.get("temporal"),
        )
        if not (isinstance(outcome.query, str)
                and isinstance(outcome.satisfied, list)
                and isinstance(outcome.rows, list)
                and isinstance(outcome.video, (dict, type(None)))
                and isinstance(outcome.duration_fires, (list, type(None)))
                and isinstance(outcome.temporal, (dict, type(None)))):
            raise TypeError("not a query outcome")
        return outcome


def serialize_outcome(outcome: QueryOutcome) -> str:
    """Byte-stable result text: the bytes `json.dumps(indent=2,
    sort_keys=True)` gives for the outcome's `to_json` with each row object
    written as its dict (see `QueryOutcome`), plus a newline; no timing or
    host state.  A writer that knows the row shape: each row object is one
    f-string of its bbox's float reprs (a trace's boxes are finite), and
    every other value is walked as `json` writes it (sorted keys, ASCII
    escapes, `NaN` and `Infinity`, any tuple outside a row's objects as an
    array)."""
    chunks: list[str] = []
    _write_outcome(outcome.to_json(), "", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _write_value(value, at: str, emit) -> None:
    """`value` as `json.dumps(indent=2, sort_keys=True)` writes it, `at`
    being the indent of the line it starts on."""
    if isinstance(value, str):
        emit(encode_basestring_ascii(value))
    elif value is None:
        emit("null")
    elif value is True:
        emit("true")
    elif value is False:
        emit("false")
    elif isinstance(value, int):
        emit(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            emit("NaN")
        elif value == math.inf:
            emit("Infinity")
        elif value == -math.inf:
            emit("-Infinity")
        else:
            emit(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        _write_array(value, at, emit, _write_value)
    elif isinstance(value, dict):
        _write_object(value, at, emit, {})
    else:
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable")


def _write_array(values, at: str, emit, write_item) -> None:
    if not values:
        emit("[]")
        return
    inner = at + "  "
    sep = "[\n" + inner
    for value in values:
        emit(sep)
        write_item(value, inner, emit)
        sep = ",\n" + inner
    emit(f"\n{at}]")


def _write_object(obj: dict, at: str, emit, fields: dict) -> None:
    """`obj` with sorted keys, the value of each key in `fields` written by
    that key's writer."""
    if not obj:
        emit("{}")
        return
    inner = at + "  "
    sep = "{\n" + inner
    for key in sorted(obj):
        emit(f"{sep}{encode_basestring_ascii(key)}: ")
        fields.get(key, _write_value)(obj[key], inner, emit)
        sep = ",\n" + inner
    emit(f"\n{at}}}")


def _write_outcome(obj: dict, at: str, emit) -> None:
    _write_object(obj, at, emit, _OUTCOME_FIELDS)


def _write_row(row: dict, at: str, emit) -> None:
    _write_object(row, at, emit, _ROW_FIELDS)


def _write_row_objects(objects: dict, at: str, emit) -> None:
    """A row's objects: each binding's list of row objects, each of them
    written with one f-string."""
    if not objects:
        emit("{}")
        return
    i1, i2, i3, i4 = (at + "  " * k for k in range(1, 5))
    sep = "{\n"
    for binding in sorted(objects):
        emit(f"{sep}{i1}{encode_basestring_ascii(binding)}: ")
        sep = ",\n"
        if not objects[binding]:
            emit("[]")
            continue
        emit("[\n" + ",\n".join([
            f'{i2}{{\n{i3}"bbox": [\n{i4}{x1!r},\n{i4}{y1!r},\n{i4}{x2!r},'
            f'\n{i4}{y2!r}\n{i3}],\n{i3}"node": [\n{i4}{frame},\n{i4}{index}'
            f'\n{i3}],\n{i3}"track": {"null" if track is None else track}'
            f'\n{i2}}}'
            for frame, index, track, x1, y1, x2, y2 in objects[binding]])
            + f"\n{i1}]")
    emit(f"\n{at}}}")


_OUTCOME_FIELDS = {
    "frames": lambda rows, at, emit: _write_array(rows, at, emit, _write_row),
    "temporal": lambda temporal, at, emit: _write_object(
        temporal, at, emit, {"first": _write_outcome, "then": _write_outcome}),
}
_ROW_FIELDS = {"objects": _write_row_objects}


# Cache entries are written and read by this interpreter's `marshal`; the
# tag goes into every key, so an entry another version wrote, or one of
# the dict row objects earlier versions kept, is never opened.
ENTRY_FORMAT = "rows7-marshal{}-py{}.{}".format(
    marshal.version, *sys.version_info[:2])
DIGEST_SIZE = 32  # bytes of the sha256 that heads an entry


class ResultStore:
    """Result cache.  An entry is keyed by the entry format, the plan id and
    a digest of the run's other inputs: the trace content, the video meta
    and the registrations (see `Session.run`).  Entries are internal: each
    is the sha256 of its payload followed by the payload, the `marshal` of
    its outcome's `to_json`, which loads several times faster than JSON;
    its row objects stay flat tuples (see `QueryOutcome`).  Result files
    are made from the loaded outcome by `serialize_outcome`, so they stay
    `indent=2` and byte-stable whether or not they were served from here.

    `marshal` is not safe against crafted data: the digest catches damage,
    not an entry someone forged, so the store must be the user's own
    directory."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key(inputs_digest: str, plan_id: str) -> str:
        return hashlib.sha256(
            f"{ENTRY_FORMAT}:{inputs_digest}:{plan_id}".encode()).hexdigest()

    def _path(self, inputs_digest: str, plan_id: str) -> Path:
        return self.root / f"{self.key(inputs_digest, plan_id)}.marshal"

    def get(self, inputs_digest: str, plan_id: str) -> Optional[QueryOutcome]:
        """The cached outcome of `plan_id`, or None on a miss.  An entry
        whose payload does not match its digest, or does not load to an
        outcome, is a miss, so the result is recomputed and the entry
        rewritten.  The digest is checked first: `marshal.loads` of damaged
        bytes can ask for gigabytes or give a different value."""
        try:
            data = self._path(inputs_digest, plan_id).read_bytes()
        except FileNotFoundError:
            return None
        payload = memoryview(data)[DIGEST_SIZE:]
        if hashlib.sha256(payload).digest() != data[:DIGEST_SIZE]:
            return None
        try:
            return QueryOutcome.from_json(marshal.loads(payload))
        except (EOFError, ValueError, KeyError, TypeError):
            return None

    def put(self, inputs_digest: str, plan_id: str, outcome: QueryOutcome) -> None:
        """Write to a temporary file beside the entry, then rename it into
        place, so `get` never sees a partial entry."""
        payload = marshal.dumps(outcome.to_json())
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(hashlib.sha256(payload).digest())
                fh.write(payload)
            os.replace(tmp, self._path(inputs_digest, plan_id))
        except BaseException:
            os.unlink(tmp)
            raise


# --- session ----------------------------------------------------------------

TRACE = ""  # the schedule's name for the batch of initial frame states
TRACE_CHUNK = 8 << 20  # bytes of the trace hashed at a time for the cache key


def trace_batches(trace_path, meta: Optional[VideoMeta], batch_size: int):
    """The initial frame states of the records of `trace_path` that a run
    under `meta` reads, in batches of at most `batch_size`.  Reading stops
    right after the record of frame `meta.frame_count - 1`, so no line after
    it is parsed; a trace with no record of that frame is read up to its
    first record past it.  No operator changes an input frame state, so
    every session of a pass may be fed the same batch."""
    last = math.inf if meta is None else meta.frame_count - 1
    current: Batch = []
    with closing(open_trace(trace_path, meta)) as records:
        for rec in records:
            if rec.frame_id > last:
                break
            current.append(FrameState(rec.frame_id, rec, EMPTY_GRAPH))
            if rec.frame_id == last:
                break
            if len(current) == batch_size:
                yield current
                current = []
    if current:
        yield current


class Session:
    """Executes one or more plans over a trace with operator sharing.

    Structurally identical operators across the plans of one pass resolve
    to a single runtime instance; each batch, an instance runs once and its
    output batch is reused by every consumer.  A pass `start`s its plans,
    `feed`s them every batch of frame states in frame order, and `finish`es;
    `run` drives one over a trace file.  Each pass builds its own runtime
    operators and property engine (`engine` is the last pass's), so no
    per-track state outlives it; `stats` adds up over passes.
    """

    def __init__(
        self,
        vprog: ValidatedProgram,
        registry: Registry,
        meta: Optional[VideoMeta],
        config: Optional[ExecConfig] = None,
    ):
        self.config = config or ExecConfig()
        self.vprog = vprog
        self.registry = registry
        self.meta = meta
        self.stats = ExecStats()
        self.engine: Optional[PropertyEngine] = None
        self._schedule: dict = {}  # the pass in progress (`start`)
        self._sinks: list = []

    def _compile(self, dags: list[PlanDag]):
        """The pass's schedule, signature -> (runtime op, input signatures):
        every plan in order, each in topological order, the first op of
        each signature built once (a shared relation projector takes each
        plan's bound, `RelationProjectorOp.widen`; a duration or temporal
        sink is built over its input sinks, not scheduled); an op with no
        inputs reads `TRACE`.  Also returns each plan's sink (`_sink`), and
        links each built op into the pass (`RuntimeOp.link`) with its first
        input's op and part types.  A tracker owns its input
        (`TrackerOp.owns_input`) when that is a detector's batch that no
        other scheduled operator reads."""
        schedule: dict[str, tuple[RuntimeOp, list[str]]] = {}
        parts: dict[str, tuple] = {TRACE: ()}  # types of each one's parts
        sinks = []
        for dag in dags:
            sigs: dict[str, str] = {}
            ops: dict[str, Any] = {}
            for op_id in dag.topo_order():
                pop = dag.ops[op_id]
                if pop.kind in SINK_CLASSES:
                    inputs = [_sink(dag, ops, i) for i in pop.inputs]
                    try:
                        ops[op_id] = SINK_CLASSES[pop.kind](
                            op_id, pop.params, inputs)
                    except KeyError as exc:
                        raise PlanLinkError(
                            f"{op_id}: missing param {exc}") from exc
                    continue
                input_sigs = [sigs[i] for i in pop.inputs]
                sig = sigs[op_id] = op_signature(pop, input_sigs)
                if sig not in schedule:
                    rt = build_runtime_op(pop, self.registry)
                    reads = input_sigs or [TRACE]
                    parts[sig] = _parts(rt, op_id, [parts[s] for s in reads])
                    source = schedule[input_sigs[0]][0] if input_sigs else None
                    rt.link(self.engine, source, parts[reads[0]])
                    schedule[sig] = (rt, reads)
                elif pop.kind == "relation_projector":
                    schedule[sig][0].widen(
                        build_runtime_op(pop, self.registry).bound)
                ops[op_id] = schedule[sig][0]
            sinks.append(_sink(dag, ops, dag.sink))
        consumers = Counter(s for _rt, ins in schedule.values() for s in ins)
        for rt, ins in schedule.values():
            if isinstance(rt, TrackerOp):  # its input is never `TRACE`
                rt.owns_input = consumers[ins[0]] == 1 and \
                    isinstance(schedule[ins[0]][0], DetectorOp)
        return schedule, sinks

    def _inputs_digest(self, trace_digest: str) -> str:
        """What a result depends on besides its plan: the trace content, the
        video meta (its frame count bounds the run), every registration
        (costs, error profiles, detector and gate params) and the program's
        property definitions, which plan ids name but do not hold."""
        meta = None if self.meta is None else vars(self.meta)
        props = {t: [vars(replace(p, loc=None)) for p in ft.props.values()]
                 for t, ft in self.vprog.types.items()}
        payload = json.dumps(
            [trace_digest, meta, self.registry.digest(), props],
            sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def start(self, dags: list[PlanDag]) -> None:
        """Compile the schedule of `dags` and build a fresh property engine,
        so no per-track state outlives the pass."""
        self.engine = PropertyEngine(
            self.vprog, self.registry, self.meta, self.config, self.stats
        )
        self._schedule, self._sinks = self._compile(dags)

    def feed(self, base: Batch) -> None:
        """Run every scheduled operator once over one batch of initial frame
        states (`trace_batches`)."""
        out = {TRACE: base}
        for sig, (rt, input_sigs) in self._schedule.items():
            self.stats.count_op(sig)
            out[sig] = rt.process(self.engine, [out[s] for s in input_sigs])

    def finish(self) -> list[QueryOutcome]:
        """The outcome of each started plan, in order; ends the pass and
        releases its operators."""
        outcomes = [sink.outcome() for sink in self._sinks]
        self._schedule, self._sinks = {}, []
        return outcomes

    def run(
        self,
        dags: list[PlanDag],
        trace_path,
        result_store: Optional[ResultStore] = None,
    ) -> list[QueryOutcome]:
        trace_path = Path(trace_path)
        outcomes: list[Optional[QueryOutcome]] = [None] * len(dags)
        inputs_digest = None
        if result_store is not None:
            with trace_path.open("rb") as fh:
                # a read allocates all it asks for: ask for no more than the
                # file holds
                size = min(os.fstat(fh.fileno()).st_size, TRACE_CHUNK)
                digest = hashlib.sha256(fh.read(size))
                while chunk := fh.read(size):
                    digest.update(chunk)
            inputs_digest = self._inputs_digest(digest.hexdigest())
        pending = []
        for i, dag in enumerate(dags):
            if result_store is not None:
                outcomes[i] = result_store.get(inputs_digest, dag.plan_id)
                if outcomes[i] is not None:
                    continue
            pending.append(i)

        self.start([dags[i] for i in pending])
        if pending:
            for base in trace_batches(trace_path, self.meta,
                                      self.config.batch_size):
                self.feed(base)
        for i, outcome in zip(pending, self.finish()):
            outcomes[i] = outcome
            if result_store is not None:
                result_store.put(inputs_digest, dags[i].plan_id, outcome)
        return outcomes  # type: ignore[return-value]


def run_plans(
    vprog: ValidatedProgram,
    dags: list[PlanDag],
    trace_path,
    registry: Registry,
    meta: Optional[VideoMeta],
    config: Optional[ExecConfig] = None,
    result_store: Optional[ResultStore] = None,
) -> tuple[list[QueryOutcome], ExecStats]:
    """Convenience wrapper: one session, one trace pass, all plans."""
    session = Session(vprog, registry, meta, config)
    outcomes = session.run(dags, trace_path, result_store=result_store)
    return outcomes, session.stats

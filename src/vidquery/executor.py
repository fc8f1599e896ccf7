"""Plan execution: lazy property evaluation, intrinsic-value memoization,
cross-query operator sharing, and deterministic result serialization."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from .datamodel import (
    UNDEFINED,
    EdgeKind,
    SchemaError,
    Track,
    VObjInstance,
    is_defined,
    window,
)
from .dsl.ast import And, Compare, Not, Or
from .dsl.validate import ValidatedProgram
from .operators import (
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
    compare,
    count_distinct_tracks,
    eval_duration,
    eval_temporal,
)
from .planner import PlanDag, PlanOp, decode_expr
from .registry import PropContext, Registry, call_property_impl
from .trace_io import VideoMeta, batch as batch_records, open_trace


@dataclass
class ExecConfig:
    batch_size: int = 16
    lazy: bool = True
    memo: bool = True

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class ExecStats:
    """Counted work: component calls, property-function entries, cost units,
    and operator invocations."""

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

    def count_op(self, op_id: str) -> None:
        self.op_invocations[op_id] += 1

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
    """On-demand property evaluation over frame-graph nodes.

    A property is computed at most once per node; intrinsic values are
    additionally memoized per track.  A stateful property whose history
    window is not yet full is Undefined without entering the implementation.
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
        self.memo: dict[tuple[str, int, str], Any] = {}
        self.tracks: dict[tuple[str, int], Track] = {}
        self.presence: dict[str, dict[int, set[int]]] = {}

    # -- track bookkeeping --

    def touch_track(self, vobj: str, track_id: int, frame_id: int) -> None:
        key = (vobj, track_id)
        if key not in self.tracks:
            ftype = self.vprog.types[vobj]
            self.tracks[key] = Track.create(
                track_id, vobj, dict(ftype.window_bounds),
                slack=self.config.batch_size,
            )
        self.presence.setdefault(vobj, {}).setdefault(track_id, set()).add(frame_id)

    def _track_for(self, node: VObjInstance) -> Optional[Track]:
        if node.track_id is None:
            return None
        return self.tracks.get((node.class_name, node.track_id))

    # -- property evaluation --

    def get(self, node: VObjInstance, prop: str):
        if prop == "bbox":
            return node.bbox
        if prop == "frame_rate":
            return self.meta.fps if self.meta else UNDEFINED
        if prop in node.properties:
            return node.properties[prop]
        ftype = self.vprog.types.get(node.class_name)
        if ftype is None or prop not in ftype.props:
            raise SchemaError(
                f"{node.class_name} has no property {prop!r}"
            )
        pdef = ftype.props[prop]

        memo_key = None
        if self.config.memo and pdef.intrinsic and node.track_id is not None:
            memo_key = (node.class_name, node.track_id, prop)
            if memo_key in self.memo:
                value = self.memo[memo_key]
                node.properties[prop] = value
                self._feed(ftype, node, prop, value)
                return value

        reg = self.registry.resolve_property_fn(pdef.impl)
        name = f"{node.class_name}.{prop}"
        if pdef.kind == "stateful":
            track = self._track_for(node)
            win = UNDEFINED if track is None else window(
                track, pdef.deps[0], pdef.window, end_frame=node.frame_id
            )
            if win is UNDEFINED:
                value = UNDEFINED  # warm-up: no implementation entry
            else:
                self.stats.count_property(name, reg.cost_units)
                value = call_property_impl(reg, PropContext(
                    node=node, deps={}, window_values=win,
                    meta=self.meta, params={},
                ))
        else:
            deps, undefined = {}, False
            for dep in pdef.deps:
                v = self.get(node, dep)
                deps[dep] = v
                if not is_defined(v):
                    undefined = True
            if undefined:
                value = UNDEFINED
            else:
                self.stats.count_property(name, reg.cost_units)
                value = call_property_impl(reg, PropContext(
                    node=node, deps=deps, window_values=None,
                    meta=self.meta, params={},
                ))

        node.properties[prop] = value
        if memo_key is not None and is_defined(value):
            self.memo[memo_key] = value
        self._feed(ftype, node, prop, value)
        return value

    def _feed(self, ftype, node: VObjInstance, prop: str, value) -> None:
        if prop in ftype.feeders:
            track = self._track_for(node)
            if track is not None:
                track.record(prop, node.frame_id, value)

    def project(self, node: VObjInstance, prop: str) -> None:
        """Projector entry point: history feeders always run so windows fill;
        everything else waits for demand when lazy evaluation is on."""
        ftype = self.vprog.types.get(node.class_name)
        if ftype is None:
            return
        if not self.config.lazy or prop in ftype.feeders:
            self.get(node, prop)

    # -- predicate evaluation --

    def _resolve(self, ref, env: dict, edge) -> Any:
        if ref.relation is not None:
            if edge is None:
                raise InternalError(
                    f"relation reference {ref.relation}.{ref.prop} outside an "
                    f"edge context"
                )
            return edge.properties.get(ref.prop, UNDEFINED)
        node = env.get(ref.binding)
        if node is None:
            raise InternalError(f"unbound predicate binding {ref.binding!r}")
        return self.get(node, ref.prop)

    def verdict(self, expr, env: dict, edge=None) -> Optional[bool]:
        """Kleene three-valued verdict: a comparison on an Undefined operand
        (e.g. a stateful property still warming up) is None, `!` keeps None,
        `&` stops at the first False and `|` at the first True, and an
        absent predicate is True.  `edge` resolves relation references."""
        if expr is None:
            return True
        if isinstance(expr, Compare):
            value = self._resolve(expr.ref, env, edge)
            if not is_defined(value):
                return None
            return compare(value, expr.op, expr.literal)
        if isinstance(expr, Not):
            v = self.verdict(expr.item, env, edge)
            return None if v is None else not v
        if isinstance(expr, (And, Or)):
            stop = isinstance(expr, Or)  # the value that decides alone
            result = not stop
            for item in expr.items:
                v = self.verdict(item, env, edge)
                if v is stop:
                    return stop
                if v is None:
                    result = None
            return result
        raise InternalError(f"not a predicate: {expr!r}")


@dataclass
class RunContext:
    engine: PropertyEngine
    stats: ExecStats
    meta: Optional[VideoMeta]


# --- sink-side runtime operators -------------------------------------------

class OutputOp(RuntimeOp):
    """Collects satisfied frames, per-frame result rows, and per-track
    satisfaction sets for the downstream evaluators."""

    kind = "output"

    def __init__(self, op_id: str, params: dict):
        super().__init__(op_id, params)
        self.query = params["query"]
        self.bindings = [tuple(b) for b in params["bindings"]]
        self.frame_output = params.get("frame_output", [])
        self.relation = params.get("relation")
        self.satisfied: set[int] = set()
        self.rows: list[dict] = []
        self.track_sat: dict[str, dict[int, set[int]]] = {}

    def process(self, ctx, inputs: list[Batch]) -> Batch:
        types = dict(self.bindings)
        for fs in inputs[0]:
            ok = all(fs.graph.nodes_of(t) for _b, t in self.bindings)
            if ok and self.relation is not None:
                ok = any(
                    e.kind is EdgeKind.SPATIAL and e.relation == self.relation
                    for e in fs.graph.edges
                )
            if not ok:
                continue
            self.satisfied.add(fs.frame_id)
            row: dict[str, Any] = {"frame": fs.frame_id, "objects": {}}
            for b, t in self.bindings:
                nodes = sorted(fs.graph.nodes_of(t), key=lambda n: n.node_id)
                row["objects"][b] = [
                    {
                        "node": list(n.node_id),
                        "track": n.track_id,
                        "bbox": list(n.bbox),
                    }
                    for n in nodes
                ]
                sat = self.track_sat.setdefault(b, {})
                for n in nodes:
                    if n.track_id is not None:
                        sat.setdefault(n.track_id, set()).add(fs.frame_id)
            outputs = {}
            for ref in self.frame_output:
                b, prop = ref["binding"], ref["prop"]
                nodes = sorted(
                    fs.graph.nodes_of(types[b]), key=lambda n: n.node_id
                )
                outputs[f"{b}.{prop}"] = [
                    _jsonable(ctx.engine.get(n, prop)) for n in nodes
                ]
            if outputs:
                row["outputs"] = outputs
            self.rows.append(row)
        return inputs[0]


class AggregateOp(RuntimeOp):
    """Streams per-track three-valued verdicts of the video constraint."""

    kind = "aggregate"

    def __init__(self, op_id: str, params: dict):
        super().__init__(op_id, params)
        self.agg_kind = params["kind"]
        self.binding = params["binding"]
        self.vobj = params["vobj"]
        self.predicate = params.get("predicate")
        self.per_track: dict[int, list] = {}

    def process(self, ctx, inputs: list[Batch]) -> Batch:
        for fs in inputs[0]:
            for node in sorted(fs.graph.nodes_of(self.vobj),
                               key=lambda n: n.node_id):
                if node.track_id is None:
                    continue
                verdict = ctx.engine.verdict(
                    self.predicate, {self.binding: node}
                )
                self.per_track.setdefault(node.track_id, []).append(verdict)
        return inputs[0]


class FusedOp(RuntimeOp):
    """Runs a fused chain of projector/filter steps as one operator."""

    kind = "fused"

    def __init__(self, op_id: str, params: dict, steps: list[RuntimeOp]):
        super().__init__(op_id, params)
        self.steps = steps

    def process(self, ctx, inputs: list[Batch]) -> Batch:
        batch = inputs[0]
        for step in self.steps:
            batch = step.process(ctx, [batch])
        return batch


# --- runtime op construction ------------------------------------------------

def build_runtime_op(plan_op: PlanOp, registry: Registry) -> RuntimeOp:
    kind, params, op_id = plan_op.kind, plan_op.params, plan_op.op_id
    if kind == "frame_filter":
        return FrameFilterOp(op_id, params)
    if kind == "classifier":
        reg = registry.try_resolve("classifier", params["classifier"])
        if reg is None:
            raise PlanLinkError(
                f"{op_id}: classifier {params['classifier']!r} not registered"
            )
        return ClassifierOp(op_id, params, reg)
    if kind == "detector":
        reg = registry.try_resolve("detector", params["detector"])
        if reg is None:
            raise PlanLinkError(
                f"{op_id}: detector {params['detector']!r} not registered"
            )
        return DetectorOp(op_id, params, reg)
    if kind == "tracker":
        return TrackerOp(op_id, params)
    if kind == "projector":
        return ProjectorOp(op_id, params)
    if kind == "vobj_filter":
        op = VObjFilterOp(op_id, params)
        op.predicate = decode_expr(op.predicate)
        return op
    if kind == "join":
        return JoinOp(op_id, params)
    if kind == "relation_projector":
        return RelationProjectorOp(op_id, params)
    if kind == "relation_filter":
        op = RelationFilterOp(op_id, params)
        op.predicate = decode_expr(op.predicate)
        return op
    if kind == "output":
        return OutputOp(op_id, params)
    if kind == "aggregate":
        op = AggregateOp(op_id, params)
        op.predicate = decode_expr(op.predicate)
        return op
    if kind == "fused":
        steps = [
            build_runtime_op(PlanOp.from_json(s), registry)
            for s in params["steps"]
        ]
        return FusedOp(op_id, params, steps)
    raise PlanLinkError(f"unknown operator kind {kind!r}")


def op_signature(plan_op: PlanOp, input_sigs: list[str]) -> str:
    """Structural identity used for cross-query operator sharing.  Op ids,
    also those of a fused op's steps and their chain-internal inputs, are
    deliberately excluded so identical stages in different plans unify."""
    params = plan_op.params
    if plan_op.kind == "fused":
        params = dict(params, steps=[
            {"kind": s["kind"], "params": s["params"]} for s in params["steps"]
        ])
    payload = json.dumps(
        {"kind": plan_op.kind, "params": params, "inputs": input_sigs},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# --- outcomes ---------------------------------------------------------------

@dataclass
class QueryOutcome:
    query: str
    plan_id: str = ""
    satisfied: list[int] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    video: Optional[dict] = None
    duration_fires: Optional[list] = None
    temporal: Optional[dict] = None

    def labels(self, frame_count: int) -> list[bool]:
        sat = set(self.satisfied)
        return [f in sat for f in range(frame_count)]

    def to_json(self) -> dict:
        # plan_id deliberately omitted: semantically equal plans must yield
        # byte-identical result files regardless of optimization flags
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
        return cls(
            query=obj["query"],
            plan_id=obj.get("plan_id", ""),
            satisfied=list(obj.get("satisfied", [])),
            rows=list(obj.get("frames", [])),
            video=obj.get("video"),
            duration_fires=obj.get("duration_fires"),
            temporal=obj.get("temporal"),
        )


def serialize_outcome(outcome: QueryOutcome) -> str:
    """Byte-stable result text: sorted keys, no timing or host state."""
    return json.dumps(outcome.to_json(), sort_keys=True, indent=2) + "\n"


class ResultStore:
    """Result cache keyed by the trace content digest and the plan id."""

    def __init__(self, root):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key(trace_digest: str, plan_id: str) -> str:
        return hashlib.sha256(f"{trace_digest}:{plan_id}".encode()).hexdigest()

    def _path(self, trace_digest: str, plan_id: str) -> Path:
        return self.root / f"{self.key(trace_digest, plan_id)}.json"

    def get(self, trace_digest: str, plan_id: str) -> Optional[dict]:
        """The cached result, or None on a miss.  An entry that does not
        decode (e.g. truncated) is a miss, so the result is recomputed and
        the entry rewritten."""
        try:
            return json.loads(self._path(trace_digest, plan_id).read_text())
        except (FileNotFoundError, ValueError):
            return None

    def put(self, trace_digest: str, plan_id: str, outcome: QueryOutcome) -> None:
        """Write to a temporary file beside the entry, then rename it into
        place, so a reader never sees a partial entry."""
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(serialize_outcome(outcome))
            os.replace(tmp, self._path(trace_digest, plan_id))
        except BaseException:
            os.unlink(tmp)
            raise


# --- session ----------------------------------------------------------------

class Session:
    """Executes one or more plans over a trace with operator sharing.

    Structurally identical operators across plans resolve to a single runtime
    instance; each batch, an instance runs once and its output batch is
    reused by every consumer.
    """

    def __init__(
        self,
        vprog: ValidatedProgram,
        registry: Registry,
        meta: Optional[VideoMeta],
        config: Optional[ExecConfig] = None,
    ):
        self.config = config or ExecConfig()
        self.registry = registry
        self.meta = meta
        self.stats = ExecStats()
        self.engine = PropertyEngine(
            vprog, registry, meta, self.config, self.stats
        )
        self._ops_by_sig: dict[str, RuntimeOp] = {}

    def _compile(self, dags: list[PlanDag]):
        """The session's schedule, signature -> (runtime op, input
        signatures): every plan in order, each in topological order, the
        first op of each signature (a reader has no runtime op).  Duration
        and temporal stages stay out of it; `_finalize` evaluates them.  Also
        returns each plan's op id -> runtime op map."""
        schedule: dict[str, tuple[Optional[RuntimeOp], list[str]]] = {}
        plan_ops = []
        for dag in dags:
            sigs: dict[str, str] = {}
            ops: dict[str, RuntimeOp] = {}
            for op_id in dag.topo_order():
                pop = dag.ops[op_id]
                input_sigs = [sigs[i] for i in pop.inputs]
                sig = sigs[op_id] = op_signature(pop, input_sigs)
                if pop.kind in ("duration", "temporal"):
                    continue
                rt = None
                if pop.kind != "reader":
                    rt = self._ops_by_sig.get(sig)
                    if rt is None:
                        rt = build_runtime_op(pop, self.registry)
                        self._ops_by_sig[sig] = rt
                    ops[op_id] = rt
                schedule.setdefault(sig, (rt, input_sigs))
            plan_ops.append(ops)
        return schedule, plan_ops

    def _stream(self, trace_path):
        limit = self.meta.frame_count if self.meta else None
        for rec in open_trace(trace_path):
            if limit is not None and rec.frame_id >= limit:
                break
            yield rec

    def run(
        self,
        dags: list[PlanDag],
        trace_path,
        result_store: Optional[ResultStore] = None,
    ) -> list[QueryOutcome]:
        trace_path = Path(trace_path)
        outcomes: list[Optional[QueryOutcome]] = [None] * len(dags)
        trace_digest = None
        if result_store is not None:
            trace_digest = hashlib.sha256(trace_path.read_bytes()).hexdigest()
        pending = []
        for i, dag in enumerate(dags):
            if result_store is not None:
                cached = result_store.get(trace_digest, dag.plan_id)
                if cached is not None:
                    outcome = QueryOutcome.from_json(cached)
                    outcome.plan_id = dag.plan_id
                    outcomes[i] = outcome
                    continue
            pending.append(i)

        if pending:
            schedule, plan_ops = self._compile([dags[i] for i in pending])
            ctx = RunContext(self.engine, self.stats, self.meta)
            for records in batch_records(
                self._stream(trace_path), self.config.batch_size
            ):
                base = [FrameState.fresh(r) for r in records]
                out: dict[str, Batch] = {}
                for sig, (rt, input_sigs) in schedule.items():
                    if rt is None:
                        out[sig] = base
                        continue
                    self.stats.count_op(rt.op_id)
                    out[sig] = rt.process(ctx, [out[s] for s in input_sigs])
            for i, ops in zip(pending, plan_ops):
                dag = dags[i]
                outcome = self._finalize(dag, ops, dag.sink)
                outcome.query = dag.query
                outcome.plan_id = dag.plan_id
                outcomes[i] = outcome
                if result_store is not None:
                    result_store.put(trace_digest, dag.plan_id, outcome)
        return outcomes  # type: ignore[return-value]

    def _finalize(self, dag: PlanDag, ops: dict[str, RuntimeOp],
                  op_id: str) -> QueryOutcome:
        pop = dag.ops[op_id]
        if pop.kind == "output":
            rt = ops[op_id]
            assert isinstance(rt, OutputOp)
            return QueryOutcome(
                query=rt.query,
                satisfied=sorted(rt.satisfied),
                rows=sorted(rt.rows, key=lambda r: r["frame"]),
            )
        if pop.kind == "aggregate":
            rt = ops[op_id]
            assert isinstance(rt, AggregateOp)
            base = self._finalize(dag, ops, pop.inputs[0])
            value = count_distinct_tracks(rt.per_track)
            per_track = {
                str(t): {
                    "true": sum(1 for v in vs if v is True),
                    "false": sum(1 for v in vs if v is False),
                    "undefined": sum(1 for v in vs if v is None),
                }
                for t, vs in sorted(rt.per_track.items())
            }
            base.video = {
                "aggregate": rt.agg_kind,
                "binding": rt.binding,
                "value": value,
                "per_track": per_track,
            }
            return base
        if pop.kind == "duration":
            base = self._finalize(dag, ops, pop.inputs[0])
            out_op = self._sink_output(dag, ops, pop.inputs[0])
            binding, vobj = out_op.bindings[0]
            satisfied = {
                t: frames
                for t, frames in out_op.track_sat.get(binding, {}).items()
            }
            present = self.engine.presence.get(vobj, {})
            fires = eval_duration(
                satisfied, present,
                min_frames=pop.params["min_frames"],
                gap_tolerance=pop.params.get("gap_tolerance", 0),
            )
            base.duration_fires = [list(p) for p in sorted(fires)]
            fire_frames = sorted({f for _t, f in fires})
            base.satisfied = fire_frames
            base.rows = [r for r in base.rows if r["frame"] in set(fire_frames)]
            return base
        if pop.kind == "temporal":
            first = self._finalize(dag, ops, pop.inputs[0])
            then = self._finalize(dag, ops, pop.inputs[1])
            matched, witnesses = eval_temporal(
                first.satisfied, then.satisfied, pop.params["max_interval"]
            )
            return QueryOutcome(
                query=dag.query,
                satisfied=sorted({s for _e, s in witnesses}),
                rows=[],
                temporal={
                    "matched": matched,
                    "witnesses": [list(w) for w in witnesses],
                    "first": first.to_json(),
                    "then": then.to_json(),
                },
            )
        raise InternalError(f"{op_id}: kind {pop.kind!r} is not a sink")

    def _sink_output(self, dag: PlanDag, ops: dict[str, RuntimeOp],
                     op_id: str) -> OutputOp:
        pop = dag.ops[op_id]
        if pop.kind == "output":
            rt = ops[op_id]
            assert isinstance(rt, OutputOp)
            return rt
        return self._sink_output(dag, ops, pop.inputs[0])


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

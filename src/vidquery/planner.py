"""Query planning: plan construction (each branch laid out with its
detector gates, pulled-up filter and fused chain), inheritance-based
alternatives, canary profiling, and plan selection."""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Optional

from .dsl.ast import (COMPARISON_OPS, ORDERED_OPS, And, Compare, Not, Or,
                       PropRef, conjoin, conjuncts, walk_refs)
from .dsl.validate import SCENE_TYPE, FlatQuery, FlatVObjType, ValidatedProgram
from .registry import Registration, Registry, RegistryError
from .trace_io import VideoMeta
from .tracker import TrackerConfig

PLAN_VERSION = 7
# the number of inputs an op of each kind takes; any other kind takes 1
_INPUT_COUNTS = {"reader": range(0, 1), "join": range(2, sys.maxsize),
                "temporal": range(2, 3)}
MAX_ALTERNATIVES = 32  # candidates `enumerate_alternatives` returns at most


class PlanError(Exception):
    """Query cannot be planned (unsatisfiable dependency, missing detector)."""


class PlanLoadError(Exception):
    """Plan file is corrupted, incompatible, or does not link."""


class ProfilingError(Exception):
    """Canary profiling cannot run (e.g. empty canary)."""


# --- predicate (de)serialization -------------------------------------------

def encode_expr(expr) -> Any:
    if expr is None:
        return None
    if isinstance(expr, Compare):
        r = expr.ref
        lit = list(expr.literal) if isinstance(expr.literal, tuple) else expr.literal
        return {
            "cmp": {
                "binding": r.binding, "prop": r.prop,
                "relation": r.relation,
                "args": list(r.args) if r.args else None,
                "op": expr.op, "literal": lit,
            }
        }
    if isinstance(expr, And):
        return {"and": [encode_expr(i) for i in expr.items]}
    if isinstance(expr, Or):
        return {"or": [encode_expr(i) for i in expr.items]}
    if isinstance(expr, Not):
        return {"not": encode_expr(expr.item)}
    raise TypeError(f"not an expression: {expr!r}")


def decode_expr(obj):
    """The expression `encode_expr` encoded.  PlanLoadError for an unknown
    encoding or comparison operator, an ordered comparison with a literal
    that is no number, or `in` without a list."""
    if obj is None:
        return None
    if "cmp" in obj:
        c = obj["cmp"]
        op, lit = c["op"], c["literal"]
        if op not in COMPARISON_OPS:
            raise PlanLoadError(f"unknown comparison operator {op!r}")
        if op in ORDERED_OPS and (not isinstance(lit, (int, float))
                                  or isinstance(lit, bool)):
            raise PlanLoadError(f"{op!r} needs a number, got {lit!r}")
        if op == "in" and not isinstance(lit, list):
            raise PlanLoadError(f"'in' needs a list, got {lit!r}")
        return Compare(
            ref=PropRef(
                binding=c["binding"], prop=c["prop"], relation=c["relation"],
                args=tuple(c["args"]) if c["args"] else None,
            ),
            op=op, literal=tuple(lit) if isinstance(lit, list) else lit,
        )
    if "and" in obj:
        return And(tuple(decode_expr(i) for i in obj["and"]))
    if "or" in obj:
        return Or(tuple(decode_expr(i) for i in obj["or"]))
    if "not" in obj:
        return Not(decode_expr(obj["not"]))
    raise PlanLoadError(f"bad expression encoding: {obj!r}")


def encode_ref(ref: PropRef) -> dict:
    return {"binding": ref.binding, "prop": ref.prop}


# --- plan structure ---------------------------------------------------------

@dataclass
class PlanOp:
    op_id: str
    kind: str
    params: dict = field(default_factory=dict)
    inputs: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "op_id": self.op_id, "kind": self.kind, "params": self.params,
            "inputs": self.inputs,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PlanOp":
        """The op whose `to_json` is `obj`: PlanLoadError unless it has a
        string id and kind, an object of params and a list of input ids, as
        many as its kind takes (`_INPUT_COUNTS`)."""
        op_id, kind, params, inputs = (
            obj.get(k) for k in ("op_id", "kind", "params", "inputs"))
        if not isinstance(op_id, str):
            raise PlanLoadError(f"op id {op_id!r} is not a string")
        if not isinstance(kind, str):
            raise PlanLoadError(f"op {op_id!r}: kind {kind!r} is not a string")
        if not isinstance(params, dict):
            raise PlanLoadError(f"op {op_id!r}: params are not an object")
        if not isinstance(inputs, list) or \
                not all(isinstance(i, str) for i in inputs):
            raise PlanLoadError(
                f"op {op_id!r}: inputs {inputs!r} are not a list of op ids")
        count = _INPUT_COUNTS.get(kind, range(1, 2))
        if len(inputs) not in count:
            want = f"{count.start} or more" if len(count) > 1 \
                else str(count.start)
            raise PlanLoadError(
                f"op {op_id!r}: kind {kind!r} takes {want} "
                f"input{'' if want == '1' else 's'}, not {len(inputs)}")
        return cls(op_id, kind, params, inputs)


@dataclass
class PlanDag:
    query: str
    ops: dict[str, PlanOp] = field(default_factory=dict)
    sink: str = ""

    def add(self, op: PlanOp) -> PlanOp:
        if op.op_id in self.ops:
            raise PlanError(f"duplicate operator id {op.op_id!r}")
        self.ops[op.op_id] = op
        return op

    def topo_order(self) -> list[str]:
        order, seen = [], set()

        def visit(op_id: str, stack: tuple):
            if op_id in seen:
                return
            if op_id in stack:
                raise PlanError(f"cycle through {op_id!r}")
            for dep in self.ops[op_id].inputs:
                visit(dep, stack + (op_id,))
            seen.add(op_id)
            order.append(op_id)

        for op_id in self.ops:
            visit(op_id, ())
        return order

    def canonical(self) -> dict:
        return {
            "version": PLAN_VERSION,
            "query": self.query,
            "sink": self.sink,
            "ops": [self.ops[i].to_json() for i in sorted(self.ops)],
        }

    @property
    def plan_id(self) -> str:
        payload = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def to_json(self) -> dict:
        return self.canonical()

    @classmethod
    def from_json(cls, obj) -> "PlanDag":
        """The plan whose `to_json` is `obj`: PlanLoadError unless it has
        this format's version, a string query, a list of ops of the shape
        `PlanOp.from_json` takes, whose ids differ and whose inputs name ops
        of the plan and form no cycle, and a string sink that names one of
        its ops.  Duration and temporal ops make no frames, so only they
        read them."""
        if not isinstance(obj, dict):
            raise PlanLoadError("a plan is a JSON object")
        if obj.get("version") != PLAN_VERSION:
            raise PlanLoadError(
                f"plan version {obj.get('version')!r} unsupported "
                f"(expected {PLAN_VERSION})"
            )
        query, sink, ops = obj.get("query"), obj.get("sink"), obj.get("ops")
        if not isinstance(query, str):
            raise PlanLoadError(f"plan query {query!r} is not a string")
        if not isinstance(ops, list) or \
                not all(isinstance(o, dict) for o in ops):
            raise PlanLoadError("plan ops are not a list of objects")
        if not isinstance(sink, str):
            raise PlanLoadError(f"plan sink {sink!r} is not a string")
        dag = cls(query=query, sink=sink)
        try:
            for op_obj in ops:
                dag.add(PlanOp.from_json(op_obj))
            for op in dag.ops.values():
                for i in op.inputs:
                    if i not in dag.ops:
                        raise PlanLoadError(
                            f"op {op.op_id!r}: input {i!r} names no op")
                    if dag.ops[i].kind in ("duration", "temporal") \
                            and op.kind not in ("duration", "temporal"):
                        raise PlanLoadError(
                            f"op {op.op_id!r}: input {i!r} makes no frames")
            if sink not in dag.ops:
                raise PlanLoadError(f"plan sink {sink!r} names no op")
            # keep deterministic execution order
            dag.ops = {i: dag.ops[i] for i in dag.topo_order()}
        except PlanError as exc:  # a duplicate id or a cycle
            raise PlanLoadError(str(exc)) from exc
        return dag


@dataclass
class PlannerConfig:
    accuracy_target: float = 0.9
    canary_frames: int = 0  # 0 means the whole canary trace
    batch_size: int = 16  # of the profiling sessions

    def __post_init__(self):
        if not 0.0 <= self.accuracy_target <= 1.0:
            raise ValueError("accuracy_target must be in [0, 1]")
        if not 1 <= self.batch_size <= sys.maxsize:
            raise ValueError(f"batch_size must be in [1, {sys.maxsize}]")


@dataclass
class ProfileReport:
    plan_id: str
    f1: float
    cost_units: float
    op_count: int
    breakdown: dict[str, float] = field(default_factory=dict)


# --- plan construction ------------------------------------------------------

def _needed_props(ftype: FlatVObjType, prop_names: set[str]) -> list[str]:
    """Requested properties plus transitive dependencies, in dependency
    order per the type's topological property order."""
    needed: set[str] = set()

    def expand(name: str):
        if name in needed or name not in ftype.props:
            return
        needed.add(name)
        for dep in ftype.props[name].deps:
            expand(dep)

    for name in prop_names:
        expand(name)
    return [p for p in ftype.prop_order if p in needed]


def _has_stateful(ftype: FlatVObjType, props: list[str]) -> bool:
    return any(ftype.props[p].kind == "stateful" for p in props)


def _has_intrinsic(ftype: FlatVObjType, props: list[str]) -> bool:
    return any(ftype.props[p].intrinsic for p in props)


def _interval_frames(frames: Optional[int], seconds: Optional[float],
                     meta: Optional[VideoMeta], what: str, least: int) -> int:
    """`frames`, or `seconds` rounded to frames and at least `least`."""
    if frames is not None:
        return frames
    if meta is None:
        raise PlanError(f"{what}: seconds given but no video metadata to convert")
    return max(least, round(seconds * meta.fps))


def plan_query(
    vprog: ValidatedProgram,
    query_name: str,
    registry: Registry,
    config: Optional[PlannerConfig] = None,
    meta: Optional[VideoMeta] = None,
    detector_overrides: Optional[dict[str, str]] = None,
) -> PlanDag:
    """One branch per bound VObj type, joined, then relation stages, then
    higher-order evaluators and the output/aggregate stage.

    Zero-error classifiers and auto frame filters gate each detector, and
    each branch's filter runs right after the last projector its predicate
    needs.  A branch's chain of two or more projector/filter steps after
    the detector or tracker runs as one fused op.  `detector_overrides`
    maps a binding, behind the path of its sub-plan (`"reds/c"` in a
    temporal query whose first part is `reds`), to the detector it runs.
    Planning reads no setting: `config` is not read, and stays only for
    callers that pass `meta` by position."""
    return _build(vprog, query_name, registry, meta,
                  detector_overrides or {}, require_tracker=False, prefix="")


def _build(
    vprog: ValidatedProgram,
    query_name: str,
    registry: Registry,
    meta: Optional[VideoMeta],
    overrides: dict[str, str],
    require_tracker: bool,
    prefix: str,
) -> PlanDag:
    fq = vprog.queries.get(query_name)
    if fq is None:
        raise PlanError(f"unknown query {query_name!r}")

    if fq.kind == "duration":
        dag = _build(
            vprog, fq.base, registry, meta, overrides,
            require_tracker=True, prefix=f"{prefix}{fq.base}/",
        )
        dag.query = query_name
        dur = dag.add(PlanOp(
            op_id=f"{prefix}duration:{query_name}",
            kind="duration",
            params={
                "query": query_name,
                "min_frames": _interval_frames(
                    fq.min_frames, fq.min_seconds, meta, query_name, 1),
                "gap_tolerance": fq.gap_tolerance,
            },
            inputs=[dag.sink],
        ))
        dag.sink = dur.op_id
        return dag

    if fq.kind == "temporal":
        # each sub-plan's ids sit under its own path of query names, so two
        # ops of one id are the same op
        d1 = _build(vprog, fq.first, registry, meta, overrides,
                    require_tracker=False, prefix=f"{prefix}{fq.first}/")
        d2 = _build(vprog, fq.then, registry, meta, overrides,
                    require_tracker=False, prefix=f"{prefix}{fq.then}/")
        dag = PlanDag(query=query_name)
        for sub in (d1, d2):
            for op in sub.ops.values():
                if op.op_id not in dag.ops:
                    dag.add(op)
        tmp = dag.add(PlanOp(
            op_id=f"{prefix}temporal:{query_name}",
            kind="temporal",
            params={
                "query": query_name,
                "max_interval": _interval_frames(
                    fq.max_interval_frames, fq.max_interval_seconds, meta,
                    query_name, 0),
            },
            inputs=[d1.sink, d2.sink],
        ))
        dag.sink = tmp.op_id
        return dag

    # basic or spatial
    dag = PlanDag(query=query_name)
    reader_id = "reader"
    dag.add(PlanOp(op_id=reader_id, kind="reader"))

    vobj_bindings = [(b, t) for b, t in fq.bindings if t != SCENE_TYPE]

    # scene predicates become frame filters right after the reader
    head = reader_id
    for i, conj in enumerate(fq.scene_conjs):
        ff = dag.add(PlanOp(
            op_id=f"{prefix}scene_filter:{i}",
            kind="frame_filter",
            params={
                "channel": conj.ref.prop,
                "mode": "threshold",
                "op": conj.op,
                "threshold": conj.literal,
            },
            inputs=[head],
        ))
        head = ff.op_id

    out_refs_by_binding: dict[str, list[PropRef]] = {}
    for ref in fq.frame_output:
        out_refs_by_binding.setdefault(ref.binding, []).append(ref)

    # the video constraint and the relation predicate read object properties
    # after the filters; project them too, so they are evaluated eagerly when
    # laziness is off and `tracker_needed` sees the stateful or intrinsic ones
    late_refs_by_binding: dict[str, set[str]] = {}
    for expr in (fq.video_pred, fq.relation_pred):
        for ref in walk_refs(expr):
            if ref.relation is None:
                late_refs_by_binding.setdefault(ref.binding, set()).add(ref.prop)

    branch_tails = []
    for binding, vobj in vobj_bindings:
        ftype = vprog.types[vobj]
        det_name = overrides.get(f"{prefix}{binding}") or ftype.detector
        det_reg = registry.try_resolve("detector", det_name)
        if det_reg is None:
            raise PlanError(f"{query_name}: detector {det_name!r} not registered")

        pred = conjoin(_prune_subsumed(fq.binding_conjs[binding], det_reg))
        pred_props = {r.prop for r in walk_refs(pred)}
        needed = _needed_props(ftype, pred_props.union(
            (r.prop for r in out_refs_by_binding.get(binding, [])),
            late_refs_by_binding.get(binding, set()),
        ))

        # tracker presence is structural, not an optimization: disabling
        # memoization at run time must not change the plan or its output
        tracker_needed = (
            require_tracker
            or _has_stateful(ftype, needed)
            or fq.video_output is not None
            or _has_intrinsic(ftype, needed)
        )

        det_id = f"{prefix}detector:{binding}"
        prev = head
        for gate in _gates(registry, ftype, det_id):
            gate.inputs = [prev]
            prev = dag.add(gate).op_id
        prev = dag.add(PlanOp(
            op_id=det_id,
            kind="detector",
            params={"detector": det_name, "vobj": vobj},
            inputs=[prev],
        )).op_id
        if tracker_needed:
            prev = dag.add(PlanOp(
                op_id=f"{prefix}tracker:{binding}",
                kind="tracker",
                params={"vobj": vobj, "config": TrackerConfig().to_json()},
                inputs=[prev],
            )).op_id

        steps = [
            PlanOp(op_id=f"{prefix}proj:{binding}.{prop}", kind="projector",
                   params={"prop": prop})
            for prop in needed
        ]
        if pred is not None:  # right after the last projector it needs
            closure = set(_needed_props(ftype, pred_props))
            at = max((i + 1 for i, prop in enumerate(needed)
                      if prop in closure), default=0)
            steps.insert(at, PlanOp(
                op_id=f"{prefix}filter:{binding}",
                kind="vobj_filter",
                params={"binding": binding, "predicate": encode_expr(pred)},
            ))
        if len(steps) > 1:
            # a step is what it runs: its id and input are the chain's
            steps = [PlanOp(
                op_id=f"fused:{steps[0].op_id}",
                kind="fused",
                params={"steps": [{"kind": s.kind, "params": s.params}
                                  for s in steps]},
            )]
        for step in steps:
            step.inputs = [prev]
            prev = dag.add(step).op_id
        branch_tails.append(prev)

    if not branch_tails:
        raise PlanError(f"{query_name}: no VObj bindings to plan")

    if len(branch_tails) > 1:  # input i becomes part i, binding i's
        tail = dag.add(PlanOp(
            op_id=f"{prefix}join",
            kind="join",
            inputs=branch_tails,
        )).op_id
    else:
        tail = branch_tails[0]

    if fq.kind == "spatial":
        rel = vprog.relations[fq.relation]
        rel_props = {
            r.prop for r in walk_refs(fq.relation_pred)
            if r.relation == fq.relation
        }
        impls = {
            pd.name: pd.impl for pd in rel.properties if pd.name in rel_props
        }
        (b1, _t1), (b2, _t2) = vobj_bindings
        tail = dag.add(PlanOp(
            op_id=f"{prefix}relproj:{fq.relation}",
            kind="relation_projector",
            params={"relation": fq.relation, "props": impls,
                    "bound": _distance_bound(fq.relation_pred, impls)},
            inputs=[tail],
        )).op_id
        tail = dag.add(PlanOp(
            op_id=f"{prefix}relfilter:{fq.relation}",
            kind="relation_filter",
            params={
                "predicate": encode_expr(fq.relation_pred),
                "args": [b1, b2],
            },
            inputs=[tail],
        )).op_id

    part_bindings = [b for b, _t in vobj_bindings]
    out = dag.add(PlanOp(
        op_id=f"{prefix}output:{query_name}",
        kind="output",
        params={
            "query": query_name,
            "bindings": part_bindings,
            "frame_output": [
                encode_ref(r) for r in fq.frame_output
            ],
        },
        inputs=[tail],
    ))
    dag.sink = out.op_id

    if fq.video_output is not None:
        kind, binding = fq.video_output
        agg = dag.add(PlanOp(
            op_id=f"{prefix}aggregate:{query_name}",
            kind="aggregate",
            params={
                "kind": kind,
                "binding": binding,
                "part": part_bindings.index(binding),
                "predicate": encode_expr(fq.video_pred),
            },
            inputs=[dag.sink],
        ))
        dag.sink = agg.op_id
    return dag


def _distance_bound(pred, impls: dict[str, str]) -> Optional[dict]:
    """A relation projector's `bound`: the first conjunct of a spatial
    predicate that bounds a `distance_px` or `distance_m` property from
    above, `R(a, b).d < T` or `<= T`, or None.  The filter evaluates a
    conjunction in the order written and stops at its first False, so only
    conjuncts that read relation properties alone may come before the
    bound: an object property before it is read, with its cost and any
    error, on every pair."""
    for conj in conjuncts(pred):
        if isinstance(conj, Compare) and conj.op in ("<", "<=") \
                and conj.ref.relation is not None \
                and impls.get(conj.ref.prop) in ("distance_px", "distance_m"):
            return {"prop": conj.ref.prop, "op": conj.op,
                    "limit": conj.literal}
        if any(ref.relation is None for ref in walk_refs(conj)):
            return None
    return None


def _prune_subsumed(conjs: list, det_reg: Registration) -> list:
    """Drop the equality conjuncts of one binding that a specialized
    detector already guarantees."""
    subsumes = det_reg.params.get("subsumes") or {}  # an object, if any
    return [conj for conj in conjs
            if not (isinstance(conj, Compare) and conj.op == "=="
                    and subsumes.get(conj.ref.prop) == conj.literal)]


def _gates(registry: Registry, ftype: FlatVObjType, det_id: str) -> list[PlanOp]:
    """Zero-error classifiers of the type's chain and auto frame filters, to
    run ahead of the detector.  Components with a nonzero error profile are
    left out: they affect accuracy and belong to alternative enumeration."""
    gates: list[PlanOp] = []
    for reg in registry.classifiers_for(ftype.ancestors):
        if reg.error_profile is not None and not reg.error_profile.is_zero:
            continue
        gates.append(PlanOp(
            op_id=f"classifier:{det_id}:{reg.name}",
            kind="classifier",
            params={"classifier": reg.name},
        ))
    for reg in registry.frame_filters_auto():
        if reg.error_profile is not None and not reg.error_profile.is_zero:
            continue
        gates.append(PlanOp(
            op_id=f"gate:{det_id}:{reg.name}",
            kind="frame_filter",
            params={
                "channel": reg.params.get("channel", "motion_score"),
                "mode": reg.params.get("mode", "threshold"),
                "op": reg.params.get("op", ">="),
                "threshold": reg.params.get("threshold", 0.0),
                "tolerance": reg.params.get("tolerance", 0.0),
                "window": reg.params.get("window", 1),
                "cost_units": reg.cost_units,
            },
        ))
    return gates


def enumerate_alternatives(
    vprog: ValidatedProgram,
    query_name: str,
    registry: Registry,
    config: Optional[PlannerConfig] = None,
    meta: Optional[VideoMeta] = None,
) -> list[PlanDag]:
    """Cross product of detector choices per binding along inheritance
    chains; the all-general reference plan comes first.  Each sub-plan's
    bindings are choices of their own, keyed by the sub-plan's path as in
    `plan_query`'s overrides, so a `c` in both parts of a temporal query
    makes two choices.  `config` is not read, as in `plan_query`."""

    def bindings(q: FlatQuery, prefix: str):
        """(override key, VObj type) of every binding of `q`'s sub-plans."""
        if q.kind == "duration":
            return bindings(vprog.queries[q.base], f"{prefix}{q.base}/")
        if q.kind == "temporal":
            return (bindings(vprog.queries[q.first], f"{prefix}{q.first}/")
                    + bindings(vprog.queries[q.then], f"{prefix}{q.then}/"))
        return [(f"{prefix}{b}", t) for b, t in q.bindings if t != SCENE_TYPE]

    combos: list[dict[str, str]] = [{}]  # {} is the type's own detectors
    for key, vobj in dict(bindings(vprog.queries[query_name], "")).items():
        names = [reg.name for reg in registry.specialized_detectors_for(
            vprog.types[vobj].ancestors)]
        combos = [c2 for c in combos
                  for c2 in [c] + [{**c, key: name} for name in names]]
    return [
        plan_query(vprog, query_name, registry, meta=meta,
                   detector_overrides=overrides)
        for overrides in combos[:MAX_ALTERNATIVES]
    ]


# --- profiling and selection ------------------------------------------------

def f1_score(reference: list[bool], candidate: list[bool]) -> float:
    """2PR/(P+R) over frame-level booleans; 1.0 when both are all-negative."""
    if len(reference) != len(candidate):
        raise ValueError("label vectors differ in length")
    tp = sum(1 for r, c in zip(reference, candidate) if r and c)
    fp = sum(1 for r, c in zip(reference, candidate) if not r and c)
    fn = sum(1 for r, c in zip(reference, candidate) if r and not c)
    if tp == 0 and fp == 0 and fn == 0:
        return 1.0
    denom = 2 * tp + fp + fn
    return 2.0 * tp / denom if denom else 0.0


def profile(
    dags: list[PlanDag],
    canary_path,
    meta: VideoMeta,
    vprog: ValidatedProgram,
    registry: Registry,
    config: PlannerConfig,
) -> list[ProfileReport]:
    """Run every candidate once on the canary and score it against the
    labels of the reference, `dags[0]`.  The canary is read once: each batch
    of initial frame states is built once and goes to every candidate's own
    session in turn, so each report counts exactly its candidate's work."""
    from .executor import ExecConfig, Session, trace_batches

    frame_budget = config.canary_frames or meta.frame_count
    if frame_budget <= 0:
        raise ProfilingError("empty canary: nothing to profile")
    canary_meta = replace(meta, frame_count=min(meta.frame_count, frame_budget))
    exec_config = ExecConfig(batch_size=config.batch_size)

    sessions = [Session(vprog, registry, canary_meta, exec_config)
                for _dag in dags]
    for session, dag in zip(sessions, dags):
        session.start([dag])
    for base in trace_batches(canary_path, canary_meta,
                              exec_config.batch_size):
        for session in sessions:
            session.feed(base)
    labels = [session.finish()[0].labels(canary_meta.frame_count)
              for session in sessions]
    return [
        ProfileReport(
            plan_id=dag.plan_id,
            f1=f1_score(labels[0], out_labels),
            cost_units=session.stats.cost_units,
            op_count=len(dag.ops),
            breakdown=dict(sorted(session.stats.component_costs.items())),
        )
        for dag, session, out_labels in zip(dags, sessions, labels)
    ]


def select_plan(
    dags: list[PlanDag],
    reports: list[ProfileReport],
    config: PlannerConfig,
) -> tuple[PlanDag, bool]:
    """Cheapest plan meeting the accuracy target; ties break on operator
    count then plan id.  Falls back to the reference, `dags[0]` (second
    value True), when nothing meets the target."""
    if not reports:
        raise ProfilingError("no profile reports to select from")
    eligible = [
        (r.cost_units, r.op_count, r.plan_id, d)
        for d, r in zip(dags, reports)
        if r.f1 + 1e-12 >= config.accuracy_target
    ]
    if not eligible:
        return dags[0], True
    eligible.sort(key=lambda t: t[:3])
    return eligible[0][3], False


# --- persistence and explain ------------------------------------------------

def save_plan(dag: PlanDag, path) -> None:
    Path(path).write_text(json.dumps(dag.to_json(), sort_keys=True, indent=2))


def load_plan(path, registry: Optional[Registry] = None) -> PlanDag:
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise PlanLoadError(f"cannot read plan file: {exc}") from exc
    dag = PlanDag.from_json(obj)
    if registry is not None:
        for op in dag.ops.values():
            if op.kind in ("detector", "classifier"):
                name = op.params.get(op.kind)
                if not isinstance(name, str) or \
                        registry.try_resolve(op.kind, name) is None:
                    raise PlanLoadError(
                        f"plan references unregistered {op.kind} {name!r}"
                    )
    return dag


def explain_dot(dag: PlanDag, costs: Optional[dict[str, float]] = None) -> str:
    """DOT rendering of the DAG with optional per-operator cost labels; a
    fused op's label lists its steps, each as its kind and property."""
    lines = ["digraph plan {", "  rankdir=LR;"]
    for op_id in dag.topo_order():
        op = dag.ops[op_id]
        label = f"{op.kind}\\n{op_id}"
        for s in op.params["steps"] if op.kind == "fused" else ():
            label += f"\\n{s['kind']} {s['params'].get('prop', '')}".rstrip()
        if costs and op_id in costs:
            label += f"\\ncost={costs[op_id]:g}"
        lines.append(f'  "{op_id}" [label="{label}"];')
    for op in dag.ops.values():
        for src in op.inputs:
            lines.append(f'  "{src}" -> "{op.op_id}";')
    lines.append("}")
    return "\n".join(lines)

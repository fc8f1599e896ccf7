"""Query planning: base DAG construction, predicate pull-up, operator fusion,
inheritance-based alternatives, canary profiling, and plan selection."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Optional

from .dsl.ast import And, Compare, Not, Or, PropRef, conjoin, conjuncts, walk_refs
from .dsl.validate import SCENE_TYPE, FlatQuery, FlatVObjType, ValidatedProgram
from .registry import Registration, Registry, RegistryError
from .trace_io import VideoMeta
from .tracker import TrackerConfig

PLAN_VERSION = 2


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
    if obj is None:
        return None
    if "cmp" in obj:
        c = obj["cmp"]
        lit = tuple(c["literal"]) if isinstance(c["literal"], list) else c["literal"]
        return Compare(
            ref=PropRef(
                binding=c["binding"], prop=c["prop"], relation=c["relation"],
                args=tuple(c["args"]) if c["args"] else None,
            ),
            op=c["op"], literal=lit,
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
        return cls(
            op_id=obj["op_id"], kind=obj["kind"], params=obj["params"],
            inputs=list(obj["inputs"]),
        )


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

    def consumers(self, op_id: str) -> list[str]:
        return [o.op_id for o in self.ops.values() if op_id in o.inputs]

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
    def from_json(cls, obj: dict) -> "PlanDag":
        if obj.get("version") != PLAN_VERSION:
            raise PlanLoadError(
                f"plan version {obj.get('version')!r} unsupported "
                f"(expected {PLAN_VERSION})"
            )
        dag = cls(query=obj["query"], sink=obj["sink"])
        for op_obj in obj["ops"]:
            dag.add(PlanOp.from_json(op_obj))
        # keep deterministic execution order
        dag.ops = {i: dag.ops[i] for i in dag.topo_order()}
        return dag


@dataclass
class PlannerConfig:
    accuracy_target: float = 0.9
    canary_frames: int = 0  # 0 means the whole canary trace
    enable_pullup: bool = True
    enable_fusion: bool = True
    max_alternatives: int = 32
    batch_size: int = 16  # of the profiling sessions
    tracker: TrackerConfig = field(default_factory=TrackerConfig)

    def __post_init__(self):
        if not 0.0 <= self.accuracy_target <= 1.0:
            raise ValueError("accuracy_target must be in [0, 1]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class ProfileReport:
    plan_id: str
    f1: float
    cost_units: float
    op_count: int
    breakdown: dict[str, float] = field(default_factory=dict)


# --- base DAG construction --------------------------------------------------

def _ref_bindings(conj) -> set[str]:
    names = set()
    for ref in walk_refs(conj):
        if ref.relation is not None:
            names.update(ref.args or ())
        else:
            names.add(ref.binding)
    return names


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
        pdef = ftype.props[name]
        if pdef.kind == "stateful":
            expand(pdef.deps[0])

    for name in prop_names:
        expand(name)
    return [p for p in ftype.prop_order if p in needed]


def _has_stateful(ftype: FlatVObjType, props: list[str]) -> bool:
    return any(ftype.props[p].kind == "stateful" for p in props)


def _has_intrinsic(ftype: FlatVObjType, props: list[str]) -> bool:
    return any(ftype.props[p].intrinsic for p in props)


def _interval_frames(frames: Optional[int], seconds: Optional[float],
                     meta: Optional[VideoMeta], what: str) -> int:
    if frames is not None:
        return int(frames)
    if seconds is None:
        raise PlanError(f"{what}: no frame count or time period given")
    if meta is None:
        raise PlanError(f"{what}: seconds given but no video metadata to convert")
    return max(1, round(seconds * meta.fps))


def build_base_dag(
    vprog: ValidatedProgram,
    query_name: str,
    registry: Registry,
    config: PlannerConfig,
    meta: Optional[VideoMeta] = None,
    detector_overrides: Optional[dict[str, str]] = None,
    require_tracker: bool = False,
    _prefix: str = "",
) -> PlanDag:
    """One branch per bound VObj type, joined, then relation stages, then
    higher-order evaluators and the output/aggregate stage."""
    fq = vprog.queries.get(query_name)
    if fq is None:
        raise PlanError(f"unknown query {query_name!r}")
    overrides = detector_overrides or {}

    if fq.kind == "duration":
        dag = build_base_dag(
            vprog, fq.base, registry, config, meta, overrides,
            require_tracker=True, _prefix=f"{fq.base}/",
        )
        dag.query = query_name
        dur = dag.add(PlanOp(
            op_id=f"duration:{query_name}",
            kind="duration",
            params={
                "min_frames": _interval_frames(
                    fq.min_frames, fq.min_seconds, meta, query_name),
                "gap_tolerance": fq.gap_tolerance,
            },
            inputs=[dag.sink],
        ))
        dag.sink = dur.op_id
        return dag

    if fq.kind == "temporal":
        d1 = build_base_dag(vprog, fq.first, registry, config, meta,
                            overrides, _prefix=f"{fq.first}/")
        d2 = build_base_dag(vprog, fq.then, registry, config, meta,
                            overrides, _prefix=f"{fq.then}/")
        dag = PlanDag(query=query_name)
        for sub in (d1, d2):
            for op in sub.ops.values():
                if op.op_id not in dag.ops:
                    dag.add(op)
        tmp = dag.add(PlanOp(
            op_id=f"temporal:{query_name}",
            kind="temporal",
            params={
                "max_interval": _interval_frames(
                    fq.max_interval_frames, fq.max_interval_seconds, meta,
                    query_name),
            },
            inputs=[d1.sink, d2.sink],
        ))
        dag.sink = tmp.op_id
        return dag

    # basic or spatial
    dag = PlanDag(query=query_name)
    p = _prefix
    reader_id = "reader"
    dag.add(PlanOp(op_id=reader_id, kind="reader"))

    scene_bindings = {b for b, t in fq.bindings if t == SCENE_TYPE}
    vobj_bindings = [(b, t) for b, t in fq.bindings if t != SCENE_TYPE]

    conj_all = conjuncts(fq.frame_pred)
    scene_conjs, binding_conjs = [], {b: [] for b, _t in vobj_bindings}
    for conj in conj_all:
        names = _ref_bindings(conj)
        if names and names <= scene_bindings:
            scene_conjs.append(conj)
        else:
            vnames = [n for n in names if n not in scene_bindings]
            if len(vnames) != 1:
                raise PlanError(
                    f"{query_name}: conjunct references bindings {sorted(names)}"
                )
            binding_conjs[vnames[0]].append(conj)

    # scene predicates become frame filters right after the reader
    head = reader_id
    for i, conj in enumerate(scene_conjs):
        if not isinstance(conj, Compare):
            raise PlanError(
                f"{query_name}: scene constraints must be plain comparisons"
            )
        ff = dag.add(PlanOp(
            op_id=f"{p}scene_filter:{i}",
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
    # after the filters; project them too, so stateful windows fill
    late_refs_by_binding: dict[str, set[str]] = {}
    for expr in (fq.video_pred, fq.relation_pred):
        for ref in walk_refs(expr):
            if ref.relation is None:
                late_refs_by_binding.setdefault(ref.binding, set()).add(ref.prop)

    branch_tails, required = [], []
    for binding, vobj in vobj_bindings:
        ftype = vprog.types.get(vobj)
        if ftype is None:
            raise PlanError(f"{query_name}: unknown VObj type {vobj!r}")
        det_name = overrides.get(binding) or ftype.detector
        if det_name is None:
            raise PlanError(f"{query_name}: no detector for {vobj!r}")
        det_reg = registry.try_resolve("detector", det_name)
        if det_reg is None:
            raise PlanError(f"{query_name}: detector {det_name!r} not registered")

        pred = conjoin(_prune_subsumed(binding_conjs[binding], binding, det_reg))
        prop_names = {
            r.prop for r in walk_refs(pred) if r.relation is None
        }
        prop_names.update(r.prop for r in out_refs_by_binding.get(binding, []))
        prop_names.update(late_refs_by_binding.get(binding, set()))
        needed = _needed_props(ftype, prop_names)

        # tracker presence is structural, not an optimization: disabling
        # memoization at run time must not change the plan or its output
        tracker_needed = (
            require_tracker
            or _has_stateful(ftype, needed)
            or fq.video_output is not None
            or fq.video_pred is not None
            or _has_intrinsic(ftype, needed)
        )

        prev = dag.add(PlanOp(
            op_id=f"{p}detector:{binding}",
            kind="detector",
            params={"detector": det_name, "vobj": vobj},
            inputs=[head],
        )).op_id
        if tracker_needed:
            prev = dag.add(PlanOp(
                op_id=f"{p}tracker:{binding}",
                kind="tracker",
                params={"vobj": vobj, "config": config.tracker.to_json()},
                inputs=[prev],
            )).op_id
        for prop in needed:
            prev = dag.add(PlanOp(
                op_id=f"{p}proj:{binding}.{prop}",
                kind="projector",
                params={"vobj": vobj, "prop": prop},
                inputs=[prev],
            )).op_id
        if pred is not None:
            prev = dag.add(PlanOp(
                op_id=f"{p}filter:{binding}",
                kind="vobj_filter",
                params={
                    "vobj": vobj, "binding": binding,
                    "predicate": encode_expr(pred),
                },
                inputs=[prev],
            )).op_id
        branch_tails.append(prev)
        required.append(vobj)

    if not branch_tails:
        raise PlanError(f"{query_name}: no VObj bindings to plan")

    if len(branch_tails) > 1:
        tail = dag.add(PlanOp(
            op_id=f"{p}join",
            kind="join",
            params={"required": required},
            inputs=branch_tails,
        )).op_id
    else:
        tail = branch_tails[0]

    if fq.kind == "spatial" and fq.relation_pred is not None:
        rel = vprog.relations[fq.relation]
        rel_props = {
            r.prop for r in walk_refs(fq.relation_pred)
            if r.relation == fq.relation
        }
        impls = {
            pd.name: pd.impl for pd in rel.properties if pd.name in rel_props
        }
        b1, t1 = fq.bindings[0]
        b2, t2 = fq.bindings[1]
        tail = dag.add(PlanOp(
            op_id=f"{p}relproj:{fq.relation}",
            kind="relation_projector",
            params={
                "relation": fq.relation, "vobj_a": t1, "vobj_b": t2,
                "props": impls,
            },
            inputs=[tail],
        )).op_id
        tail = dag.add(PlanOp(
            op_id=f"{p}relfilter:{fq.relation}",
            kind="relation_filter",
            params={
                "relation": fq.relation,
                "predicate": encode_expr(fq.relation_pred),
                "args": [b1, b2],
            },
            inputs=[tail],
        )).op_id

    out = dag.add(PlanOp(
        op_id=f"{p}output:{query_name}",
        kind="output",
        params={
            "query": query_name,
            "bindings": [[b, t] for b, t in vobj_bindings],
            "frame_output": [
                encode_ref(r) for r in fq.frame_output
            ],
            "relation": fq.relation if fq.kind == "spatial" else None,
        },
        inputs=[tail],
    ))
    dag.sink = out.op_id

    if fq.video_output is not None or fq.video_pred is not None:
        kind, binding = fq.video_output or ("count_distinct", vobj_bindings[0][0])
        agg = dag.add(PlanOp(
            op_id=f"{p}aggregate:{query_name}",
            kind="aggregate",
            params={
                "kind": kind,
                "binding": binding,
                "vobj": dict(vobj_bindings)[binding],
                "predicate": encode_expr(fq.video_pred),
            },
            inputs=[dag.sink],
        ))
        dag.sink = agg.op_id
    return dag


def _prune_subsumed(conjs: list, binding: str, det_reg: Registration) -> list:
    """Drop equality conjuncts a specialized detector already guarantees."""
    subsumes = det_reg.params.get("subsumes")
    if not subsumes:
        return list(conjs)
    out = []
    for conj in conjs:
        if (isinstance(conj, Compare) and conj.op == "=="
                and conj.ref.relation is None
                and conj.ref.binding == binding
                and subsumes.get(conj.ref.prop) == conj.literal):
            continue
        out.append(conj)
    return out


# --- optimization passes ----------------------------------------------------

def _branch_chain(dag: PlanDag, det_id: str) -> list[str]:
    """Linear chain of single-consumer ops starting at a detector."""
    chain = [det_id]
    cur = det_id
    while True:
        consumers = dag.consumers(cur)
        if len(consumers) != 1:
            break
        nxt = dag.ops[consumers[0]]
        if nxt.kind not in ("tracker", "projector", "vobj_filter"):
            break
        chain.append(nxt.op_id)
        cur = nxt.op_id
    return chain


def _filter_prop_closure(dag: PlanDag, vprog: ValidatedProgram,
                         filter_op: PlanOp) -> set[str]:
    pred = decode_expr(filter_op.params["predicate"])
    ftype = vprog.types[filter_op.params["vobj"]]
    names = {r.prop for r in walk_refs(pred) if r.relation is None}
    return set(_needed_props(ftype, names))


def pull_up_predicates(dag: PlanDag, vprog: ValidatedProgram,
                       registry: Registry) -> PlanDag:
    """Move filters to the earliest point where their inputs exist and gate
    detectors with registered zero-error classifiers and frame filters.

    Components with a nonzero error profile are not inserted here; they are
    accuracy-affecting and belong to alternative enumeration.
    """
    for det_id in [i for i, o in dag.ops.items() if o.kind == "detector"]:
        det = dag.ops[det_id]
        vobj = det.params["vobj"]
        ancestors = vprog.types[vobj].ancestors if vobj in vprog.types else [vobj]

        # classifier / frame-filter gates ahead of the detector
        gates: list[PlanOp] = []
        for reg in registry.classifiers_for(ancestors):
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
                },
            ))
        head = det.inputs[0]
        for gate in gates:
            gate.inputs = [head]
            dag.add(gate)
            head = gate.op_id
        det.inputs = [head]

        # reposition the branch filter just after its last needed projector
        chain = _branch_chain(dag, det_id)
        filters = [i for i in chain if dag.ops[i].kind == "vobj_filter"]
        if not filters:
            continue
        filter_id = filters[0]
        closure = _filter_prop_closure(dag, vprog, dag.ops[filter_id])
        body = [i for i in chain if i != filter_id]
        insert_at = 0
        for pos, op_id in enumerate(body):
            op = dag.ops[op_id]
            if op.kind in ("detector", "tracker"):
                insert_at = pos + 1
            elif op.kind == "projector" and op.params["prop"] in closure:
                insert_at = pos + 1
        new_chain = body[:insert_at] + [filter_id] + body[insert_at:]
        _relink_chain(dag, chain, new_chain)
    return dag


def _relink_chain(dag: PlanDag, old_chain: list[str], new_chain: list[str]) -> None:
    if old_chain == new_chain:
        return
    upstream = dag.ops[old_chain[0]].inputs[0]
    old_tail = old_chain[-1]
    prev = upstream
    for op_id in new_chain:
        dag.ops[op_id].inputs = [prev]
        prev = op_id
    new_tail = new_chain[-1]
    if new_tail != old_tail:
        for op in dag.ops.values():
            if op.op_id not in new_chain and old_tail in op.inputs:
                op.inputs = [
                    new_tail if i == old_tail else i for i in op.inputs
                ]


def fuse_operators(dag: PlanDag) -> PlanDag:
    """Merge maximal same-branch projector/filter chains into fused ops."""
    fusable = {"projector", "vobj_filter"}
    visited: set[str] = set()
    for op_id in dag.topo_order():
        op = dag.ops.get(op_id)
        if op is None or op_id in visited or op.kind not in fusable:
            continue
        chain = [op_id]
        cur = op_id
        while True:
            consumers = dag.consumers(cur)
            if len(consumers) != 1:
                break
            nxt = dag.ops[consumers[0]]
            if nxt.kind not in fusable or len(nxt.inputs) != 1:
                break
            chain.append(nxt.op_id)
            cur = nxt.op_id
        visited.update(chain)
        if len(chain) < 2:
            continue
        first, last = dag.ops[chain[0]], dag.ops[chain[-1]]
        fused = PlanOp(
            op_id=f"fused:{chain[0]}",
            kind="fused",
            params={"steps": [dag.ops[i].to_json() for i in chain]},
            inputs=list(first.inputs),
        )
        for op in dag.ops.values():
            if last.op_id in op.inputs:
                op.inputs = [
                    fused.op_id if i == last.op_id else i for i in op.inputs
                ]
        if dag.sink == last.op_id:
            dag.sink = fused.op_id
        for i in chain:
            del dag.ops[i]
        dag.add(fused)
    dag.ops = {i: dag.ops[i] for i in dag.topo_order()}
    return dag


def plan_query(
    vprog: ValidatedProgram,
    query_name: str,
    registry: Registry,
    config: PlannerConfig,
    meta: Optional[VideoMeta] = None,
    detector_overrides: Optional[dict[str, str]] = None,
) -> PlanDag:
    """Base DAG plus the enabled result-preserving passes."""
    dag = build_base_dag(
        vprog, query_name, registry, config, meta, detector_overrides
    )
    if config.enable_pullup:
        dag = pull_up_predicates(dag, vprog, registry)
    if config.enable_fusion:
        dag = fuse_operators(dag)
    return dag


def enumerate_alternatives(
    vprog: ValidatedProgram,
    query_name: str,
    registry: Registry,
    config: PlannerConfig,
    meta: Optional[VideoMeta] = None,
) -> list[PlanDag]:
    """Cross product of detector choices per binding along inheritance
    chains; the all-general reference plan comes first."""
    fq = vprog.queries[query_name]

    def binding_names(q: FlatQuery) -> list[str]:
        if q.kind == "duration":
            return binding_names(vprog.queries[q.base])
        if q.kind == "temporal":
            return sorted(
                set(binding_names(vprog.queries[q.first]))
                | set(binding_names(vprog.queries[q.then]))
            )
        return [b for b, t in q.bindings if t != SCENE_TYPE]

    def binding_type(name: str, q: FlatQuery) -> Optional[str]:
        if q.kind == "duration":
            return binding_type(name, vprog.queries[q.base])
        if q.kind == "temporal":
            return (binding_type(name, vprog.queries[q.first])
                    or binding_type(name, vprog.queries[q.then]))
        return dict(q.bindings).get(name)

    options: list[list[tuple[str, Optional[str]]]] = []
    names = binding_names(fq)
    for binding in names:
        vobj = binding_type(binding, fq)
        ftype = vprog.types.get(vobj)
        choice = [(binding, None)]  # None means the type's own detector
        if ftype is not None:
            for reg in registry.specialized_detectors_for(ftype.ancestors):
                choice.append((binding, reg.name))
        options.append(choice)

    combos = [[]]
    for choice in options:
        combos = [c + [o] for c in combos for o in choice]
    dags = []
    for combo in combos[: config.max_alternatives]:
        overrides = {b: d for b, d in combo if d is not None}
        dags.append(plan_query(
            vprog, query_name, registry, config, meta, overrides or None
        ))
    return dags


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
    reference: Optional[PlanDag] = None,
) -> list[ProfileReport]:
    """Run every candidate once on the canary and score it against the
    reference's labels; the reference runs on its own only when it is not
    one of the candidates."""
    from .executor import ExecConfig, Session

    reference = reference or dags[0]
    frame_budget = config.canary_frames or meta.frame_count
    if frame_budget <= 0:
        raise ProfilingError("empty canary: nothing to profile")
    canary_meta = replace(meta, frame_count=min(meta.frame_count, frame_budget))
    exec_config = ExecConfig(batch_size=config.batch_size)

    def run_one(dag: PlanDag):
        session = Session(vprog, registry, canary_meta, exec_config)
        outcome = session.run([dag], canary_path)[0]
        return outcome.labels(canary_meta.frame_count), session.stats

    runs = [run_one(dag) for dag in dags]
    labels = {dag.plan_id: run[0] for dag, run in zip(dags, runs)}
    ref_labels = labels.get(reference.plan_id)
    if ref_labels is None:
        ref_labels = run_one(reference)[0]
    return [
        ProfileReport(
            plan_id=dag.plan_id,
            f1=f1_score(ref_labels, out_labels),
            cost_units=stats.cost_units,
            op_count=len(dag.ops),
            breakdown=dict(sorted(stats.component_costs.items())),
        )
        for dag, (out_labels, stats) in zip(dags, runs)
    ]


def select_plan(
    dags: list[PlanDag],
    reports: list[ProfileReport],
    config: PlannerConfig,
    reference: Optional[PlanDag] = None,
) -> tuple[PlanDag, bool]:
    """Cheapest plan meeting the accuracy target; ties break on operator
    count then plan id.  Falls back to the reference (second value True)
    when nothing meets the target."""
    if not reports:
        raise ProfilingError("no profile reports to select from")
    reference = reference or dags[0]
    eligible = [
        (r.cost_units, r.op_count, r.plan_id, d)
        for d, r in zip(dags, reports)
        if r.f1 + 1e-12 >= config.accuracy_target
    ]
    if not eligible:
        return reference, True
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
            if op.kind == "detector":
                name = op.params["detector"]
                if registry.try_resolve("detector", name) is None:
                    raise PlanLoadError(
                        f"plan references unregistered detector {name!r}"
                    )
            elif op.kind == "classifier":
                name = op.params["classifier"]
                if registry.try_resolve("classifier", name) is None:
                    raise PlanLoadError(
                        f"plan references unregistered classifier {name!r}"
                    )
    return dag


def explain_dot(dag: PlanDag, costs: Optional[dict[str, float]] = None) -> str:
    """DOT rendering of the DAG with optional per-operator cost labels."""
    lines = ["digraph plan {", "  rankdir=LR;"]
    for op_id in dag.topo_order():
        op = dag.ops[op_id]
        label = f"{op.kind}\\n{op_id}"
        if costs and op_id in costs:
            label += f"\\ncost={costs[op_id]:g}"
        lines.append(f'  "{op_id}" [label="{label}"];')
    for op in dag.ops.values():
        for src in op.inputs:
            lines.append(f'  "{src}" -> "{op.op_id}";')
    lines.append("}")
    return "\n".join(lines)

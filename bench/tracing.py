"""Span tracing of the engine's layers, installed from outside the package.

`install(tracer)` wraps the public functions and methods of each layer
(`dsl`, `planner`, `trace_io`, `registry`, `tracker`, `operators`,
`executor`).  A module-level function is replaced in every `vidquery`
module that holds it, because callers look names up in their own module:
`Session` finds `open_trace` in `vidquery.executor`, `DetectorOp` finds
`apply_detector` in `vidquery.operators`.  `uninstall` puts the originals
back.

Spans are kept in memory as (span id, trace id, parent id, name, start,
end).  A layer's self time is its spans' duration minus the time their child
spans cover; `FusedOp` nests its steps' spans, so its own self time is only
its loop.  Counts are recorded at the same boundaries.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

from vidquery import dsl, executor, operators, planner, registry, trace_io, tracker

OPERATOR_CLASSES = {
    "frame_filter": operators.FrameFilterOp,
    "classifier": operators.ClassifierOp,
    "detector": operators.DetectorOp,
    "tracker": operators.TrackerOp,
    "projector": operators.ProjectorOp,
    "vobj_filter": operators.VObjFilterOp,
    "join": operators.JoinOp,
    "relation_projector": operators.RelationProjectorOp,
    "relation_filter": operators.RelationFilterOp,
    "output": executor.OutputOp,
    "aggregate": executor.AggregateOp,
    "fused": executor.FusedOp,
}

# span name -> layer function it times; the benchmark's self-test checks
# that each name records a span on the workload that loads it
FUNCTION_SPANS = {
    "dsl.parse": dsl.parse,
    "dsl.validate": dsl.validate,
    "planner.plan": planner.plan_query,
    "planner.enumerate": planner.enumerate_alternatives,
    "planner.profile": planner.profile,
    "planner.select": planner.select_plan,
    "registry.detector": registry.apply_detector,
    "registry.property": registry.call_property_impl,
    "registry.relation": registry.relation_value,
    "executor.finalize": (operators.eval_duration, operators.eval_temporal,
                          operators.count_distinct_tracks),
}

OPEN_TRACE = trace_io.open_trace  # timed per record as "trace_io.parse"

TRACING = "tracing"  # the recorder's own bookkeeping, kept out of layers


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.runs: list[tuple] = []  # (plans, executed) per Session.run
        self.trace_id = 0
        self._stack: list[int] = []
        self._next_id = 1

    def new_trace(self) -> int:
        """Spans begun from now on share a new trace id."""
        self.trace_id += 1
        return self.trace_id

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.runs.clear()

    def begin(self, name: str) -> tuple:
        stack = self._stack
        sid = self._next_id
        self._next_id = sid + 1
        token = (sid, stack[-1] if stack else 0, name, perf_counter())
        stack.append(sid)
        return token

    def end(self, token: tuple) -> None:
        end = perf_counter()
        self._stack.pop()
        sid, parent, name, start = token
        self.spans.append((sid, self.trace_id, parent, name, start, end))

    def layer_times(self) -> dict[str, dict]:
        """Per span name: calls, total and self seconds, and the names of
        the parent spans."""
        covered: dict[int, float] = defaultdict(float)
        names = {}
        for sid, _t, parent, name, start, end in self.spans:
            covered[parent] += end - start
            names[sid] = name
        out: dict[str, dict] = {}
        for sid, _t, parent, name, start, end in self.spans:
            row = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                       "parents": Counter()})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - covered[sid]
            row["parents"][names.get(parent, "")] += 1
        return out


def _nodes(batches) -> int:
    return sum(len(fs.graph.nodes) for b in batches for fs in b)


class _Patches:
    def __init__(self):
        self.undo: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self.undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, original, wrapper) -> None:
        """Replace `original` in every vidquery module that holds it."""
        for mod in _engine_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.set(mod, attr, wrapper)


def _engine_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "vidquery" or n.startswith("vidquery."))]


def unwrapped_references() -> list[str]:
    """Engine module attributes that still hold an unwrapped layer
    function; empty while tracing is installed."""
    originals = {}
    for name, fns in FUNCTION_SPANS.items():
        for fn in fns if isinstance(fns, tuple) else (fns,):
            originals[id(fn)] = (name, fn)
    originals[id(OPEN_TRACE)] = ("trace_io.parse", OPEN_TRACE)
    out = []
    for mod in _engine_modules():
        for attr, value in vars(mod).items():
            hit = originals.get(id(value))
            if hit is not None and hit[1] is value:
                out.append(f"{mod.__name__}.{attr} ({hit[0]})")
    return out


def install(tr: Tracer):
    """Wrap every layer; returns a function that removes the wrappers."""
    patches = _Patches()
    counters = tr.counters
    begin, end = tr.begin, tr.end

    def timed(name, fn, after=None):
        def wrapper(*args, **kwargs):
            token = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(token)
            if after is not None:
                after(result, *args)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def after_plan(dag, *_a):
        counters["planner.plan_ops"] += len(dag.ops)
        counters["planner.fused_ops"] += sum(
            1 for op in dag.ops.values() if op.kind == "fused")

    def after_enumerate(dags, *_a):
        counters["planner.candidates"] += len(dags)

    after = {"planner.plan": after_plan, "planner.enumerate": after_enumerate}
    for name, fns in FUNCTION_SPANS.items():
        for fn in fns if isinstance(fns, tuple) else (fns,):
            patches.everywhere(fn, timed(name, fn, after.get(name)))

    # trace_io: each step of the record iterator is a parse span
    def open_trace(path, meta=None):
        counters["trace_io.reads"] += 1
        counters["trace_io.bytes"] += Path(path).stat().st_size
        records = OPEN_TRACE(path, meta)
        try:
            while True:
                token = begin("trace_io.parse")
                try:
                    rec = next(records)
                except StopIteration:
                    return
                finally:
                    end(token)
                counters["trace_io.records"] += 1
                counters["trace_io.detections"] += len(rec.detections)
                yield rec
        finally:
            records.close()

    patches.everywhere(OPEN_TRACE, open_trace)

    # tracker
    original_step = tracker.SortTracker.step

    def step(self, frame_id, detections):
        tracks = len(self.slots)
        token = begin("tracker.step")
        try:
            result = original_step(self, frame_id, detections)
        finally:
            end(token)
        births = len(result.new_tracks)
        counters["tracker.steps"] += 1
        counters["tracker.tracks"] += tracks
        counters["tracker.dets"] += len(detections)
        counters["tracker.iou_pairs"] += tracks * len(detections)
        counters["tracker.births"] += births
        counters["tracker.matched"] += len(result.assignments) - births
        return result

    patches.set(tracker.SortTracker, "step", step)

    # operators: one span per process call; counting rows is bookkeeping
    for kind, cls in OPERATOR_CLASSES.items():
        patches.set(cls, "process", _traced_process(tr, kind, cls.process))

    # executor
    original_run = executor.Session.run

    def run(self, dags, trace_path, result_store=None):
        before = self.stats.total_op_invocations
        token = begin("executor.run")
        try:
            return original_run(self, dags, trace_path, result_store)
        finally:
            end(token)
            invocations = self.stats.total_op_invocations - before
            counters["executor.op_invocations"] += invocations
            counters["executor.memo_entries"] += len(self.engine.memo)
            counters["executor.tracks"] += len(self.engine.tracks)
            tr.runs.append((list(dags), invocations > 0))

    patches.set(executor.Session, "run", run)

    original_get = executor.PropertyEngine.get

    def get(self, node, prop):
        counters["executor.property_gets"] += 1
        return original_get(self, node, prop)

    patches.set(executor.PropertyEngine, "get", get)

    def after_cache_get(result, *_a):
        counters["executor.cache_hits" if result is not None
                 else "executor.cache_misses"] += 1

    patches.set(executor.ResultStore, "get", timed(
        "executor.cache_get", executor.ResultStore.get, after_cache_get))
    patches.set(executor.ResultStore, "put", timed(
        "executor.cache_put", executor.ResultStore.put))

    # the trace digest is an inline sha256 in Session.run: give the executor
    # module a hashlib whose sha256 times the calls made from there
    patches.set(executor, "hashlib",
                _DigestTimingHashlib(executor.hashlib, original_run.__code__, tr))

    def uninstall():
        for owner, attr, value in reversed(patches.undo):
            setattr(owner, attr, value)
        patches.undo.clear()

    return uninstall


def _traced_process(tr: Tracer, kind: str, original):
    counters = tr.counters
    prefix = f"operators.{kind}."
    name = f"operators.{kind}"

    def process(self, ctx, inputs):
        token = tr.begin(name)
        try:
            out = original(self, ctx, inputs)
        finally:
            tr.end(token)
        token = tr.begin(TRACING)
        counters[prefix + "calls"] += 1
        counters[prefix + "frames_in"] += sum(len(b) for b in inputs)
        counters[prefix + "frames_out"] += len(out)
        counters[prefix + "nodes_in"] += _nodes(inputs)
        counters[prefix + "nodes_out"] += _nodes([out])
        tr.end(token)
        return out

    process.__wrapped__ = original
    return process


class _DigestTimingHashlib:
    def __init__(self, real, run_code, tr: Tracer):
        self._real = real
        self._run_code = run_code
        self._tr = tr

    def __getattr__(self, attr):
        return getattr(self._real, attr)

    def sha256(self, *args, **kwargs):
        if sys._getframe(1).f_code is not self._run_code:
            return self._real.sha256(*args, **kwargs)
        token = self._tr.begin("executor.trace_digest")
        try:
            return self._real.sha256(*args, **kwargs)
        finally:
            self._tr.end(token)


# Per-layer metrics of the benchmark's traced run, with units.  A time is
# listed only for a layer every workload loads, so that no listed time reads
# zero on every run of a workload; the times of the other layers (planner
# enumerate/profile/select, relation stages, the frame filter and cache
# writes) are in the detailed report that `summarize` also returns.
_ALL_LOADED_OPS = ("detector", "tracker", "projector", "vobj_filter", "output",
                   "aggregate", "fused")
_SOME_LOADED_OPS = ("join", "relation_projector", "relation_filter",
                    "frame_filter")
_OP_COUNTS = ("calls", "frames_in", "frames_out", "nodes_in", "nodes_out")

PER_LAYER = [
    ("dsl.parse_s", "s"), ("dsl.validate_s", "s"),
    ("planner.plan_s", "s"), ("planner.plan_ops", "count"),
    ("planner.fused_ops", "count"), ("planner.candidates", "count"),
    ("planner.profile_sessions", "count"),
    ("trace_io.parse_s", "s"), ("trace_io.reads", "count"),
    ("trace_io.records", "count"), ("trace_io.detections", "count"),
    ("trace_io.bytes", "bytes"),
    ("registry.detector_calls", "count"), ("registry.detector_s", "s"),
    ("registry.property_calls", "count"), ("registry.property_s", "s"),
    ("registry.relation_calls", "count"),
    ("tracker.step_s", "s"), ("tracker.steps", "count"),
    ("tracker.tracks_per_step", "count"), ("tracker.dets_per_step", "count"),
    ("tracker.iou_pairs", "count"), ("tracker.births", "count"),
    ("tracker.match_ratio", "ratio"),
    *[(f"operators.{k}.self_s", "s") for k in _ALL_LOADED_OPS],
    *[(f"operators.{k}.{c}", "count")
      for k in _ALL_LOADED_OPS + _SOME_LOADED_OPS for c in _OP_COUNTS],
    ("executor.run_self_s", "s"), ("executor.op_invocations", "count"),
    ("executor.share_ratio", "ratio"), ("executor.property_gets", "count"),
    ("executor.impl_per_get", "ratio"), ("executor.memo_entries", "count"),
    ("executor.tracks", "count"), ("executor.finalize_s", "s"),
    ("executor.cache_get_s", "s"), ("executor.cache_hits", "count"),
    ("executor.cache_misses", "count"), ("executor.trace_digest_s", "s"),
    ("tracing.fps_ratio", "ratio"),
]


def _share_ratio(runs) -> float:
    """Distinct operator signatures over plan operators, summed over the
    Session.run calls that executed plans (1.0 means nothing shared)."""
    distinct = total = 0
    for dags, executed in runs:
        if not executed:
            continue
        sigs = set()
        for dag in dags:
            by_op = {}
            for op_id in dag.topo_order():
                pop = dag.ops[op_id]
                by_op[op_id] = executor.op_signature(
                    pop, [by_op[i] for i in pop.inputs])
                if pop.kind != "reader":
                    sigs.add(by_op[op_id])
                    total += 1
        distinct += len(sigs)
    return distinct / total if total else 0.0


def summarize(tr: Tracer) -> dict[str, float]:
    """Every per-layer number of the spans and counts recorded so far."""
    times, c = tr.layer_times(), tr.counters

    def self_s(name):
        return times[name]["self_s"] if name in times else 0.0

    def calls(name):
        return times[name]["calls"] if name in times else 0

    m = {}
    for name in times:
        if name.startswith("operators."):
            m[f"{name}.self_s"] = self_s(name)
        elif name == "executor.run":
            m["executor.run_self_s"] = self_s(name)
        else:
            m[f"{name}_s"] = self_s(name)
    for kind in ("detector", "property", "relation"):
        m[f"registry.{kind}_calls"] = calls(f"registry.{kind}")
    runs = times.get("executor.run", {}).get("parents", {})
    m["planner.profile_sessions"] = runs.get("planner.profile", 0)
    steps, dets = c["tracker.steps"], c["tracker.dets"]
    m["tracker.tracks_per_step"] = c["tracker.tracks"] / steps if steps else 0.0
    m["tracker.dets_per_step"] = dets / steps if steps else 0.0
    m["tracker.match_ratio"] = c["tracker.matched"] / dets if dets else 0.0
    gets = c["executor.property_gets"]
    m["executor.impl_per_get"] = calls("registry.property") / gets if gets else 0.0
    m["executor.share_ratio"] = _share_ratio(tr.runs)
    for key, value in c.items():
        if key not in ("tracker.tracks", "tracker.dets", "tracker.matched"):
            m[key] = value
    for name, unit in PER_LAYER:
        m.setdefault(name, 0.0 if unit == "s" or unit == "ratio" else 0)
    return m

"""Object-centric data model: video-object instances, tracks, and frame graphs.

A frame graph holds one node per detected video object and typed edges for
motion, spatial, duration, and temporal relationships.  Graphs are built per
frame and merged by the join operator; tracks persist across frames and own
bounded property histories.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable, Optional


class _Undefined:
    """Sentinel for a property value that is not (yet) computable."""

    _instance: Optional["_Undefined"] = None

    def __new__(cls) -> "_Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Undefined"

    def __bool__(self) -> bool:
        return False


UNDEFINED = _Undefined()


def is_defined(value: Any) -> bool:
    return value is not UNDEFINED


NodeId = tuple[int, int]  # (frame_id, per-frame detection index)


class EdgeKind(str, Enum):
    MOTION = "motion"
    SPATIAL = "spatial"
    DURATION = "duration"
    TEMPORAL = "temporal"


class GraphError(Exception):
    """Structural violation in a frame graph."""


class MergeConflictError(GraphError):
    """Same node carries conflicting property values in a merge."""


class SchemaError(Exception):
    """Reference to a property not declared on the type."""


@dataclass
class VObjInstance:
    """One video object on one frame; `track` is the record of the track
    the tracker assigned it to."""

    node_id: NodeId
    class_name: str
    frame_id: int
    bbox: tuple[float, float, float, float]
    score: float = 1.0
    attrs: dict[str, Any] = field(default_factory=dict)
    track_id: Optional[int] = None
    properties: dict[str, Any] = field(default_factory=dict)
    track: Optional["Track"] = field(default=None, repr=False, compare=False)


@dataclass
class Edge:
    kind: EdgeKind
    src: NodeId
    dst: NodeId
    relation: Optional[str] = None
    properties: dict[str, Any] = field(default_factory=dict)


@dataclass
class FrameGraph:
    """Nodes and typed edges covering a contiguous frame range."""

    frame_range: tuple[int, int]
    nodes: dict[NodeId, VObjInstance] = field(default_factory=dict)
    edges: list[Edge] = field(default_factory=list)

    def add_node(self, node: VObjInstance) -> None:
        if node.node_id in self.nodes:
            existing = self.nodes[node.node_id]
            if existing.class_name != node.class_name:
                raise MergeConflictError(
                    f"node {node.node_id} bound to both "
                    f"{existing.class_name} and {node.class_name}"
                )
            return
        self.nodes[node.node_id] = node

    def add_edge(self, edge: Edge) -> None:
        self.edges.append(edge)

    def nodes_of(self, class_name: str) -> list[VObjInstance]:
        return [n for n in self.nodes.values() if n.class_name == class_name]

    def remove_nodes(self, node_ids: Iterable[NodeId]) -> None:
        doomed = set(node_ids)
        for nid in doomed:
            self.nodes.pop(nid, None)
        self.edges = [
            e for e in self.edges if e.src not in doomed and e.dst not in doomed
        ]


def graph_merge(g1: FrameGraph, g2: FrameGraph) -> FrameGraph:
    """Node/edge union of two graphs covering the same frame range.

    Raises MergeConflictError when the same node carries conflicting property
    values or class bindings in the two inputs.
    """
    if g1.frame_range != g2.frame_range:
        raise GraphError(
            f"cannot merge graphs over {g1.frame_range} and {g2.frame_range}"
        )
    out = FrameGraph(frame_range=g1.frame_range)
    for g in (g1, g2):
        for node in g.nodes.values():
            if node.node_id in out.nodes:
                existing = out.nodes[node.node_id]
                if existing.class_name != node.class_name:
                    raise MergeConflictError(
                        f"node {node.node_id}: class {existing.class_name} "
                        f"vs {node.class_name}"
                    )
                for name, value in node.properties.items():
                    if name in existing.properties and existing.properties[name] != value:
                        raise MergeConflictError(
                            f"node {node.node_id}: property {name!r} has "
                            f"conflicting values"
                        )
                    existing.properties[name] = value
                if existing.track_id is None:
                    existing.track_id, existing.track = node.track_id, node.track
            else:
                out.add_node(node)
    seen = set()
    for g in (g1, g2):
        for e in g.edges:
            key = (e.kind, e.src, e.dst, e.relation)
            if key in seen:
                continue
            seen.add(key)
            out.add_edge(e)
    return out


@dataclass(eq=False)
class Track:
    """Persistent identity of one video object across frames, as one tracker
    numbered it: the frames it is on, and its property histories.  Compared
    and hashed by identity, so the record itself keys per-track memo entries.

    Per-property history is bounded by the largest window declared over that
    property; appends beyond the bound evict the oldest value.
    """

    track_id: int
    class_name: str
    declared: frozenset[str]
    history: dict[str, deque] = field(default_factory=dict)  # (frame_id, value)
    frames: set[int] = field(default_factory=set)
    _recorded_at: dict[str, int] = field(default_factory=dict)

    @classmethod
    def create(
        cls,
        track_id: int,
        class_name: str,
        window_bounds: dict[str, int],
        slack: int = 0,
    ) -> "Track":
        """`slack` extends retention beyond the declared window so values for
        a frame stay available while later frames of the same batch are
        recorded ahead of it."""
        t = cls(
            track_id=track_id,
            class_name=class_name,
            declared=frozenset(window_bounds),
        )
        for prop, bound in window_bounds.items():
            t.history[prop] = deque(maxlen=bound + slack)
        return t

    def record(self, prop: str, frame_id: int, value: Any) -> None:
        """Append one history value, at most once per frame."""
        if prop not in self.history:
            return
        if self._recorded_at.get(prop) == frame_id:
            return
        self._recorded_at[prop] = frame_id
        self.history[prop].append((frame_id, value))


def window(track: Track, prop: str, k: int, end_frame: Optional[int] = None):
    """The k most recent history values of `prop` recorded at or before
    `end_frame` (all frames when omitted), oldest first.

    Returns UNDEFINED while fewer than k such values exist.
    """
    if k < 1:
        raise ValueError("window length must be >= 1")
    if prop not in track.declared:
        raise SchemaError(
            f"property {prop!r} not declared on {track.class_name}"
        )
    hist = track.history.get(prop, ())
    if end_frame is not None:
        entries = [(f, v) for f, v in hist if f <= end_frame]
    else:
        entries = list(hist)
    if len(entries) < k:
        return UNDEFINED
    return [v for _f, v in entries[-k:]]


def validate_graph(graph: FrameGraph) -> list[str]:
    """Check every edge-kind invariant; returns a list of violations."""
    problems = []
    for e in graph.edges:
        if e.src not in graph.nodes or e.dst not in graph.nodes:
            problems.append(f"{e.kind.value} edge {e.src}->{e.dst}: dangling endpoint")
            continue
        src, dst = graph.nodes[e.src], graph.nodes[e.dst]
        if e.kind is EdgeKind.MOTION:
            if src.track_id is None or src.track_id != dst.track_id:
                problems.append(f"motion edge {e.src}->{e.dst}: track_id mismatch")
            if dst.frame_id - src.frame_id != 1:
                problems.append(f"motion edge {e.src}->{e.dst}: frames not consecutive")
        elif e.kind is EdgeKind.SPATIAL:
            if src.frame_id != dst.frame_id:
                problems.append(f"spatial edge {e.src}->{e.dst}: frames differ")
        elif e.kind is EdgeKind.TEMPORAL:
            if not src.frame_id < dst.frame_id:
                problems.append(f"temporal edge {e.src}->{e.dst}: not forward in time")
        elif e.kind is EdgeKind.DURATION:
            limit = e.properties.get("max_frames")
            if limit is not None and abs(dst.frame_id - src.frame_id) > limit:
                problems.append(
                    f"duration edge {e.src}->{e.dst}: distance exceeds {limit}"
                )
    return problems


def dump_graph(graph: FrameGraph) -> str:
    """Deterministic text rendering for golden tests."""
    lines = [f"frames {graph.frame_range[0]}..{graph.frame_range[1]}"]
    for nid in sorted(graph.nodes):
        n = graph.nodes[nid]
        props = " ".join(
            f"{k}={n.properties[k]!r}" for k in sorted(n.properties)
        )
        track = f" track={n.track_id}" if n.track_id is not None else ""
        lines.append(f"node {nid} {n.class_name} bbox={n.bbox}{track} {props}".rstrip())
    for e in sorted(graph.edges, key=lambda e: (e.kind.value, e.src, e.dst)):
        rel = f" rel={e.relation}" if e.relation else ""
        props = " ".join(f"{k}={e.properties[k]!r}" for k in sorted(e.properties))
        lines.append(f"edge {e.kind.value} {e.src}->{e.dst}{rel} {props}".rstrip())
    return "\n".join(lines)

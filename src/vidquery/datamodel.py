"""Object-centric data model: video-object instances, tracks, and frame graphs.

A frame graph holds the objects of one frame, one part per query binding,
and the spatial-relation edges between them.  Tracks persist across frames
and own bounded property histories.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Optional


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
    """One instance of a spatial relation between two objects of a frame."""

    relation: str
    a: VObjInstance
    b: VObjInstance
    properties: dict[str, Any] = field(default_factory=dict)


@dataclass
class FrameGraph:
    """The objects of one frame: one part per binding, each in node-id
    order, and the relation edges between them.  A branch has one part; the
    join makes its input i part i, so an object in two parts is bound twice
    and each binding sees only its own part."""

    parts: list[list[VObjInstance]] = field(default_factory=list)
    edges: list[Edge] = field(default_factory=list)

    @property
    def nodes(self) -> list[VObjInstance]:
        """Every part's objects, part after part."""
        return [n for part in self.parts for n in part]


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

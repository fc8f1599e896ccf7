"""Object-centric data model: video-object instances, tracks, and frame graphs.

A frame graph holds the objects of one frame, one part per query binding,
and the spatial-relation edges between them.  Tracks persist across frames
and keep their latest objects, which stateful windows read.
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


@dataclass(slots=True)
class VObjInstance:
    """One video object on one frame; `track` is the record of the track
    the tracker assigned it to."""

    node_id: NodeId
    class_name: str
    frame_id: int
    bbox: tuple[float, float, float, float]
    attrs: dict[str, Any] = field(default_factory=dict)
    properties: dict[str, Any] = field(default_factory=dict)
    track: Optional["Track"] = field(default=None, repr=False, compare=False)


@dataclass(slots=True)
class Edge:
    """One pair of objects of a frame under the query's spatial relation (a
    frame graph holds one relation: a spatial plan projects one)."""

    a: VObjInstance
    b: VObjInstance
    properties: dict[str, Any] = field(default_factory=dict)


@dataclass(slots=True)
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


@dataclass(eq=False, slots=True)
class Track:
    """Persistent identity of one video object across frames, as one tracker
    numbered it: the frame it was born on, and its latest tracked objects,
    oldest first.  Compared and hashed by identity, so the record itself
    keys per-track memo entries.

    `objects` is bounded; an append beyond the bound evicts the oldest.
    """

    track_id: int
    objects: deque = field(default_factory=deque)
    first_frame: Optional[int] = None  # set by the tracker op at birth

    @classmethod
    def create(cls, track_id: int, depth: int) -> "Track":
        """A record that keeps the track's `depth` latest objects."""
        return cls(track_id, deque(maxlen=depth))


def window(track: Track, k: int, end_frame: int) -> Any:
    """The track's k most recent objects at or before `end_frame`, oldest
    first; UNDEFINED while it has fewer."""
    if k < 1:
        raise ValueError("window length must be >= 1")
    objects = [n for n in track.objects if n.frame_id <= end_frame]
    if len(objects) < k:
        return UNDEFINED
    return objects[-k:]

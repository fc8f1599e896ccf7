"""Object-centric data model: video-object instances, tracks, and frame graphs.

A frame graph holds the objects of one frame, one part per query binding,
and the spatial-relation edges between them.  Tracks persist across frames
and keep their latest objects; each tracked object links to the one before
it on its track, and a stateful window follows those links.
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
    the tracker assigned it to, and `prev` the object before it on that
    track while the record still keeps that object (None otherwise, and on
    an untracked object)."""

    node_id: NodeId
    class_name: str
    frame_id: int
    bbox: tuple[float, float, float, float]
    attrs: dict[str, Any] = field(default_factory=dict)
    properties: dict[str, Any] = field(default_factory=dict)
    track: Optional["Track"] = field(default=None, repr=False, compare=False)
    prev: Optional["VObjInstance"] = field(
        default=None, repr=False, compare=False)


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
    The bound also bounds what stays linked: `append` cuts the `prev` link
    of the oldest object kept, so a later object reaches only the record's
    objects.
    """

    track_id: int
    objects: deque = field(default_factory=deque)
    first_frame: Optional[int] = None  # set by the tracker op at birth

    @classmethod
    def create(cls, track_id: int, depth: int) -> "Track":
        """A record that keeps the track's `depth` latest objects."""
        return cls(track_id, deque(maxlen=depth))

    def append(self, node: VObjInstance) -> None:
        """Keep `node` as the track's latest object, linked to the one
        before it."""
        objects = self.objects
        objects.append(node)  # beyond the bound, evicts the oldest
        if len(objects) > 1:
            node.prev = objects[-2]
            objects[0].prev = None  # the oldest kept links nowhere


def window(node: VObjInstance, k: int) -> Any:
    """The k objects of `node`'s track ending at `node`, oldest first: the
    node and its k - 1 predecessors.  UNDEFINED while the track has fewer
    (the links end early) and on an untracked node."""
    if k < 1:
        raise ValueError("window length must be >= 1")
    if node.track is None:
        return UNDEFINED
    objects = [node]
    for _ in range(k - 1):
        node = node.prev
        if node is None:
            return UNDEFINED
        objects.append(node)
    objects.reverse()
    return objects

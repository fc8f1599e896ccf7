"""Synthetic world generation: scripted objects with known trajectories and
identities, rendered into detection traces with deterministic noise.

The world description is the oracle: expected per-frame truths are computed
directly from object scripts, never from the query engine.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

from .registry import finite_number, seeded_unit
from .trace_io import (
    Detection,
    GroundTruthEntry,
    TraceRecord,
    VideoMeta,
    meta_from_json,
    meta_to_json,
    write_ground_truth,
    write_meta,
    write_trace,
)


@dataclass
class ObjectScript:
    """One scripted object: linear motion with an optional mid-life turn."""

    label: int  # true identity, stable across the object's life
    class_name: str
    start_frame: int
    end_frame: int  # inclusive
    start_center: tuple[float, float]
    velocity: tuple[float, float] = (0.0, 0.0)  # px per frame
    size: tuple[float, float] = (40.0, 40.0)
    attrs: dict[str, Any] = field(default_factory=dict)
    score: float = 0.95
    jitter: float = 0.0  # max per-axis center noise in px
    turn_frame: Optional[int] = None
    turn_velocity: Optional[tuple[float, float]] = None
    dropout_frames: frozenset[int] = frozenset()

    def alive(self, frame: int) -> bool:
        return self.start_frame <= frame <= self.end_frame

    def center(self, frame: int) -> tuple[float, float]:
        """True (noise-free) center at a frame the object is alive on."""
        x, y = self.start_center
        vx, vy = self.velocity
        if self.turn_frame is None or frame <= self.turn_frame:
            steps = frame - self.start_frame
            return (x + vx * steps, y + vy * steps)
        pre = self.turn_frame - self.start_frame
        tx, ty = self.turn_velocity or self.velocity
        post = frame - self.turn_frame
        return (x + vx * pre + tx * post, y + vy * pre + ty * post)


@dataclass
class WorldSpec:
    meta: VideoMeta
    objects: list[ObjectScript] = field(default_factory=list)
    channels: dict[str, list[float]] = field(default_factory=dict)
    seed: int = 0

    def to_json(self) -> dict:
        return {
            "meta": meta_to_json(self.meta),
            "seed": self.seed,
            "channels": self.channels,
            "objects": [
                {
                    "label": o.label,
                    "class": o.class_name,
                    "start_frame": o.start_frame,
                    "end_frame": o.end_frame,
                    "start_center": list(o.start_center),
                    "velocity": list(o.velocity),
                    "size": list(o.size),
                    "attrs": o.attrs,
                    "score": o.score,
                    "jitter": o.jitter,
                    "turn_frame": o.turn_frame,
                    "turn_velocity": (
                        list(o.turn_velocity) if o.turn_velocity else None
                    ),
                    "dropout_frames": sorted(o.dropout_frames),
                }
                for o in self.objects
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "WorldSpec":
        """The world whose `to_json` is `obj`.  A field of the wrong type or
        value raises `KeyError`, `TypeError`, `ValueError` or
        `OverflowError`."""
        meta = meta_from_json(obj["meta"])
        objects = [
            ObjectScript(
                label=int(o["label"]),
                class_name=_checked("class", o["class"], "a string",
                                    lambda v: isinstance(v, str)),
                start_frame=int(o["start_frame"]),
                end_frame=int(o["end_frame"]),
                start_center=_pair("start_center", o["start_center"]),
                velocity=_pair("velocity", o.get("velocity", (0.0, 0.0))),
                size=_pair("size", o.get("size", (40.0, 40.0))),
                attrs=dict(o.get("attrs", {})),
                score=float(_checked(
                    "score", o.get("score", 0.95), "a number in [0, 1]",
                    lambda v: finite_number(v) and 0 <= v <= 1)),
                jitter=float(o.get("jitter", 0.0)),
                turn_frame=_checked("turn_frame", o.get("turn_frame"),
                                    "a finite number",
                                    lambda v: v is None or finite_number(v)),
                turn_velocity=(
                    _pair("turn_velocity", o["turn_velocity"])
                    if o.get("turn_velocity") else None
                ),
                dropout_frames=frozenset(_checked(
                    "dropout_frames", o.get("dropout_frames", []),
                    "a list of frame numbers",
                    lambda v: isinstance(v, list)
                    and all(type(f) is int for f in v))),
            )
            for o in obj.get("objects", [])
        ]
        channels = obj.get("channels", {})
        if not isinstance(channels, dict):
            raise TypeError(f"channels {channels!r} is not an object")
        return cls(
            meta=meta,
            objects=objects,
            channels={k: _numbers(f"channel {k!r}", v)
                      for k, v in channels.items()},
            seed=int(obj.get("seed", 0)),
        )


def _checked(what: str, value, expected: str, ok: Callable[[Any], bool]):
    """`value`, or ValueError unless `ok(value)`."""
    if not ok(value):
        raise ValueError(f"{what} {value!r} is not {expected}")
    return value


def _pair(what: str, values) -> tuple:
    """`values` as a tuple, or ValueError unless it is two finite numbers
    (a bool is not a number here)."""
    pair = tuple(values)
    if len(pair) != 2 or not all(map(finite_number, pair)):
        raise ValueError(f"{what} {values!r} is not a pair of finite numbers")
    return pair


def _numbers(what: str, values) -> list:
    """`values` as a list, or ValueError unless each is a finite number."""
    out = list(values)
    if not all(map(finite_number, out)):
        raise ValueError(f"{what} {values!r} is not a list of finite numbers")
    return out


def _noisy_center(world: WorldSpec, obj: ObjectScript, frame: int):
    cx, cy = obj.center(frame)
    if obj.jitter > 0.0:
        cx += (seeded_unit(world.seed, obj.label, frame, "x") - 0.5) * 2 * obj.jitter
        cy += (seeded_unit(world.seed, obj.label, frame, "y") - 0.5) * 2 * obj.jitter
    return cx, cy


def _clamped_bbox(world: WorldSpec, cx: float, cy: float,
                  size: tuple[float, float]):
    w, h = size
    x1, y1 = cx - w / 2.0, cy - h / 2.0
    x2, y2 = cx + w / 2.0, cy + h / 2.0
    x1, x2 = max(0.0, x1), min(float(world.meta.width), x2)
    y1, y2 = max(0.0, y1), min(float(world.meta.height), y2)
    if x1 >= x2 or y1 >= y2:
        return None  # fully off screen
    return (x1, y1, x2, y2)


def render_frame(world: WorldSpec, frame: int) -> TraceRecord:
    """Detections for one frame, in object-script order."""
    dets = []
    for obj in world.objects:
        if not obj.alive(frame) or frame in obj.dropout_frames:
            continue
        cx, cy = _noisy_center(world, obj, frame)
        bbox = _clamped_bbox(world, cx, cy, obj.size)
        if bbox is None:
            continue
        dets.append(Detection(
            class_name=obj.class_name,
            bbox=bbox,
            score=obj.score,
            attrs=dict(obj.attrs),
        ))
    channels = {
        name: values[frame]
        for name, values in world.channels.items()
        if frame < len(values)
    }
    return TraceRecord(frame_id=frame, detections=tuple(dets), channels=channels)


def generate(world: WorldSpec) -> list[TraceRecord]:
    return [render_frame(world, f) for f in range(world.meta.frame_count)]


def frame_identities(world: WorldSpec, frame: int) -> list[dict]:
    """[{label, class, bbox, dropped}] of one frame: the true identity of
    each object on screen there, dropped out of the trace or not."""
    entries = []
    for obj in world.objects:
        if not obj.alive(frame):
            continue
        cx, cy = _noisy_center(world, obj, frame)
        bbox = _clamped_bbox(world, cx, cy, obj.size)
        if bbox is None:
            continue
        entries.append({
            "label": obj.label,
            "class": obj.class_name,
            "bbox": list(bbox),
            "dropped": frame in obj.dropout_frames,
        })
    return entries


def identity_map(world: WorldSpec) -> dict[int, list[dict]]:
    """frame -> `frame_identities`, the true object identities."""
    return {f: frame_identities(world, f) for f in range(world.meta.frame_count)}


def label_frames(
    world: WorldSpec,
    predicate: Callable[[ObjectScript, int], bool],
) -> list[bool]:
    """Per-frame truth computed straight from object scripts: a frame is
    true iff some alive object satisfies the predicate there.  Dropouts are
    invisible to this oracle; it labels the world, not the trace."""
    labels = []
    for frame in range(world.meta.frame_count):
        labels.append(any(
            obj.alive(frame) and predicate(obj, frame)
            for obj in world.objects
        ))
    return labels


def label_tracks(
    world: WorldSpec,
    predicate: Callable[[ObjectScript, int], bool],
) -> dict[int, list[bool]]:
    """Per-object truth sequences over each object's lifetime."""
    out: dict[int, list[bool]] = {}
    for obj in world.objects:
        out[obj.label] = [
            predicate(obj, f)
            for f in range(obj.start_frame, obj.end_frame + 1)
        ]
    return out


def write_world(world: WorldSpec, out_dir) -> dict[str, Path]:
    """Render a world into trace/meta/ground-truth files, one frame at a
    time, so the memory it takes does not grow with the frame count."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "trace": out_dir / "trace.jsonl",
        "meta": out_dir / "meta.json",
        "ground_truth": out_dir / "gt.jsonl",
        "world": out_dir / "world.json",
    }
    frames = range(world.meta.frame_count)
    write_trace((render_frame(world, f) for f in frames), paths["trace"])
    write_meta(world.meta, paths["meta"])
    write_ground_truth(
        (GroundTruthEntry(frame_id=f, objects=frame_identities(world, f))
         for f in frames),
        paths["ground_truth"],
    )
    paths["world"].write_text(
        json.dumps(world.to_json(), sort_keys=True, indent=2) + "\n"
    )
    return paths


def load_world(path) -> WorldSpec:
    return WorldSpec.from_json(json.loads(Path(path).read_text()))

"""Detection-trace ingestion and on-disk formats.

Traces are line-delimited JSON, one record per frame, so readers can stream
without loading whole files.  Frames absent from a trace are frames with zero
detections, not errors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional


_INF = math.inf


class TraceError(Exception):
    """Malformed or inconsistent trace input."""


class TraceParseError(TraceError):
    def __init__(self, path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


class TraceOrderError(TraceError):
    def __init__(self, path, line_no: int, frame_id: int, prev: int):
        super().__init__(
            f"{path}:{line_no}: frame_id {frame_id} not greater than {prev}"
        )
        self.line_no = line_no


@dataclass(frozen=True)
class VideoMeta:
    fps: float
    width: int
    height: int
    frame_count: int
    px_per_m: Optional[float] = None

    def __post_init__(self):
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("resolution must be positive")
        if self.frame_count < 0:
            raise ValueError("frame_count must be non-negative")
        if self.px_per_m is not None and self.px_per_m <= 0:
            raise ValueError("px_per_m must be positive")


@dataclass(frozen=True)
class Detection:
    class_name: str
    bbox: tuple[float, float, float, float]
    score: float
    attrs: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        x1, y1, x2, y2 = self.bbox
        # the outer bounds reject inf; nan fails every comparison
        if not (-_INF < x1 < x2 < _INF and -_INF < y1 < y2 < _INF):
            raise ValueError(f"degenerate or non-finite bbox {self.bbox}")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")


@dataclass(frozen=True)
class TraceRecord:
    frame_id: int
    detections: tuple[Detection, ...] = ()
    channels: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name, value in self.channels.items():
            if not -_INF < value < _INF:  # nan fails both comparisons
                raise ValueError(f"non-finite channel {name}={value}")


def _detection_from_obj(obj: dict) -> Detection:
    return Detection(
        class_name=obj["class"],
        bbox=tuple(float(v) for v in obj["bbox"]),
        score=float(obj.get("score", 1.0)),
        attrs=dict(obj.get("attrs", {})),
    )


def record_from_json(obj: dict) -> TraceRecord:
    return TraceRecord(
        frame_id=int(obj["frame"]),
        detections=tuple(_detection_from_obj(d) for d in obj.get("dets", [])),
        channels={k: float(v) for k, v in obj.get("channels", {}).items()},
    )


def record_to_json(rec: TraceRecord) -> dict:
    return {
        "frame": rec.frame_id,
        "dets": [
            {
                "class": d.class_name,
                "bbox": list(d.bbox),
                "score": d.score,
                "attrs": d.attrs,
            }
            for d in rec.detections
        ],
        "channels": rec.channels,
    }


def open_trace(path, meta: Optional[VideoMeta] = None) -> Iterator[TraceRecord]:
    """Stream records from a trace file in strictly increasing frame order.

    With `meta` given, detection boxes are checked against the resolution.
    """
    path = Path(path)
    prev = -1
    with path.open() as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = record_from_json(json.loads(line))
            except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
                raise TraceParseError(path, line_no, f"bad record: {exc}") from exc
            if rec.frame_id <= prev:
                raise TraceOrderError(path, line_no, rec.frame_id, prev)
            prev = rec.frame_id
            if meta is not None:
                for d in rec.detections:
                    x1, y1, x2, y2 = d.bbox
                    if x1 < 0 or y1 < 0 or x2 > meta.width or y2 > meta.height:
                        raise TraceParseError(
                            path, line_no, f"bbox {d.bbox} outside resolution"
                        )
            yield rec


def write_trace(records: Iterable[TraceRecord], path) -> None:
    with Path(path).open("w") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_json(rec), sort_keys=True) + "\n")


def batch(stream: Iterable[TraceRecord], batch_size: int) -> Iterator[list[TraceRecord]]:
    """Partition a record stream into batches of at most `batch_size` frames."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    current: list[TraceRecord] = []
    for rec in stream:
        current.append(rec)
        if len(current) == batch_size:
            yield current
            current = []
    if current:
        yield current


@dataclass
class GroundTruthEntry:
    frame_id: int
    label: Optional[bool] = None
    objects: list[dict] = field(default_factory=list)


class GroundTruth:
    """Per-frame labels and/or true object identities."""

    def __init__(self, entries: Iterable[GroundTruthEntry]):
        self.entries: dict[int, GroundTruthEntry] = {}
        for e in entries:
            if e.frame_id in self.entries:
                raise TraceError(f"duplicate ground-truth frame {e.frame_id}")
            self.entries[e.frame_id] = e

    def lookup(self, frame_id: int) -> Optional[bool]:
        """The frame's label, or None when the frame is unlabeled."""
        entry = self.entries.get(frame_id)
        return None if entry is None else entry.label

    def objects(self, frame_id: int) -> list[dict]:
        entry = self.entries.get(frame_id)
        return [] if entry is None else entry.objects


def load_ground_truth(path) -> GroundTruth:
    path = Path(path)
    entries = []
    with path.open() as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                entries.append(
                    GroundTruthEntry(
                        frame_id=int(obj["frame"]),
                        label=obj.get("label"),
                        objects=list(obj.get("objects", [])),
                    )
                )
            except (json.JSONDecodeError, KeyError, ValueError, TypeError) as exc:
                raise TraceParseError(path, line_no, f"bad label record: {exc}") from exc
    return GroundTruth(entries)


def write_ground_truth(entries: Iterable[GroundTruthEntry], path) -> None:
    with Path(path).open("w") as fh:
        for e in entries:
            obj: dict[str, Any] = {"frame": e.frame_id}
            if e.label is not None:
                obj["label"] = e.label
            if e.objects:
                obj["objects"] = e.objects
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def load_meta(path) -> VideoMeta:
    with Path(path).open() as fh:
        obj = json.load(fh)
    return VideoMeta(
        fps=float(obj["fps"]),
        width=int(obj["width"]),
        height=int(obj["height"]),
        frame_count=int(obj["frames"]),
        px_per_m=float(obj["px_per_m"]) if obj.get("px_per_m") is not None else None,
    )


def write_meta(meta: VideoMeta, path) -> None:
    obj: dict[str, Any] = {
        "fps": meta.fps,
        "width": meta.width,
        "height": meta.height,
        "frames": meta.frame_count,
    }
    if meta.px_per_m is not None:
        obj["px_per_m"] = meta.px_per_m
    Path(path).write_text(json.dumps(obj, sort_keys=True) + "\n")

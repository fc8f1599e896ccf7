"""Detection-trace ingestion and on-disk formats.

Traces are line-delimited JSON, one record per frame, so readers can stream
without loading whole files.  Frames absent from a trace are frames with zero
detections, not errors.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Optional

from orjson import loads as _loads


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
        # the upper bounds reject inf; nan fails every comparison
        if not 0 < self.fps < _INF:
            raise ValueError(f"fps {self.fps} is not positive and finite")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("resolution must be positive")
        if self.frame_count < 0:
            raise ValueError("frame_count must be non-negative")
        if self.px_per_m is not None and not 0 < self.px_per_m < _INF:
            raise ValueError(
                f"px_per_m {self.px_per_m} is not positive and finite")


@dataclass(slots=True)
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


@dataclass(slots=True)
class TraceRecord:
    frame_id: int
    detections: tuple[Detection, ...] = ()
    channels: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for name, value in self.channels.items():
            if not -_INF < value < _INF:  # nan fails both comparisons
                raise ValueError(f"non-finite channel {name}={value}")


def _class_name(cls):
    if cls.__class__ is not str:
        raise TypeError(f"class {cls!r} is not a string")
    return cls


def record_from_json(obj: dict) -> TraceRecord:
    """The record of one decoded trace line.  A field of the wrong type or
    value raises `KeyError`, `TypeError`, `ValueError` or `OverflowError`;
    fields are read in order (frame, then each detection's class, bbox,
    score and attrs, then channels), so the first bad one is named."""
    frame_id = int(obj["frame"])
    detections = tuple([
        Detection(_class_name(d["class"]), tuple(map(float, d["bbox"])),
                  float(d.get("score", 1.0)), dict(d.get("attrs", {})))
        for d in obj.get("dets", [])
    ])
    channels = obj.get("channels", {})
    if not isinstance(channels, dict):
        raise TypeError(f"channels {channels!r} is not an object")
    return TraceRecord(frame_id, detections,
                       {k: float(v) for k, v in channels.items()})


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


# JSONDecodeError is a ValueError; an infinite frame id or an integer too
# large for a float is an OverflowError, and JSON nested past the recursion
# limit a RecursionError
_RECORD_ERRORS = (KeyError, ValueError, TypeError, OverflowError,
                  RecursionError)
# orjson reads an integer outside [-2**63, 2**64) as a float, json as an int
_BIG = 2.0 ** 63


def _exact(value) -> bool:
    """False if `value` holds, at any depth, a float of magnitude 2**63 or
    more, which orjson may have read where json reads an integer."""
    cls = value.__class__
    if cls is float:
        return -_BIG < value < _BIG
    if cls is dict:
        value = value.values()  # keys are strings
    elif cls is not list:
        return True
    for item in value:
        if item.__class__ is not str and not _exact(item):
            return False
    return True


def _read_alike(obj: dict) -> bool:
    """True if json reads alike each value of orjson's reading `obj` that
    `record_from_json` keeps as read: the frame id and attrs (a class is a
    string)."""
    if not _exact(obj["frame"]):
        return False
    for d in obj.get("dets", ()):
        attrs = d.get("attrs", ())
        if attrs.__class__ is dict:
            attrs = attrs.values()  # else a list of pairs, or a string
        for value in attrs:
            if value.__class__ is not str and not _exact(value):
                return False
    return True


def _record(line: str, deep: int) -> TraceRecord:
    """The record of a stripped line, as `json.loads` and `record_from_json`
    give it, decoded by orjson where json would read it alike.  json reads
    the line when it may nest `deep` levels (orjson has no depth limit),
    when orjson refuses it (NaN, Infinity, a number past float range, an
    escaped lone surrogate, malformed JSON), when the record is bad, so
    that every error is json's, and when `_read_alike` fails.  Fields read
    through `float()` are the same either way."""
    # nesting d levels takes 2d characters
    if len(line) < 2 * deep or line.count("{") + line.count("[") < deep:
        try:
            obj = _loads(line)
            rec = record_from_json(obj)
            if _read_alike(obj):
                return rec
        except _RECORD_ERRORS:
            pass
    return record_from_json(json.loads(line))


def open_trace(path, meta: Optional[VideoMeta] = None) -> Iterator[TraceRecord]:
    """Stream records from a trace file in strictly increasing frame order.

    With `meta` given, detection boxes are checked against the resolution.
    Every record, and every error with its message, is what `json.loads`
    and `record_from_json` give, trailing data rejected.
    """
    path = Path(path)
    prev = -1
    # json raises RecursionError at a nesting of the recursion limit less
    # the caller's stack depth, taken to be under half the limit
    deep = sys.getrecursionlimit() // 2
    with path.open(encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = _record(line, deep)
                except _RECORD_ERRORS as exc:
                    raise TraceParseError(
                        path, line_no, f"bad record: {exc}") from exc
                if rec.frame_id <= prev:
                    raise TraceOrderError(path, line_no, rec.frame_id, prev)
                prev = rec.frame_id
                if meta is not None:
                    for d in rec.detections:
                        x1, y1, x2, y2 = d.bbox
                        if (x1 < 0 or y1 < 0 or x2 > meta.width
                                or y2 > meta.height):
                            raise TraceParseError(
                                path, line_no,
                                f"bbox {d.bbox} outside resolution")
                yield rec
        except UnicodeDecodeError as exc:
            # raised by the read of a whole chunk of lines, so the line is
            # found on a second read that decodes every line
            raise TraceParseError(
                path, _first_undecodable_line(path),
                f"bad record: not UTF-8 ({exc.reason})") from exc


# a byte that is not UTF-8, as `errors="surrogateescape"` decodes it
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _first_undecodable_line(path: Path) -> int:
    """The number of the first line of `path` holding a byte that is not
    UTF-8.  Lines split as in `open_trace`: both read in universal-newline
    text mode."""
    with path.open(encoding="utf-8", errors="surrogateescape") as fh:
        return next((line_no for line_no, line in enumerate(fh, start=1)
                     if _ESCAPED_BYTE.search(line)), 0)


def write_trace(records: Iterable[TraceRecord], path) -> None:
    with Path(path).open("w") as fh:
        for rec in records:
            fh.write(json.dumps(record_to_json(rec), sort_keys=True) + "\n")


@dataclass
class GroundTruthEntry:
    frame_id: int
    label: Optional[bool] = None
    objects: list[dict] = field(default_factory=list)


def write_ground_truth(entries: Iterable[GroundTruthEntry], path) -> None:
    with Path(path).open("w") as fh:
        for e in entries:
            obj: dict[str, Any] = {"frame": e.frame_id}
            if e.label is not None:
                obj["label"] = e.label
            if e.objects:
                obj["objects"] = e.objects
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def meta_from_json(obj: dict) -> VideoMeta:
    """The video meta of a decoded meta block.  A field of the wrong type or
    value raises `KeyError`, `TypeError`, `ValueError` or `OverflowError`."""
    return VideoMeta(
        fps=float(obj["fps"]),
        width=int(obj["width"]),
        height=int(obj["height"]),
        frame_count=int(obj["frames"]),
        px_per_m=float(obj["px_per_m"]) if obj.get("px_per_m") is not None else None,
    )


def meta_to_json(meta: VideoMeta) -> dict:
    obj: dict[str, Any] = {
        "fps": meta.fps,
        "width": meta.width,
        "height": meta.height,
        "frames": meta.frame_count,
    }
    if meta.px_per_m is not None:
        obj["px_per_m"] = meta.px_per_m
    return obj


def load_meta(path) -> VideoMeta:
    with Path(path).open() as fh:
        return meta_from_json(json.load(fh))


def write_meta(meta: VideoMeta, path) -> None:
    Path(path).write_text(json.dumps(meta_to_json(meta), sort_keys=True) + "\n")

"""Detection-trace ingestion and on-disk formats.

Traces are line-delimited JSON, one record per frame, so readers can stream
without loading whole files.  Frames absent from a trace are frames with zero
detections, not errors.  An absent frame has no channel values either, so an
auto `similar_to_prev` gate compares only the frames a trace lists, and a
trace without its empty lines can answer differently under one (a threshold
gate and the tracker answer alike).
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


@dataclass(slots=True, init=False)
class Detection:
    class_name: str
    bbox: tuple[float, float, float, float]
    score: float
    attrs: dict[str, Any] = field(default_factory=dict)

    def __init__(self, class_name: str, bbox: tuple[float, float, float, float],
                 score: float, attrs: Optional[dict[str, Any]] = None):
        x1, y1, x2, y2 = bbox
        # the outer bounds reject inf; nan fails every comparison
        if not (-_INF < x1 < x2 < _INF and -_INF < y1 < y2 < _INF):
            raise ValueError(f"degenerate or non-finite bbox {bbox}")
        if not 0.0 <= score <= 1.0:
            raise ValueError(f"score {score} outside [0, 1]")
        self.class_name = class_name
        self.bbox = bbox
        self.score = score
        self.attrs = {} if attrs is None else attrs


@dataclass(slots=True, init=False)
class TraceRecord:
    frame_id: int
    detections: tuple[Detection, ...] = ()
    channels: dict[str, float] = field(default_factory=dict)

    def __init__(self, frame_id: int, detections: tuple[Detection, ...] = (),
                 channels: Optional[dict[str, float]] = None):
        if channels is None:
            channels = {}
        for name, value in channels.items():
            if not -_INF < value < _INF:  # nan fails both comparisons
                raise ValueError(f"non-finite channel {name}={value}")
        self.frame_id = frame_id
        self.detections = detections
        self.channels = channels


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


def _build_record(obj, by_orjson: bool, meta: Optional[VideoMeta]
                  ) -> Optional[tuple[TraceRecord, Optional[tuple]]]:
    """The record of a decoded trace line, and its first box outside
    `meta`'s resolution (None if there is none or no `meta`), in one pass
    over the fields in order: the frame id, each detection's class, bbox,
    score and attrs, then the channels.  The first bad field raises
    `KeyError`, `TypeError`, `ValueError` or `OverflowError`, naming it.  A
    frame id is an integer, a whole float or a string of an integer.  An
    attrs or channels dict the decoder made is kept when its values are of
    the right type.  With `by_orjson`, None where json may read the line
    differently: the frame id or attrs, kept as read, hold a float of
    magnitude 2**63 or more (see `_exact`).  bbox, score and channel values
    go through `float()`, which gives the same either way."""
    frame = obj["frame"]
    cls = frame.__class__
    if cls is int:
        frame_id = frame
    elif cls is float:
        if by_orjson and not -_BIG < frame < _BIG:
            return None
        frame_id = int(frame)  # nan and inf raise here
        if frame_id != frame:
            raise ValueError(f"frame id {frame} is not a whole number")
    elif cls is bool:
        raise ValueError(f"frame id {frame} is not a whole number")
    else:
        frame_id = int(frame)
    detections = []
    outside = None
    for d in obj.get("dets", ()):
        class_name = d["class"]
        if class_name.__class__ is not str:
            raise TypeError(f"class {class_name!r} is not a string")
        bbox = d["bbox"]
        # a list of four converts as `map` would, in a third of the time
        if bbox.__class__ is list and len(bbox) == 4:
            x1, y1, x2, y2 = bbox
            bbox = (float(x1), float(y1), float(x2), float(y2))
        else:
            bbox = tuple(map(float, bbox))
        score = float(d.get("score", 1.0))
        attrs = d.get("attrs")
        if attrs.__class__ is dict:
            if by_orjson:
                for value in attrs.values():
                    cls = value.__class__
                    if cls is float:
                        if not -_BIG < value < _BIG:
                            return None
                    elif (cls is dict or cls is list) and not _exact(value):
                        return None
        elif "attrs" in d:  # a list of pairs, whose keys may be numbers
            if by_orjson and not _exact(attrs):
                return None
            attrs = dict(attrs)
        detections.append(Detection(class_name, bbox, score, attrs))
        if outside is None and meta is not None:
            x1, y1, x2, y2 = bbox
            if x1 < 0 or y1 < 0 or x2 > meta.width or y2 > meta.height:
                outside = bbox
    channels = obj.get("channels")
    if channels.__class__ is dict:
        for value in channels.values():
            if value.__class__ is not float:
                channels = {k: float(v) for k, v in channels.items()}
                break
    elif channels is not None or "channels" in obj:
        raise TypeError(f"channels {channels!r} is not an object")
    return TraceRecord(frame_id, tuple(detections), channels), outside


def open_trace(path, meta: Optional[VideoMeta] = None) -> Iterator[TraceRecord]:
    """Stream records from a trace file in strictly increasing frame order.

    With `meta` given, detection boxes are checked against the resolution.
    A line is a bad record first, then out of order, then holds a box
    outside the resolution.  Every record, and every bad record's message,
    is what `json.loads` and `_build_record` give, trailing data rejected.
    orjson decodes a line where json would read it alike; json reads it
    when it may nest `deep` levels (orjson has no depth limit), when orjson
    refuses it (NaN, Infinity, a number past float range, an escaped lone
    surrogate, malformed JSON), when the record is bad, so that every error
    is json's, and when `_build_record` finds orjson's reading inexact.
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
                    built = None
                    # nesting d levels takes 2d characters
                    if (len(line) < 2 * deep
                            or line.count("{") + line.count("[") < deep):
                        try:
                            built = _build_record(_loads(line), True, meta)
                        except _RECORD_ERRORS:
                            pass
                    if built is None:
                        built = _build_record(json.loads(line), False, meta)
                except _RECORD_ERRORS as exc:
                    raise TraceParseError(
                        path, line_no, f"bad record: {exc}") from exc
                rec, outside = built
                if rec.frame_id <= prev:
                    raise TraceOrderError(path, line_no, rec.frame_id, prev)
                prev = rec.frame_id
                if outside is not None:
                    raise TraceParseError(
                        path, line_no, f"bbox {outside} outside resolution")
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

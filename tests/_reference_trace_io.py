"""Frozen trace parser: the reference for `vidquery.trace_io.open_trace`.

This is the parser `vidquery.trace_io` had before its records became
slotted dataclasses built from one lean decode path: frozen dataclasses
built with keyword arguments, and one `json.loads` per line.  It is kept
unchanged so tests can require the engine's parser to give field-equal
records, or the same error at the same line with the same message, on every
input.  Do not edit it to follow the engine.  It raises the engine's own
error classes, so an error compares by type as well as by text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional

from vidquery.trace_io import TraceOrderError, TraceParseError, VideoMeta

_INF = math.inf


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

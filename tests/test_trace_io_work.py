"""The trace parser's work per line, counted in Python frames, not timed.

`open_trace` builds each record in one pass: one call of the builder, one
constructor frame per record and one per detection, plus the generator's
resumption that yields the record.  A profile hook counts every Python
frame entered while a fixed 50-line trace is read; the count for an empty
trace, the opening of the file and the generator's first entry, is taken
off.  Left out of the count are comprehensions, which CPython 3.11 runs
each in a frame of its own and 3.12 inlines, and the text decoder, entered
once for each chunk of the file, not for each line.
"""

import codecs
import random
import sys

from vidquery.trace_io import (Detection, TraceRecord, VideoMeta, open_trace,
                               write_trace)

META = VideoMeta(fps=10.0, width=640, height=480, frame_count=50)
COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>"}
DECODE = codecs.BufferedIncrementalDecoder.decode.__code__


def _records():
    rng = random.Random(50)
    for frame in range(50):
        dets = []
        for _ in range(rng.randrange(4)):
            x, y = rng.uniform(0, 500), rng.uniform(0, 400)
            dets.append(Detection(
                class_name=rng.choice(["car", "person"]),
                bbox=(x, y, x + rng.uniform(5, 100), y + rng.uniform(5, 60)),
                score=rng.random(), attrs={"color": rng.choice(["red", "blue"])}))
        yield TraceRecord(frame_id=frame, detections=tuple(dets),
                          channels={"motion_score": rng.random()})


def _frames_entered(path):
    """The Python frames entered while `open_trace` reads `path` with
    `META`, and the records read."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        code = frame.f_code
        if (event == "call" and code.co_name not in COMPREHENSIONS
                and code is not DECODE):
            count += 1

    sys.setprofile(profile)
    try:
        records = list(open_trace(path, META))
    finally:
        sys.setprofile(None)
    return count, records


def test_one_builder_frame_and_one_constructor_frame_per_record(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_trace(_records(), path)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    fixed, none = _frames_entered(empty)
    assert none == []
    count, records = _frames_entered(path)
    assert records == list(_records())
    detections = sum(len(rec.detections) for rec in records)
    assert len(records) == 50 and detections > 50
    assert count - fixed <= 3 * len(records) + detections

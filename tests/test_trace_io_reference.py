"""The trace parser against the frozen reference parser.

`_reference_trace_io.py` holds the parser with frozen dataclasses and one
`json.loads` per line.  On every seeded trace, well-formed or not, both
must yield field-equal records (floats compared bit for bit, ints and
floats told apart) and then end alike: cleanly, or with the same error
class at the same line with the same message.  The one allowed difference
is a line on which the reference crashes with an exception that is no
`TraceError` (a `channels` that is no object, an infinite frame id, an
integer too large for a float, JSON nested past the recursion limit): the
engine rejects it as a `TraceParseError` after the same records.
"""

import json
import random
import struct
from collections import Counter

import _reference_trace_io as reference
from vidquery.trace_io import TraceError, TraceParseError, VideoMeta, open_trace

TRACES = 400
META = VideoMeta(fps=10.0, width=640, height=480, frame_count=100)
REFERENCE_CRASHES = (AttributeError, OverflowError, RecursionError)
CRASH_KINDS = {"channels-not-object", "frame-infinite", "huge-int",
               "deep-nesting"}

# a value that json.dumps cannot write, spliced in after dumping
RAW = {"@1e400@": "1e400", "@-1e400@": "-1e400",
       "@deep@": "[" * 5000 + "]" * 5000}

WORDS = ["red", "blue", "rød", "青", "🚗", "a\"b", "tab\tbed", "", "naïve"]


def _number(rng, value):
    """`value` written as an int, a float or a string of either."""
    kind = rng.randrange(4)
    if kind == 0 and float(value).is_integer():
        return int(value)
    if kind == 1:
        return str(value)
    return float(value)


def _bbox(rng):
    x1 = rng.choice([0.0, -0.0, 5e-324, rng.uniform(0, 300)])
    y1 = rng.choice([0.0, -0.0, 5e-324, rng.uniform(0, 200)])
    x2 = x1 + rng.choice([1e-9, 1.0, rng.uniform(1, 300)])
    y2 = y1 + rng.choice([1e-9, 1.0, rng.uniform(1, 250)])
    return [_number(rng, v) for v in (x1, y1, x2, y2)]


def _attrs(rng):
    out = {}
    for _ in range(rng.randrange(4)):
        out[rng.choice(WORDS)] = rng.choice([
            rng.choice(WORDS), rng.randrange(-3, 3), -0.0, 5e-324, None, True,
            [rng.random(), "x"], {"nested": rng.choice(WORDS)},
        ])
    return out


def _detection(rng):
    det = {"class": rng.choice(["car", "person", "bag", "Ünï"]),
           "bbox": _bbox(rng)}
    if rng.random() < 0.8:
        det["score"] = _number(rng, rng.choice([0, 1, 0.5, 5e-324, -0.0,
                                                rng.random()]))
    if rng.random() < 0.6:
        det["attrs"] = _attrs(rng)
    if rng.random() < 0.2:
        det["extra"] = rng.choice(WORDS)
    return det


def _record(rng, frame):
    rec = {"frame": _number(rng, frame)}
    if rng.random() < 0.85:
        rec["dets"] = [_detection(rng) for _ in range(rng.randrange(4))]
    if rng.random() < 0.6:
        rec["channels"] = {rng.choice(["motion_score", "lümen", "c"]):
                           _number(rng, rng.choice([0, -0.0, 5e-324, 0.5,
                                                    -7.25, 1e300]))
                           for _ in range(rng.randrange(3))}
    if rng.random() < 0.2:
        rec[rng.choice(["note", "ëxtra", "meta"])] = rng.choice(
            [rng.choice(WORDS), [1, 2], {"k": None}])
    return rec


def _det_of(rng, rec):
    if not rec.get("dets"):
        rec["dets"] = [_detection(rng)]
    return rng.choice(rec["dets"])


# malformation -> function(rng, record, previous frame id) giving the line's
# text, or None to dump the record it changed
def _mutate(fn):
    def bad(rng, rec, prev):
        fn(rng, rec, prev)
        return None
    return bad


def _in_det(key, *values):
    return _mutate(lambda rng, rec, prev: _det_of(rng, rec).__setitem__(
        key, rng.choice(values)))


def _in_bbox(*values):
    def fn(rng, rec, prev):
        det = _det_of(rng, rec)
        det["bbox"] = [float(v) for v in det["bbox"]]
        det["bbox"][rng.randrange(4)] = rng.choice(values)
    return _mutate(fn)


def _in_rec(key, *values):
    return _mutate(lambda rng, rec, prev: rec.__setitem__(
        key, rng.choice(values)))


def _drop_det_key(key):
    return _mutate(lambda rng, rec, prev: _det_of(rng, rec).pop(key))


def _degenerate(rng, rec, prev):
    det = _det_of(rng, rec)
    x1, y1, x2, y2 = (float(v) for v in det["bbox"])
    det["bbox"] = rng.choice([[x1, y1, x1, y2], [x1, y1, x2, y1],
                              [x2, y1, x1, y2], [x1, y2, x2, y1]])


def _outside(rng, rec, prev):
    det = _det_of(rng, rec)
    det["bbox"] = rng.choice([[-1.0, 0.0, 10.0, 10.0], [0.0, -0.5, 10.0, 10.0],
                              [600.0, 0.0, 641.0, 10.0],
                              [0.0, 400.0, 10.0, 480.5]])


MALFORMED = {
    "bad-json": lambda rng, rec, prev: rng.choice([
        '{"frame": 1, "de', "not json", '{"frame": 1,}', "{'frame': 1}",
        '{"frame": 01}', "[1, 2", '{"frame": NaN']),
    "byte-order-mark": lambda rng, rec, prev: "\ufeff" + json.dumps(rec),
    "trailing-data": lambda rng, rec, prev: json.dumps(rec) + rng.choice(
        [" x", "{}", "  5", " \t {\"frame\": 9}", "]", ", 1"]),
    "not-an-object": lambda rng, rec, prev: rng.choice(
        ["[1, 2]", '"frame"', "5", "null", "true", "[]"]),
    "missing-frame": _mutate(lambda rng, rec, prev: rec.pop("frame")),
    "missing-class": _drop_det_key("class"),
    "missing-bbox": _drop_det_key("bbox"),
    "frame-type": _in_rec("frame", "abc", None, [1], {"f": 1}, "1.5", ""),
    "dets-type": _in_rec("dets", 5, None, "abc", {"class": "car"}, [5],
                         ["car"], [None], [[1, 2]]),
    "bbox-type": _in_det("bbox", 5, "abcd", [1, 2, 3], [1, 2, 3, 4, 5], None,
                         [1, 2, "x", 4], [[1], 2, 3, 4], {"a": 1}),
    "score-type": _in_det("score", None, "x", [0.5], {}),
    "attrs-type": _in_det("attrs", 5, "ab", [["k", "v"]], [1], None),
    "channel-value": _mutate(lambda rng, rec, prev: rec.__setitem__(
        "channels", {"m": rng.choice([None, "x", [1], {}, "1.5"])})),
    "degenerate-bbox": _mutate(_degenerate),
    "non-finite-bbox": _in_bbox(float("inf"), float("-inf"), float("nan"),
                                "@1e400@", "@-1e400@"),
    "score-range": _in_det("score", 1.5, -0.1, float("nan"), 1.0000001,
                           float("inf"), "2"),
    "non-finite-channel": _mutate(lambda rng, rec, prev: rec.__setitem__(
        "channels", {"m": rng.choice([float("nan"), float("inf"),
                                      float("-inf"), "@1e400@", "nan"])})),
    "out-of-order": _mutate(lambda rng, rec, prev: rec.__setitem__(
        "frame", rng.choice([prev, prev - 1]))),
    "outside-meta": _mutate(_outside),
    # the reference crashes on these with no TraceError
    "channels-not-object": _in_rec("channels", None, [["m", 1.0]], "m", 5),
    "frame-infinite": _in_rec("frame", float("inf"), float("-inf"),
                              "@1e400@", "@-1e400@"),
    "huge-int": _mutate(lambda rng, rec, prev: rng.choice([
        lambda: _det_of(rng, rec).__setitem__("bbox", [10 ** 400, 0, 1, 1]),
        lambda: _det_of(rng, rec).__setitem__("score", -(10 ** 400)),
        lambda: rec.__setitem__("channels", {"m": 10 ** 400}),
    ])()),
    "deep-nesting": _in_rec("note", "@deep@"),
}


def _dump(rng, obj) -> str:
    text = json.dumps(obj, ensure_ascii=rng.random() < 0.5,
                      separators=rng.choice([None, (",", ":")]))
    for marker, raw in RAW.items():
        text = text.replace(json.dumps(marker), raw)
    return text


def _trace(rng) -> tuple[list[str], list[str]]:
    """The lines of one trace and the malformations placed in it."""
    lines, kinds = [], []
    prev = frame = -1
    for _ in range(rng.randrange(1, 10)):
        if rng.random() < 0.15:
            lines.append(rng.choice(["", "   ", "\t", " \r"]))
            continue
        prev, frame = frame, frame + rng.choice([1, 1, 2, 5])
        rec = _record(rng, frame)
        text = None
        if rng.random() < 0.2:
            kind = rng.choice(sorted(MALFORMED))
            kinds.append(kind)
            text = MALFORMED[kind](rng, rec, prev)
        if text is None:
            text = _dump(rng, rec)
        lines.append(rng.choice(["", " ", "\t"]) + text
                     + rng.choice(["", " ", "\t", "\r"]))
    return lines, kinds


def _bits(value):
    """`value` with every float as its bytes and every type kept."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(_bits(v) for v in value))
    if isinstance(value, dict):
        return ("dict", tuple((_bits(k), _bits(v)) for k, v in value.items()))
    return (type(value).__name__, value)


def _fields(rec):
    return _bits([
        rec.frame_id,
        [[d.class_name, d.bbox, d.score, d.attrs] for d in rec.detections],
        rec.channels,
    ])


def _outcome(records):
    """Every record's fields until the stream ends, and the error ending it."""
    out = []
    try:
        for rec in records:
            out.append(_fields(rec))
    except (TraceError, *REFERENCE_CRASHES) as exc:
        return out, exc
    return out, None


def test_records_and_errors_equal_the_reference(tmp_path):
    seen = Counter()
    for seed in range(TRACES):
        rng = random.Random(seed)
        lines, kinds = _trace(rng)
        path = tmp_path / f"trace{seed}.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        meta = META if seed % 3 else None
        got, got_err = _outcome(open_trace(path, meta))
        want, want_err = _outcome(reference.open_trace(path, meta))
        where = f"seed {seed}: {kinds}"
        assert got == want, where
        if isinstance(want_err, REFERENCE_CRASHES):
            assert set(kinds) & CRASH_KINDS, where
            assert isinstance(got_err, TraceParseError), where
            assert str(got_err).startswith(f"{path}:"), where
            assert "bad record: " in str(got_err), where
            seen["reference crash"] += 1
        elif want_err is None:
            assert got_err is None, where
            seen["clean"] += 1
        else:
            assert type(got_err) is type(want_err), where
            assert got_err.line_no == want_err.line_no, where
            assert str(got_err) == str(want_err), where
            seen[type(want_err).__name__] += 1
        seen.update(kinds)
    # every malformation was tried, and every ending was reached
    assert set(MALFORMED) <= set(seen), set(MALFORMED) - set(seen)
    for ending in ("clean", "TraceParseError", "TraceOrderError",
                   "reference crash"):
        assert seen[ending] >= 5, seen

"""The trace parser reads every line as json does, line by line.

`open_trace` decodes a line with orjson, and with json where orjson refuses
it or could read it differently: an integer outside [-2**63, 2**64), which
orjson reads as a float, and nesting deeper than json's recursion limit,
which orjson reads.  Each case below is a trace of explicit lines, checked
against the frozen `_reference_trace_io.py` parser, which decodes with
`json.loads`: the same records (floats bit for bit, ints and floats told
apart), then the same error class at the same line with the same message.
Where the reference crashes with an exception that is no `TraceError`, the
engine must raise `TraceParseError` with that exception's text, or, for a
`channels` that is no object, name json's reading of it.  Two differences
are allowed: where the reference reads a detection class that is not a
string, or truncates a frame id that is a bool or a float with a fraction,
the engine raises `TraceParseError` at that line, naming json's reading.
"""

import json
import math
import random
import struct

import orjson
import pytest

import _reference_trace_io as reference
from vidquery.trace_io import (TraceError, TraceParseError, VideoMeta,
                               open_trace)

META = VideoMeta(fps=10.0, width=640, height=480, frame_count=100)
REFERENCE_CRASHES = (AttributeError, OverflowError, RecursionError)

# the edges of orjson's integer range, [-2**63, 2**64)
EDGES = [2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1, 2 ** 64, -2 ** 63, -2 ** 63 - 1]


def _det(cls='"car"', bbox="[1, 2, 30, 40]", score="0.5",
         attrs='{"color": "red"}'):
    return (f'{{"class": {cls}, "bbox": {bbox}, "score": {score}, '
            f'"attrs": {attrs}}}')


def _line(frame="0", dets=(), channels='{"m": 0.5}', extra=""):
    return (f'{{"frame": {frame}, "dets": [{", ".join(dets)}], '
            f'"channels": {channels}{extra}}}')


def _big_int_cases():
    for n in EDGES:
        # a frame id equal to the one before it names both in the message
        yield f"frame {n}", [_line(frame=n), _line(frame=n)]
        yield f"class {n}", [_line(dets=[_det(cls=n)])]
        yield f"class [{n}]", [_line(dets=[_det(cls=f"[{n}]")])]
        yield f"attrs {n}", [_line(dets=[_det(attrs=f'{{"k": {n}}}')])]
        yield f"nested attrs {n}", [_line(dets=[_det(
            attrs=f'{{"k": {{"deeper": [1, {{"n": {n}}}]}}}}')])]
        yield f"attrs list {n}", [_line(dets=[_det(
            attrs=f'{{"k": [1, {n}]}}')])]
        yield f"attrs pairs {n}", [_line(dets=[_det(
            attrs=f'[["k", "v"], [{n}, "v"]]')])]  # n is a key
        bbox = f"[0, 0, {n}, 1]" if n > 0 else f"[{n}, 0, 1, 1]"
        yield f"bbox {n}", [_line(dets=[_det(bbox=bbox)])]
        yield f"bbox {n} on meta", [_line(dets=[_det(bbox=bbox)])]
        yield f"score {n}", [_line(dets=[_det(score=n)])]
        yield f"channel {n}", [_line(channels=f'{{"m": {n}}}')]
        yield f"channels {n}", [_line(channels=n)]
        yield f"channels [{n}]", [_line(channels=f"[{n}, 1.5]")]


def _non_finite_cases():
    for word in ("NaN", "Infinity", "-Infinity"):
        yield f"frame {word}", [_line(frame=word)]
        yield f"bbox {word}", [_line(dets=[_det(bbox=f"[0, 0, {word}, 1]")])]
        yield f"score {word}", [_line(dets=[_det(score=word)])]
        yield f"attrs {word}", [_line(dets=[_det(attrs=f'{{"k": {word}}}')])]
        yield f"channel {word}", [_line(channels=f'{{"m": {word}}}')]
        yield f"ignored {word}", [_line(extra=f', "note": {word}')]
    yield "ignored 1e400", [_line(extra=', "note": 1e400')]
    yield "ignored 400 digits", [_line(extra=', "note": ' + "9" * 400)]


def _string_cases():
    for text in (r'"\ud800"', r'"\udfff"', r'"\ud800A"',
                 r'"🚗"', '"🚗"', r'"é"', r'"\u0000"'):
        yield f"class {text}", [_line(dets=[_det(cls=text)])]
        yield f"attrs {text}", [_line(dets=[_det(
            attrs=f'{{"k": {text}, {text}: 1}}')])]
        yield f"channel {text}", [_line(channels=f'{{{text}: 1.5}}')]


def _duplicate_key_cases():
    yield "frame twice", ['{"frame": 0, "frame": 1}',
                          '{"frame": 1, "frame": 0}']
    yield "attrs twice", [_line(dets=[_det(
        attrs='{"a": 1, "b": 2, "a": 3}')])]
    yield "big int overwritten", [_line(dets=[_det(
        attrs=f'{{"a": {2 ** 64}, "b": 2, "a": 1}}')])]
    yield "big int overwrites", [_line(dets=[_det(
        attrs=f'{{"a": 1, "a": {2 ** 64}}}')])]
    yield "dets twice", ['{"frame": 0, "dets": [' + _det() + '], "dets": []}']


def _nesting_cases():
    for depth in (400, 1000, 5000):
        nested = "[" * depth + "]" * depth
        yield f"ignored {depth} deep", [_line(extra=f', "note": {nested}')]
        yield f"attrs {depth} deep", [_line(dets=[_det(
            attrs=f'{{"k": {nested}}}')])]
        yield f"attrs {depth} deep objects", [_line(dets=[_det(
            attrs='{"k": ' + '{"k": ' * depth + "1" + "}" * depth + "}")])]


def _bracket_string_cases():
    # brackets in strings do not nest, an escaped quote does not end a
    # string, and an escaped backslash does not escape the quote after it
    brackets = "[{" * 600
    yield "brackets in strings", [_line(dets=[_det(
        attrs=f'{{"k": "{brackets}", "q\\"{brackets}": "\\"]}}"}}')])]
    nested = "[" * 1000 + "]" * 1000
    yield "1000 deep between escaped backslashes", [_line(
        extra=f', "note": "\\\\", "deep": {nested}, "more": "\\\\"')]


def _frame_cases():
    # a bool or a float with a fraction is a bad record; a whole float, or a
    # float past orjson's integer range, is read as json reads it
    for text in ("0.9", "8.99", "-0.5", "true", "false", "3.0", "-0.0",
                 "1.5e1", "1e19", '"3"'):
        yield f"frame {text}", [_line(frame=text)]
        yield f"frame {text} after frame 0", [_line(), _line(frame=text)]


def _value_type_cases():
    # channel values that are no floats, and the order of a line's checks:
    # out of order before a box outside, and the first box outside named
    yield "channel int", [_line(channels='{"m": 1, "n": 0.5}')]
    yield "channel string", [_line(channels='{"m": 0.5, "n": "0.25"}')]
    yield "out of order and outside on meta", [
        _line(frame="1"), _line(dets=[_det(bbox="[600, 0, 700, 10]")])]
    yield "two boxes outside on meta", [_line(dets=[
        _det(bbox="[-1, 0, 10, 10]"), _det(bbox="[0, 0, 10, 500]")])]


def _wide_cases():
    dets = [_det(bbox=f"[{i}, {i}, {i + 20.5}, {i + 1e-9}]",
                 attrs=f'{{"i": {i}, "color": "red"}}') for i in range(400)]
    yield "400 detections", [_line(dets=dets), _line(frame=1, dets=dets)]


CASES = dict(case for cases in (
    _big_int_cases(), _non_finite_cases(), _string_cases(),
    _duplicate_key_cases(), _nesting_cases(), _bracket_string_cases(),
    _frame_cases(), _value_type_cases(), _wide_cases(),
) for case in cases)


def _fields(rec):
    """A record's fields with every type kept, each float as its type and
    its bytes; a repr, so deep attrs compare without recursing in Python."""
    def floats(values):
        return [(type(v), struct.pack("<d", v)) for v in values]
    return repr([
        type(rec.frame_id), rec.frame_id, floats(rec.channels.values()),
        list(rec.channels),
        [[d.class_name, floats(d.bbox), floats([d.score]), d.attrs]
         for d in rec.detections],
    ])


def _outcome(records):
    out = []
    try:
        for rec in records:
            out.append(_fields(rec))
    except (TraceError, *REFERENCE_CRASHES) as exc:
        return out, exc
    return out, None


def _classes_are_strings(records, path):
    """The reference's records, ended as the engine ends them at a class
    that is not a string."""
    for line_no, rec in enumerate(records, start=1):
        for d in rec.detections:
            if d.class_name.__class__ is not str:
                raise TraceParseError(
                    path, line_no,
                    f"bad record: class {d.class_name!r} is not a string")
        yield rec


def _frames_are_whole(records, lines, path):
    """The reference's records, ended as the engine ends them at a frame id
    that json reads as a bool or a finite float with a fraction, ahead of
    every other check of that line."""
    records = iter(records)
    for line_no, line in enumerate(lines, start=1):
        try:
            frame = json.loads(line)["frame"]
        except (ValueError, KeyError, TypeError, RecursionError):
            frame = None
        if frame.__class__ is bool or (frame.__class__ is float
                                       and math.isfinite(frame)
                                       and not frame.is_integer()):
            raise TraceParseError(
                path, line_no,
                f"bad record: frame id {frame} is not a whole number")
        rec = next(records, None)
        if rec is None:
            return
        yield rec


@pytest.mark.parametrize("name", list(CASES))
def test_line_reads_as_json_reads_it(tmp_path, name):
    lines = CASES[name]
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    meta = META if name.endswith("on meta") else None
    got, got_err = _outcome(open_trace(path, meta))
    want, want_err = _outcome(_classes_are_strings(
        _frames_are_whole(reference.open_trace(path, meta), lines, path),
        path))
    assert got == want
    if want_err is None:
        assert got_err is None
        return
    assert type(got_err) is (TraceParseError
                             if isinstance(want_err, REFERENCE_CRASHES)
                             else type(want_err))
    line_no = len(want) + 1
    assert got_err.line_no == line_no
    if isinstance(want_err, AttributeError):  # json's reading, named
        channels = json.loads(lines[line_no - 1])["channels"]
        message = f"bad record: channels {channels!r} is not an object"
    elif isinstance(want_err, REFERENCE_CRASHES):
        message = f"bad record: {want_err}"
    else:
        assert str(got_err) == str(want_err)
        return
    assert str(got_err) == f"{path}:{line_no}: {message}"


def test_cases_reach_every_ending(tmp_path):
    """The cases end cleanly, with each error class and with a reference
    crash, and some of their lines only json reads alike."""
    endings = set()
    for name, lines in CASES.items():
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        endings.add(type(_outcome(reference.open_trace(path))[1]).__name__)
    assert endings == {"NoneType", "TraceParseError", "TraceOrderError",
                       "AttributeError", "OverflowError", "RecursionError"}
    only_json = {name for name, lines in CASES.items()
                 if not all(map(_orjson_reads_alike, lines))}
    for name in (f"frame {2 ** 64}", f"attrs pairs {2 ** 64}",
                 "ignored 1000 deep",
                 "1000 deep between escaped backslashes",
                 "class \"\\ud800\"", "frame NaN"):
        assert name in only_json, name


def _orjson_reads_alike(line):
    try:
        return repr(orjson.loads(line)) == repr(json.loads(line))
    except (ValueError, RecursionError):
        return False


def _float_literal(rng):
    """A JSON number: a float's repr (some subnormal), or a 17-25 digit
    mantissa with an exponent from -330 to 310."""
    kind = rng.randrange(3)
    if kind == 0:
        value = struct.unpack("<d", rng.randbytes(8))[0]
        return repr(value) if value - value == 0 else "0.0"  # finite
    if kind == 1:
        return repr(rng.uniform(0, 1e-307) * rng.choice((1, 1e-10, 1e-16)))
    digits = str(rng.randrange(10 ** 16, 10 ** rng.randint(17, 25)))
    sign = rng.choice(("", "-"))
    return f"{sign}{digits[0]}.{digits[1:]}e{rng.randint(-330, 310)}"


def test_floats_decode_bit_identically():
    """orjson and json agree bit for bit on float literals, and on large
    integers once read through `float()`, the way bbox, score and channel
    values are read."""
    rng = random.Random(20231)
    literals = []
    while len(literals) < 100_000:
        text = _float_literal(rng)
        if abs(json.loads(text)) != float("inf"):  # orjson refuses those
            literals.append(text)
    for i in range(0, len(literals), 10_000):
        array = "[" + ", ".join(literals[i:i + 10_000]) + "]"
        want = struct.pack("<10000d", *json.loads(array))
        assert struct.pack("<10000d", *orjson.loads(array)) == want
    integers = [rng.choice((1, -1))
                * rng.randrange(2 ** 63, 10 ** rng.randint(19, 300))
                for _ in range(20_000)]
    array = "[" + ", ".join(map(str, integers)) + "]"
    # orjson reads those below 2**64 as ints, the rest as floats
    assert [float(v) for v in orjson.loads(array)] == \
        [float(v) for v in json.loads(array)]

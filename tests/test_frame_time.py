"""Time on a track is counted in frames.

A frame the tracker does not see, because a gate dropped it or the trace
omits it, ages a track as a frame without detections does, and `speed`
divides by the frames its window spans.  The world script is the oracle:
a track that outlives its car by a gap longer than `max_age` would hand
its id, and its memoized colour, to the next car in its place.
"""

import json

import pytest

from conftest import (CAR_PROGRAM, car, frozen_registry, make_program,
                      meta_1000, run_single)
from vidquery.executor import ExecConfig, serialize_outcome
from vidquery.registry import Registration
from vidquery.synth import WorldSpec, write_world

GATED = CAR_PROGRAM + """
query gated_reds {
  bind s: Scene
  bind c: Car
  frame_constraint: s.motion_score >= 0.5 & c.color == "red"
}
query reds {
  bind c: Car
  frame_constraint: c.color == "red"
}
"""

OPEN = set(range(10)) | set(range(60, 70))  # the gate's open frames


def handover_world(tmp_path):
    """A red car on frames 0-12 and, from frame 50 on, a blue car where the
    red one would be had it stayed: frames 13-49 hold no car, and the gate
    is shut from frame 10 to frame 59, 50 frames, more than the default
    `max_age` of 30."""
    meta = meta_1000(100)
    world = WorldSpec(meta=meta, seed=4, objects=[
        car(1, 0, 12, (200.0, 500.0), velocity=(1.0, 0.0), jitter=0.5),
        car(2, 50, 99, (200.0, 500.0), velocity=(1.0, 0.0), color="blue",
            jitter=0.5),
    ], channels={"motion_score": [0.9 if f in OPEN else 0.1
                                  for f in range(100)]})
    return write_world(world, tmp_path / "world")["trace"], meta


def answer(trace, meta, query, exec_config=None):
    outcome, _stats, _dag = run_single(make_program(GATED), query, trace,
                                       meta, exec_config=exec_config)
    return outcome


def test_a_red_track_does_not_pass_to_a_car_after_a_long_gate_gap(tmp_path):
    trace, meta = handover_world(tmp_path)
    assert answer(trace, meta, "gated_reds").satisfied == list(range(10))


def test_no_memo_gives_the_same_bytes(tmp_path):
    trace, meta = handover_world(tmp_path)
    for query in ("gated_reds", "reds"):
        memo = answer(trace, meta, query)
        plain = answer(trace, meta, query, ExecConfig(memo=False))
        assert serialize_outcome(memo) == serialize_outcome(plain), query


def test_absent_frames_answer_as_empty_ones(tmp_path):
    trace, meta = handover_world(tmp_path)
    lines = trace.read_text().splitlines()
    sparse = tmp_path / "sparse.jsonl"
    sparse.write_text("".join(line + "\n" for line in lines
                              if json.loads(line)["dets"]))
    assert 0 < len(sparse.read_text().splitlines()) < len(lines) - 30
    for query, satisfied in (("gated_reds", range(10)), ("reds", range(13))):
        full = answer(trace, meta, query)
        assert full.satisfied == list(satisfied)
        assert serialize_outcome(answer(sparse, meta, query)) == \
            serialize_outcome(full), query


@pytest.mark.parametrize("gate, full, sparse", [
    ({"op": ">=", "threshold": 0.1},
     [1, 2, 4, 5, 7, 8, 16, 17, 19, 20, 22, 23, 25, 26, 28, 29], None),
    # the documented exception: an absent frame has no channel value, so
    # frames 15-17 see no value of the window before them
    ({"mode": "similar_to_prev", "tolerance": 0.05, "window": 3},
     [0, 1, 2], [0, 1, 2, 15, 16, 17]),
], ids=["threshold", "similar_to_prev"])
def test_an_auto_gate_on_absent_frames(tmp_path, gate, full, sparse):
    """A red car on frames 0-9 and another on 15-29, `motion_score`
    cycling 0, 0.1, 0.2, and an auto gate ahead of the detector, on the
    full trace and on the trace without its empty lines (10-14).  A
    threshold gate answers alike; a `similar_to_prev` gate compares only
    the frames the trace lists."""
    meta = meta_1000(30)
    world = WorldSpec(meta=meta, seed=3, objects=[
        car(1, 0, 9, (200.0, 500.0)), car(2, 15, 29, (600.0, 500.0)),
    ], channels={"motion_score": [(0.0, 0.1, 0.2)[f % 3]
                                  for f in range(30)]})
    trace = write_world(world, tmp_path / "world")["trace"]
    registry = frozen_registry([Registration(
        name="busy", kind="frame_filter", cost_units=0.5,
        params={"auto": True, "channel": "motion_score", **gate})])
    sparse_trace = tmp_path / "sparse.jsonl"
    sparse_trace.write_text("".join(line + "\n" for line in
                                    trace.read_text().splitlines()
                                    if json.loads(line)["dets"]))
    program = make_program(GATED)
    outcomes = [run_single(program, "reds", path, meta, registry)[0]
                for path in (trace, sparse_trace)]
    assert outcomes[0].satisfied == full
    if sparse is None:
        assert serialize_outcome(outcomes[1]) == serialize_outcome(outcomes[0])
    else:
        assert outcomes[1].satisfied == sparse


SPEED = CAR_PROGRAM + """
query speeds {
  bind c: Car
  frame_constraint: c.color == "red"
  frame_output: c.speed
}
"""
WINDOW, FPS, PX_PER_M = 5, 10.0, 10.0  # CAR_PROGRAM's window, meta_1000's
VX = 2.0  # px per frame


@pytest.mark.parametrize("start, seen", [
    (0, range(40)),                                     # every frame
    (0, range(0, 40, 2)),                               # every second frame
    (0, [0, 1, 4, 5, 6, 11, 12, 15, 19, 20, 21, 27, 28, 36, 39]),
    (6, [6, 9, 10, 14, 15, 23, 24, 25]),                # born on frame 6
], ids=["every", "every-second", "irregular", "from-birth"])
def test_speed_is_the_scripted_velocity_over_the_window_span(
        tmp_path, start, seen):
    """A car at a constant 2 px a frame, seen on the frames `seen` only:
    the window of its last 5 sightings up to frame f, first to last,
    spans `f - first + 1` frames and `VX * (f - first)` px."""
    meta = meta_1000(40, fps=FPS, px_per_m=PX_PER_M)
    seen = list(seen)
    world = WorldSpec(meta=meta, seed=2, objects=[car(
        1, start, 39, (100.0, 500.0), velocity=(VX, 0.0),
        dropout_frames=frozenset(range(start, 40)) - set(seen))])
    trace = write_world(world, tmp_path / "world")["trace"]
    outcome, _stats, _dag = run_single(make_program(SPEED), "speeds", trace,
                                       meta)
    got = {r["frame"]: r["outputs"]["c.speed"] for r in outcome.rows}
    assert sorted(got) == seen
    want = {}
    for i, f in enumerate(seen[WINDOW - 1:]):  # once the window has filled
        first = seen[i]
        want[f] = VX * (f - first) * FPS / (f - first + 1) / PX_PER_M
    assert {f: v for f, (v,) in got.items() if v is not None} == \
        pytest.approx(want)

"""The engine's work for one stateful comparison, counted in Python frames,
not timed.

A warmed engine, whose window entries' centres are all computed, decides
`c.speed > 1.0` on a tracked object: `verdict`, `_resolve` and `get`, one
`window` that follows the object's links, the cost count, the
implementation's call and the implementation itself, and the comparison.
Nothing builds a context, scans the track's record or calls a helper to
test for Undefined.  A profile hook counts every Python frame entered;
comprehensions are left out, because CPython 3.11 runs each in a frame of
its own and 3.12 inlines them.
"""

import sys

from vidquery.datamodel import VObjInstance
from vidquery.dsl.ast import Compare, PropRef
from vidquery.executor import ExecConfig, ExecStats, PropertyEngine

from conftest import CAR_PROGRAM, frozen_registry, make_program, meta_1000

COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>"}
FRAMES_PER_STATEFUL_VERDICT = 8


def _warmed_engine():
    """An engine with one track of 10 objects moving 10 px a frame, every
    centre computed, and the object on frame 9."""
    stats = ExecStats()
    engine = PropertyEngine(make_program(CAR_PROGRAM), frozen_registry(),
                            meta_1000(10), ExecConfig(), stats)
    engine.link("Car")
    track = engine.track("tracker", "Car", 1)
    for f in range(10):
        x = 100.0 + 10 * f
        node = VObjInstance((f, 0), "Car", f, (x, 500.0, x + 40.0, 540.0),
                            track=track)
        track.append(node)
        engine.get(node, "center")
    engine.get(track.objects[-2], "speed")
    return engine, stats, node


def test_a_stateful_verdict_enters_a_fixed_handful_of_frames():
    engine, stats, node = _warmed_engine()
    expr = Compare(PropRef("c", "speed"), ">", 1.0)
    env = {"c": node}
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name not in COMPREHENSIONS:
            entered.append(frame.f_code.co_name)

    calls = stats.property_calls["Car.speed"]
    sys.setprofile(profile)
    try:
        verdict = engine.verdict(expr, env)
    finally:
        sys.setprofile(None)
    assert verdict is True
    # 40 px over frames 5-9 at 10 fps and 10 px/m
    assert node.properties["speed"] == 40 * 10.0 / 5 / 10.0
    assert stats.property_calls["Car.speed"] == calls + 1
    assert len(entered) <= FRAMES_PER_STATEFUL_VERDICT, entered

"""The engine's work for one comparison, counted in Python frames, not
timed.

A warmed engine, whose window entries' centres are all computed, decides
`c.speed > 1.0` on a tracked object through the comparison's linked
verdict function, which reads the value and compares it itself: the
speed's reader, one `window` that follows the object's links, the cost
count, the implementation's call and the implementation itself.  Nothing
walks the predicate, looks up the property's definition, builds a context,
scans the track's record or calls a helper to test for Undefined or to
compare.  A value already on the node takes the verdict function alone.  A
profile hook counts every Python frame entered; comprehensions are left
out, because CPython 3.11 runs each in a frame of its own and 3.12 inlines
them.
"""

import sys

import pytest

from vidquery.datamodel import VObjInstance
from vidquery.dsl.ast import Compare, PropRef
from vidquery.executor import ExecConfig, ExecStats, PropertyEngine

from conftest import CAR_PROGRAM, frozen_registry, make_program, meta_1000

COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>"}
FRAMES_PER_STATEFUL_VERDICT = 6


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


def _entered(verdict, node) -> tuple[object, list[str]]:
    """`verdict(node)`, and the name of each Python frame it entered."""
    entered = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_name not in COMPREHENSIONS:
            entered.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        result = verdict(node)
    finally:
        sys.setprofile(None)
    return result, entered


def test_a_stateful_verdict_enters_a_fixed_handful_of_frames():
    engine, stats, node = _warmed_engine()
    verdict = engine.predicate(Compare(PropRef("c", "speed"), ">", 1.0),
                               {"c": "Car"})
    calls = stats.property_calls["Car.speed"]
    result, entered = _entered(verdict, node)
    assert result is True
    # 40 px over frames 5-9 at 10 fps and 10 px/m
    assert node.properties["speed"] == 40 * 10.0 / 5 / 10.0
    assert stats.property_calls["Car.speed"] == calls + 1
    assert len(entered) <= FRAMES_PER_STATEFUL_VERDICT, entered


@pytest.mark.parametrize("op, literal", [
    ("==", 8.0), ("!=", 8.0), ("in", (7.0, 8.0)), (">", 1.0)])
def test_a_verdict_on_a_value_on_the_node_enters_one_frame(op, literal):
    engine, stats, node = _warmed_engine()
    engine.get(node, "speed")
    cost = stats.cost_units
    verdict = engine.predicate(Compare(PropRef("c", "speed"), op, literal),
                               {"c": "Car"})
    result, entered = _entered(verdict, node)
    assert result is (op != "!=")
    assert len(entered) == 1, entered
    assert stats.cost_units == cost

"""Frame graphs, tracks, and history windows."""

import pytest

from vidquery.datamodel import (
    UNDEFINED,
    FrameGraph,
    SchemaError,
    Track,
    VObjInstance,
    is_defined,
    window,
)


def node(nid, cls="Car", frame=None, track=None, **props):
    return VObjInstance(
        node_id=nid,
        class_name=cls,
        frame_id=frame if frame is not None else nid[0],
        bbox=(0.0, 0.0, 10.0, 10.0),
        track_id=track,
        properties=dict(props),
    )


def test_undefined_singleton_and_falsiness():
    assert UNDEFINED is type(UNDEFINED)()
    assert not UNDEFINED
    assert not is_defined(UNDEFINED)
    assert is_defined(None) and is_defined(0) and is_defined(False)


def test_nodes_lists_every_part_in_order():
    red, blue = node((0, 0)), node((0, 1))
    g = FrameGraph([[red], [blue, red]])
    assert g.nodes == [red, blue, red]  # an object bound twice counts twice
    assert FrameGraph().nodes == []


class TestTrackHistory:
    def test_window_undefined_until_full(self):
        t = Track.create(1, "Car", {"center": 5})
        for f in range(4):
            t.record("center", f, (f, 0.0))
        assert window(t, "center", 5) is UNDEFINED
        t.record("center", 4, (4, 0.0))
        assert window(t, "center", 5) == [(f, 0.0) for f in range(5)]

    def test_window_end_frame(self):
        t = Track.create(1, "Car", {"center": 3}, slack=10)
        for f in range(10):
            t.record("center", f, f * 1.0)
        assert window(t, "center", 3, end_frame=5) == [3.0, 4.0, 5.0]
        assert window(t, "center", 3, end_frame=1) is UNDEFINED
        assert window(t, "center", 3) == [7.0, 8.0, 9.0]

    def test_record_once_per_frame(self):
        t = Track.create(1, "Car", {"center": 3})
        t.record("center", 0, "a")
        t.record("center", 0, "b")
        t.record("center", 1, "c")
        assert window(t, "center", 2) == ["a", "c"]

    def test_bounded_retention(self):
        t = Track.create(1, "Car", {"center": 2})
        for f in range(50):
            t.record("center", f, f)
        assert len(t.history["center"]) == 2

    def test_undeclared_property(self):
        t = Track.create(1, "Car", {"center": 3})
        with pytest.raises(SchemaError):
            window(t, "speed", 3)

    def test_window_length_validated(self):
        t = Track.create(1, "Car", {"center": 3})
        with pytest.raises(ValueError):
            window(t, "center", 0)

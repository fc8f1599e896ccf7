"""Frame graphs, tracks, and windows over a track's latest objects."""

import pytest

from vidquery.datamodel import (
    UNDEFINED,
    FrameGraph,
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
        properties=dict(props),
        track=track,
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
    """`window` over a track's latest objects."""

    @staticmethod
    def track(depth, frames):
        t = Track.create(1, depth)
        for f in frames:
            t.objects.append(node((f, 0), track=t))
        return t

    def test_window_undefined_until_full(self):
        t = self.track(5, range(4))
        assert window(t, 5, 3) is UNDEFINED
        t.objects.append(node((4, 0), track=t))
        assert [n.frame_id for n in window(t, 5, 4)] == list(range(5))

    def test_window_end_frame(self):
        t = self.track(13, range(10))
        assert [n.frame_id for n in window(t, 3, 5)] == [3, 4, 5]
        assert window(t, 3, 1) is UNDEFINED
        assert [n.frame_id for n in window(t, 3, 9)] == [7, 8, 9]

    def test_window_counts_observations_not_frames(self):
        t = self.track(5, [0, 4, 9])  # tracked on three frames only
        assert [n.frame_id for n in window(t, 3, 9)] == [0, 4, 9]

    def test_bounded_retention(self):
        t = self.track(2, range(50))
        assert [n.frame_id for n in t.objects] == [48, 49]
        assert window(t, 3, 49) is UNDEFINED

    def test_no_window_keeps_no_objects(self):
        assert list(self.track(0, range(5)).objects) == []

    def test_window_length_validated(self):
        t = self.track(3, range(3))
        with pytest.raises(ValueError):
            window(t, 0, 2)

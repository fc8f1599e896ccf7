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
    """`window` over a node and its predecessors on its track."""

    @staticmethod
    def track(depth, frames):
        t = Track.create(1, depth)
        for f in frames:
            t.append(node((f, 0), track=t))
        return t

    @staticmethod
    def at(t, frame):
        """The track's object on `frame`, still kept."""
        (n,) = [n for n in t.objects if n.frame_id == frame]
        return n

    def test_window_undefined_until_full(self):
        t = self.track(5, range(4))
        assert window(self.at(t, 3), 5) is UNDEFINED
        t.append(node((4, 0), track=t))
        assert [n.frame_id for n in window(self.at(t, 4), 5)] == \
            list(range(5))

    def test_window_end_frame(self):
        t = self.track(13, range(10))
        assert [n.frame_id for n in window(self.at(t, 5), 3)] == [3, 4, 5]
        assert window(self.at(t, 1), 3) is UNDEFINED
        assert [n.frame_id for n in window(self.at(t, 9), 3)] == [7, 8, 9]

    def test_window_counts_observations_not_frames(self):
        t = self.track(5, [0, 4, 9])  # tracked on three frames only
        assert [n.frame_id for n in window(self.at(t, 9), 3)] == [0, 4, 9]

    def test_bounded_retention(self):
        t = self.track(2, range(50))
        assert [n.frame_id for n in t.objects] == [48, 49]
        assert self.at(t, 48).prev is None
        assert window(self.at(t, 49), 3) is UNDEFINED
        assert [n.frame_id for n in window(self.at(t, 49), 2)] == [48, 49]

    def test_no_window_keeps_no_objects(self):
        assert list(self.track(0, range(5)).objects) == []

    def test_an_untracked_node_has_no_window(self):
        assert window(node((3, 0)), 1) is UNDEFINED

    def test_window_length_validated(self):
        t = self.track(3, range(3))
        with pytest.raises(ValueError):
            window(self.at(t, 2), 0)

"""Kalman/IoU tracker: geometry oracle, association, and identity keeping."""

import math
import random

import pytest

from conftest import dense_state
from test_tracker_equivalence import GapFilled, assert_same_step
from vidquery import tracker as tracker_module
from vidquery.tracker import (
    SortTracker,
    TrackerConfig,
    associate,
    iou,
    _predict_cov,
    _update_cov,
)


def box_of(x):
    """The box of a mean (cx, cy, area, aspect, ...)."""
    cx, cy, area, aspect = x[:4]
    w = math.sqrt(area * aspect)
    h = area / w
    return (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


def follow(boxes, config=None):
    """A tracker stepped on frames 0, 1, ... with one detection each."""
    tracker = SortTracker(config or TrackerConfig())
    for f, box in enumerate(boxes):
        tracker.step(f, [((f, 0), box)])
    return tracker


@pytest.fixture
def predicted(monkeypatch):
    """The predicted boxes that each step hands to `associate`."""
    seen = []

    def spying(track_boxes, det_boxes, threshold):
        seen.append(list(track_boxes))
        return associate(track_boxes, det_boxes, threshold)

    monkeypatch.setattr(tracker_module, "associate", spying)
    return seen


class TestIoU:
    def test_known_values(self):
        assert iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0
        assert iou((0, 0, 10, 10), (20, 20, 30, 30)) == 0.0
        # overlap 5x10=50, union 100+100-50=150
        assert iou((0, 0, 10, 10), (5, 0, 15, 10)) == pytest.approx(50 / 150)
        assert iou((0, 0, 10, 10), (10, 0, 20, 10)) == 0.0  # touching edges

    def test_matches_shapely_oracle(self):
        shapely = pytest.importorskip("shapely.geometry")
        rng = random.Random(99)
        for _ in range(200):
            def box():
                x1, y1 = rng.uniform(0, 50), rng.uniform(0, 50)
                return (x1, y1, x1 + rng.uniform(1, 30), y1 + rng.uniform(1, 30))
            a, b = box(), box()
            pa = shapely.box(*a)
            pb = shapely.box(*b)
            expected = pa.intersection(pb).area / pa.union(pb).area
            assert iou(a, b) == pytest.approx(expected, abs=1e-9)


class TestKalman:
    def test_box_state_round_trip(self):
        box = (10.0, 20.0, 50.0, 100.0)
        (slot,) = follow([box]).slots
        assert slot.x[:2] == [30.0, 60.0]  # center
        assert slot.x[2] == 40.0 * 80.0  # area
        assert slot.x[3] == pytest.approx(0.5)  # aspect
        assert slot.x[4:] == [0.0, 0.0, 0.0]
        assert box_of(slot.x) == pytest.approx(box)

    def test_static_object_stays_put(self):
        box = (10.0, 10.0, 30.0, 30.0)
        (slot,) = follow([box] * 11).slots
        assert box_of(slot.x) == pytest.approx(box, abs=1e-6)

    def test_velocity_learned_from_motion(self):
        (slot,) = follow([(5.0 * f, 0.0, 5.0 * f + 20.0, 20.0)
                          for f in range(15)]).slots
        # after settling, the one-step-ahead prediction tracks the +5 px/frame motion
        assert slot.x[0] + slot.x[4] == pytest.approx(5.0 * 15 + 10.0, abs=1.0)

    def test_covariance_stays_symmetric(self):
        tracker = SortTracker(TrackerConfig())
        tracker.step(0, [((0, 0), (0.0, 0.0, 10.0, 10.0)),
                         ((0, 1), (5.0, 5.0, 25.0, 15.0))])
        for f in range(1, 6):  # the second track goes unmatched
            tracker.step(f, [((f, 0), (f + 0.0, 0.0, f + 10.0, 10.0))])
        slots = tracker.slots
        assert [s.time_since_update for s in slots] == [0, 5]
        _x, P = dense_state(slots)
        assert (P == P.transpose(0, 2, 1)).all()
        # and positive definite, block by block
        for slot in slots:
            p, c, v = slot.cov[:4], slot.cov[4:7], slot.cov[7:]
            for j in range(3):
                assert p[j] > 0 and p[j] * v[j] > c[j] ** 2
            assert p[3] > 0

    def test_predict_returns_the_predicted_box(self, predicted):
        tracker = follow([(0.0, 0.0, 20.0, 20.0)])
        tracker.slots[0].x[4:] = [3.0, -1.0, 0.0]
        tracker.step(1, [])
        assert predicted[-1] == [box_of(tracker.slots[0].x)] \
            == [(3.0, -1.0, 23.0, 19.0)]

    def test_a_gap_predicts_through_every_skipped_frame(self, predicted):
        tracker = follow([(0.0, 0.0, 20.0, 20.0)])
        tracker.slots[0].x[4:] = [3.0, -1.0, 0.0]
        tracker.step(3, [])
        assert predicted[-1] == [box_of(tracker.slots[0].x)] \
            == [(9.0, -3.0, 29.0, 17.0)]

    def test_predicted_area_and_aspect_are_floored(self, predicted):
        tracker = follow([(0.0, 0.0, 20.0, 20.0)])
        x = tracker.slots[0].x
        x[2:] = [4e-7, 1e-9, 0.0, 0.0, -1e-7]  # area stays positive
        tracker.step(1, [])
        assert x[2] == 4e-7 - 1e-7 and x[6] == -1e-7
        w = math.sqrt(1e-6 * 1e-6)
        assert predicted[-1] == [(10.0 - w / 2.0, 10.0 - 1e-6 / w / 2.0,
                                  10.0 + w / 2.0, 10.0 + 1e-6 / w / 2.0)]


class TestAssociate:
    """`associate` gives each detection its track's index, or None."""

    def test_greedy_matching(self):
        tracks = [(0, 0, 10, 10), (100, 100, 110, 110)]
        dets = [(101, 101, 111, 111), (1, 1, 11, 11)]
        assert associate(tracks, dets, 0.3) == [1, 0]

    def test_threshold_gates(self):
        assert associate([(0, 0, 10, 10)], [(9, 9, 19, 19)], 0.3) == [None]

    def test_each_side_used_once(self):
        tracks = [(0, 0, 10, 10)]
        dets = [(1, 1, 11, 11), (2, 2, 12, 12)]
        assert associate(tracks, dets, 0.1) == [0, None]  # the higher IoU

    def test_deterministic_tie_break(self):
        # two tracks equally overlapping two detections: lowest indices win
        tracks = [(0, 0, 10, 10), (0, 0, 10, 10)]
        dets = [(0, 0, 10, 10), (0, 0, 10, 10)]
        assert associate(tracks, dets, 0.3) == [0, 1]

    def test_no_tracks_or_no_detections(self):
        assert associate([], [(0, 0, 10, 10)] * 2, 0.3) == [None, None]
        assert associate([(0, 0, 10, 10)], [], 0.3) == []


def boxes_for(centers, size=20.0):
    return [
        (cx - size / 2, cy - size / 2, cx + size / 2, cy + size / 2)
        for cx, cy in centers
    ]


class TestSortTracker:
    def test_two_objects_no_switches(self):
        tracker = SortTracker(TrackerConfig())
        seen: dict[int, int] = {}  # object index -> track id
        for f in range(30):
            centers = [(50.0 + 4 * f, 100.0), (400.0, 300.0 + 4 * f)]
            dets = [((f, i), b) for i, b in enumerate(boxes_for(centers))]
            result = tracker.step(f, dets)
            for (frame, idx), track_id in result.assignments:
                if idx in seen:
                    assert seen[idx] == track_id, f"id switch at frame {frame}"
                else:
                    seen[idx] = track_id
        assert len(set(seen.values())) == 2

    def test_assignments_follow_the_detections_order(self):
        # node ids out of order, and a birth between two matches
        a, b, c = boxes_for([(50.0, 50.0), (200.0, 50.0), (400.0, 50.0)])
        tracker = SortTracker(TrackerConfig())
        first = tracker.step(0, [((0, 2), b), ((0, 0), a)])
        assert first.assignments == [((0, 2), 1), ((0, 0), 2)]
        assert first.new_tracks == [1, 2]
        result = tracker.step(1, [((1, 9), a), ((1, 1), c), ((1, 5), b)])
        assert result.assignments == [((1, 9), 2), ((1, 1), 3), ((1, 5), 1)]
        assert result.new_tracks == [3]

    def test_dropout_survival_within_max_age(self):
        tracker = SortTracker(TrackerConfig(max_age=3))
        ids = []
        for f in range(12):
            if f == 6:  # one-frame dropout
                tracker.step(f, [])
                continue
            result = tracker.step(
                f, [((f, 0), (10.0 + 3 * f, 10.0, 30.0 + 3 * f, 30.0))]
            )
            ids.append(result.assignments[0][1])
        assert len(set(ids)) == 1

    def test_new_id_after_max_age(self):
        tracker = SortTracker(TrackerConfig(max_age=2))
        first = tracker.step(0, [((0, 0), (10.0, 10.0, 30.0, 30.0))])
        for f in range(1, 5):
            tracker.step(f, [])
        result = tracker.step(5, [((5, 0), (10.0, 10.0, 30.0, 30.0))])
        assert result.assignments[0][1] != first.assignments[0][1]
        assert result.new_tracks == [result.assignments[0][1]]

    def test_new_id_after_max_age_of_frames_never_stepped(self):
        # as above, with frames 5-7 skipped instead of stepped empty
        tracker = SortTracker(TrackerConfig(max_age=2))
        first = tracker.step(4, [((4, 0), (10.0, 10.0, 30.0, 30.0))])
        result = tracker.step(8, [((8, 0), (10.0, 10.0, 30.0, 30.0))])
        assert result.assignments[0][1] != first.assignments[0][1]
        assert result.new_tracks == [result.assignments[0][1]]

    @pytest.mark.parametrize("frame_id", [3, 2])
    def test_frames_must_increase(self, frame_id):
        tracker = SortTracker(TrackerConfig())
        tracker.step(3, [])
        with pytest.raises(ValueError, match="not after frame 3"):
            tracker.step(frame_id, [])

    def test_config_validation(self):
        # a saved plan's JSON config can hold a bool, a fraction, Infinity
        # or NaN where a number is due
        for field, value in [
            ("iou_threshold", 0.0), ("iou_threshold", math.nan),
            ("max_age", 0), ("max_age", True), ("max_age", 2.5),
            ("max_age", 3.0), ("max_age", math.inf),
            ("process_noise", 0.0), ("process_noise", math.inf),
            ("process_noise", math.nan), ("process_noise", True),
            ("measurement_noise", -math.inf), ("measurement_noise", "1"),
        ]:
            with pytest.raises(ValueError):
                TrackerConfig(**{field: value})

    def test_config_takes_int_noise_scales(self):
        assert TrackerConfig(process_noise=2, measurement_noise=3).to_json() \
            == {"iou_threshold": 0.3, "max_age": 30, "process_noise": 2,
                "measurement_noise": 3}

    def test_config_json_round_trip(self):
        cfg = TrackerConfig(iou_threshold=0.4, max_age=7)
        assert TrackerConfig.from_json(cfg.to_json()) == cfg


class TestArrayBookkeeping:
    """Each slot owns its mean; slots share covariance tuples, which no step
    mutates."""

    @staticmethod
    def assert_aligned(tracker):
        states = [(s.x, s.cov) for s in tracker.slots]
        assert all(len(x) == 7 and len(cov) == 10 and type(cov) is tuple
                   for x, cov in states)
        means = [id(x) for x, _cov in states]
        assert len(set(means)) == len(means)

    def test_step_with_no_tracks(self):
        tracker = SortTracker(TrackerConfig())
        result = tracker.step(0, [])
        assert result.assignments == [] and result.new_tracks == []
        self.assert_aligned(tracker)
        result = tracker.step(1, [((1, 0), (0.0, 0.0, 10.0, 10.0))])
        assert result.assignments == [((1, 0), 1)] and result.new_tracks == [1]
        self.assert_aligned(tracker)

    def test_step_with_no_detections(self):
        tracker = SortTracker(TrackerConfig(max_age=5))
        tracker.step(0, [((0, 0), (0.0, 0.0, 10.0, 10.0)),
                         ((0, 1), (50.0, 50.0, 60.0, 60.0))])
        result = tracker.step(1, [])
        assert result.assignments == []
        assert [s.time_since_update for s in tracker.slots] == [1, 1]
        self.assert_aligned(tracker)

    def test_every_track_retired_in_one_step(self):
        tracker = SortTracker(TrackerConfig(max_age=1))
        tracker.step(0, [((0, i), (20.0 * i, 0.0, 20.0 * i + 10, 10.0))
                         for i in range(3)])
        tracker.step(1, [])
        assert len(tracker.slots) == 3
        tracker.step(2, [])
        assert tracker.slots == []
        self.assert_aligned(tracker)
        result = tracker.step(3, [((3, 0), (0.0, 0.0, 10.0, 10.0))])
        assert result.new_tracks == [4]
        self.assert_aligned(tracker)

    def test_births_and_retirements_in_one_step(self):
        kept, dropped, born = ((0.0, 0.0, 10.0, 10.0), (100.0, 0.0, 110.0, 10.0),
                               (300.0, 0.0, 310.0, 10.0))
        tracker = SortTracker(TrackerConfig(max_age=1))
        tracker.step(0, [((0, 0), kept), ((0, 1), dropped)])
        tracker.step(1, [((1, 0), kept)])
        result = tracker.step(2, [((2, 0), kept), ((2, 1), born)])
        assert result.new_tracks == [3]
        assert [s.track_id for s in tracker.slots] == [1, 3]
        self.assert_aligned(tracker)
        state = lambda s: (s.x, s.cov)
        # the kept slot is one filtered box; the born one starts afresh
        (held,) = follow([kept] * 3).slots
        (fresh,) = follow([born]).slots
        assert state(tracker.slots[0]) == state(held)
        assert state(tracker.slots[1]) == state(fresh)

    def test_tie_break_through_the_tracker(self):
        # TestAssociate's tie case on live tracks: lowest indices win
        box = (0.0, 0.0, 10.0, 10.0)
        tracker = SortTracker(TrackerConfig())
        tracker.step(0, [((0, 0), box), ((0, 1), box)])
        result = tracker.step(1, [((1, 0), box), ((1, 1), box)])
        assert result.assignments == [((1, 0), 1), ((1, 1), 2)]
        assert result.new_tracks == []


class TestSharedCovariance:
    """Slots with one history share one covariance tuple, and a step of it
    is computed once per run of adjacent slots that hold it; the frozen
    scalar tracker checks every bit after every step."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of `_predict_cov` and `_update_cov` calls, per step."""
        counts = {"predict": 0, "update": 0}

        def counting(name, fn):
            def wrapped(*args):
                counts[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(tracker_module, "_predict_cov",
                            counting("predict", _predict_cov))
        monkeypatch.setattr(tracker_module, "_update_cov",
                            counting("update", _update_cov))
        return counts

    @staticmethod
    def grid(frame, n, skip=()):
        """`n` 20x20 boxes 40 px apart, moving 2 px a frame to the right."""
        return [((frame, i), (40.0 * (i % 10) + 2.0 * frame, 40.0 * (i // 10),
                              40.0 * (i % 10) + 2.0 * frame + 20.0,
                              40.0 * (i // 10) + 20.0))
                for i in range(n) if i not in skip]

    @staticmethod
    def run(calls, stream):
        """Step both trackers through `stream`; the calls of each step."""
        config = TrackerConfig()
        tracker, oracle = SortTracker(config), GapFilled(config)
        per_step = []
        for frame_id, dets in stream:
            before = dict(calls)
            assert_same_step(tracker, oracle, frame_id, dets, f"frame {frame_id}")
            per_step.append((calls["predict"] - before["predict"],
                             calls["update"] - before["update"]))
        return tracker, per_step

    def test_tracks_born_and_matched_together_share_every_step(self, calls):
        tracker, per_step = self.run(
            calls, [(f, self.grid(f, 50)) for f in range(21)])
        assert calls == {"predict": 20, "update": 20}  # not 1,000 of each
        assert per_step == [(0, 0)] + [(1, 1)] * 20
        assert len({id(s.cov) for s in tracker.slots}) == 1

    @pytest.mark.parametrize("missing, runs", [(49, 2), (0, 2), (25, 3)])
    def test_a_missed_match_splits_its_slot_off(self, calls, missing, runs):
        # the slot missed on frame 10 steps on its own from then on; the 49
        # others share one tuple on either side of it
        stream = [(f, self.grid(f, 50, skip={missing} if f == 10 else ()))
                  for f in range(21)]
        tracker, per_step = self.run(calls, stream)
        assert per_step == [(0, 0)] + [(1, 1)] * 10 + [(runs, runs)] * 10
        odd = tracker.slots[missing].cov
        others = [s.cov for i, s in enumerate(tracker.slots) if i != missing]
        assert odd != others[0] and all(cov == others[0] for cov in others)
        assert len({id(cov) for cov in others}) == runs - 1

    def test_tracks_born_together_later_share_the_initial_tuple(self, calls):
        stream = [(f, self.grid(f, 1 if f < 5 else 3)) for f in range(8)]
        tracker, _per_step = self.run(calls, stream[:6])
        _first, *born = tracker.slots
        assert born[0].cov is born[1].cov is tracker._model.cov0
        calls.update(predict=0, update=0)
        tracker, per_step = self.run(calls, stream)
        assert per_step == [(0, 0)] + [(1, 1)] * 5 + [(2, 2)] * 2
        first, *born = tracker.slots
        assert born[0].cov is born[1].cov is not first.cov

"""Kalman/IoU tracker: geometry oracle, association, and identity keeping."""

import random

import numpy as np
import pytest

from vidquery.tracker import (
    KalmanModel,
    SortTracker,
    TrackerConfig,
    associate,
    iou,
    _boxes_to_z,
    _x_to_boxes,
)


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
        z = _boxes_to_z(np.array([box]))[0]
        assert z[0] == 30.0 and z[1] == 60.0  # center
        assert z[2] == 40.0 * 80.0  # area
        assert z[3] == pytest.approx(0.5)  # aspect
        x, _P = KalmanModel(TrackerConfig()).initiate(np.array([box]))
        assert tuple(_x_to_boxes(x)[0]) == pytest.approx(box)

    def test_static_object_stays_put(self):
        kf = KalmanModel(TrackerConfig())
        box = np.array([[10.0, 10.0, 30.0, 30.0]])
        x, P = kf.initiate(box)
        for _ in range(10):
            x, P = kf.predict(x, P)
            x, P = kf.update(x, P, box)
        assert tuple(_x_to_boxes(x)[0]) == pytest.approx(tuple(box[0]), abs=1e-6)

    def test_velocity_learned_from_motion(self):
        kf = KalmanModel(TrackerConfig())
        x, P = kf.initiate(np.array([[0.0, 0.0, 20.0, 20.0]]))
        for f in range(1, 15):
            x, P = kf.predict(x, P)
            x, P = kf.update(x, P, np.array([[5.0 * f, 0.0, 5.0 * f + 20.0, 20.0]]))
        predicted, _P = kf.predict(x, P)
        cx = predicted[0, 0]
        # after settling, the one-step-ahead prediction tracks the +5 px/frame motion
        assert cx == pytest.approx(5.0 * 15 + 10.0, abs=1.0)

    def test_covariance_stays_symmetric(self):
        kf = KalmanModel(TrackerConfig())
        x, P = kf.initiate(np.array([[0, 0, 10, 10], [5, 5, 25, 15]], dtype=float))
        for _ in range(5):
            x, P = kf.predict(x, P)
        assert (P == P.transpose(0, 2, 1)).all()


class TestAssociate:
    def test_greedy_matching(self):
        tracks = [(0, 0, 10, 10), (100, 100, 110, 110)]
        dets = [(101, 101, 111, 111), (1, 1, 11, 11)]
        matches, un_t, un_d = associate(tracks, dets, 0.3)
        assert matches == [(0, 1), (1, 0)]
        assert un_t == [] and un_d == []

    def test_threshold_gates(self):
        matches, un_t, un_d = associate(
            [(0, 0, 10, 10)], [(9, 9, 19, 19)], 0.3
        )
        assert matches == [] and un_t == [0] and un_d == [0]

    def test_each_side_used_once(self):
        tracks = [(0, 0, 10, 10)]
        dets = [(1, 1, 11, 11), (2, 2, 12, 12)]
        matches, _un_t, un_d = associate(tracks, dets, 0.1)
        assert len(matches) == 1
        assert len(un_d) == 1

    def test_deterministic_tie_break(self):
        # two tracks equally overlapping two detections: lowest indices win
        tracks = [(0, 0, 10, 10), (0, 0, 10, 10)]
        dets = [(0, 0, 10, 10), (0, 0, 10, 10)]
        matches, _t, _d = associate(tracks, dets, 0.3)
        assert matches == [(0, 0), (1, 1)]


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

    def test_motion_edges_consecutive_frames_only(self):
        tracker = SortTracker(TrackerConfig(max_age=5))
        tracker.step(0, [((0, 0), (10.0, 10.0, 30.0, 30.0))])
        r1 = tracker.step(1, [((1, 0), (12.0, 10.0, 32.0, 30.0))])
        assert r1.motion_edges == [((0, 0), (1, 0))]
        tracker.step(2, [])  # gap
        r3 = tracker.step(3, [((3, 0), (16.0, 10.0, 36.0, 30.0))])
        assert r3.motion_edges == []  # same track, but not consecutive

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrackerConfig(iou_threshold=0.0)
        with pytest.raises(ValueError):
            TrackerConfig(max_age=0)
        with pytest.raises(ValueError):
            TrackerConfig(process_noise=0.0)

    def test_config_json_round_trip(self):
        cfg = TrackerConfig(iou_threshold=0.4, max_age=7, min_hits=2)
        assert TrackerConfig.from_json(cfg.to_json()) == cfg


class TestArrayBookkeeping:
    """Row i of the stacked Kalman arrays belongs to slots[i]."""

    @staticmethod
    def assert_aligned(tracker):
        n = len(tracker.slots)
        assert tracker._x.shape == (n, 7) and tracker._P.shape == (n, 7, 7)

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
        assert result.assignments == [] and result.motion_edges == []
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
        assert len(tracker.slots) == len(tracker._x) == len(tracker._P)
        x, P = tracker._kf.initiate(np.array([born]))
        assert (tracker._x[1] == x[0]).all() and (tracker._P[1] == P[0]).all()

    def test_tie_break_through_the_tracker(self):
        # TestAssociate's tie case on live tracks: lowest indices win
        box = (0.0, 0.0, 10.0, 10.0)
        tracker = SortTracker(TrackerConfig())
        tracker.step(0, [((0, 0), box), ((0, 1), box)])
        result = tracker.step(1, [((1, 0), box), ((1, 1), box)])
        assert result.assignments == [((1, 0), 1), ((1, 1), 2)]
        assert result.new_tracks == []

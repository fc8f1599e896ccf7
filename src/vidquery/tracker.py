"""Constant-velocity Kalman tracking with IoU-gated greedy association.

State per track: (cx, cy, area, aspect, vcx, vcy, varea); aspect is held
constant by the motion model.  A tracker keeps the states of all its live
tracks as two stacked arrays and advances them together: one batched
predict, one IoU matrix of every track against every detection, one batched
update of the matched rows.  Association is greedy by descending IoU with
ties broken by (track, detection) index, so it is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

Box = tuple[float, float, float, float]


@dataclass(frozen=True)
class TrackerConfig:
    iou_threshold: float = 0.3
    max_age: int = 30
    min_hits: int = 1
    process_noise: float = 1.0
    measurement_noise: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.iou_threshold < 1.0:
            raise ValueError("iou_threshold must be in (0, 1)")
        if self.max_age < 1 or self.min_hits < 1:
            raise ValueError("max_age and min_hits must be positive")
        if self.process_noise <= 0 or self.measurement_noise <= 0:
            raise ValueError("noise scales must be positive")

    def to_json(self) -> dict:
        return {
            "iou_threshold": self.iou_threshold,
            "max_age": self.max_age,
            "min_hits": self.min_hits,
            "process_noise": self.process_noise,
            "measurement_noise": self.measurement_noise,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "TrackerConfig":
        return cls(**obj)


def iou_matrix(track_boxes, det_boxes) -> np.ndarray:
    """IoU of every track box (rows) against every detection box (columns)."""
    a = np.asarray(track_boxes, dtype=float).reshape(-1, 1, 4)
    b = np.asarray(det_boxes, dtype=float).reshape(1, -1, 4)
    lo = np.maximum(a[..., :2], b[..., :2])  # (x1, y1) of the intersection
    hi = np.minimum(a[..., 2:], b[..., 2:])  # (x2, y2)
    side = np.maximum(0.0, hi - lo)
    inter = side[..., 0] * side[..., 1]
    area_a = (a[..., 2] - a[..., 0]) * (a[..., 3] - a[..., 1])
    area_b = (b[..., 2] - b[..., 0]) * (b[..., 3] - b[..., 1])
    # disjoint pairs score 0 without dividing, as their union may be 0
    return np.divide(inter, area_a + area_b - inter,
                     out=np.zeros_like(inter), where=inter != 0.0)


def iou(a: Box, b: Box) -> float:
    return float(iou_matrix([a], [b])[0, 0])


def _boxes_to_z(boxes: np.ndarray) -> np.ndarray:
    """(n, 4) boxes -> (n, 4) measurements (cx, cy, area, aspect)."""
    wh = boxes[:, 2:] - boxes[:, :2]
    z = np.empty((len(boxes), 4))
    z[:, :2] = boxes[:, :2] + wh / 2.0
    z[:, 2] = wh[:, 0] * wh[:, 1]
    z[:, 3] = wh[:, 0] / wh[:, 1]
    return z


def _x_to_boxes(x: np.ndarray) -> np.ndarray:
    """(n, 7) states -> (n, 4) boxes; area and aspect floored at 1e-6."""
    area, aspect = np.maximum(x[:, 2:4], 1e-6).T
    half = np.empty((len(x), 2))
    half[:, 0] = np.sqrt(area * aspect)  # w
    half[:, 1] = area / half[:, 0]  # h
    half /= 2.0
    return np.concatenate([x[:, :2] - half, x[:, :2] + half], axis=1)


class KalmanModel:
    """Constant-velocity model, 4-dim box measurement, applied to stacked
    states: `x` is (n, 7) and `P` is (n, 7, 7), one row per track."""

    def __init__(self, config: TrackerConfig):
        self.F = np.eye(7)
        self.F[0, 4] = self.F[1, 5] = self.F[2, 6] = 1.0
        self.H = np.zeros((4, 7))
        self.H[0, 0] = self.H[1, 1] = self.H[2, 2] = self.H[3, 3] = 1.0
        Q = np.eye(7)
        Q[2, 2] = Q[6, 6] = 0.01
        Q[4:6, 4:6] *= 0.01
        self.Q = Q * config.process_noise
        self.R = np.eye(4) * config.measurement_noise
        self.R[2:, 2:] *= 10.0
        self.I = np.eye(7)
        P0 = np.eye(7) * 10.0
        P0[4:, 4:] *= 100.0  # unobserved velocities start uncertain
        self.P0 = P0 * config.measurement_noise

    def initiate(self, boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.zeros((len(boxes), 7))
        x[:, :4] = _boxes_to_z(boxes)
        return x, np.repeat(self.P0[None], len(boxes), axis=0)

    def predict(self, x: np.ndarray, P: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
        """Advance means by velocity and grow covariances by process noise."""
        x = x @ self.F.T
        shrunk = x[:, 2] + x[:, 6] <= 0  # keep predicted area positive
        if shrunk.any():
            x[shrunk, 6] = 0.0
            x[shrunk, 2] = np.maximum(x[shrunk, 2], 1e-6)
        P = self.F @ P @ self.F.T + self.Q
        return x, (P + P.transpose(0, 2, 1)) / 2.0

    def update(self, x: np.ndarray, P: np.ndarray, boxes: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """Correct each row by its matched box.  The gain uses `inv`, as the
        scalar tracker in the tests does, so the two agree bit for bit."""
        y = _boxes_to_z(boxes) - x @ self.H.T
        S = self.H @ P @ self.H.T + self.R
        K = P @ self.H.T @ np.linalg.inv(S)
        x = x + (K @ y[:, :, None])[:, :, 0]
        P = (self.I - K @ self.H) @ P
        return x, (P + P.transpose(0, 2, 1)) / 2.0


def associate(
    track_boxes,
    det_boxes,
    iou_threshold: float,
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Greedy matching by descending IoU; each side matched at most once.

    Ties go to the lower (track, detection) index pair.
    """
    scores = iou_matrix(track_boxes, det_boxes)
    n_tracks, n_dets = scores.shape
    ti, di = np.nonzero(scores >= iou_threshold)
    order = np.lexsort((di, ti, -scores[ti, di]))
    matches, used_t, used_d = [], set(), set()
    for t, d in zip(ti[order].tolist(), di[order].tolist()):
        if t in used_t or d in used_d:
            continue
        used_t.add(t)
        used_d.add(d)
        matches.append((t, d))
    matches.sort()
    unmatched_tracks = [t for t in range(n_tracks) if t not in used_t]
    unmatched_dets = [d for d in range(n_dets) if d not in used_d]
    return matches, unmatched_tracks, unmatched_dets


@dataclass
class _TrackSlot:
    track_id: int
    hits: int = 1
    time_since_update: int = 0


@dataclass
class StepResult:
    assignments: list[tuple]  # (node_id, track_id)
    new_tracks: list[int]


class SortTracker:
    """Per-VObjType tracker; one instance tracks one class of detections.

    Row i of `_x` (n, 7) and `_P` (n, 7, 7) is the Kalman state of
    `slots[i]`; the slots hold the per-track bookkeeping.
    """

    def __init__(self, config: Optional[TrackerConfig] = None):
        self.config = config or TrackerConfig()
        self.slots: list[_TrackSlot] = []
        self._kf = KalmanModel(self.config)
        self._x = np.zeros((0, 7))
        self._P = np.zeros((0, 7, 7))
        self._next_id = 1

    def step(self, frame_id: int, detections: list[tuple]) -> StepResult:
        """Advance one frame.

        `detections` is a list of (node_id, bbox).  Matched tracks are
        Kalman-updated, unmatched detections spawn tracks, and stale tracks
        are retired.
        """
        cfg, kf = self.config, self._kf
        self._x, self._P = kf.predict(self._x, self._P)
        for slot in self.slots:
            slot.time_since_update += 1
        det_boxes = np.array([d[1] for d in detections], dtype=float)
        det_boxes = det_boxes.reshape(-1, 4)
        matches, _unmatched_t, unmatched_d = associate(
            _x_to_boxes(self._x), det_boxes, cfg.iou_threshold
        )
        assignments, new_tracks = [], []
        if matches:
            rows, cols = np.array(matches).T
            self._x[rows], self._P[rows] = kf.update(
                self._x[rows], self._P[rows], det_boxes[cols]
            )
        for ti, di in matches:
            slot = self.slots[ti]
            slot.hits += 1
            slot.time_since_update = 0
            assignments.append((detections[di][0], slot.track_id))
        if unmatched_d:
            x, P = kf.initiate(det_boxes[unmatched_d])
            self._x = np.concatenate([self._x, x])
            self._P = np.concatenate([self._P, P])
        for di in unmatched_d:
            slot = _TrackSlot(track_id=self._next_id)
            self._next_id += 1
            self.slots.append(slot)
            assignments.append((detections[di][0], slot.track_id))
            new_tracks.append(slot.track_id)
        live = [s.time_since_update <= cfg.max_age for s in self.slots]
        if not all(live):
            self.slots = [s for s, keep in zip(self.slots, live) if keep]
            self._x, self._P = self._x[live], self._P[live]
        assignments.sort(key=lambda a: a[0])
        return StepResult(assignments=assignments, new_tracks=new_tracks)

"""Frozen scalar SORT tracker: the reference for the batched tracker.

This is the per-track, per-pair implementation that `vidquery.tracker` had
before it was vectorised, kept unchanged so tests can require the batched
tracker to give the same assignments, motion edges, births and bitwise the
same Kalman state after every step.  Do not edit it to follow the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from vidquery.tracker import TrackerConfig

Box = tuple[float, float, float, float]
MIN_HITS = 1  # the removed `TrackerConfig.min_hits` default; gates motion edges only


def iou(a: Box, b: Box) -> float:
    x1, y1 = max(a[0], b[0]), max(a[1], b[1])
    x2, y2 = min(a[2], b[2]), min(a[3], b[3])
    inter = max(0.0, x2 - x1) * max(0.0, y2 - y1)
    if inter == 0.0:
        return 0.0
    area_a = (a[2] - a[0]) * (a[3] - a[1])
    area_b = (b[2] - b[0]) * (b[3] - b[1])
    return inter / (area_a + area_b - inter)


def _box_to_z(box: Box) -> np.ndarray:
    w, h = box[2] - box[0], box[3] - box[1]
    return np.array([box[0] + w / 2.0, box[1] + h / 2.0, w * h, w / h])


def _x_to_box(x: np.ndarray) -> Box:
    cx, cy, area, aspect = x[0], x[1], max(x[2], 1e-6), max(x[3], 1e-6)
    w = float(np.sqrt(area * aspect))
    h = float(area / w) if w > 0 else 0.0
    return (cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0)


# 7-state constant-velocity model, 4-dim box measurement
_F = np.eye(7)
_F[0, 4] = _F[1, 5] = _F[2, 6] = 1.0
_H = np.zeros((4, 7))
_H[0, 0] = _H[1, 1] = _H[2, 2] = _H[3, 3] = 1.0


@dataclass
class KalmanState:
    x: np.ndarray  # shape (7,)
    P: np.ndarray  # shape (7, 7)


def make_state(box: Box, config: TrackerConfig) -> KalmanState:
    x = np.zeros(7)
    x[:4] = _box_to_z(box)
    P = np.eye(7) * 10.0
    P[4:, 4:] *= 100.0  # unobserved velocities start uncertain
    return KalmanState(x=x, P=P * config.measurement_noise)


def _process_noise(config: TrackerConfig) -> np.ndarray:
    Q = np.eye(7)
    Q[2, 2] = Q[6, 6] = 0.01
    Q[4:6, 4:6] *= 0.01
    return Q * config.process_noise


def predict(state: KalmanState, config: Optional[TrackerConfig] = None) -> KalmanState:
    """Advance mean by velocity and grow covariance by process noise."""
    config = config or TrackerConfig()
    Q = _process_noise(config)
    x = _F @ state.x
    if x[2] + x[6] <= 0:  # keep predicted area positive
        x[6] = 0.0
        x[2] = max(x[2], 1e-6)
    P = _F @ state.P @ _F.T + Q
    return KalmanState(x=x, P=(P + P.T) / 2.0)


def update(state: KalmanState, box: Box, config: Optional[TrackerConfig] = None) -> KalmanState:
    config = config or TrackerConfig()
    R = np.eye(4) * config.measurement_noise
    R[2:, 2:] *= 10.0
    z = _box_to_z(box)
    y = z - _H @ state.x
    S = _H @ state.P @ _H.T + R
    K = state.P @ _H.T @ np.linalg.inv(S)
    x = state.x + K @ y
    P = (np.eye(7) - K @ _H) @ state.P
    return KalmanState(x=x, P=(P + P.T) / 2.0)


def associate(
    track_boxes: list[Box],
    det_boxes: list[Box],
    iou_threshold: float,
) -> tuple[list[tuple[int, int]], list[int], list[int]]:
    """Greedy matching by descending IoU; each side matched at most once."""
    pairs = []
    for ti, tb in enumerate(track_boxes):
        for di, db in enumerate(det_boxes):
            score = iou(tb, db)
            if score >= iou_threshold:
                pairs.append((score, ti, di))
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    matches, used_t, used_d = [], set(), set()
    for _score, ti, di in pairs:
        if ti in used_t or di in used_d:
            continue
        used_t.add(ti)
        used_d.add(di)
        matches.append((ti, di))
    matches.sort()
    unmatched_tracks = [t for t in range(len(track_boxes)) if t not in used_t]
    unmatched_dets = [d for d in range(len(det_boxes)) if d not in used_d]
    return matches, unmatched_tracks, unmatched_dets


@dataclass
class _TrackSlot:
    track_id: int
    state: KalmanState
    hits: int = 1
    time_since_update: int = 0
    last_frame: int = -1
    last_node: Optional[tuple] = None


@dataclass
class StepResult:
    assignments: list[tuple]  # (node_id, track_id)
    motion_edges: list[tuple]  # (prev_node_id, node_id)
    new_tracks: list[int]


class SortTracker:
    """Per-VObjType tracker; one instance tracks one class of detections."""

    def __init__(self, config: Optional[TrackerConfig] = None):
        self.config = config or TrackerConfig()
        self.slots: list[_TrackSlot] = []
        self._next_id = 1

    def step(self, frame_id: int, detections: list[tuple]) -> StepResult:
        """Advance one frame.

        `detections` is a list of (node_id, bbox).  Matched tracks are
        Kalman-updated, unmatched detections spawn tracks, and stale tracks
        are retired.  Motion edges connect a track's nodes on consecutive
        frames only.
        """
        cfg = self.config
        for slot in self.slots:
            slot.state = predict(slot.state, cfg)
            slot.time_since_update += 1
        track_boxes = [_x_to_box(s.state.x) for s in self.slots]
        det_boxes = [d[1] for d in detections]
        matches, _unmatched_t, unmatched_d = associate(
            track_boxes, det_boxes, cfg.iou_threshold
        )
        assignments, motion_edges, new_tracks = [], [], []
        for ti, di in matches:
            slot = self.slots[ti]
            node_id, box = detections[di]
            slot.state = update(slot.state, box, cfg)
            slot.hits += 1
            slot.time_since_update = 0
            if slot.last_frame == frame_id - 1 and slot.hits > MIN_HITS:
                motion_edges.append((slot.last_node, node_id))
            slot.last_frame = frame_id
            slot.last_node = node_id
            assignments.append((node_id, slot.track_id))
        for di in unmatched_d:
            node_id, box = detections[di]
            slot = _TrackSlot(
                track_id=self._next_id,
                state=make_state(box, cfg),
                last_frame=frame_id,
                last_node=node_id,
            )
            slot.time_since_update = 0
            self._next_id += 1
            self.slots.append(slot)
            assignments.append((node_id, slot.track_id))
            new_tracks.append(slot.track_id)
        self.slots = [
            s for s in self.slots if s.time_since_update <= cfg.max_age
        ]
        assignments.sort(key=lambda a: a[0])
        return StepResult(
            assignments=assignments,
            motion_edges=motion_edges,
            new_tracks=new_tracks,
        )

"""Constant-velocity Kalman tracking with IoU-gated greedy association.

State per track: (cx, cy, area, aspect, vcx, vcy, varea); aspect is held
constant by the motion model.  The model of SORT (Bewley et al., ICIP 2016)
is block-diagonal per axis: F, H, Q, R and the initial covariance couple
each of cx, cy and area only with its own velocity, and aspect with
nothing.  So each track keeps its mean as a list of Python floats, and its
covariance as one tuple of the three 2x2 blocks plus the aspect variance;
every covariance entry outside the blocks is zero.  The covariance never
reads a measurement, so it depends only on the frames a track was born and
matched on.  Every track starts from one initial tuple, and a step that
maps one tuple to a new one is computed once for a run of adjacent slots
that hold the same tuple object: tracks born on one frame are adjacent,
oldest first, and share their tuple until their match histories part.  No
table of tuples is kept, so a tuple lives only while a slot holds it.
The operations run in the order of the dense 7x7 filter, so the results
are its results bit for bit.

A step is one loop over the slots, which advances each mean (through every
frame of a gap, by the same arithmetic) and computes its predicted box
inline; then the association; then one loop over the detections, which
turns each box into its measurement and either notes it for its track or
starts a track from it; then one loop over the slots, which corrects
each matched mean inline with the gains of `_update_cov` and retires the
stale slots.  The assignments list the detections in the order they came
in.

Association scores only track/detection pairs whose boxes can intersect,
found by bisecting the detections sorted by x1, and matches greedily by
descending IoU with ties broken by (track, detection) index, so it is
deterministic.  It gives each detection its track's index, or None.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import sqrt
from typing import Optional

Box = tuple[float, float, float, float]


@dataclass(frozen=True)
class TrackerConfig:
    iou_threshold: float = 0.3
    max_age: int = 30
    process_noise: float = 1.0
    measurement_noise: float = 1.0

    def __post_init__(self):
        # a saved plan's config is JSON, which can hold a bool, a fraction,
        # Infinity or NaN where a number is due
        if not 0.0 < self.iou_threshold < 1.0:
            raise ValueError("iou_threshold must be in (0, 1)")
        if type(self.max_age) is not int:
            raise ValueError("max_age must be an int")
        if self.max_age < 1:
            raise ValueError("max_age must be positive")
        for noise in (self.process_noise, self.measurement_noise):
            if isinstance(noise, bool) or not isinstance(noise, (int, float)) \
                    or not 0 < noise < math.inf:
                raise ValueError("noise scales must be positive and finite")

    def to_json(self) -> dict:
        return dict(vars(self))  # each field, in order

    @classmethod
    def from_json(cls, obj: dict) -> "TrackerConfig":
        return cls(**obj)


def iou(a: Box, b: Box) -> float:
    # `y if y > x else x` is max(x, y) and `y if y < x else x` is min(x, y),
    # without the cost of a builtin call
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    w = (bx2 if bx2 < ax2 else ax2) - (bx1 if bx1 > ax1 else ax1)
    h = (by2 if by2 < ay2 else ay2) - (by1 if by1 > ay1 else ay1)
    inter = (w if w > 0.0 else 0.0) * (h if h > 0.0 else 0.0)
    if inter == 0.0:  # disjoint pairs score 0: their union may be 0
        return 0.0
    return inter / ((ax2 - ax1) * (ay2 - ay1) + (bx2 - bx1) * (by2 - by1) - inter)


def associate(
    track_boxes: list[Box],
    det_boxes: list[Box],
    iou_threshold: float,
) -> list[Optional[int]]:
    """Greedy matching by descending IoU; each side matched at most once.
    Returns, for each detection, the index of its track, or None when it
    matched none.

    Ties go to the lower (track, detection) index pair.  A pair can reach
    the threshold, which is positive, only if its boxes overlap on both
    axes, so only those pairs are scored, by `iou`'s arithmetic inline.
    The candidates are found by comparisons alone: the detections are
    sorted by x1, those from `hi` on start right of the track, and those
    before `lo` all end left of it, because `reach[i]` is the largest x2
    among the first i + 1 of them.
    """
    order = sorted(range(len(det_boxes)), key=lambda d: det_boxes[d][0])
    boxes, x1s, reach, right = [], [], [], -math.inf
    for d in order:
        b = det_boxes[d]
        boxes.append(b)
        x1s.append(b[0])
        right = b[2] if b[2] > right else right
        reach.append(right)
    pairs = []
    for t, (tx1, ty1, tx2, ty2) in enumerate(track_boxes):
        area = (tx2 - tx1) * (ty2 - ty1)
        for k in range(bisect_right(reach, tx1), bisect_left(x1s, tx2)):
            bx1, by1, bx2, by2 = boxes[k]
            if bx2 > tx1 and by1 < ty2 and by2 > ty1:
                w = (bx2 if bx2 < tx2 else tx2) - (bx1 if bx1 > tx1 else tx1)
                h = (by2 if by2 < ty2 else ty2) - (by1 if by1 > ty1 else ty1)
                inter = (w if w > 0.0 else 0.0) * (h if h > 0.0 else 0.0)
                if inter == 0.0:  # scores 0, below the threshold
                    continue
                score = inter / (area + (bx2 - bx1) * (by2 - by1) - inter)
                if score >= iou_threshold:
                    pairs.append((-score, t, order[k]))
    pairs.sort()
    track_of: list[Optional[int]] = [None] * len(det_boxes)
    taken = [False] * len(track_boxes)
    for _score, t, d in pairs:
        if not taken[t] and track_of[d] is None:
            taken[t] = True
            track_of[d] = t
    return track_of


@dataclass(frozen=True)
class _Model:
    """The block-diagonal constants of the constant-velocity model: per
    axis j of (cx, cy, area, aspect), process noise `q_p[j]` on the
    position and `q_v[j]` on its velocity (aspect has none), measurement
    noise `r[j]`, and `cov0`, the covariance every new track starts from."""

    q_p: tuple[float, float, float, float]
    q_v: tuple[float, float, float]
    r: tuple[float, float, float, float]
    cov0: tuple[float, ...]

    @classmethod
    def of(cls, config: TrackerConfig) -> "_Model":
        pn, mn = config.process_noise, config.measurement_noise
        p0, v0 = 10.0 * mn, 1000.0 * mn  # unobserved velocities start uncertain
        return cls(
            q_p=(pn, pn, 0.01 * pn, pn),
            q_v=(0.01 * pn, 0.01 * pn, 0.01 * pn),
            r=(mn, mn, mn * 10.0, mn * 10.0),
            cov0=(p0, p0, p0, p0, 0.0, 0.0, 0.0, v0, v0, v0),
        )


# A covariance is the tuple (p0, p1, p2, p3, c0, c1, c2, v0, v1, v2): for
# axis j of cx, cy and area, `pj` is the position variance, `cj` its
# covariance with the velocity and `vj` the velocity variance; `p3` is the
# aspect variance.  Every other entry of the 7x7 covariance is zero.

def _predict_cov(cov: tuple, model: _Model) -> tuple:
    """The covariance one frame later: grown by the motion and by process
    noise."""
    p0, p1, p2, p3, c0, c1, c2, v0, v1, v2 = cov
    qp0, qp1, qp2, qp3 = model.q_p
    qv0, qv1, qv2 = model.q_v
    cv0, cv1, cv2 = c0 + v0, c1 + v1, c2 + v2
    return (((p0 + c0) + cv0) + qp0, ((p1 + c1) + cv1) + qp1,
            ((p2 + c2) + cv2) + qp2, p3 + qp3,
            cv0, cv1, cv2, v0 + qv0, v1 + qv1, v2 + qv2)


def _update_cov(cov: tuple, model: _Model) -> tuple[tuple, tuple]:
    """The covariance after a match, and the gains (kp0, kv0, kp1, kv1, kp2,
    kv2, ka) that correct the mean.  The innovation covariance is diagonal,
    so the gain of axis j is (pj, cj) times the reciprocal of pj + rj, taken
    first as the dense filter's `inv`.  The dense filter averages P with its
    transpose; of each block, only its two cross terms can differ, in the
    last bit, hence cj's mean."""
    p0, p1, p2, p3, c0, c1, c2, v0, v1, v2 = cov
    r0, r1, r2, r3 = model.r
    inv = 1.0 / (p0 + r0)
    kp0, kv0 = p0 * inv, c0 * inv
    g = 1.0 - kp0
    p0, c0, v0 = g * p0, (g * c0 + (-kv0 * p0 + c0)) / 2.0, -kv0 * c0 + v0
    inv = 1.0 / (p1 + r1)
    kp1, kv1 = p1 * inv, c1 * inv
    g = 1.0 - kp1
    p1, c1, v1 = g * p1, (g * c1 + (-kv1 * p1 + c1)) / 2.0, -kv1 * c1 + v1
    inv = 1.0 / (p2 + r2)
    kp2, kv2 = p2 * inv, c2 * inv
    g = 1.0 - kp2
    p2, c2, v2 = g * p2, (g * c2 + (-kv2 * p2 + c2)) / 2.0, -kv2 * c2 + v2
    ka = p3 * (1.0 / (p3 + r3))
    return ((p0, p1, p2, (1.0 - ka) * p3, c0, c1, c2, v0, v1, v2),
            (kp0, kv0, kp1, kv1, kp2, kv2, ka))


@dataclass(eq=False, slots=True)
class _TrackSlot:
    """One live track: its bookkeeping, its mean `x` (cx, cy, area, aspect,
    vcx, vcy, varea) and its covariance `cov`, a tuple that slots with the
    same history share."""

    track_id: int
    x: list[float]
    cov: tuple
    time_since_update: int = 0


@dataclass
class StepResult:
    assignments: list[tuple]  # (node_id, track_id), in detection order
    new_tracks: list[int]


class SortTracker:
    """Per-VObjType tracker; one instance tracks one class of detections.
    `slots` holds the live tracks, oldest first.

    Tracks age in frames: a frame the tracker is not stepped on (gated out,
    or absent from the trace) counts as a frame without detections, so
    `max_age` is the number of frames a track lives unmatched."""

    def __init__(self, config: Optional[TrackerConfig] = None):
        self.config = config or TrackerConfig()
        self.slots: list[_TrackSlot] = []
        self._model = _Model.of(self.config)
        self._next_id = 1
        self._last_frame: Optional[int] = None

    def step(self, frame_id: int, detections: list[tuple]) -> StepResult:
        """Advance to frame `frame_id`, which must be after the last one.

        `detections` is a list of (node_id, bbox); the assignments list
        each detection's track in that order.  Matched tracks are
        Kalman-updated, unmatched detections spawn tracks, and stale tracks
        are retired.  The `gap - 1` frames since the last step are stepped
        over as frames without detections, the same bits as stepping each:
        a slot unmatched on all of them is dropped once its age passes
        `max_age`, and a live one predicts through them.
        """
        last = self._last_frame
        gap = 1 if last is None else frame_id - last
        if gap < 1:
            raise ValueError(f"frame {frame_id} is not after frame {last}")
        self._last_frame = frame_id
        model, max_age, slots = self._model, self.config.max_age, self.slots
        if gap > 1:
            oldest = max_age - gap + 1  # the oldest age that lives on
            slots = [s for s in slots if s.time_since_update <= oldest]
        frames = range(gap)
        # predict: slots with one history hold one covariance tuple and lie
        # side by side, oldest first, so a step is computed once per run of
        # them; each mean advances by its velocity, frame by frame, and
        # gives the predicted box, its area and aspect floored at 1e-6
        track_boxes = []
        shared = stepped = None
        for slot in slots:
            if slot.cov is not shared:
                shared = stepped = slot.cov
                for _ in frames:
                    stepped = _predict_cov(stepped, model)
            slot.cov = stepped
            x = slot.x
            cx, cy, area, aspect, vcx, vcy, varea = x
            for _ in frames:
                cx += vcx
                cy += vcy
                area += varea
                if area + varea <= 0:  # keep predicted area positive
                    varea = 0.0
                    area = 1e-6 if area < 1e-6 else area  # max, see `iou`
            x[0] = cx
            x[1] = cy
            x[2] = area
            x[6] = varea
            area = 1e-6 if area < 1e-6 else area
            w = sqrt(area * (1e-6 if aspect < 1e-6 else aspect))
            hw, hh = w / 2.0, area / w / 2.0
            track_boxes.append((cx - hw, cy - hh, cx + hw, cy + hh))
            slot.time_since_update += gap
        track_of = associate(track_boxes, [d[1] for d in detections],
                             self.config.iou_threshold)
        # each detection's measurement (cx, cy, area, aspect) corrects its
        # track's mean or starts a new track
        assignments, new_tracks, born = [], [], []
        measured: list[Optional[tuple]] = [None] * len(slots)  # by slot
        for (node_id, (x1, y1, x2, y2)), t in zip(detections, track_of):
            w, h = x2 - x1, y2 - y1
            z = (x1 + w / 2.0, y1 + h / 2.0, w * h, w / h)
            if t is None:
                track_id = self._next_id
                self._next_id += 1
                born.append(_TrackSlot(track_id, [*z, 0.0, 0.0, 0.0],
                                       model.cov0))
                new_tracks.append(track_id)
            else:
                measured[t] = z
                track_id = slots[t].track_id
            assignments.append((node_id, track_id))
        # update, in slot order so that runs of one covariance stay runs,
        # and retire the slots unmatched for more than `max_age` frames
        kept = []
        shared = None
        for slot, z in zip(slots, measured):
            if z is None:
                if slot.time_since_update <= max_age:
                    kept.append(slot)
                continue
            if slot.cov is not shared:
                shared = slot.cov
                updated, (kp0, kv0, kp1, kv1, kp2, kv2, ka) = \
                    _update_cov(shared, model)
            slot.cov = updated
            cx, cy, area, aspect, vcx, vcy, varea = slot.x
            z0, z1, z2, z3 = z
            y0, y1, y2 = z0 - cx, z1 - cy, z2 - area
            slot.x = [cx + kp0 * y0, cy + kp1 * y1, area + kp2 * y2,
                      aspect + ka * (z3 - aspect), vcx + kv0 * y0,
                      vcy + kv1 * y1, varea + kv2 * y2]
            slot.time_since_update = 0
            kept.append(slot)
        kept += born
        self.slots = kept
        return StepResult(assignments=assignments, new_tracks=new_tracks)

"""The batched SortTracker against the frozen scalar tracker.

`_scalar_tracker.py` holds the per-track, per-pair tracker the batched one
replaced.  After every step both must give the same assignments, motion edges
and new tracks, the same per-slot bookkeeping, and bit for bit the same
Kalman means and covariances.  No tolerance: the batched tracker keeps the
scalar operation order, so a difference in the last bit is a bug.
"""

import random

import numpy as np
import pytest

import _scalar_tracker as scalar
from vidquery import synth
from vidquery.tracker import SortTracker, TrackerConfig, iou_matrix
from vidquery.trace_io import VideoMeta

CONFIGS = [
    {},
    {"max_age": 2},
    {"iou_threshold": 0.1, "min_hits": 2},
    {"process_noise": 3.0, "measurement_noise": 0.5},
]
STREAMS_PER_CONFIG = 85  # 340 streams in all


def _bits(arrays, shape) -> bytes:
    return np.stack(arrays).tobytes() if arrays else np.zeros(shape).tobytes()


def assert_same_step(batched, oracle, frame_id, dets, where=""):
    got = batched.step(frame_id, dets)
    want = oracle.step(frame_id, dets)
    assert got.assignments == want.assignments, where
    assert got.motion_edges == want.motion_edges, where
    assert got.new_tracks == want.new_tracks, where
    book = lambda s: (s.track_id, s.hits, s.time_since_update, s.last_frame,
                      s.last_node)
    assert [book(s) for s in batched.slots] == [book(s) for s in oracle.slots], where
    n = len(oracle.slots)
    assert batched._x.shape == (n, 7) and batched._P.shape == (n, 7, 7), where
    assert batched._x.tobytes() == _bits(
        [s.state.x for s in oracle.slots], (0, 7)), where
    assert batched._P.tobytes() == _bits(
        [s.state.P for s in oracle.slots], (0, 7, 7)), where
    return got


def run_both(config, stream, where=""):
    batched, oracle = SortTracker(config), scalar.SortTracker(config)
    for frame_id, dets in stream:
        assert_same_step(batched, oracle, frame_id, dets,
                         f"{where} frame {frame_id}")
    return batched


def random_stream(rng: random.Random, frames: int = 24):
    """Objects that move, grow or shrink, drop out and come back, seen in a
    shuffled order on frames with gaps, plus clutter and exact duplicates
    (equal IoUs, so the tie-break decides)."""
    objects = []
    for _ in range(rng.randint(0, 9)):
        w, h = rng.uniform(8, 60), rng.uniform(8, 60)
        objects.append({
            "start": rng.randint(0, frames // 2),
            "end": rng.randint(frames // 2, frames),
            "c": [rng.uniform(0, 400), rng.uniform(0, 400)],
            "v": (rng.uniform(-8, 8), rng.uniform(-8, 8)),
            "size": [w, h],
            "grow": rng.uniform(0.85, 1.15),
        })
    frame_id = 0
    for step in range(frames):
        frame_id += rng.choice((1, 1, 1, 2, 5))
        boxes = []
        for o in objects:
            o["c"][0] += o["v"][0]
            o["c"][1] += o["v"][1]
            o["size"] = [max(2.0, s * o["grow"]) for s in o["size"]]
            if not o["start"] <= step <= o["end"] or rng.random() < 0.15:
                continue
            (cx, cy), (w, h) = o["c"], o["size"]
            jx, jy = rng.uniform(-2, 2), rng.uniform(-2, 2)
            boxes.append((cx + jx - w / 2, cy + jy - h / 2,
                          cx + jx + w / 2, cy + jy + h / 2))
        if boxes and rng.random() < 0.2:
            boxes.append(rng.choice(boxes))
        if rng.random() < 0.2:
            x, y = rng.uniform(0, 400), rng.uniform(0, 400)
            boxes.append((x, y, x + rng.uniform(5, 50), y + rng.uniform(5, 50)))
        rng.shuffle(boxes)
        yield frame_id, [((frame_id, i), b) for i, b in enumerate(boxes)]


def test_iou_matrix_matches_scalar_iou():
    """Every cell bit for bit, including disjoint, touching, nested and
    identical boxes; assignments alone would miss a last-bit change."""
    rng = random.Random(5)
    boxes = [(0.0, 0.0, 10.0, 10.0), (10.0, 0.0, 20.0, 10.0),
             (2.0, 2.0, 4.0, 4.0), (0.0, 0.0, 10.0, 10.0)]
    for _ in range(60):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        boxes.append((x, y, x + rng.uniform(0.5, 60), y + rng.uniform(0.5, 60)))
    matrix = iou_matrix(boxes[:30], boxes)
    assert matrix.shape == (30, len(boxes))
    for i, a in enumerate(boxes[:30]):
        for j, b in enumerate(boxes):
            assert matrix[i, j].tobytes() == np.float64(scalar.iou(a, b)).tobytes()


@pytest.mark.parametrize("overrides", CONFIGS, ids=lambda c: str(c) or "default")
def test_random_streams_match_scalar_tracker(overrides):
    config = TrackerConfig(**overrides)
    for seed in range(STREAMS_PER_CONFIG):
        rng = random.Random(f"{sorted(overrides.items())}:{seed}")
        run_both(config, random_stream(rng), f"seed {seed}")


def test_dense_world_matches_scalar_tracker():
    """100 cars alive on all 30 frames in 20 one-way lanes."""
    rng = random.Random(1)
    frames, lanes, per_lane, width = 30, 20, 5, 2000
    objects = []
    for lane in range(lanes):
        vx = rng.choice((2.0, 3.0, 4.0, 5.0)) * (1 if lane % 2 == 0 else -1)
        for k in range(per_lane):
            x = 160.0 + k * (width - 200) / per_lane + (150.0 if vx < 0 else 0.0)
            objects.append(synth.ObjectScript(
                label=lane * per_lane + k, class_name="car", start_frame=0,
                end_frame=frames - 1, start_center=(x, 35.0 + lane * 50),
                velocity=(vx, 0.0), size=(40.0, 30.0), jitter=1.0,
            ))
    meta = VideoMeta(fps=10.0, width=width, height=lanes * 50 + 20,
                     frame_count=frames)
    world = synth.WorldSpec(meta=meta, objects=objects, seed=1)
    stream = [
        (rec.frame_id,
         [((rec.frame_id, i), d.bbox) for i, d in enumerate(rec.detections)])
        for rec in synth.generate(world)
    ]
    assert all(len(dets) == 100 for _f, dets in stream)
    tracker = run_both(TrackerConfig(), stream)
    assert len(tracker.slots) == 100


def test_area_clamp_on_one_row():
    """A box shrinking fast beside a steady one: the predicted area would go
    negative for the shrinking track only, so the clamp masks one row."""
    config = TrackerConfig()
    batched, oracle = SortTracker(config), scalar.SortTracker(config)
    clamped = []
    for f in range(8):
        s = max(60.0 - 12.0 * f, 1.0)
        dets = [((f, 0), (100 - s / 2, 100 - s / 2, 100 + s / 2, 100 + s / 2)),
                ((f, 1), (500.0, 500.0, 540.0, 530.0))]
        predicted = [scalar._F @ slot.state.x for slot in oracle.slots]
        clamped.append([bool(x[2] + x[6] <= 0) for x in predicted])
        assert_same_step(batched, oracle, f, dets, f"frame {f}")
    assert [True, False] in clamped

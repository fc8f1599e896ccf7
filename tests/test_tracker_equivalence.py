"""The block-state SortTracker against the frozen scalar tracker.

`_scalar_tracker.py` holds the per-track, per-pair tracker with dense 7x7
numpy matrices, which ages its tracks by one per step; `GapFilled` steps it
with no detections on each frame that a stream skips, so it ages them by
frames, as the block tracker does.  After every step both must give the
same assignments and new tracks, the same per-slot bookkeeping, and bit for
bit the same Kalman means and covariances: each slot's block state is
expanded to the dense mean and covariance, with +0.0 off the blocks.  No
tolerance: the block tracker keeps the dense filter's operation order, so a
difference in the last bit is a bug.  The association, which scores only
pairs whose boxes can intersect, must match the scalar all-pairs one on
every box set.
"""

import random

import numpy as np
import pytest

import _scalar_tracker as scalar
from conftest import dense_state
from vidquery import synth
from vidquery.tracker import SortTracker, TrackerConfig, associate, iou
from vidquery.trace_io import VideoMeta

CONFIGS = [
    {},
    {"max_age": 2},
    {"iou_threshold": 0.1},
    {"process_noise": 3.0, "measurement_noise": 0.5},
]
STREAMS_PER_CONFIG = 85  # 340 streams in all


def _bits(arrays, shape) -> bytes:
    return np.stack(arrays).tobytes() if arrays else np.zeros(shape).tobytes()


def assert_same_step(tracker, oracle, frame_id, dets, where=""):
    got = tracker.step(frame_id, dets)
    want = oracle.step(frame_id, dets)
    # the oracle sorts its assignments by node id; the block tracker lists
    # them in detection order
    assert [n for n, _t in got.assignments] == [n for n, _b in dets], where
    assert sorted(got.assignments) == want.assignments, where
    assert got.new_tracks == want.new_tracks, where
    book = lambda s: (s.track_id, s.time_since_update)
    assert [book(s) for s in tracker.slots] == [book(s) for s in oracle.slots], where
    x, P = dense_state(tracker.slots)
    assert x.tobytes() == _bits([s.state.x for s in oracle.slots], (0, 7)), where
    assert P.tobytes() == _bits(
        [s.state.P for s in oracle.slots], (0, 7, 7)), where
    return got


class GapFilled:
    """The frozen scalar tracker stepped on every frame: each frame between
    two steps is stepped first, with no detections."""

    def __init__(self, config):
        self.tracker = scalar.SortTracker(config)
        self.last = None

    @property
    def slots(self):
        return self.tracker.slots

    def step(self, frame_id, dets):
        if self.last is not None:
            for f in range(self.last + 1, frame_id):
                self.tracker.step(f, [])
        self.last = frame_id
        return self.tracker.step(frame_id, dets)


def run_both(config, stream, where=""):
    tracker, oracle = SortTracker(config), GapFilled(config)
    for frame_id, dets in stream:
        assert_same_step(tracker, oracle, frame_id, dets,
                         f"{where} frame {frame_id}")
    return tracker


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


def boundary_stream(first: int, target: int):
    """Car A is seen on frames `first` and `first + 1`, car B on `first`
    only, then no frame is stepped until both are seen again after a gap
    that brings A's age plus the skipped frames to `target`, and B's to
    `target + 1`."""
    a = [(100.0 + 0.5 * k, 100.0, 140.0 + 0.5 * k, 140.0) for k in range(2)]
    b = (400.0, 300.0, 440.0, 330.0)
    yield first, [((first, 0), a[0]), ((first, 1), b)]
    yield first + 1, [((first + 1, 0), a[1])]
    again = first + 1 + target + 1  # A's age after frame first + 1 is 0
    yield again, [((again, 0), a[1]), ((again, 1), b)]


@pytest.mark.parametrize("max_age", [1, 3, 30])
@pytest.mark.parametrize("first", [0, 7])
def test_gaps_at_the_retirement_boundary(max_age, first):
    """A slot lives through a gap iff its age plus the skipped frames is at
    most `max_age`; at `max_age` exactly it survives and is matched."""
    config = TrackerConfig(max_age=max_age)
    for target in (max_age - 1, max_age, max_age + 1):
        tracker = SortTracker(config)
        results = [tracker.step(f, dets) for f, dets in
                   boundary_stream(first, target)]
        run_both(config, boundary_stream(first, target),
                 f"target {target}")
        born_a, born_b = results[0].new_tracks
        last = dict(results[-1].assignments)
        again = first + target + 2
        assert (last[again, 0] == born_a) == (target <= max_age), target
        assert (last[again, 1] == born_b) == (target + 1 <= max_age), target


def test_iou_matches_scalar_iou():
    """Every pair bit for bit, including disjoint, touching, nested and
    identical boxes; assignments alone would miss a last-bit change."""
    rng = random.Random(5)
    boxes = [(0.0, 0.0, 10.0, 10.0), (10.0, 0.0, 20.0, 10.0),
             (2.0, 2.0, 4.0, 4.0), (0.0, 0.0, 10.0, 10.0)]
    for _ in range(60):
        x, y = rng.uniform(0, 100), rng.uniform(0, 100)
        boxes.append((x, y, x + rng.uniform(0.5, 60), y + rng.uniform(0.5, 60)))
    for a in boxes[:30]:
        for b in boxes:
            got = iou(a, b)
            assert type(got) is float
            assert np.float64(got).tobytes() == \
                np.float64(scalar.iou(a, b)).tobytes()


def random_boxes(rng: random.Random, n: int, span: float = 400.0):
    boxes = []
    for _ in range(n):
        x, y = rng.uniform(0, span), rng.uniform(0, span)
        boxes.append((x, y, x + rng.uniform(0.5, 80), y + rng.uniform(0.5, 80)))
    return boxes


def jittered(rng: random.Random, boxes):
    """Boxes near the given ones, so that many pairs overlap."""
    out = []
    for x1, y1, x2, y2 in boxes:
        dx, dy = rng.uniform(-6, 6), rng.uniform(-6, 6)
        out.append((x1 + dx, y1 + dy, x2 + dx * rng.random(),
                    y2 + dy * rng.random()))
    return out


def assert_same_association(tracks, dets, threshold=0.3):
    """Each detection gets the track the all-pairs matching gives it, and
    None where that leaves it unmatched; so the matched pairs and the
    unmatched tracks and detections are the oracle's."""
    got = associate(tracks, dets, threshold)
    matches, unmatched_tracks, unmatched_dets = scalar.associate(
        tracks, dets, threshold)
    assert len(got) == len(dets)
    assert sorted((t, d) for d, t in enumerate(got) if t is not None) \
        == matches
    assert [d for d, t in enumerate(got) if t is None] == unmatched_dets
    assert [t for t in range(len(tracks)) if t not in got] == unmatched_tracks


@pytest.mark.parametrize("threshold", [0.05, 0.3, 0.7])
def test_association_matches_all_pairs(threshold):
    rng = random.Random(f"associate:{threshold}")
    for _ in range(150):
        tracks = random_boxes(rng, rng.randint(0, 25))
        dets = jittered(rng, tracks) + random_boxes(rng, rng.randint(0, 10))
        rng.shuffle(dets)
        dets = dets[:rng.randint(0, len(dets))]
        assert_same_association(tracks, dets, threshold)


BASE = [(0.0, 0.0, 10.0, 10.0), (8.0, 1.0, 18.0, 11.0),
        (30.0, 30.0, 50.0, 45.0), (100.0, 0.0, 120.0, 20.0)]

ADVERSARIAL = {
    # its x1 is left of every track, its x2 right of every track
    "one very wide detection": (BASE, [(1.0, 1.0, 11.0, 11.0),
                                       (-1e6, 2.0, 1e6, 12.0),
                                       (101.0, 0.0, 121.0, 20.0)]),
    # the wide one ends right of the narrow ones sorted after it
    "wide detection among narrow ones": (
        [(50.0, 0.0, 150.0, 10.0), (0.0, 0.0, 3.0, 10.0)],
        [(1.0, 0.0, 2.0, 10.0), (0.5, 0.0, 149.0, 10.0), (2.0, 0.0, 3.0, 10.0),
         (4.0, 0.0, 5.0, 10.0)]),
    "very wide track": ([(-1e6, 0.0, 1e6, 10.0)] + BASE,
                        [(0.0, 0.0, 10.0, 10.0), (-1e6, 0.0, 1e6, 9.0)]),
    "boxes touching on an edge": (BASE, [(10.0, 0.0, 20.0, 10.0),
                                         (0.0, 10.0, 10.0, 20.0),
                                         (-10.0, 0.0, 0.0, 10.0),
                                         (120.0, 0.0, 140.0, 20.0)]),
    "duplicates tie": (BASE + BASE, BASE + BASE[:2]),
    "nested boxes": (BASE, [(2.0, 2.0, 4.0, 4.0), (-5.0, -5.0, 15.0, 15.0),
                            (35.0, 33.0, 45.0, 40.0)]),
    "no tracks": ([], BASE),
    "no detections": (BASE, []),
}


@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
@pytest.mark.parametrize("offset", [0.0, 1e15], ids=["at-0", "at-1e15"])
def test_association_adversarial(case, offset):
    """Offsetting every coordinate by 1e15 rounds them to multiples of
    0.125: boxes merge, touch or collapse, and any arithmetic margin in the
    candidate search would round with them."""
    tracks, dets = ADVERSARIAL[case]
    move = lambda boxes: [tuple(c + offset for c in b) for b in boxes]
    assert_same_association(move(tracks), move(dets), 0.3)
    assert_same_association(move(tracks), move(dets), 0.05)


def test_association_at_large_coordinates():
    rng = random.Random(15)
    for _ in range(100):
        tracks = random_boxes(rng, rng.randint(1, 12), span=40.0)
        dets = jittered(rng, tracks) + random_boxes(rng, 3, span=40.0)
        big = lambda boxes: [tuple(c + 1e15 for c in b) for b in boxes]
        assert_same_association(big(tracks), big(dets), 0.1)


@pytest.mark.parametrize("overrides", CONFIGS, ids=lambda c: str(c) or "default")
def test_random_streams_match_scalar_tracker(overrides):
    config = TrackerConfig(**overrides)
    for seed in range(STREAMS_PER_CONFIG):
        rng = random.Random(f"{sorted(overrides.items())}:{seed}")
        run_both(config, random_stream(rng), f"seed {seed}")


def test_assignments_follow_detection_order_not_node_ids():
    """Random streams whose node ids are shuffled on each frame: the
    assignments list the detections in input order, and the state and the
    sorted assignments are still the oracle's."""
    config, unsorted = TrackerConfig(), 0
    for seed in range(20):
        rng = random.Random(f"unsorted:{seed}")
        stream = []
        for frame_id, dets in random_stream(rng):
            ids = [node_id for node_id, _box in dets]
            rng.shuffle(ids)
            unsorted += ids != sorted(ids)
            stream.append((frame_id, [(node_id, box) for node_id, (_n, box)
                                      in zip(ids, dets)]))
        run_both(config, stream, f"seed {seed}")
    assert unsorted > 100


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
    tracker, oracle = SortTracker(config), scalar.SortTracker(config)
    clamped = []
    for f in range(8):
        s = max(60.0 - 12.0 * f, 1.0)
        dets = [((f, 0), (100 - s / 2, 100 - s / 2, 100 + s / 2, 100 + s / 2)),
                ((f, 1), (500.0, 500.0, 540.0, 530.0))]
        predicted = [scalar._F @ slot.state.x for slot in oracle.slots]
        clamped.append([bool(x[2] + x[6] <= 0) for x in predicted])
        assert_same_step(tracker, oracle, f, dets, f"frame {f}")
    assert [True, False] in clamped

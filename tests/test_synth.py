"""Scripted-world rendering: trajectories, noise determinism, and oracles."""

import json
import tracemalloc

import pytest

from vidquery.synth import (
    ObjectScript,
    WorldSpec,
    generate,
    identity_map,
    label_frames,
    label_tracks,
    load_world,
    render_frame,
    write_world,
)
from vidquery.trace_io import VideoMeta, load_meta, open_trace

from conftest import car, meta_1000


def test_static_object_renders_identically_each_frame():
    world = WorldSpec(meta=meta_1000(5), objects=[
        car(1, 0, 4, (100.0, 100.0)),
    ])
    records = generate(world)
    boxes = {r.detections[0].bbox for r in records}
    assert boxes == {(80.0, 80.0, 120.0, 120.0)}


def test_linear_motion_progression():
    world = WorldSpec(meta=meta_1000(5), objects=[
        car(1, 0, 4, (100.0, 100.0), velocity=(2.0, -1.0)),
    ])
    for f, r in enumerate(generate(world)):
        x1, y1, x2, y2 = r.detections[0].bbox
        assert ((x1 + x2) / 2, (y1 + y2) / 2) == (100.0 + 2 * f, 100.0 - f)


def test_turn_changes_slope():
    obj = car(1, 0, 10, (100.0, 100.0), velocity=(2.0, 0.0),
              turn_frame=5, turn_velocity=(0.0, 3.0))
    assert obj.center(5) == (110.0, 100.0)
    assert obj.center(8) == (110.0, 109.0)


def test_lifetime_and_dropouts():
    world = WorldSpec(meta=meta_1000(10), objects=[
        car(1, 2, 7, (100.0, 100.0), dropout_frames=frozenset({4})),
    ])
    counts = [len(render_frame(world, f).detections) for f in range(10)]
    assert counts == [0, 0, 1, 1, 0, 1, 1, 1, 0, 0]


def test_jitter_is_deterministic_and_bounded():
    world = WorldSpec(meta=meta_1000(10), seed=5, objects=[
        car(1, 0, 9, (500.0, 500.0), jitter=2.0),
    ])
    first = generate(world)
    second = generate(world)
    assert first == second
    for r in first:
        x1, y1, x2, y2 = r.detections[0].bbox
        cx, cy = (x1 + x2) / 2, (y1 + y2) / 2
        assert abs(cx - 500.0) <= 2.0 and abs(cy - 500.0) <= 2.0
    other_seed = WorldSpec(meta=meta_1000(10), seed=6, objects=world.objects)
    assert generate(other_seed) != first


def test_bbox_clamped_then_culled():
    meta = VideoMeta(fps=10, width=100, height=100, frame_count=8)
    world = WorldSpec(meta=meta, objects=[
        # exits right at 20 px/frame
        ObjectScript(label=1, class_name="car", start_frame=0, end_frame=7,
                     start_center=(50.0, 50.0), velocity=(20.0, 0.0)),
    ])
    records = generate(world)
    assert records[2].detections[0].bbox == (70.0, 30.0, 100.0, 70.0)  # clipped
    assert records[6].detections == ()  # fully off screen


def test_channels_rendered_per_frame():
    world = WorldSpec(meta=meta_1000(3),
                      channels={"motion_score": [0.1, 0.9]})
    records = generate(world)
    assert records[0].channels == {"motion_score": 0.1}
    assert records[2].channels == {}  # channel shorter than the video


def test_label_frames_is_engine_independent():
    world = WorldSpec(meta=meta_1000(6), objects=[
        car(1, 0, 2, (100.0, 100.0), color="red"),
        car(2, 3, 5, (300.0, 100.0), color="blue",
            dropout_frames=frozenset({4})),
    ])
    labels = label_frames(world, lambda o, f: o.attrs["color"] == "red")
    assert labels == [True, True, True, False, False, False]
    # dropouts do not affect the oracle: it labels the world, not the trace
    blue = label_frames(world, lambda o, f: o.attrs["color"] == "blue")
    assert blue == [False, False, False, True, True, True]


def test_label_tracks_lifetime_indexed():
    world = WorldSpec(meta=meta_1000(10), objects=[
        car(7, 2, 6, (100.0, 100.0), velocity=(5.0, 0.0)),
    ])
    out = label_tracks(world, lambda o, f: o.center(f)[0] >= 110.0)
    assert out == {7: [False, False, True, True, True]}


def test_write_world_round_trip(tmp_path):
    world = WorldSpec(meta=meta_1000(4), seed=3, objects=[
        car(1, 0, 3, (100.0, 100.0), velocity=(2.0, 0.0), jitter=1.0,
            turn_frame=2, turn_velocity=(0.0, 2.0)),
    ])
    paths = write_world(world, tmp_path / "w")
    assert load_meta(paths["meta"]) == world.meta
    assert list(open_trace(paths["trace"])) == generate(world)
    ids = identity_map(world)
    assert [json.loads(line) for line in
            paths["ground_truth"].read_text().splitlines()] == \
        [{"frame": f, "objects": ids[f]} for f in range(4)]
    reloaded = load_world(paths["world"])
    assert reloaded == world
    assert generate(reloaded) == generate(world)


def test_identity_map_marks_dropouts():
    world = WorldSpec(meta=meta_1000(3), objects=[
        car(1, 0, 2, (100.0, 100.0), dropout_frames=frozenset({1})),
    ])
    ids = identity_map(world)
    assert [e["dropped"] for f in range(3) for e in ids[f]] == \
        [False, True, False]
    assert ids[0][0]["label"] == 1


def test_write_world_memory_does_not_grow_with_the_frame_count(tmp_path):
    """Each frame is rendered and written before the next: a 20,000-frame
    world of one car peaks far below the ~12 MB that its records and
    identities take when held at once."""
    frames = 20_000
    world = WorldSpec(meta=meta_1000(frames), seed=1, objects=[
        car(1, 0, frames - 1, (100.0, 300.0), velocity=(0.01, 0.0))])
    tracemalloc.start()
    try:
        write_world(world, tmp_path / "w")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000

"""Trace file parsing, ordering, batching, and sidecar formats."""

import json
import math

import pytest

from vidquery.trace_io import (
    Detection,
    GroundTruth,
    GroundTruthEntry,
    TraceError,
    TraceOrderError,
    TraceParseError,
    TraceRecord,
    VideoMeta,
    batch,
    load_ground_truth,
    load_meta,
    open_trace,
    write_ground_truth,
    write_meta,
    write_trace,
)


def rec(frame, boxes=(), channels=None):
    return TraceRecord(
        frame_id=frame,
        detections=tuple(
            Detection(class_name="car", bbox=b, score=0.9) for b in boxes
        ),
        channels=channels or {},
    )


def test_round_trip(tmp_path):
    records = [
        rec(0, [(0.0, 0.0, 10.0, 10.0)]),
        rec(2, [(5.0, 5.0, 15.0, 25.0)], channels={"motion_score": 0.5}),
        rec(7),
    ]
    path = tmp_path / "t.jsonl"
    write_trace(records, path)
    loaded = list(open_trace(path))
    assert loaded == records


def test_frame_order_enforced(tmp_path):
    path = tmp_path / "t.jsonl"
    write_trace([rec(3)], path)
    with path.open("a") as fh:
        fh.write(json.dumps({"frame": 3, "dets": []}) + "\n")
    with pytest.raises(TraceOrderError) as exc:
        list(open_trace(path))
    assert exc.value.line_no == 2


def test_bad_json_reports_location(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"frame": 0, "dets": []}\nnot json\n')
    with pytest.raises(TraceParseError) as exc:
        list(open_trace(path))
    assert f"{path}:2:" in str(exc.value)


def test_degenerate_bbox_rejected(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(json.dumps({
        "frame": 0,
        "dets": [{"class": "car", "bbox": [10, 10, 10, 20], "score": 0.5}],
    }) + "\n")
    with pytest.raises(TraceParseError):
        list(open_trace(path))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("index", range(4))
def test_non_finite_bbox_rejected(bad, index):
    bbox = [10.0, 10.0, 40.0, 40.0]
    bbox[index] = bad
    with pytest.raises(ValueError, match="non-finite"):
        Detection(class_name="car", bbox=tuple(bbox), score=0.5)


def test_non_finite_bbox_line_is_parse_error(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"frame": 0, "dets": []}\n'
                    '{"frame": 1, "dets": [{"class": "car", '
                    '"bbox": [12, 10, Infinity, 40]}]}\n')
    with pytest.raises(TraceParseError, match=":2: bad record: .*non-finite"):
        list(open_trace(path))


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_channel_line_is_parse_error(tmp_path, bad):
    path = tmp_path / "t.jsonl"
    path.write_text('{"frame": 0, "channels": {"motion_score": 0.5}}\n'
                    f'{{"frame": 1, "channels": {{"motion_score": {bad}}}}}\n')
    with pytest.raises(TraceParseError,
                       match=":2: bad record: non-finite channel motion_score="):
        list(open_trace(path))


def test_score_range_rejected():
    with pytest.raises(ValueError):
        Detection(class_name="car", bbox=(0, 0, 1, 1), score=1.5)


def test_bbox_outside_resolution(tmp_path):
    path = tmp_path / "t.jsonl"
    write_trace([rec(0, [(0.0, 0.0, 200.0, 50.0)])], path)
    meta = VideoMeta(fps=10, width=100, height=100, frame_count=1)
    with pytest.raises(TraceParseError):
        list(open_trace(path, meta=meta))
    assert list(open_trace(path)) != []  # fine without a resolution to check


def test_missing_frames_are_not_errors(tmp_path):
    path = tmp_path / "t.jsonl"
    write_trace([rec(0), rec(5)], path)
    assert [r.frame_id for r in open_trace(path)] == [0, 5]


def test_batching_partition():
    records = [rec(i) for i in range(7)]
    sizes = [len(b) for b in batch(iter(records), 3)]
    assert sizes == [3, 3, 1]
    flat = [r.frame_id for b in batch(iter(records), 3) for r in b]
    assert flat == list(range(7))


def test_batch_size_validated():
    with pytest.raises(ValueError):
        list(batch(iter([]), 0))


def test_ground_truth_duplicate_frame():
    with pytest.raises(TraceError):
        GroundTruth([
            GroundTruthEntry(frame_id=1, label=True),
            GroundTruthEntry(frame_id=1, label=False),
        ])


def test_ground_truth_lookup(tmp_path):
    path = tmp_path / "gt.jsonl"
    write_ground_truth(
        [
            GroundTruthEntry(frame_id=0, label=True),
            GroundTruthEntry(frame_id=1, label=False),
            GroundTruthEntry(frame_id=2, objects=[{"label": 4}]),
        ],
        path,
    )
    gt = load_ground_truth(path)
    assert gt.lookup(0) is True
    assert gt.lookup(1) is False
    assert gt.lookup(99) is None  # unlabeled, distinct from False
    assert gt.objects(2) == [{"label": 4}]


def test_meta_round_trip(tmp_path):
    path = tmp_path / "meta.json"
    meta = VideoMeta(fps=29.97, width=1920, height=1080, frame_count=120,
                     px_per_m=42.5)
    write_meta(meta, path)
    assert load_meta(path) == meta


def test_meta_validation():
    with pytest.raises(ValueError):
        VideoMeta(fps=0, width=10, height=10, frame_count=1)
    with pytest.raises(ValueError):
        VideoMeta(fps=10, width=0, height=10, frame_count=1)
    with pytest.raises(ValueError):
        VideoMeta(fps=10, width=10, height=10, frame_count=1, px_per_m=-1)

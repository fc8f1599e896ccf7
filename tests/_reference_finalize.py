"""Frozen finalize evaluators: the references for the engine's duration,
temporal and count_distinct evaluators.

These are `eval_duration` and `count_distinct_tracks` as `vidquery.operators`
had them while each track kept the set of frames it was on and each
aggregate kept every verdict: a duration read a track's present frames
beside its satisfied ones, and a count read per-track verdict lists.
`eval_temporal` is the version that paired every run end with every run
start.  They are kept unchanged so tests can require the engine's versions,
which read a track's birth frame and per-track verdict counts and bisect the
run starts, to give the same answers.  Do not edit them to follow the
engine.
"""

from __future__ import annotations

from typing import Iterable


def eval_duration(
    satisfied: dict[int, set[int]],
    present: dict[int, set[int]],
    min_frames: int,
    gap_tolerance: int = 0,
) -> set[tuple[int, int]]:
    """Firing set of (track_id, frame_id).

    (t, f) fires iff the base held for t over [f - d + 1, f] with at most
    `gap_tolerance` violating frames (absent or unsatisfied), and the base
    holds for t at f itself.
    """
    if min_frames < 1:
        raise ValueError("min_frames must be >= 1")
    fires = set()
    for track_id, sat in satisfied.items():
        pres = present.get(track_id, set())
        if not pres:
            continue
        lo, hi = min(pres), max(pres)
        # prefix counts of violating frames over the track's span
        span = hi - lo + 1
        bad = [0] * (span + 1)
        for i, f in enumerate(range(lo, hi + 1)):
            bad[i + 1] = bad[i] + (0 if (f in pres and f in sat) else 1)
        for f in range(lo + min_frames - 1, hi + 1):
            if f not in sat:
                continue
            start = f - min_frames + 1
            if start < lo:
                continue
            violations = bad[f - lo + 1] - bad[start - lo]
            if violations <= gap_tolerance:
                fires.add((track_id, f))
    return fires


def count_distinct_tracks(per_track: dict[int, list]) -> int:
    """Count tracks whose per-frame evaluations contain no False and at
    least one True (Undefined warm-up frames are skipped)."""
    count = 0
    for _track, values in sorted(per_track.items()):
        decided = [v for v in values if v is not None]
        if decided and all(decided):
            count += 1
    return count


def _runs(frames: Iterable[int]) -> list[tuple[int, int]]:
    """Maximal runs of consecutive frames as (first, last)."""
    out = []
    for f in sorted(frames):
        if out and f == out[-1][1] + 1:
            out[-1] = (out[-1][0], f)
        else:
            out.append((f, f))
    return out


def eval_temporal(
    occ1: Iterable[int], occ2: Iterable[int], max_interval: int
) -> tuple[bool, list[tuple[int, int]]]:
    """Sequential composition: true iff some maximal run of the first event
    ends at most `max_interval` frames before some run of the second starts.
    """
    ends = [last for _first, last in _runs(occ1)]
    starts = [first for first, _last in _runs(occ2)]
    witnesses = [
        (e, s)
        for e in ends
        for s in starts
        if e < s and (s - e) <= max_interval
    ]
    return bool(witnesses), sorted(witnesses)

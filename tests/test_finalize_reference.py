"""The duration, temporal and count_distinct evaluators against their frozen
references on seeded random inputs.

`_reference_finalize.py` holds the evaluators that read each track's present
frames and per-frame verdict lists, and the temporal evaluator that pairs
every run end with every run start.  The engine's read a track's birth frame
and [true, false, undefined] verdict counts, and bisect the run starts.  The
inputs keep the engine's invariants: a track is satisfied only on frames it
is present on, and it is born on its first present frame.
"""

import random

import pytest

import _reference_finalize as reference
from vidquery.operators import (count_distinct_tracks, eval_duration,
                                eval_temporal)


def random_tracks(rng):
    """(satisfied, present) frame sets of a few tracks: some empty, some on
    one frame, some born late, satisfied on a subset of present frames."""
    satisfied, present = {}, {}
    for t in range(rng.randint(0, 4)):
        shape = rng.random()
        if shape < 0.1:
            pres = set()
        elif shape < 0.25:
            pres = {rng.randrange(40)}
        else:
            born = rng.randrange(30)
            keep = rng.uniform(0.5, 1.0)
            pres = {born} | {f for f in range(born + 1, born + rng.randint(1, 30))
                             if rng.random() < keep}
        hold = rng.choice((0.0, 0.5, 0.8, 1.0))
        satisfied[t] = {f for f in pres if rng.random() < hold}
        present[t] = pres
    return satisfied, present


@pytest.mark.parametrize("seed", range(5))
def test_duration_matches_the_present_frame_reference(seed):
    rng = random.Random(seed)
    cases = fired = 0
    for _ in range(400):
        satisfied, present = random_tracks(rng)
        min_frames = rng.randint(1, 8)
        gap_tolerance = rng.choice((0, 0, 1, 2, 3))
        first_frame = {t: min(pres) if pres else None
                       for t, pres in present.items()}
        expected = reference.eval_duration(satisfied, present, min_frames,
                                           gap_tolerance)
        assert eval_duration(satisfied, first_frame, min_frames,
                             gap_tolerance) == expected
        cases += 1
        fired += bool(expected)
    assert fired > cases // 4  # the inputs fire often enough to compare


def test_duration_tracks_with_nothing_satisfied_never_fire():
    present = {1: {3}, 2: set(range(5, 12))}
    satisfied = {1: set(), 2: set()}
    assert reference.eval_duration(satisfied, present, 1, 3) == set()
    assert eval_duration(satisfied, {1: 3, 2: 5}, 1, 3) == set()


def test_duration_one_frame_tracks():
    for gap_tolerance in (0, 1):
        for min_frames in (1, 2):
            present = satisfied = {7: {4}}
            assert eval_duration(satisfied, {7: 4}, min_frames,
                                 gap_tolerance) == reference.eval_duration(
                satisfied, present, min_frames, gap_tolerance)
    assert eval_duration({7: {4}}, {7: 4}, 1) == {(7, 4)}


def random_occurrences(rng):
    """The frames of one event: empty, one frame, runs that touch or are a
    frame apart, or scattered frames."""
    shape = rng.random()
    if shape < 0.1:
        return set()
    if shape < 0.2:
        return {rng.randrange(60)}
    if shape < 0.5:
        frames, f = set(), rng.randrange(10)
        for _ in range(rng.randint(1, 6)):
            length = rng.randint(1, 5)
            frames.update(range(f, f + length))
            f += length + rng.choice((0, 1, 1, 2, 7))  # 0: runs touch
        return frames
    return {f for f in range(rng.randrange(80)) if rng.random() < 0.3}


@pytest.mark.parametrize("seed", range(5))
def test_temporal_matches_the_all_pairs_reference(seed):
    rng = random.Random(seed)
    matched = 0
    for _ in range(400):
        occ1, occ2 = random_occurrences(rng), random_occurrences(rng)
        max_interval = rng.choice((0, 1, 2, 5, 20, 100))
        expected = reference.eval_temporal(occ1, occ2, max_interval)
        assert eval_temporal(occ1, occ2, max_interval) == expected
        matched += expected[0]
    assert matched > 100  # the inputs match often enough to compare


def test_temporal_edge_cases():
    cases = [
        (set(), set(), 5), (set(), {3}, 5), ({3}, set(), 5),
        ({3}, {3}, 5), ({3}, {4}, 0), ({3}, {4}, 1), ({4}, {3}, 10),
        ({1, 2}, {3, 4}, 1),  # touching runs are one run
        (set(range(10)), set(range(5, 20)), 50),
        ({0, 2, 4, 6}, {1, 3, 5, 7}, 3),
    ]
    for occ1, occ2, max_interval in cases:
        assert eval_temporal(occ1, occ2, max_interval) == \
            reference.eval_temporal(occ1, occ2, max_interval)


@pytest.mark.parametrize("seed", range(3))
def test_count_distinct_matches_the_verdict_list_reference(seed):
    rng = random.Random(seed)
    slot = {True: 0, False: 1, None: 2}
    for _ in range(300):
        verdicts = {
            t: [rng.choice((True, True, False, None))
                for _ in range(rng.randint(0, 6))]
            for t in range(rng.randint(0, 6))
        }
        counts = {}
        for t, values in verdicts.items():
            counts[t] = [0, 0, 0]
            for v in values:
                counts[t][slot[v]] += 1
        assert count_distinct_tracks(counts) == \
            reference.count_distinct_tracks(verdicts)

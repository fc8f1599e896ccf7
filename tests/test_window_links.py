"""A stateful window follows links: the tracker op links each tracked object
to the one before it on its track (`VObjInstance.prev`), and a window is the
object and its k - 1 predecessors.  These tests hold the links to the scan
of the track's record that they replaced, keep them bounded by the record,
and check that the engine's one property context carries only the values of
the call it serves.
"""

import gc
import random
from collections import deque

import pytest

from vidquery import executor
from vidquery.datamodel import UNDEFINED, Track, VObjInstance
from vidquery.executor import (ExecConfig, ExecStats, PropertyEngine, Session,
                               trace_batches)
from vidquery.planner import PlannerConfig, plan_query
from vidquery.registry import Registration
from vidquery.synth import WorldSpec, write_world
from vidquery.tracker import TrackerConfig

from conftest import (CAR_PROGRAM, car, frozen_registry, make_program,
                      meta_1000)


def scan_window(track, k, end_frame):
    """The track's k most recent objects at or before `end_frame`, oldest
    first; UNDEFINED while it has fewer.  The scan of the record that a
    window read before objects were linked."""
    if k < 1:
        raise ValueError("window length must be >= 1")
    objects = [n for n in track.objects if n.frame_id <= end_frame]
    if len(objects) < k:
        return UNDEFINED
    return objects[-k:]


LIKE_X = Registration(name="like_x", kind="property_fn", cost_units=0.5,
                      params={"impl": "cosine_similarity",
                              "reference": [1, 0]})

# `sim` is a window over `emb`, which is Undefined until `direction`'s own
# window fills: a window whose entries read windows further back
PROGRAM = CAR_PROGRAM.replace("}\n", """
  property emb: stateless(impl="attr_vector:emb", deps=[direction])
  property sim: stateful(impl="like_x", deps=[emb], window=3)
}
""", 1) + """
query fast { bind c: Car frame_constraint: c.speed > 2.0
             frame_output: c.sim }
query rightward { bind c: Car frame_constraint: c.direction == "right" }
query anywhere { bind c: Car frame_constraint: c.center != 0 }
"""


def _world(seed):
    """Cars born and leaving at random, each missing a few random frames."""
    rng = random.Random(seed)
    frames = 60
    objects = []
    for label in range(1, rng.randint(5, 8) + 1):
        start = rng.randint(0, frames - 10)
        end = min(frames - 1, start + rng.randint(8, 45))
        gaps = frozenset(f for f in range(start + 1, end)
                         if rng.random() < 0.12)
        script = car(
            label, start, end, (rng.uniform(80, 900), rng.uniform(80, 900)),
            velocity=(rng.choice([-4.0, 0.0, 3.0, 6.0]), rng.uniform(-1, 1)),
            jitter=0.5, dropout_frames=gaps)
        script.attrs["emb"] = rng.choice(["1,0", "0,1", "1,1"])
        objects.append(script)
    return WorldSpec(meta=meta_1000(frames), objects=objects, seed=seed)


def _dags(vprog, registry, meta, shared):
    """`fast` alone, whose tracker owns the detector's batch, or all three
    queries, whose detector the two trackers and `anywhere` read."""
    if not shared:
        return [plan_query(vprog, "fast", registry, PlannerConfig(), meta)]
    dags = [plan_query(vprog, q, registry, PlannerConfig(), meta)
            for q in ("fast", "rightward", "anywhere")]
    # a tracker of its own for `rightward`: one that retires on a gap
    dags[1].ops["tracker:c"].params["config"] = \
        TrackerConfig(max_age=1).to_json()
    return dags


@pytest.mark.parametrize("batch_size", [1, 3, 16, 64])
@pytest.mark.parametrize("shared", [False, True], ids=["owning", "shared"])
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_every_window_equals_the_scan_of_its_track(
        tmp_path, monkeypatch, seed, shared, batch_size):
    world = _world(seed)
    paths = write_world(world, tmp_path / "w")
    vprog = make_program(PROGRAM)
    registry = frozen_registry([LIKE_X])
    dags = _dags(vprog, registry, world.meta, shared)

    linked_window = executor.window
    reads = []

    def checked(node, k):
        got = linked_window(node, k)
        want = UNDEFINED if node.track is None else \
            scan_window(node.track, k, node.frame_id)
        reads.append((node, got, want))
        return got

    monkeypatch.setattr(executor, "window", checked)
    session = Session(vprog, registry, world.meta,
                      ExecConfig(batch_size=batch_size))
    session.start(dags)
    detected = []  # the detector's own nodes
    for rt, _inputs in session._schedule.values():
        if rt is not None and rt.kind == "detector":
            process = rt.process

            def keep(engine, inputs, process=process):
                out = process(engine, inputs)
                detected.extend(n for fs in out for n in fs.graph.nodes)
                return out
            rt.process = keep
    for base in trace_batches(paths["trace"], world.meta, batch_size):
        session.feed(base)
    session.finish()

    assert len(reads) > 100
    full = [r for r in reads if r[2] is not UNDEFINED]
    assert full and len(full) < len(reads)  # warm-ups and full windows
    for node, got, want in reads:
        if want is UNDEFINED:
            assert got is UNDEFINED
        else:
            assert got is not UNDEFINED
            assert [id(n) for n in got] == [id(n) for n in want]
    read_tracks = {r[0].track for r in reads}
    assert len(read_tracks) > 1
    if shared:
        # two trackers read one batch: each links copies of its own
        assert all(n.track is None and n.prev is None for n in detected)
        assert len({tracker for (tracker, _id), track
                    in session.engine.tracks.items()
                    if track in read_tracks}) == 2


def _moving_car_session(tmp_path, frames, batch_size, max_age=30,
                        cars=None):
    cars = cars or [car(1, 0, frames - 1, (50.0, 500.0), velocity=(1.0, 0.0))]
    world = WorldSpec(meta=meta_1000(frames), objects=cars)
    paths = write_world(world, tmp_path / "w")
    vprog = make_program(CAR_PROGRAM + """
    query fast { bind c: Car frame_constraint: c.speed > 0.5 }
    """)
    registry = frozen_registry()
    dag = plan_query(vprog, "fast", registry, PlannerConfig(), world.meta)
    dag.ops["tracker:c"].params["config"] = \
        TrackerConfig(max_age=max_age).to_json()
    session = Session(vprog, registry, world.meta,
                      ExecConfig(batch_size=batch_size))
    session.start([dag])
    return session, trace_batches(paths["trace"], world.meta, batch_size)


def _chain(node):
    out = []
    while node is not None:
        out.append(node)
        node = node.prev
    return out[::-1]


def test_the_links_from_the_latest_object_hold_the_record_only(tmp_path):
    session, batches = _moving_car_session(tmp_path, 500, 16)
    for base in batches:
        session.feed(base)
    (track,) = session.engine.tracks.values()
    assert track.objects.maxlen == 5 + 16
    latest = track.objects[-1]
    assert latest.frame_id == 499
    chain = _chain(latest)
    assert len(chain) == 21
    assert [id(n) for n in chain] == [id(n) for n in track.objects]
    session.finish()


def _reachable(start):
    """Every object reachable from `start` through the containers a node
    and its record are made of."""
    kinds = (VObjInstance, Track, deque, list, dict, tuple)
    seen, todo = {id(start): start}, [start]
    while todo:
        for ref in gc.get_referents(todo.pop()):
            if isinstance(ref, kinds) and id(ref) not in seen:
                seen[id(ref)] = ref
                todo.append(ref)
    return seen


def test_a_retired_tracks_objects_are_unreachable_from_later_ones(tmp_path):
    # the car on frames 0-9 is retired on frame 11 (max_age 1); the one on
    # frames 20-39 is on the same spot, under a new track
    cars = [car(1, 0, 9, (300.0, 300.0)), car(2, 20, 39, (300.0, 300.0))]
    session, batches = _moving_car_session(tmp_path, 40, 16, max_age=1,
                                           cars=cars)
    batches = iter(batches)
    session.feed(next(batches))
    (first,) = session.engine.tracks.values()
    retired = list(first.objects)
    assert [n.frame_id for n in retired] == list(range(10))
    for base in batches:
        session.feed(base)
    assert list(first.objects) == []
    (second,) = [t for t in session.engine.tracks.values() if t is not first]
    later = second.objects[-1]
    assert later.frame_id == 39
    reached = _reachable(later)
    assert id(second) in reached and id(later.prev) in reached
    assert id(first) not in reached
    assert not any(id(n) in reached for n in retired)
    session.finish()


class TestOneContext:
    """The engine's one `PropContext` holds, on each call, only that call's
    node, dependencies, window and span."""

    PROGRAM = CAR_PROGRAM.replace("}\n", """
  property emb: stateless(impl="attr_vector:emb")
  property sim: stateful(impl="like_x", deps=[emb], window=3)
}
""", 1)

    def engine_and_tracks(self, monkeypatch):
        engine = PropertyEngine(
            make_program(self.PROGRAM), frozen_registry([LIKE_X]),
            meta_1000(20), ExecConfig(), ExecStats())
        engine.link("Car")
        calls = []
        call = executor.call_property_impl

        def seen(reg, ctx):
            window = ctx.window_values
            calls.append((reg.params["impl"], ctx.node, dict(ctx.deps),
                          None if window is None else list(window),
                          ctx.window_frames))
            return call(reg, ctx)

        monkeypatch.setattr(executor, "call_property_impl", seen)
        tracks = []
        for tid, (y, step, emb) in enumerate(
                [(100.0, 10.0, "1,0"), (600.0, 30.0, "1,1")], start=1):
            track = engine.track("tracker", "Car", tid)
            for f in (0, 1, 2, 3, 5, 6):  # missed on frame 4
                x = 100.0 + step * f
                track.append(VObjInstance(
                    (f, tid), "Car", f, (x, y, x + 40.0, y + 40.0),
                    attrs={"emb": emb}, track=track))
            tracks.append(track)
        return engine, tracks, calls

    def test_a_stateless_call_after_a_stateful_one_sees_no_window(
            self, monkeypatch):
        engine, (a, b), calls = self.engine_and_tracks(monkeypatch)
        node, other = a.objects[-1], b.objects[0]
        assert engine.get(node, "speed") > 0
        assert calls[-1][0] == "speed" and calls[-1][3] is not None
        engine.get(other, "center")
        impl, seen_node, deps, window, frames = calls[-1]
        assert (impl, seen_node) == ("center", other)
        assert deps == {"bbox": other.bbox}
        assert window is None and frames is None

    def test_each_stateful_call_reads_its_own_window(self, monkeypatch):
        engine, (a, b), calls = self.engine_and_tracks(monkeypatch)
        for prop in ("speed", "sim", "speed", "sim"):
            for track in (a, b):
                node = track.objects[-1]
                node.properties.pop(prop, None)
                engine.get(node, prop)
                impl, seen_node, deps, window, frames = calls[-1]
                k = 5 if prop == "speed" else 3
                objects = list(track.objects)[-k:]
                dep = "center" if prop == "speed" else "emb"
                assert seen_node is node and deps == {}
                assert window == [n.properties[dep] for n in objects]
                assert frames == (objects[0].frame_id, 6)
        assert engine.get(a.objects[-1], "sim") == 1.0
        assert engine.get(b.objects[-1], "sim") == pytest.approx(0.5 ** 0.5)
        # 10 px a frame over frames 1-6, 6 frames spanned, at 10 px/m
        assert engine.get(a.objects[-1], "speed") == pytest.approx(
            50 * 10.0 / 6 / 10.0)

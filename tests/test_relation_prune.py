"""The relation projector's distance bound: the edges the relation filter
keeps are those of a frozen all-pairs projector, in the same order, a
pruned pair computes nothing, and projectors that differ in their bound
only are shared under the loosest."""

import random
from dataclasses import dataclass, field
from typing import Any, Optional

import pytest

from vidquery.datamodel import FrameGraph, VObjInstance
from vidquery.executor import ExecStats, Session, serialize_outcome
from vidquery.operators import FrameState, RelationProjectorOp, compare
from vidquery.planner import PlannerConfig, plan_query
from vidquery.registry import ConfigurationError, relation_value
from vidquery.synth import ObjectScript, WorldSpec
from vidquery.trace_io import TraceRecord, VideoMeta

from conftest import car, frozen_registry, make_program, meta_1000


@dataclass
class Engine:
    """What a relation projector reads of a `PropertyEngine`."""

    meta: Optional[Any] = None
    stats: ExecStats = field(default_factory=ExecStats)


def box(cx: float, cy: float, half: float = 0.0):
    return (cx - half, cy - half, cx + half, cy + half)


def nodes(frame: int, first: int, bboxes) -> list:
    return [VObjInstance((frame, first + i), "Car", frame, bbox)
            for i, bbox in enumerate(bboxes)]


def frame(frame_id: int, part0: list, part1: list) -> FrameState:
    return FrameState(frame_id, TraceRecord(frame_id, (), {}),
                      FrameGraph([part0, part1]))


def all_pairs_kept(frames, impls, meta, prop, op, limit) -> list:
    """The kept edges of the projector before the bound, frozen: every pair
    of a part 0 object and a different part 1 object, in that order, with
    every property computed, filtered by `prop op limit`."""
    kept = []
    for fs in frames:
        part0, part1 = fs.graph.parts
        for a in part0:
            for b in part1:
                if a.node_id == b.node_id:
                    continue
                values = {p: relation_value(i, a, b, meta)
                          for p, i in sorted(impls.items())}
                if compare(values[prop], op, limit):
                    kept.append((fs.frame_id, a.node_id, b.node_id, values))
    return kept


def pruned_kept(frames, impls, meta, prop, op, limit,
                engine: Optional[Engine] = None) -> list:
    """The same through a projector given the bound, one batch."""
    projector = RelationProjectorOp("r", {
        "relation": "Near", "props": impls,
        "bound": {"prop": prop, "op": op, "limit": limit}})
    out = projector.process(engine or Engine(meta), [frames])
    return [(fs.frame_id, e.a.node_id, e.b.node_id, e.properties)
            for fs in out for e in fs.graph.edges
            if compare(e.properties[prop], op, limit)]


def distances(frames, impls, meta) -> list:
    """Every value of the one property over every pair: the limits at
    which a pair's verdict turns."""
    (prop,) = impls
    return sorted({values[prop] for *_ids, values in all_pairs_kept(
        frames, impls, meta, prop, ">=", 0)})


PX = {"distance_px": "distance_px"}
M = {"distance_m": "distance_m"}


def check(frames, impls, meta, limit, ops=("<", "<=")) -> None:
    (prop,) = impls
    for op in ops:
        expected = all_pairs_kept(frames, impls, meta, prop, op, limit)
        assert pruned_kept(frames, impls, meta, prop, op, limit) == expected


class TestSoundness:
    def test_distance_exactly_the_limit(self):
        # centres (0, 0) and (30, 40) are exactly 50 apart
        fs = frame(0, nodes(0, 0, [box(0.0, 0.0, 2.0)]),
                   nodes(0, 1, [box(30.0, 40.0, 3.0)]))
        assert all_pairs_kept([fs], PX, None, "distance_px", "<", 50) == []
        assert len(all_pairs_kept([fs], PX, None, "distance_px", "<=", 50)) == 1
        check([fs], PX, None, 50)

    @pytest.mark.parametrize("dy", [0.0, 1e-9, 5e-324])
    def test_dx_exactly_the_limit(self, dy):
        # math.dist rounds 50 and a tiny dy to exactly 50.0
        fs = frame(0, nodes(0, 0, [box(0.0, 0.0)]),
                   nodes(0, 1, [box(50.0, dy), box(-50.0, -dy)]))
        assert len(all_pairs_kept([fs], PX, None, "distance_px", "<=", 50)) == 2
        check([fs], PX, None, 50)
        check([fs], PX, None, 50.0)

    def test_coordinates_near_1e15(self):
        # floats 0.125 apart, so the centre sums round; on the even frames
        # every centre has one y, so a distance is a |dx|
        rng = random.Random(15)
        base = 1e15
        frames = []
        for f in range(6):
            def coord(): return base + rng.randrange(400) / 8
            bboxes = [(x1, y1, x1 + rng.randrange(800) / 8,
                       y1 if f % 2 == 0 else y1 + rng.randrange(800) / 8)
                      for x1, y1 in ((coord(), base) for _ in range(10))]
            frames.append(frame(f, nodes(f, 0, bboxes[:5]),
                                nodes(f, 5, bboxes[5:])))
        for limit in distances(frames, PX, None) + [0, 1, 10.125]:
            check(frames, PX, None, limit)

    def test_duplicate_centres(self):
        same = [box(100.0, 100.0, h) for h in (1.0, 2.0, 3.0)]
        fs = frame(0, nodes(0, 0, same), nodes(0, 3, same + [box(100.0, 99.0)]))
        assert len(all_pairs_kept([fs], PX, None, "distance_px", "<=", 0)) == 9
        for limit in (0, 1, 1.5):
            check([fs], PX, None, limit)

    def test_an_object_in_both_parts(self):
        shared = nodes(0, 0, [box(10.0, 10.0), box(12.0, 10.0)])
        other = nodes(0, 2, [box(11.0, 10.0)])
        fs = frame(0, shared, shared + other)
        assert [(a, b) for _f, a, b, _v in pruned_kept(
            [fs], PX, None, "distance_px", "<", 5)] == [
            ((0, 0), (0, 1)), ((0, 0), (0, 2)), ((0, 1), (0, 0)),
            ((0, 1), (0, 2))]
        check([fs], PX, None, 5)

    def test_distance_m_at_a_non_integer_scale(self):
        meta = VideoMeta(fps=10.0, frame_count=1, width=4000, height=4000,
                         px_per_m=3.7)
        rng = random.Random(37)

        def bboxes(f):  # on the even frames all centres have one y
            return [box(rng.randrange(300) / 2,
                        100.0 if f % 2 == 0 else rng.randrange(300) / 2,
                        rng.choice((1.0, 2.5))) for _ in range(5)]

        frames = [frame(f, nodes(f, 0, bboxes(f)), nodes(f, 5, bboxes(f)))
                  for f in range(6)]
        for limit in distances(frames, M, meta) + [0, 1, 10, 37 / 3.7]:
            check(frames, M, meta, limit)

    @pytest.mark.parametrize("limit", [0, 1, 150, 1e6])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_frames(self, seed, limit):
        rng = random.Random(seed)
        grid = [rng.randrange(0, 4000) / 2 for _ in range(30)]  # shared values

        def bboxes(n):
            return [box(rng.choice(grid), rng.choice(grid),
                        rng.choice((0.0, 1.5, 10.0))) for _ in range(n)]

        frames = [frame(f, nodes(f, 0, bboxes(rng.randrange(8))),
                        nodes(f, 100, bboxes(rng.randrange(8))))
                  for f in range(30)]
        meta = VideoMeta(fps=10.0, frame_count=30, width=2000, height=2000,
                         px_per_m=0.3)
        check(frames, PX, None, limit)
        check(frames, M, meta, limit)


class TestWork:
    def far_persons(self, axis: int = 0):
        """A car at (0, 0) with one person beside it, then nine 200 px away
        or more along x (axis 0) or y (axis 1)."""
        persons = [box(10.0, 0.0)] + [box(*(200.0 * k, 0.0)[::1 - 2 * axis])
                                      for k in range(1, 10)]
        return frame(0, nodes(0, 0, [box(0.0, 0.0)]), nodes(0, 1, persons))

    @pytest.mark.parametrize("axis", [0, 1])
    def test_a_pruned_pair_computes_nothing(self, axis):
        engine = Engine()
        kept = pruned_kept([self.far_persons(axis)], PX, None, "distance_px",
                           "<", 150, engine)
        assert [b for _f, _a, b, _v in kept] == [(0, 1)]
        assert engine.stats.property_calls == {"Near.distance_px": 1}
        assert engine.stats.cost_units == pytest.approx(0.1)

    def test_without_a_bound_every_pair_is_computed(self):
        engine = Engine()
        RelationProjectorOp("r", {"relation": "Near", "props": PX,
                                  "bound": None}).process(
            engine, [[self.far_persons()]])
        assert engine.stats.property_calls == {"Near.distance_px": 10}

    def test_the_first_pair_is_computed_in_full(self):
        # the only pair fails the bound, but it is the projector's first
        engine = Engine()
        fs = frame(0, nodes(0, 0, [box(0.0, 0.0)]),
                   nodes(0, 1, [box(500.0, 0.0)]))
        assert pruned_kept([fs, fs], PX, None, "distance_px", "<", 150,
                           engine) == []
        assert engine.stats.property_calls == {"Near.distance_px": 1}

    def test_distance_m_without_calibration_still_raises(self):
        # every pair would be pruned at any scale up to 10 px/m
        fs = frame(0, nodes(0, 0, [box(0.0, 0.0)]),
                   nodes(0, 1, [box(5000.0, 5000.0)]))
        meta = VideoMeta(fps=10.0, frame_count=1, width=8000, height=8000)
        with pytest.raises(ConfigurationError, match="px_per_m"):
            pruned_kept([fs], M, meta, "distance_m", "<", 1)
        with pytest.raises(ConfigurationError, match="px_per_m"):
            pruned_kept([fs], {**PX, **M}, meta, "distance_px", "<", 1)


PROGRAM = """
vobj Car {
  detector: "general_car"
  property color: stateless(impl="attr:color") intrinsic
}
vobj Person {
  detector: "general_person"
  property role: stateless(impl="attr:role") intrinsic
}
relation Near(Car, Person) {
  property distance_px: stateless(impl="distance_px")
  property meters: stateless(impl="distance_m")
  property overlap: stateless(impl="iou")
}
query reds { bind c: Car
  frame_constraint: c.color == "red" }
query people { bind p: Person
  frame_constraint: p.role == "adult" }
"""


@pytest.mark.parametrize("predicate, bound", [
    ("Near(c, p).distance_px < 150",
     {"prop": "distance_px", "op": "<", "limit": 150.0}),
    ("Near(p, c).meters <= 2.5",
     {"prop": "meters", "op": "<=", "limit": 2.5}),
    ("Near(c, p).overlap > 0.1 & Near(c, p).distance_px <= 150 "
     "& Near(c, p).meters < 1",
     {"prop": "distance_px", "op": "<=", "limit": 150.0}),
    ("Near(c, p).distance_px < 150 | Near(c, p).overlap > 0.1", None),
    ("!(Near(c, p).distance_px >= 150)", None),
    ("Near(c, p).distance_px > 150", None),
    ("Near(c, p).overlap > 0.1", None),
    # the filter reads c.color first, on every pair
    ('c.color == "red" & Near(c, p).distance_px < 150', None),
    ('Near(c, p).distance_px < 150 & c.color == "red"',
     {"prop": "distance_px", "op": "<", "limit": 150.0}),
])
def test_the_planner_bounds_by_the_first_distance_conjunct(predicate, bound):
    vprog = make_program(PROGRAM + f"""
    spatial query pair {{ first: reds second: people relation: Near
      predicate: {predicate} }}
    """)
    dag = plan_query(vprog, "pair", frozen_registry(), PlannerConfig())
    assert dag.ops["relproj:Near"].params["bound"] == bound


def scattered(frames: int, seed: int) -> WorldSpec:
    """Red cars and adults standing at random, most pairs far apart."""
    rng = random.Random(seed)
    objects = [car(label, 0, frames - 1,
                   (rng.uniform(50, 950), rng.uniform(50, 950)))
               for label in range(1, 7)]
    objects += [ObjectScript(label=label, class_name="person", start_frame=0,
                             end_frame=frames - 1,
                             start_center=(rng.uniform(50, 950),
                                           rng.uniform(50, 950)),
                             attrs={"role": "adult"})
                for label in range(7, 12)]
    return WorldSpec(meta=meta_1000(frames), objects=objects, seed=seed)


def test_projectors_that_differ_in_their_bound_share_the_loosest(world_dir):
    """Two spatial queries over the same branches share one projector: it
    computes the pairs that the looser bound keeps, no more and no fewer,
    and each query answers as it does alone."""
    world = scattered(20, seed=3)
    trace = world_dir(world)["trace"]
    vprog = make_program(PROGRAM + "".join(
        f"spatial query {name} {{ first: reds second: people relation: Near"
        f" predicate: {predicate} }}\n" for name, predicate in [
            ("near", "Near(c, p).distance_px < 150"),
            ("within", "Near(c, p).distance_px <= 400"),
            ("apart", "Near(c, p).distance_px > 20")]))
    registry = frozen_registry()
    dags = {q: plan_query(vprog, q, registry, PlannerConfig(), world.meta)
            for q in ("near", "within", "apart")}

    def run(*queries):
        session = Session(vprog, registry, world.meta)
        outcomes = session.run([dags[q] for q in queries], trace)
        return ([serialize_outcome(o) for o in outcomes],
                session.stats.property_calls["Near.distance_px"])

    solo = {q: run(q) for q in dags}
    assert solo["near"][1] < solo["within"][1] < solo["apart"][1]
    for loose in ("within", "apart"):
        shared, calls = run("near", loose)
        assert shared == [solo["near"][0][0], solo[loose][0][0]]
        assert calls == solo[loose][1]

"""Seeded benchmark workloads: a synth world, a query program, a registry
and the oracle checks for each.

Every input is generated from the seed through `vidquery.synth`; the engine
sees only the rendered trace file.  The seed moves objects and picks colours,
speeds, arrival times and gate bursts from fixed sets; frame counts, lanes
and the number of objects of each kind are fixed per workload, so counted
work changes little from seed to seed and timings differ mainly by the
host.  Objects keep to their own lanes and stay
on screen for their whole life, so the answers the oracles compute from the
object scripts are exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Optional

from vidquery import registry as vq_registry
from vidquery import synth, tracker
from vidquery.trace_io import VideoMeta

FPS = 10.0
PX_PER_M = 10.0
WINDOW = 5  # history window of the stateful properties below

CAR_TYPE = """
vobj Car {
  detector: "general_car"
  property color: stateless(impl="attr:color") intrinsic
  property center: stateless(impl="center", deps=[bbox])
  property direction: stateful(impl="direction", deps=[center], window=5)
  property speed: stateful(impl="speed", deps=[center], window=5)
}
"""

PERSON_TYPE = """
vobj Person {
  detector: "general_person"
  property role: stateless(impl="attr:role") intrinsic
}
relation Near(Car, Person) {
  property distance_px: stateless(impl="distance_px")
}
"""

DENSE_PROGRAM = CAR_TYPE + """
query red_right {
  bind c: Car
  frame_constraint: c.color == "red" & c.direction == "right"
  video_output: count_distinct(c)
}
"""

MIXED_PROGRAM = CAR_TYPE + PERSON_TYPE + """
query reds {
  bind c: Car
  frame_constraint: c.color == "red"
}
query blue_right {
  bind c: Car
  frame_constraint: c.color == "blue"
  frame_output: c.direction
  video_constraint: c.direction == "right"
  video_output: count_distinct(c)
}
query fast {
  bind c: Car
  frame_constraint: c.speed > 3.0
  frame_output: c.speed
}
query adults {
  bind p: Person
  frame_constraint: p.role == "adult"
}
spatial query near_red {
  first: reds
  second: adults
  relation: Near
  predicate: Near(c, p).distance_px < 150
}
duration query lingering {
  base: near_red
  min_frames: 5
  gap_tolerance: 1
}
temporal query red_then_fast {
  first: reds
  then: fast
  max_interval_frames: 30
}
"""

GATE_CHANNEL = "motion_score"
GATE_THRESHOLD = 0.5

GATED_PROGRAM = CAR_TYPE + """
query gated_reds {
  bind s: Scene
  bind c: Car
  frame_constraint: s.motion_score >= 0.5 & c.color == "red"
  video_output: count_distinct(c)
}
"""

ACCURACY_TARGET = 0.9


@dataclass
class Check:
    """One oracle comparison for one query's outcome.

    `known_defect`, when set, returns what the outcome is under a defect
    named in the ROADMAP, and the defect's description (empty when the
    inputs do not trigger it).  A mismatch that equals that value exactly is
    still a failure, but a named one.
    """

    query: str
    what: str
    expected: Callable[[], object]  # computed from the world scripts
    actual: Callable[[object], object]  # read from the query outcome
    known_defect: Optional[Callable[[], tuple[object, str]]] = None


@dataclass
class Workload:
    name: str
    program: str
    queries: list[str]
    world: synth.WorldSpec
    registrations: list[vq_registry.Registration] = field(default_factory=list)
    profiled: bool = False  # main call is profile + select_plan
    checks: list[Check] = field(default_factory=list)

    @property
    def frames(self) -> int:
        return self.world.meta.frame_count

    def shape(self) -> dict:
        """Frames, objects alive, queries and plan alternatives."""
        alive = [
            sum(1 for o in self.world.objects if o.alive(f))
            for f in range(self.frames)
        ]
        return {
            "frames": self.frames,
            "objects": len(self.world.objects),
            "alive_mean": round(sum(alive) / max(1, len(alive)), 1),
            "alive_max": max(alive, default=0),
            "queries": len(self.queries),
            "alternatives": 1 + len(self.registrations) if self.profiled else 1,
        }

    def build_registry(self) -> vq_registry.Registry:
        registry = vq_registry.builtin_registry()
        for reg in self.registrations:
            registry.register(reg)
        registry.freeze()
        return registry


def _meta(frames: int, width: int, height: int) -> VideoMeta:
    return VideoMeta(fps=FPS, width=width, height=height,
                     frame_count=frames, px_per_m=PX_PER_M)


def _car(label, start, end, x, y, vx, color, jitter=1.0) -> synth.ObjectScript:
    return synth.ObjectScript(
        label=label, class_name="car", start_frame=start, end_frame=end,
        start_center=(x, y), velocity=(vx, 0.0), size=(40.0, 30.0),
        attrs={"color": color}, jitter=jitter,
    )


def _lane_x(rng: random.Random, width: int, vx: float, life: int) -> float:
    """Start x that keeps a car of this speed on screen for its life."""
    travel = abs(vx) * life
    lo, hi = 40.0, width - 40.0 - travel
    x = rng.uniform(lo, hi)
    return x if vx > 0 else x + travel


def _count_per_frame(world, pred) -> list[int]:
    """Objects satisfying `pred` per frame, straight from the scripts."""
    return [
        sum(1 for o in world.objects if o.alive(f) and pred(o, f))
        for f in range(world.meta.frame_count)
    ]


def _frames(labels: list[bool]) -> list[int]:
    return [f for f, v in enumerate(labels) if v]


def _red_right(obj, frame) -> bool:
    # direction is defined once the window holds WINDOW centres
    return (obj.attrs.get("color") == "red" and obj.velocity[0] > 0
            and frame - obj.start_frame >= WINDOW - 1)


def _dense(seed: int, smoke: bool) -> Workload:
    """About 100 cars alive on every frame in 20 one-way lanes: the
    tracker's association over every track and detection pair dominates."""
    rng = random.Random(f"dense:{seed}")
    frames, lanes, per_lane, reds = (12, 4, 3, 4) if smoke else (30, 20, 5, 30)
    width, lane_h = 2000, 50
    meta = _meta(frames, width, lanes * lane_h + 20)
    # half the red cars drive right: the same number every seed, so the
    # result files (and the cached re-run reading them) keep their size
    right, left = ([lane * per_lane + k for lane in range(side, lanes, 2)
                    for k in range(per_lane)] for side in (0, 1))
    red_labels = set(rng.sample(right, reds // 2)
                     + rng.sample(left, reds - reds // 2))
    objects = []
    for lane in range(lanes):
        vx = rng.choice((2.0, 3.0, 4.0, 5.0)) * (1 if lane % 2 == 0 else -1)
        slot = (width - 200) / per_lane
        base = rng.uniform(0.0, slot - 60.0 - abs(vx) * frames)
        for k in range(per_lane):
            label = lane * per_lane + k
            x = 60.0 + base + k * slot
            if vx < 0:
                x += abs(vx) * frames
            objects.append(_car(
                label, 0, frames - 1, x, 35.0 + lane * lane_h, vx,
                "red" if label in red_labels else rng.choice(("blue", "white")),
            ))
    world = synth.WorldSpec(meta=meta, objects=objects, seed=seed)
    right_reds = sum(1 for o in objects
                     if o.attrs["color"] == "red" and o.velocity[0] > 0)
    return Workload(
        name="dense",
        program=DENSE_PROGRAM,
        queries=["red_right"],
        world=world,
        checks=[
            Check("red_right", "satisfied frames",
                  lambda: _frames(synth.label_frames(world, _red_right)),
                  lambda o: o.satisfied),
            Check("red_right", "objects per row",
                  lambda: [c for c in _count_per_frame(world, _red_right) if c],
                  lambda o: [len(r["objects"]["c"]) for r in o.rows]),
            Check("red_right", "count_distinct",
                  lambda: right_reds, lambda o: o.video["value"]),
        ],
    )


def _mixed(seed: int, smoke: bool) -> Workload:
    """Cars in one-way lanes with a pedestrian on the sidewalk beside each
    lane; about 30 cars and 10 persons alive at once, arriving over time.
    Seven queries share one session, so operator sharing, lazy and memoized
    properties, the join and relation stages, finalization and the result
    cache all carry part of the load."""
    rng = random.Random(f"mixed:{seed}")
    frames, lanes = (40, 3) if smoke else (150, 10)
    width, lane_h, per_lane = 1920, 90, 3
    meta = _meta(frames, width, lanes * lane_h + 40)
    # 2, 3 px/frame are 1.6, 2.4 m/s and 5, 6 px/frame are 4.0, 4.8 m/s over
    # the speed window: far enough from the 3.0 m/s of `fast` that jitter
    # cannot cross it.  The seed deals a fixed set of speeds to lanes.  A
    # car's colour follows from its place in its lane and the lane's rank
    # among the lanes of its speed, so every seed has the same cars of each
    # colour, living as long, and result files of about the same size.
    palette = ("red", "blue", "white", "white")
    speeds = [(2.0, 3.0, 5.0, 6.0)[lane % 4] for lane in range(lanes)]
    rng.shuffle(speeds)
    cars = []
    for lane, speed in enumerate(speeds):
        rank = speeds[:lane].count(speed)
        vx = speed if lane % 2 == 0 else -speed
        # each car crosses the whole lane; per_lane cars share it at a
        # fixed spacing, so they never overlap
        life = int((width - 80) / speed)
        gap = life // per_lane
        for k, start in enumerate(range(gap // 2 - life, frames, gap)):
            s, e = max(0, start), min(frames - 1, start + life - 1)
            if e >= s:
                x0 = 40.0 + speed * (s - start)
                cars.append((s, e, x0 if vx > 0 else width - x0,
                             30.0 + lane * lane_h, vx,
                             palette[(k + rank) % len(palette)]))
    objects = [_car(label, *car) for label, car in enumerate(cars)]
    for lane in range(lanes):
        s = rng.randrange(0, frames // 3)
        e = s + frames // 2 + frames // 8
        vx = rng.choice((-1.0, 1.0))
        objects.append(synth.ObjectScript(
            label=len(objects), class_name="person", start_frame=s,
            end_frame=e, start_center=(_lane_x(rng, width, vx, e - s),
                                       30.0 + lane * lane_h + lane_h / 2),
            velocity=(vx, 0.0), size=(20.0, 24.0),
            attrs={"role": "adult" if lane % 3 else "child"}, jitter=0.5,
        ))
    world = synth.WorldSpec(meta=meta, objects=objects, seed=seed)
    is_red = lambda o, f: o.attrs.get("color") == "red"  # noqa: E731
    is_adult = lambda o, f: o.attrs.get("role") == "adult"  # noqa: E731
    blue_right = sum(1 for o in objects if o.attrs.get("color") == "blue"
                     and o.velocity[0] > 0
                     and o.end_frame - o.start_frame >= WINDOW - 1)
    return Workload(
        name="mixed",
        program=MIXED_PROGRAM,
        queries=["reds", "blue_right", "fast", "adults", "near_red",
                 "lingering", "red_then_fast"],
        world=world,
        checks=[
            Check("reds", "satisfied frames",
                  lambda: _frames(synth.label_frames(world, is_red)),
                  lambda o: o.satisfied),
            Check("reds", "objects per row",
                  lambda: [c for c in _count_per_frame(world, is_red) if c],
                  lambda o: [len(r["objects"]["c"]) for r in o.rows]),
            Check("adults", "satisfied frames",
                  lambda: _frames(synth.label_frames(world, is_adult)),
                  lambda o: o.satisfied),
            Check("blue_right", "count_distinct",
                  lambda: blue_right, lambda o: o.video["value"]),
        ],
    )


def _gated(seed: int, smoke: bool) -> Workload:
    """A long sparse canary: a few cars at a time, and a motion gate open
    in short bursts on about 10% of frames.  Profiling runs one session per
    candidate plus the reference, each parsing the whole trace, while the
    gate keeps the detector and tracker to a tenth of the frames."""
    rng = random.Random(f"gated:{seed}")
    frames, block, burst = (400, 100, 10) if smoke else (5000, 200, 20)
    width, height = 1280, 720
    meta = _meta(frames, width, height)
    gate = [round(rng.uniform(0.0, 0.4), 3) for _ in range(frames)]
    for b0 in range(0, frames, block):
        open_at = b0 + rng.randrange(0, block - burst)
        for f in range(open_at, open_at + burst):
            gate[f] = round(rng.uniform(0.6, 1.0), 3)
    objects = []
    life, every = 150, 60
    for k, start in enumerate(range(-life + every, frames, every)):
        s, e = max(0, start), min(frames - 1, start + life - 1)
        vx = rng.choice((1.0, 2.0, 3.0)) * rng.choice((-1, 1))
        x = _lane_x(rng, width, vx, e - s)
        y = 40.0 + (k % 8) * 85.0
        color = "red" if k % 3 == 0 else rng.choice(("blue", "white"))
        objects.append(_car(k, s, e, x, y, vx, color))
    world = synth.WorldSpec(
        meta=meta, objects=objects, channels={GATE_CHANNEL: gate}, seed=seed,
    )
    registrations = [
        # subsumes the colour predicate and rarely misses: meets the target
        vq_registry.Registration(
            name="red_car", kind="detector", cost_units=20.0,
            params={"classes": ["car"], "requires_attrs": {"color": "red"},
                    "specializes": "Car", "subsumes": {"color": "red"}},
            error_profile=vq_registry.ErrorProfile(miss_rate=0.02, seed=seed),
        ),
        # cheap but misses a third of the cars: falls below the target
        vq_registry.Registration(
            name="car_lite", kind="detector", cost_units=30.0,
            params={"classes": ["car"], "specializes": "Car"},
            error_profile=vq_registry.ErrorProfile(miss_rate=0.35, seed=seed),
        ),
    ]

    def gated_red(obj, f):
        return obj.attrs.get("color") == "red" and gate[f] >= GATE_THRESHOLD

    def stale(counts: Callable[[list[int]], object]):
        def model():
            per_frame, described = _stale_track_model(world, gate, "red")
            return counts(per_frame), described
        return model

    return Workload(
        name="gated_profile",
        program=GATED_PROGRAM,
        queries=["gated_reds"],
        world=world,
        registrations=registrations,
        profiled=True,
        checks=[
            Check("gated_reds", "satisfied frames",
                  lambda: _frames(synth.label_frames(world, gated_red)),
                  lambda o: o.satisfied,
                  stale(lambda n: [f for f, c in enumerate(n) if c])),
            Check("gated_reds", "objects per row",
                  lambda: [c for c in _count_per_frame(world, gated_red) if c],
                  lambda o: [len(r["objects"]["c"]) for r in o.rows],
                  stale(lambda n: [c for c in n if c])),
        ],
    )


def _stale_track_model(world, gate, color) -> tuple[list[int], str]:
    """Known defect (ROADMAP.md, frame-time semantics for sparse traces):
    the tracker ages tracks in steps rather than frames.

    The gated plan's tracker only steps on frames the gate opens, so a
    track outlives a gap of many frames and can be matched by another car
    in the next burst; that car then inherits the track's memoized colour.
    This replays the tracker over the world's boxes on the open frames and
    returns, per frame, how many cars carry a track first seen on a car of
    `color`, plus a description of the identity switches across a gap longer
    than `max_age` frames (empty when there are none)."""
    config = tracker.TrackerConfig()
    sort = tracker.SortTracker(config)
    identities = synth.identity_map(world)
    owner, seen, switches = {}, {}, []
    counts = [0] * world.meta.frame_count
    for f in range(world.meta.frame_count):
        if gate[f] < GATE_THRESHOLD:
            continue
        shown = [e for e in identities[f] if not e["dropped"]]
        dets = [((f, i), tuple(e["bbox"])) for i, e in enumerate(shown)
                if e["class"] == "car"]
        for (_f, i), track in sort.step(f, dets).assignments:
            label = shown[i]["label"]
            first = owner.setdefault(track, label)
            last_frame, last_label = seen.get(track, (f, label))
            if label != last_label:
                switches.append((track, f, f - last_frame))
            seen[track] = (f, label)
            if world.objects[first].attrs.get("color") == color:
                counts[f] += 1
    if not switches or any(gap <= config.max_age for *_x, gap in switches):
        return counts, ""
    return counts, (
        f"ROADMAP frame-time semantics for sparse traces: {len(switches)} "
        f"track id(s) passed to another car "
        f"across gaps of {min(g for *_x, g in switches)}-"
        f"{max(g for *_x, g in switches)} frames (max_age "
        f"{config.max_age}), carrying the first car's memoized colour"
    )


BUILDERS = {"dense": _dense, "mixed": _mixed, "gated_profile": _gated}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    return BUILDERS[name](seed, smoke)

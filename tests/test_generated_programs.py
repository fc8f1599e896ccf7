"""Seeded generated programs: what the validator accepts plans and runs.

Programs are drawn from a menu of bindings, conjuncts, outputs and spatial,
duration and temporal queries, the rejected shapes of `BAD_SHAPES` among
them.  The validator either rejects a program with a `ValidationError` or
accepts it; an accepted program plans every query (the one `PlanError` left
is a query that binds no object) and runs on a synth world without an
exception."""

import random

from vidquery.dsl import ValidationError, parse, validate
from vidquery.executor import Session
from vidquery.planner import PlanError, PlannerConfig, plan_query
from vidquery.registry import builtin_registry
from vidquery.synth import write_world

from conftest import SHAPE_TYPES, red_car_and_adult

BINDINGS = {"c": "Car", "p": "Person", "s": "Scene"}
PROPS = {"c": "direction", "p": "role", "s": "motion_score"}
# (text, the bindings it reads): the shapes the validator accepts, then
# those it rejects
CONJUNCTS = (
    [('c.color == "red"', "c"),
     ('!(c.color == "blue") | c.direction == "right"', "c"),
     ('p.role == "adult"', "p"),
     ("s.motion_score > 0.5", "s"),
     ("s.motion_score in [0.2, 0.8]", "s")],
    [('s.motion_score > 0.5 | c.color == "red"', "cs"),
     ("!(s.motion_score > 0.5)", "s"),
     ("Near(c, c).distance_px < 5", "c"),
     ("Near(c, p).distance_px < 500", "cp"),
     ('c.color == "red" | p.role == "adult"', "cp")],
)
VIDEO_CONSTRAINTS = (
    [('c.direction == "right"', "c"), ('p.role == "adult"', "p")],
    [("s.motion_score > 0.5", "s"), ("Near(c, p).distance_px < 500", "cp")],
)
OUTPUTS = ([("c", "c"), ("p", "p")], [("s", "s")])
PREDICATES = (  # over `reds`' c and `adults`' p
    [("Near(c, p).distance_px < 300", "cp"),
     ('Near(p, c).distance_px < 300 & c.color == "red"', "cp")],
    [("Far(c, p).distance_px < 1000", "cp"),
     ("Near(c, c).distance_px < 1", "cp")],
)
REJECT_RATE = 0.1
FRAMES = 10


def pick(rng: random.Random, menu, names: str):
    """The text of an item of `menu` that reads only the bindings `names`,
    one the validator rejects at `REJECT_RATE`; None if no item fits."""
    good, bad = ([text for text, reads in items if set(reads) <= set(names)]
                 for items in menu)
    pool = bad if bad and (not good or rng.random() < REJECT_RATE) else good
    return rng.choice(pool) if pool else None


def draw_basic(rng: random.Random, name: str) -> str:
    names = rng.choice(["c", "p", "s", "cs", "ps", "cp", "cps"])
    items = [f"bind {b}: {BINDINGS[b]}" for b in names]
    conjs = [pick(rng, CONJUNCTS, names) for _ in range(rng.randint(0, 2))]
    if conjs:
        items.append("frame_constraint: " + " & ".join(conjs))
    video = pick(rng, VIDEO_CONSTRAINTS, names)
    if video and (not conjs or rng.random() < 0.3):
        items.append(f"video_constraint: {video}")
    if rng.random() < 0.3:
        items.append(f"video_output: count_distinct({pick(rng, OUTPUTS, names)})")
    if rng.random() < 0.3:
        out = pick(rng, OUTPUTS, names)
        items.append(f"frame_output: {out}.{PROPS[out]}")
    return f"query {name} {{\n  " + "\n  ".join(items) + "\n}\n"


def draw_program(rng: random.Random) -> str:
    basics = [f"b{i}" for i in range(rng.randint(1, 2))]
    decls = [draw_basic(rng, name) for name in basics]
    known = ["reds", "adults"] + basics
    for i in range(rng.randint(0, 2)):
        pair = ("reds", "adults") if rng.random() < 0.7 else \
            (rng.choice(known), rng.choice(known))
        predicate = pick(rng, PREDICATES, "cp") if rng.random() < 0.8 \
            else None  # any pair present
        decls.append(
            f"spatial query sp{i} {{ first: {pair[0]} second: {pair[1]} "
            f"relation: Near"
            + (f" predicate: {predicate}" if predicate else "") + " }\n")
        known.append(f"sp{i}")
    if rng.random() < 0.5:
        decls.append(f"duration query held {{ base: {rng.choice(known)} "
                     f"min_frames: 2 }}\n")
    if rng.random() < 0.5:
        decls.append(f"temporal query seq {{ first: {rng.choice(known)} "
                     f"then: {rng.choice(known)} max_interval_frames: 3 }}\n")
    return SHAPE_TYPES + "".join(decls)


def test_accepted_programs_plan_and_run(tmp_path):
    world = red_car_and_adult(FRAMES)
    trace = write_world(world, tmp_path / "w")["trace"]
    registry = builtin_registry()
    registry.freeze()
    rng = random.Random(24)
    verdicts = {"rejected": 0, "accepted": 0, "unplanned": 0}
    for _ in range(200):
        source = draw_program(rng)
        try:
            vprog = validate(parse(source))
        except ValidationError:
            verdicts["rejected"] += 1
            continue
        verdicts["accepted"] += 1
        dags = []
        for name in vprog.query_order:
            try:
                dags.append(plan_query(vprog, name, registry, PlannerConfig(),
                                       world.meta))
            except PlanError as exc:
                assert "no VObj bindings to plan" in str(exc), source
                verdicts["unplanned"] += 1
        outcomes = Session(vprog, registry, world.meta).run(dags, trace)
        assert len(outcomes) == len(dags)
    # the menu reaches every verdict
    assert min(verdicts.values()) >= 3, verdicts

"""One three-valued (Kleene) logic for frame constraints, video constraints
and relation predicates.  A comparison on an Undefined (warming-up)
property has no verdict, `!` keeps it undecided, `&` is False on any False
and `|` True on any True; a filter keeps a node or edge only on True.
Every oracle comes from the synth world scripts, never from the engine."""

import operator
import random

from vidquery.executor import ExecConfig, Session, serialize_outcome
from vidquery.planner import PlannerConfig, plan_query
from vidquery.synth import ObjectScript, WorldSpec, label_frames, write_world

from conftest import (
    CAR_PROGRAM,
    car,
    frozen_registry,
    make_program,
    meta_1000,
    run_single,
)

WINDOW = 5  # history window of CAR_PROGRAM's stateful properties
FPS = PX_PER_M = 10.0  # meta_1000's calibration

OPS = {"==": operator.eq, "!=": operator.ne, ">": operator.gt,
       "<=": operator.le}


def script_value(obj: ObjectScript, prop: str, frame: int):
    """A Car property as the script defines it; None while the window warms
    up.  Valid for horizontal motion without jitter, turns or dropouts."""
    if prop == "color":
        return obj.attrs["color"]
    if frame - obj.start_frame < WINDOW - 1:
        return None
    vx, _vy = obj.velocity
    if prop == "speed":  # window displacement * fps / window / px_per_m
        return abs(vx) * (WINDOW - 1) * FPS / WINDOW / PX_PER_M
    if vx == 0:
        return "stationary"
    return "right" if vx > 0 else "left"


def kleene(tree, obj: ObjectScript, frame: int):
    """Brute-force Kleene verdict of a predicate tree on one object."""
    tag = tree[0]
    if tag == "cmp":
        _tag, prop, op, literal = tree
        value = script_value(obj, prop, frame)
        return None if value is None else OPS[op](value, literal)
    if tag == "not":
        v = kleene(tree[1], obj, frame)
        return None if v is None else not v
    verdicts = [kleene(t, obj, frame) for t in tree[1:]]
    decides = tag == "or"  # True decides an `|`, False an `&`
    if decides in verdicts:
        return decides
    return None if None in verdicts else not decides


def text(tree, binding: str = "c") -> str:
    tag = tree[0]
    if tag == "cmp":
        _tag, prop, op, literal = tree
        lit = f'"{literal}"' if isinstance(literal, str) else literal
        return f"{binding}.{prop} {op} {lit}"
    if tag == "not":
        return f"!({text(tree[1], binding)})"
    sep = " & " if tag == "and" else " | "
    return "(" + sep.join(text(t, binding) for t in tree[1:]) + ")"


def satisfied_by(world: WorldSpec, tree) -> list[int]:
    labels = label_frames(world, lambda o, f: kleene(tree, o, f) is True)
    return [f for f, v in enumerate(labels) if v]


def one_right_mover(frames: int = 20) -> WorldSpec:
    """One red car moving right at 5 px/frame over the whole trace."""
    return WorldSpec(meta=meta_1000(frames), objects=[
        car(1, 0, frames - 1, (100.0, 500.0), velocity=(5.0, 0.0)),
    ])


NOT_RIGHT = ("not", ("cmp", "direction", "==", "right"))
LEFT_OR_NOT_FAST = ("or", ("cmp", "direction", "==", "left"),
                    ("not", ("cmp", "speed", ">", 100.0)))


class TestNegationDuringWarmup:
    def test_negated_frame_constraint_skips_warmup(self, tmp_path):
        world = one_right_mover()
        paths = write_world(world, tmp_path / "w")
        vprog = make_program(CAR_PROGRAM + f"""
        query not_right {{
          bind c: Car
          frame_constraint: {text(NOT_RIGHT)}
          video_output: count_distinct(c)
        }}
        """)
        outcome, _stats, _dag = run_single(
            vprog, "not_right", paths["trace"], world.meta
        )
        # warm-up frames 0-3 have no direction, so `!` has no verdict there
        assert outcome.satisfied == satisfied_by(world, NOT_RIGHT) == []
        assert outcome.video["value"] == 0

    def test_negation_under_or(self, tmp_path):
        world = one_right_mover()
        paths = write_world(world, tmp_path / "w")
        vprog = make_program(CAR_PROGRAM + f"""
        query q {{
          bind c: Car
          frame_constraint: {text(LEFT_OR_NOT_FAST)}
        }}
        """)
        outcome, _stats, _dag = run_single(
            vprog, "q", paths["trace"], world.meta
        )
        expected = satisfied_by(world, LEFT_OR_NOT_FAST)
        assert expected == list(range(WINDOW - 1, 20))
        assert outcome.satisfied == expected

    def test_negation_in_video_constraint(self, tmp_path):
        # one car per colour and heading, in its own lane, born in turn
        specs = [("red", 5.0), ("red", -5.0), ("blue", 5.0), ("blue", -5.0)]
        objects = [
            car(i + 1, 2 * i, 19, (300.0, 100.0 + 150 * i),
                velocity=(vx, 0.0), color=color)
            for i, (color, vx) in enumerate(specs)
        ]
        world = WorldSpec(meta=meta_1000(20), objects=objects)
        paths = write_world(world, tmp_path / "w")
        frame_tree = ("or", ("cmp", "color", "==", "red"),
                      ("not", ("cmp", "direction", "==", "left")))
        video_tree = ("not", ("cmp", "direction", "==", "left"))
        vprog = make_program(CAR_PROGRAM + f"""
        query q {{
          bind c: Car
          frame_constraint: {text(frame_tree)}
          video_constraint: {text(video_tree)}
          video_output: count_distinct(c)
        }}
        """)
        outcome, _stats, _dag = run_single(
            vprog, "q", paths["trace"], world.meta
        )
        # births in start order give track ids 1, 2, ...; a track with no
        # frame kept by the frame constraint is never aggregated
        expected, value = {}, 0
        for track_id, obj in enumerate(objects, start=1):
            kept = [f for f in range(obj.start_frame, obj.end_frame + 1)
                    if kleene(frame_tree, obj, f) is True]
            if not kept:
                continue
            verdicts = [kleene(video_tree, obj, f) for f in kept]
            expected[str(track_id)] = {
                "true": verdicts.count(True),
                "false": verdicts.count(False),
                "undefined": verdicts.count(None),
            }
            decided = [v for v in verdicts if v is not None]
            value += bool(decided) and all(decided)
        assert outcome.video["per_track"] == expected
        assert outcome.video["value"] == value
        # the blue right-mover (alive 4-19) is kept from frame 8, once its
        # direction is defined; the blue left-mover is never kept
        assert expected["3"] == {"true": 12, "false": 0, "undefined": 0}
        assert "4" not in expected

    def test_negation_in_relation_predicate(self, tmp_path):
        world = one_right_mover()
        world.objects.append(ObjectScript(
            label=2, class_name="person", start_frame=0, end_frame=19,
            start_center=(300.0, 600.0), size=(20.0, 24.0),
            attrs={"role": "adult"},
        ))
        paths = write_world(world, tmp_path / "w")
        not_left = ("not", ("cmp", "direction", "==", "left"))
        vprog = make_program(CAR_PROGRAM + f"""
        vobj Person {{
          detector: "general_person"
          property role: stateless(impl="attr:role") intrinsic
        }}
        relation Near(Car, Person) {{
          property distance_px: stateless(impl="distance_px")
        }}
        query reds {{ bind c: Car  frame_constraint: c.color == "red" }}
        query adults {{ bind p: Person  frame_constraint: p.role == "adult" }}
        spatial query near {{
          first: reds
          second: adults
          relation: Near
          predicate: {text(not_left)} & Near(c, p).distance_px < 1000
        }}
        """)
        outcome, _stats, _dag = run_single(
            vprog, "near", paths["trace"], world.meta
        )
        # both are alive on every frame and never 1000 px apart, so the
        # edge survives exactly where the car is decidedly not moving left
        (mover, _person) = world.objects
        assert outcome.satisfied == [
            f for f in range(20) if kleene(not_left, mover, f) is True
        ] == list(range(WINDOW - 1, 20))


# --- seeded property: random predicate trees against the Kleene oracle ---

LEAVES = [
    ("cmp", "color", "==", "red"),
    ("cmp", "color", "!=", "blue"),
    ("cmp", "direction", "==", "right"),
    ("cmp", "direction", "!=", "left"),
    ("cmp", "direction", "==", "stationary"),
    ("cmp", "speed", ">", 2.0),  # speeds are 0, 1.6, 2.4 and 4.0 m/s
    ("cmp", "speed", "<=", 3.0),
]


def random_tree(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(LEAVES)
    if rng.random() < 0.3:
        return ("not", random_tree(rng, depth - 1))
    return (rng.choice(["and", "or"]),) + tuple(
        random_tree(rng, depth - 1) for _ in range(rng.randint(2, 3))
    )


def random_world(seed: int, frames: int = 30) -> WorldSpec:
    """Cars in separate lanes, each alive long enough to leave warm-up."""
    rng = random.Random(seed)
    objects = []
    for label in range(6):
        start = rng.randint(0, frames - WINDOW - 2)
        end = min(frames - 1, start + rng.randint(WINDOW, 20))
        objects.append(car(
            label, start, end, (rng.uniform(150.0, 600.0), 80.0 + 140 * label),
            velocity=(rng.choice([-5.0, -3.0, -2.0, 0.0, 2.0, 3.0, 5.0]), 0.0),
            color=rng.choice(["red", "blue", "white"]),
        ))
    return WorldSpec(meta=meta_1000(frames), objects=objects, seed=seed)


def test_random_predicates_match_kleene_oracle(tmp_path):
    registry = frozen_registry()
    for seed in range(4):
        rng = random.Random(f"kleene:{seed}")
        world = random_world(seed)
        paths = write_world(world, tmp_path / f"w{seed}")
        trees = [random_tree(rng, 3) for _ in range(10)]
        vprog = make_program(CAR_PROGRAM + "".join(
            f"query q{i} {{ bind c: Car  frame_constraint: {text(t)} }}\n"
            for i, t in enumerate(trees)
        ))
        dags = [plan_query(vprog, f"q{i}", registry, PlannerConfig(),
                           world.meta) for i in range(len(trees))]
        runs = {}
        for lazy in (True, False):
            session = Session(vprog, registry, world.meta,
                              ExecConfig(lazy=lazy))
            runs[lazy] = session.run(dags, paths["trace"])
        for tree, lazy_out, eager_out in zip(trees, runs[True], runs[False]):
            assert lazy_out.satisfied == satisfied_by(world, tree), text(tree)
            assert serialize_outcome(lazy_out) == serialize_outcome(eager_out)

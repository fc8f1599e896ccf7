"""Every input file the CLI reads, fuzzed for the exit-code promise.

Seeded, structure-aware mutants of saved plans (as `profile --save-plan`
writes them), registry manifests, meta files, trace lines and world files
(as `vidquery synth` reads them) go through the CLI in process.  Whatever
the mutant, a command exits 0, 1, 2 or 3, raises nothing but `SystemExit`,
and a non-zero exit leaves a one-line diagnostic on stderr.  Each input kind runs a fixed number of cases, so a
failure names the seed and case that reproduce it.
"""

import copy
import json
import math
import random

import pytest
from click.testing import CliRunner

from vidquery.cli import main
from vidquery.synth import ObjectScript, WorldSpec, write_world

from conftest import CAR_PROGRAM, car, meta_1000

SEED = 21
CASES = {"plan": 400, "manifest": 250, "meta": 120, "trace": 120,
         "world": 300}

PROGRAM = CAR_PROGRAM + """
vobj Person {
  detector: "general_person"
  property role: stateless(impl="attr:role") intrinsic
}
relation Near(Car, Person) {
  property distance_px: stateless(impl="distance_px")
}
query reds {
  bind c: Car
  frame_constraint: c.color == "red"
  frame_output: c.direction
}
query gated {
  bind s: Scene
  bind c: Car
  frame_constraint: s.motion_score >= 0.3 & c.color == "red" & c.speed > 1
  frame_output: c.speed
}
query right_reds {
  bind c: Car
  frame_constraint: c.color == "red"
  video_constraint: c.direction == "right"
  video_output: count_distinct(c)
}
query adults {
  bind p: Person
  frame_constraint: p.role == "adult"
}
spatial query near_red {
  first: reds
  second: adults
  relation: Near
  predicate: Near(c, p).distance_px < 200 & c.direction == "right"
}
duration query lingering { base: near_red min_frames: 3 }
temporal query red_then_adult {
  first: reds
  then: adults
  max_interval_frames: 5
}
"""
QUERIES = ["reds", "gated", "right_reds", "near_red", "lingering",
           "red_then_adult"]

# a specialized detector, a zero-error classifier and two auto frame
# filters: `profile` offers the detector, and the planner gates with the rest
MANIFEST = {"registrations": [
    {"name": "red_car", "kind": "detector", "classes": ["car"],
     "requires_attrs": {"color": "red"}, "specializes": "Car",
     "subsumes": {"color": "red"}, "cost_units": 20,
     "error_profile": {"miss_rate": 0.1, "seed": 3}},
    {"name": "has_car", "kind": "classifier", "vobj": "Car",
     "target_class": "car", "cost_units": 1},
    {"name": "busy", "kind": "frame_filter", "auto": True,
     "channel": "motion_score", "op": ">=", "threshold": 0.1},
    {"name": "new_scene", "kind": "frame_filter", "auto": True,
     "channel": "motion_score", "mode": "similar_to_prev",
     "tolerance": 0.05, "window": 2},
]}

# what a mutation puts in place of a value: JSON's own values, Python's
# NaN and infinities (which `json` writes and reads), and names that the
# inputs use
VALUES = [None, True, False, 0, 1, -1, 2, 2.5, -0.5, 1e300, math.inf,
          -math.inf, math.nan, "", "x", "c", "p", "red", "Car", "reader",
          "detector", "fused", "threshold", "motion_score", [], {}, [1, 2],
          ["c"], ["c", "p"], {"x": 1}]
KEYS = ["x", "kind", "params", "inputs", "mode", "op", "prop", "binding",
        "predicate", "steps", "subsumes", "auto", "fps", "frame_id"]


def _paths(node, path=()):
    """The path of every value in a JSON tree, the root's `()` first."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield from _paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutate(doc, rng: random.Random, edits: int):
    """`doc` after `edits` random edits, each of one value anywhere in the
    tree: replace it with one of `VALUES` or with a copy of another value of
    the tree, delete it, or insert a value beside it."""
    doc = copy.deepcopy(doc)
    for _ in range(edits):
        paths = list(_paths(doc))
        path = rng.choice(paths)
        action = rng.choice(("replace", "copy", "delete", "insert"))
        value = copy.deepcopy(rng.choice(VALUES) if action != "copy"
                              else _at(doc, rng.choice(paths)))
        if not path:  # the root can only be replaced
            doc = value
            continue
        parent, key = _at(doc, path[:-1]), path[-1]
        if action in ("replace", "copy"):
            parent[key] = value
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[rng.choice(KEYS)] = value
        else:
            parent.insert(key, value)
    return doc


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The files each mutant starts from: a program, a world's trace and
    meta, a manifest, and each query's plan as `profile` saves it."""
    ws = tmp_path_factory.mktemp("fuzz")
    (ws / "q.vq").write_text(PROGRAM)
    frames = 16
    world = WorldSpec(meta=meta_1000(frames), seed=SEED, objects=[
        car(1, 0, 15, (100.0, 300.0), velocity=(12.0, 0.0)),
        car(2, 2, 15, (700.0, 600.0), velocity=(-10.0, 0.0), color="blue"),
        car(3, 4, 12, (300.0, 500.0), velocity=(8.0, 2.0)),
        ObjectScript(label=4, class_name="person", start_frame=0,
                     end_frame=15, start_center=(250.0, 380.0),
                     size=(20.0, 40.0), attrs={"role": "adult"}),
    ], channels={"motion_score": [0.2, 0.5, 0.9, 0.4] * (frames // 4)})
    paths = write_world(world, ws / "w")
    (ws / "m.json").write_text(json.dumps(MANIFEST))
    base = {"program": str(ws / "q.vq"), "trace": str(paths["trace"]),
            "meta": str(paths["meta"]), "manifest": str(ws / "m.json"),
            "world": str(paths["world"]), "dir": ws, "plans": {}}
    runner = CliRunner()
    for query in QUERIES:
        plan = ws / f"{query}.plan.json"
        result = runner.invoke(main, [
            "profile", "-p", base["program"], "-q", query,
            "--trace", base["trace"], "--meta", base["meta"],
            "--registry", base["manifest"], "--save-plan", str(plan)])
        assert result.exit_code == 0, result.output
        base["plans"][query] = json.loads(plan.read_text())
    return base


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def plan_case(ws, rng):
    query = rng.choice(QUERIES)
    plan = mutate(ws["plans"][query], rng, rng.randint(1, 2))
    args = ["run", "-p", ws["program"], "--trace", ws["trace"],
            "--meta", ws["meta"], "--registry", ws["manifest"],
            "--plan-file", _write(ws["dir"] / "plan.json", plan)]
    return args + rng.choice(([], [], ["--no-lazy"], ["--no-memo"]))


def manifest_case(ws, rng):
    manifest = mutate(MANIFEST, rng, rng.randint(1, 2))
    path = _write(ws["dir"] / "manifest.json", manifest)
    query = rng.choice(QUERIES)
    command = rng.choice(("validate", "explain", "run", "run", "profile"))
    args = [command, "-p", ws["program"], "--registry", path]
    if command != "validate":
        args += ["-q", query, "--meta", ws["meta"]]
    if command in ("run", "profile"):
        args += ["--trace", ws["trace"]]
    return args


def meta_case(ws, rng):
    with open(ws["meta"]) as fh:
        meta = mutate(json.load(fh), rng, rng.randint(1, 2))
    return ["run", "-p", ws["program"], "-q", rng.choice(QUERIES),
            "--trace", ws["trace"], "--registry", ws["manifest"],
            "--meta", _write(ws["dir"] / "meta.json", meta)]


def trace_case(ws, rng):
    with open(ws["trace"]) as fh:
        lines = fh.read().splitlines()
    i = rng.randrange(len(lines))
    line = mutate(json.loads(lines[i]), rng, rng.randint(1, 2))
    lines[i] = json.dumps(line)
    trace = ws["dir"] / "trace.jsonl"
    trace.write_text("\n".join(lines) + "\n")
    return ["run", "-p", ws["program"], "-q", rng.choice(QUERIES),
            "--trace", str(trace), "--meta", ws["meta"],
            "--registry", ws["manifest"]]


def world_case(ws, rng):
    with open(ws["world"]) as fh:
        world = mutate(json.load(fh), rng, rng.randint(1, 2))
    return ["synth", "--world", _write(ws["dir"] / "world.json", world),
            "--out", str(ws["dir"] / "rendered")]


CASE_MAKERS = {"plan": plan_case, "manifest": manifest_case,
               "meta": meta_case, "trace": trace_case, "world": world_case}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_mutated_input_exits_with_a_documented_code(inputs, kind):
    runner = CliRunner()
    exits = set()
    for case in range(CASES[kind]):
        rng = random.Random(f"{SEED} {kind} {case}")
        args = CASE_MAKERS[kind](inputs, rng)
        result = runner.invoke(main, args)
        where = f"{kind} case {case}: {args}"
        assert isinstance(result.exception, (SystemExit, type(None))), \
            f"{where}: {result.exception!r}"
        assert result.exit_code in (0, 1, 2, 3), where
        if result.exit_code:
            assert result.stderr.count("\n") == 1, f"{where}: {result.stderr}"
            assert result.stderr.endswith("\n"), where
        exits.add(result.exit_code)
    # the mutants reach past the first check that reads each input
    assert 0 in exits and len(exits) > 1, exits

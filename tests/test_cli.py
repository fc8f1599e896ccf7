"""CLI surface: exit codes, result files, and run-to-run determinism."""

import hashlib
import json
import marshal
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from vidquery import executor
from vidquery.cli import main
from vidquery.executor import DIGEST_SIZE, QueryOutcome, serialize_outcome
from vidquery.synth import WorldSpec, write_world

from conftest import (
    BAD_SHAPES,
    CAR_PROGRAM,
    SHAPE_TYPES,
    car,
    meta_1000,
    red_car_and_adult,
)

PROGRAM = CAR_PROGRAM + """
query reds {
  bind c: Car
  frame_constraint: c.color == "red"
  frame_output: c.direction
}
"""


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "q.vq").write_text(PROGRAM)
    meta = meta_1000(20)
    world = WorldSpec(meta=meta, seed=11, objects=[
        car(1, 0, 19, (100.0, 200.0), velocity=(3.0, 0.0)),
        car(2, 0, 19, (100.0, 600.0), velocity=(3.0, 0.0), color="blue"),
    ])
    paths = write_world(world, tmp_path / "w")
    (tmp_path / "world.json").write_text(
        json.dumps(world.to_json(), indent=2)
    )
    return {
        "dir": tmp_path,
        "program": str(tmp_path / "q.vq"),
        "trace": str(paths["trace"]),
        "meta": str(paths["meta"]),
        "world": str(tmp_path / "world.json"),
    }


class TestValidate:
    def test_ok(self, runner, workspace):
        result = runner.invoke(main, ["validate", "-p", workspace["program"]])
        assert result.exit_code == 0
        assert "ok:" in result.output and "reds" in result.output

    def test_syntax_error_exit_1(self, runner, tmp_path):
        bad = tmp_path / "bad.vq"
        bad.write_text("vobj Car {\n  detector 3\n}")
        result = runner.invoke(main, ["validate", "-p", str(bad)])
        assert result.exit_code == 1
        assert "bad.vq:2:" in result.output

    def test_missing_file_exit_1(self, runner):
        result = runner.invoke(main, ["validate", "-p", "/nonexistent.vq"])
        assert result.exit_code == 1


class TestExplain:
    def test_dot_output(self, runner, workspace):
        result = runner.invoke(main, [
            "explain", "-p", workspace["program"], "-q", "reds",
        ])
        assert result.exit_code == 0
        assert result.output.startswith("// plan ")
        assert "digraph plan {" in result.output
        assert "detector" in result.output

    @staticmethod
    def nodes(output: str) -> list[str]:
        """The op ids of the DOT node lines, in the order printed."""
        return [line.split('"')[1] for line in output.splitlines()
                if "[label=" in line]

    def test_gates_and_fused_chain_printed(self, runner, workspace):
        manifest = workspace["dir"] / "registry.json"
        manifest.write_text(json.dumps({"registrations": [
            {"name": "has_car", "kind": "classifier", "vobj": "Car",
             "target_class": "car"},
        ]}))
        result = runner.invoke(main, [
            "explain", "-p", workspace["program"], "-q", "reds",
            "--registry", str(manifest)])
        assert result.exit_code == 0, result.output
        assert self.nodes(result.output) == [
            "reader", "classifier:detector:c:has_car", "detector:c",
            "tracker:c", "fused:proj:c.color", "output:reds",
        ]
        # the fused op's label lists its steps, the filter right after the
        # colour it reads
        assert '[label="fused\\nfused:proj:c.color\\nprojector color' \
            '\\nvobj_filter\\nprojector center\\nprojector direction"];' \
            in result.output

    def test_unknown_query_exit_1(self, runner, workspace):
        # checked before planning, as `run` and `profile` check it
        result = runner.invoke(main, [
            "explain", "-p", workspace["program"], "-q", "nope",
        ])
        assert result.exit_code == 1
        assert result.stderr == "unknown query 'nope'\n"


class TestRun:
    def args(self, ws, *extra):
        return ["run", "-p", ws["program"], "-q", "reds",
                "--trace", ws["trace"], "--meta", ws["meta"], *extra]

    def test_results_to_file(self, runner, workspace):
        out = workspace["dir"] / "results.json"
        result = runner.invoke(main, self.args(workspace, "--out", str(out)))
        assert result.exit_code == 0, result.output
        obj = json.loads(out.read_text())
        assert obj["query"] == "reds"
        assert obj["satisfied"] == list(range(20))
        assert "cost_units=" in result.output  # stats line on stderr

    def test_deterministic_bytes_across_runs(self, runner, workspace):
        hashes = []
        for name in ("a.json", "b.json"):
            out = workspace["dir"] / name
            result = runner.invoke(main, self.args(workspace, "--out", str(out)))
            assert result.exit_code == 0
            hashes.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert hashes[0] == hashes[1]

    def test_missing_trace_exit_3(self, runner, workspace):
        result = runner.invoke(main, [
            "run", "-p", workspace["program"], "-q", "reds",
            "--trace", str(workspace["dir"] / "nope.jsonl"),
            "--meta", workspace["meta"],
        ])
        assert result.exit_code == 3

    def test_non_finite_bbox_exit_3(self, runner, workspace):
        lines = open(workspace["trace"]).read().splitlines()
        first = json.loads(lines[0])
        first["dets"][0]["bbox"][2] = float("inf")  # written as Infinity
        lines[0] = json.dumps(first)
        with open(workspace["trace"], "w") as fh:
            fh.write("\n".join(lines) + "\n")
        out = workspace["dir"] / "results.json"
        result = runner.invoke(main, self.args(workspace, "--out", str(out)))
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.stderr.startswith("execution failed: ")
        assert "non-finite bbox" in result.stderr
        assert result.stderr.count("\n") == 1
        assert not out.exists()

    def test_non_finite_channel_exit_3(self, runner, workspace):
        lines = open(workspace["trace"]).read().splitlines()
        first = json.loads(lines[0])
        first["channels"] = {"motion_score": float("nan")}  # written as NaN
        lines[0] = json.dumps(first)
        with open(workspace["trace"], "w") as fh:
            fh.write("\n".join(lines) + "\n")
        out = workspace["dir"] / "results.json"
        result = runner.invoke(main, self.args(workspace, "--out", str(out)))
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.stderr.startswith("execution failed: ")
        assert "non-finite channel" in result.stderr
        assert result.stderr.count("\n") == 1
        assert not out.exists()

    def test_box_outside_the_frame_exit_3(self, runner, workspace):
        lines = open(workspace["trace"]).read().splitlines()
        first = json.loads(lines[0])
        first["dets"][0]["bbox"][2] = 1200.0  # the frame is 1000 px wide
        lines[0] = json.dumps(first)
        with open(workspace["trace"], "w") as fh:
            fh.write("\n".join(lines) + "\n")
        out = workspace["dir"] / "results.json"
        result = runner.invoke(main, self.args(workspace, "--out", str(out)))
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.stderr.startswith("execution failed: ")
        assert "outside resolution" in result.stderr
        assert result.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("line, named", [
        ('{"frame": 0, "channels": null}', "channels None is not an object"),
        ('{"frame": 0, "channels": [["m", 1]]}',
         "channels [['m', 1]] is not an object"),
        ('{"frame": 0, "channels": "m"}', "channels 'm' is not an object"),
        ('{"frame": Infinity}', "cannot convert float infinity to integer"),
        ('{"frame": 1e400}', "cannot convert float infinity to integer"),
        ('{"frame": 8.99}', "frame id 8.99 is not a whole number"),
        ('{"frame": true}', "frame id True is not a whole number"),
        ('{"frame": 0, "dets": [{"class": "car", "bbox": [' + "9" * 400
         + ', 0, 1, 1]}]}', "int too large to convert to float"),
        ('{"frame": 0, "x": ' + "[" * 5000 + "]" * 5000 + "}",
         "maximum recursion depth exceeded"),
        ('{"frame": 1, "dets": [{"class": ["car"], "bbox": [0, 0, 1, 1]}]}',
         "class ['car'] is not a string"),
        ('{"frame": 1, "dets": [{"class": {"a": 1}, "bbox": [0, 0, 1, 1]}]}',
         "class {'a': 1} is not a string"),
        ('{"frame": 1, "dets": [{"class": ' + str(2 ** 64)
         + ', "bbox": [0, 0, 1, 1]}]}',
         f"class {2 ** 64} is not a string"),  # json's reading, an int
    ], ids=["channels-null", "channels-list", "channels-string",
            "frame-infinity", "frame-1e400", "frame-fraction", "frame-bool",
            "bbox-big-int",
            "deep-nesting", "class-list", "class-object", "class-number"])
    def test_malformed_line_exit_3(self, runner, workspace, line, named):
        lines = open(workspace["trace"]).read().splitlines()
        lines[1] = line
        with open(workspace["trace"], "w") as fh:
            fh.write("\n".join(lines) + "\n")
        result = runner.invoke(main, self.args(workspace))
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.stderr.startswith(
            f"execution failed: {workspace['trace']}:2: bad record: ")
        assert named in result.stderr
        assert result.stderr.count("\n") == 1

    def test_line_that_is_not_utf8_exit_3(self, runner, workspace):
        lines = open(workspace["trace"], "rb").read().splitlines()
        lines[1] = lines[1][:-1] + b', "x": "\xff"}'
        with open(workspace["trace"], "wb") as fh:
            fh.write(b"\n".join(lines) + b"\n")
        result = runner.invoke(main, self.args(workspace))
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.stderr == (
            f"execution failed: {workspace['trace']}:2: bad record: "
            f"not UTF-8 (invalid start byte)\n")

    @pytest.mark.parametrize("constraint", [
        's.motion_score == "x"',
        's.motion_score in [0.5, "x"]',
        's.motion_score in ["a", "b"]',
    ])
    def test_non_numeric_scene_literal_exit_1(self, runner, workspace,
                                              constraint):
        program = workspace["dir"] / "scene.vq"
        program.write_text(CAR_PROGRAM + f"""
query busy {{
  bind s: Scene
  bind c: Car
  frame_constraint: {constraint} & c.color == "red"
}}
""")
        result = runner.invoke(main, [
            "run", "-p", str(program), "-q", "busy",
            "--trace", workspace["trace"], "--meta", workspace["meta"],
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert "scene channel s.motion_score compares with numbers only" \
            in result.stderr
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("decl, message", [
        ("duration query held { base: reds min_frames: 0 }",
         "min_frames must be a whole number >= 1, found '0'"),
        ("duration query held { base: reds min_frames: 2.5 }",
         "min_frames must be a whole number >= 1, found '2.5'"),
        ("temporal query seq { first: reds then: reds "
         "max_interval_frames: -1 }",
         "max_interval_frames must be a whole number >= 0, found '-1'"),
    ], ids=["min-frames-0", "min-frames-fraction", "negative-max-interval"])
    def test_bad_duration_or_temporal_number_exit_1(self, runner, workspace,
                                                    decl, message):
        program = workspace["dir"] / "bad.vq"
        program.write_text(PROGRAM + decl + "\n")
        result = runner.invoke(main, [
            "run", "-p", str(program), "--trace", "/nonexistent.jsonl",
            "--meta", workspace["meta"],
        ])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        # the number's own line and column, before the trace is opened
        line, column = PROGRAM.count("\n") + 1, decl.rindex(":") + 3
        assert result.stderr.startswith(f"{program}:{line}:{column}: ")
        assert result.stderr.endswith(message + "\n")
        assert result.stderr.count("\n") == 1

    def test_unknown_query_exit_1(self, runner, workspace):
        result = runner.invoke(main, self.args(workspace)[:-1] + ["ghost"])
        assert result.exit_code == 1

    def test_without_q_skips_the_queries_that_bind_no_object(self, runner,
                                                             workspace):
        # `gate` binds only a Scene, so that `gated_reds` can extend it; the
        # duration and temporal queries built on it cannot be planned either
        program = workspace["dir"] / "gated.vq"
        program.write_text(PROGRAM + """
query gate {
  bind s: Scene
  frame_constraint: s.motion_score > 0.5
}
query gated_reds extends gate {
  bind c: Car
  frame_constraint: c.color == "red"
}
duration query held { base: gate min_frames: 2 }
temporal query then_red { first: gate then: gated_reds max_interval_frames: 5 }
""")
        trace = write_world(red_car_and_adult(20), workspace["dir"] / "g")["trace"]
        args = ["run", "-p", str(program), "--trace", str(trace),
                "--meta", workspace["meta"]]
        assert runner.invoke(main, ["validate", "-p", str(program)]).exit_code == 0
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert result.stderr.startswith(
            "skipped 'gate': binds no object\n"
            "skipped 'held': binds no object\n"
            "skipped 'then_red': binds no object\n"
            "cost_units=")
        named = runner.invoke(main, [*args, "-q", "reds", "-q", "gated_reds"])
        assert named.exit_code == 0 and result.stdout == named.stdout
        for query in ("gate", "held", "then_red"):  # asked for by name
            result = runner.invoke(main, [*args, "-q", query])
            assert result.exit_code == 2
            assert result.stderr == \
                "planning failed: gate: no VObj bindings to plan\n"

    def test_opt_flags_do_not_change_results(self, runner, workspace):
        texts = []
        for i, flags in enumerate([
            (), ("--no-memo", "--no-lazy"),
        ]):
            out = workspace["dir"] / f"r{i}.json"
            result = runner.invoke(
                main, self.args(workspace, "--out", str(out), *flags)
            )
            assert result.exit_code == 0, result.output
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    def test_result_cache_round_trip(self, runner, workspace):
        cache = str(workspace["dir"] / "cache")
        out1 = workspace["dir"] / "c1.json"
        out2 = workspace["dir"] / "c2.json"
        r1 = runner.invoke(main, self.args(
            workspace, "--results", cache, "--out", str(out1)
        ))
        r2 = runner.invoke(main, self.args(
            workspace, "--results", cache, "--out", str(out2)
        ))
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert "op_invocations=0" in r2.output  # served from cache

    def test_damaged_cache_entry_is_a_miss(self, runner, workspace):
        plain = workspace["dir"] / "plain.json"
        result = runner.invoke(main, self.args(workspace, "--out", str(plain)))
        assert result.exit_code == 0, result.output
        cache = workspace["dir"] / "cache"
        cached = self.args(workspace, "--results", str(cache), "--out")
        out = workspace["dir"] / "cached.json"
        assert runner.invoke(main, cached + [str(out)]).exit_code == 0
        (entry,) = cache.iterdir()
        entry.write_bytes(entry.read_bytes()[:40])  # truncated
        result = runner.invoke(main, cached + [str(out)])
        assert result.exit_code == 0, result.output
        assert "op_invocations=0" not in result.output  # recomputed
        assert out.read_bytes() == plain.read_bytes()
        # rewritten in place, with no temporary file left behind
        assert list(cache.iterdir()) == [entry]
        data = entry.read_bytes()
        payload = data[DIGEST_SIZE:]
        assert data[:DIGEST_SIZE] == hashlib.sha256(payload).digest()
        restored = QueryOutcome.from_json(marshal.loads(payload))
        assert serialize_outcome(restored).encode() == plain.read_bytes()

    def test_largest_batch_size_runs(self, runner, workspace):
        # a track read by a window keeps its reach plus a batch of objects
        plain = runner.invoke(main, self.args(workspace))
        result = runner.invoke(main, self.args(
            workspace, "--batch-size", str(sys.maxsize)))
        assert result.exit_code == 0, result.output
        assert result.stdout == plain.stdout


@pytest.mark.parametrize("command, flag, value", [
    ("run", "--batch-size", "0"),
    ("profile", "--batch-size", "0"),
    ("profile", "--accuracy-target", "-1"),
    # above sys.maxsize: rejected before anything is sized by it
    ("run", "--batch-size", "100000000000000000000"),
    ("profile", "--batch-size", "100000000000000000000"),
])
def test_bad_option_value_exit_1(runner, workspace, command, flag, value):
    result = runner.invoke(main, [
        command, "-p", workspace["program"], "-q", "reds",
        "--trace", workspace["trace"], "--meta", workspace["meta"],
        flag, value,
    ])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stderr.startswith("bad option: ")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("command, flag, path, error", [
    ("run", "--results", "a_file", "File exists"),
    ("run", "--results", "a_file/cache", "Not a directory"),
    ("run", "--out", "missing/results.json", "No such file or directory"),
    ("run", "--out", ".", "Is a directory"),
    ("run", "--out", "a_file/results.json", "Not a directory"),
    ("profile", "--save-plan", "missing/plan.json",
     "No such file or directory"),
    ("profile", "--save-plan", ".", "Is a directory"),
], ids=["results-file", "results-under-file", "out-missing-dir", "out-dir",
        "out-under-file", "save-plan-missing-dir", "save-plan-dir"])
def test_unusable_output_path_exit_1(runner, workspace, monkeypatch, command,
                                     flag, path, error):
    opened = []
    real = executor.open_trace

    def counting(trace, meta=None):
        opened.append(trace)
        return real(trace, meta)

    monkeypatch.setattr(executor, "open_trace", counting)
    (workspace["dir"] / "a_file").write_text("")
    result = runner.invoke(main, [
        command, "-p", workspace["program"], "-q", "reds",
        "--trace", workspace["trace"], "--meta", workspace["meta"],
        flag, str(workspace["dir"] / path),
    ])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stderr.startswith(f"bad option: {flag}: ")
    assert error in result.stderr
    assert result.stderr.count("\n") == 1
    assert opened == []  # found before any frame is read


META_FIELDS = '"width": 1000, "height": 1000, "frames": 20'


@pytest.mark.parametrize("meta, named", [
    ('{"fps": null, ' + META_FIELDS + "}", "must be a string or a real number"),
    ("[30, 1000, 1000, 20]", "list indices must be integers"),
    ('{"fps": 30, "width": Infinity, "height": 1000, "frames": 20}',
     "cannot convert float infinity to integer"),
    ('{"fps": NaN, ' + META_FIELDS + "}", "fps nan is not positive and finite"),
    ('{"fps": 30, "px_per_m": Infinity, ' + META_FIELDS + "}",
     "px_per_m inf is not positive and finite"),
], ids=["fps-null", "list", "width-infinity", "fps-nan", "px-per-m-infinity"])
def test_bad_meta_file_exit_1(runner, workspace, meta, named):
    path = workspace["dir"] / "bad-meta.json"
    path.write_text(meta)
    result = runner.invoke(main, TestRun().args({**workspace,
                                                 "meta": str(path)}))
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stderr.startswith("bad meta file: ")
    assert named in result.stderr
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("manifest, named", [
    ([{"name": "d", "kind": "detector"}], "the manifest is not a JSON object"),
    ({"registrations": {"name": "d", "kind": "detector"}},
     "'registrations' is not a list"),
    ({"registrations": ["d"]}, "registration 0 is not an object"),
    ({"registrations": [{"kind": "detector", "classes": ["car"]}]},
     "registration 0 has no string 'name'"),
    ({"registrations": [{"name": "d", "classes": ["car"]}]},
     "registration 0 has no string 'kind'"),
    ({"registrations": [{"name": "d", "kind": "detector",
                         "error_profile": 0.1}]},
     "registration 0: error_profile is not an object"),
    ({"registrations": [{"name": "d", "kind": "detector",
                         "cost_units": None}]}, "bad cost_units None"),
    ({"registrations": [{"name": "d", "kind": "detector",
                         "error_profile": {"seed": math.inf}}]},
     "bad seed inf"),
], ids=["top-level", "registrations", "entry", "name", "kind",
        "error-profile", "cost-units", "error-profile-seed-infinity"])
def test_bad_manifest_shape_exit_1(runner, workspace, manifest, named):
    path = workspace["dir"] / "bad.json"
    path.write_text(json.dumps(manifest))
    result = runner.invoke(main, [
        "run", "-p", workspace["program"], "-q", "reds",
        "--trace", workspace["trace"], "--meta", workspace["meta"],
        "--registry", str(path),
    ])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stderr == f"bad registry manifest: {named}\n"


def test_manifest_subsumes_not_an_object_exit_1(runner, workspace):
    """The specialized detector `profile` offers would prune the colour
    conjunct by its `subsumes`, so the manifest rejects a list."""
    path = workspace["dir"] / "bad.json"
    path.write_text(json.dumps({"registrations": [
        {"name": "red_car", "kind": "detector", "classes": ["car"],
         "specializes": "Car", "subsumes": [1, 2]}]}))
    result = runner.invoke(main, [
        "profile", "-p", workspace["program"], "-q", "reds",
        "--trace", workspace["trace"], "--meta", workspace["meta"],
        "--registry", str(path),
    ])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stderr == ("bad registry manifest: registration 0: "
                             "subsumes is not an object\n")


RUN = ["run", "-p", "{program}", "--trace", "{trace}", "--meta", "{meta}"]
# the flags that turned fusion and pull-up off, before each became how
# every branch is laid out; spelt in two parts, so that a search for them
# finds no live use
FUSION_FLAG = "--no-" "fusion"
PULLUP_FLAG = "--no-" "pullup"


@pytest.mark.parametrize("args, message", [
    (RUN + [FUSION_FLAG], f"No such option '{FUSION_FLAG}'."),
    (["explain", "-p", "{program}", "-q", "reds", FUSION_FLAG],
     f"No such option '{FUSION_FLAG}'."),
    (RUN + [PULLUP_FLAG], f"No such option '{PULLUP_FLAG}'."),
    (["explain", "-p", "{program}", "-q", "reds", PULLUP_FLAG],
     f"No such option '{PULLUP_FLAG}'."),
    (RUN + ["--batch-size", "abc"],
     "Invalid value for '--batch-size': 'abc' is not a valid integer."),
    (["run", "-p", "{program}", "--meta", "{meta}"],
     "Missing option '--trace'."),
    (["nosuch"], "No such command 'nosuch'."),
    (["--bogus"] + RUN, "No such option '--bogus'."),
    (["--bogus", "run"], "No such option '--bogus'."),
], ids=["unknown-option", "explain-unknown-option", "pullup-option",
        "explain-pullup-option", "wrong-type", "missing-option",
        "unknown-command", "group-unknown-option",
        "group-unknown-option-bare-command"])
def test_usage_error_exit_1(runner, workspace, args, message):
    """A usage error, of the group or of a command, exits 1 with one line,
    as a bad option value does."""
    result = runner.invoke(main, [a.format(**workspace) for a in args])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stderr.startswith(f"bad option: {message}")
    assert result.stderr.count("\n") == 1


def test_readme_names_every_switch_of_run():
    """README's `run accepts …` line names exactly the `--no-*` options of
    `vidquery run`, so an option that goes cannot stay documented."""
    readme = Path(__file__).parent.parent / "README.md"
    (line,) = [line for line in readme.read_text().splitlines()
               if line.startswith("`run` accepts")]
    options = {opt for param in main.commands["run"].params
               for opt in param.opts if opt.startswith("--no-")}
    assert options
    assert set(re.findall(r"--no-[a-z-]+", line)) == options


def test_no_arguments_print_the_help(runner):
    result = runner.invoke(main, [])
    assert result.exit_code == 2
    assert "Commands:" in result.output and "bad option" not in result.output


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("source, message", BAD_SHAPES)
def test_bad_query_shape_exit_1(runner, workspace, monkeypatch, command,
                                source, message):
    opened = []
    monkeypatch.setattr(executor, "open_trace",
                        lambda *args: opened.append(args))
    program = workspace["dir"] / "shape.vq"
    program.write_text(SHAPE_TYPES + source)
    args = [command, "-p", str(program)]
    if command == "run":
        args += ["--trace", workspace["trace"], "--meta", workspace["meta"]]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stderr.startswith(f"{program}:")
    assert message in result.stderr
    assert result.stderr.count("\n") == 1
    assert opened == []  # found before any frame is read


def test_engine_imports_without_numpy():
    """numpy serves the tests and the benchmark only; every CLI call would
    pay for importing it."""
    import vidquery

    src = Path(vidquery.__file__).resolve().parents[1]
    code = "import sys, vidquery, vidquery.cli; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], cwd=src,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout == "False\n"


NEAR_PROGRAM = PROGRAM + """
relation Near(Car, Car) {
  property distance_px: stateless(impl="nosuch")
}
query blues {
  bind b: Car
  frame_constraint: b.color == "blue"
}
spatial query reds_near_blues {
  first: reds
  second: blues
  relation: Near
  predicate: Near(c, b).distance_px < 500
}
"""


def test_distance_m_bound_without_calibration_exit_3(runner, workspace):
    """The cars are 400 px apart, so at 10 px/m the bound prunes every pair;
    without `px_per_m` the first pair still fails as it did unpruned."""
    program = workspace["dir"] / "meters.vq"
    program.write_text(PROGRAM + """
relation Near(Car, Car) {
  property meters: stateless(impl="distance_m")
}
query blues {
  bind b: Car
  frame_constraint: b.color == "blue"
}
spatial query reds_near_blues {
  first: reds
  second: blues
  relation: Near
  predicate: Near(c, b).meters < 1
}
""")
    args = ["run", "-p", str(program), "-q", "reds_near_blues",
            "--trace", workspace["trace"], "--meta", workspace["meta"]]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert json.loads(result.stdout)["satisfied"] == []
    meta = json.loads(Path(workspace["meta"]).read_text())
    del meta["px_per_m"]
    Path(workspace["meta"]).write_text(json.dumps(meta))
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stderr == ("execution failed: distance in meters needs "
                             "px_per_m calibration\n")


@pytest.mark.parametrize("command, prefix", [
    ("run", "execution failed: "),
    ("profile", "profiling failed: "),
])
@pytest.mark.parametrize("source, query, named", [
    (PROGRAM.replace('impl="attr:color"', 'impl="nosuch"'), "reds",
     "Car.color: no property function registered under 'nosuch'"),
    (NEAR_PROGRAM, "reds_near_blues",
     "unknown relation implementation 'nosuch'"),
], ids=["property", "relation"])
def test_unknown_function_exit_3(runner, workspace, command, prefix, source,
                                 query, named):
    program = workspace["dir"] / "nosuch.vq"
    program.write_text(source)
    result = runner.invoke(main, [
        command, "-p", str(program), "-q", query,
        "--trace", workspace["trace"], "--meta", workspace["meta"],
    ])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stderr.startswith(prefix)
    assert named in result.stderr
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("source, named", [
    ('vobj Truck {\n  detector: "general_truck"\n}\n',
     "the program declares no type 'Car'"),
    (CAR_PROGRAM.replace(
        '  property color: stateless(impl="attr:color") intrinsic\n', ""),
     "Car has no property 'color'"),
], ids=["type", "property"])
def test_saved_plan_the_program_lacks_exit_3(runner, workspace, source, named):
    plan = workspace["dir"] / "plan.json"
    result = runner.invoke(main, [
        "profile", "-p", workspace["program"], "-q", "reds",
        "--trace", workspace["trace"], "--meta", workspace["meta"],
        "--save-plan", str(plan),
    ])
    assert result.exit_code == 0, result.output
    program = workspace["dir"] / "other.vq"
    program.write_text(source)
    result = runner.invoke(main, [
        "run", "-p", str(program), "--plan-file", str(plan),
        "--trace", workspace["trace"], "--meta", workspace["meta"],
    ])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stderr.startswith("execution failed: ")
    assert named in result.stderr
    assert result.stderr.count("\n") == 1


def _set_output_kind(plan):
    next(o for o in plan["ops"] if o["kind"] == "output")["kind"] = "nosuch"


def _set_step_kind(plan):
    fused = next(o for o in plan["ops"] if o["kind"] == "fused")
    fused["params"]["steps"][-1]["kind"] = "nosuch"


def _step(plan, kind):
    fused = next(o for o in plan["ops"] if o["kind"] == "fused")
    return next(s for s in fused["params"]["steps"] if s["kind"] == kind)


def _set_predicate(plan):
    _step(plan, "vobj_filter")["params"]["predicate"] = {"bogus": 1}


def _set_comparison(**cmp):
    def edit(plan):
        _step(plan, "vobj_filter")["params"]["predicate"]["cmp"].update(cmp)
    return edit


def _drop_prop(plan):
    del _step(plan, "projector")["params"]["prop"]


def _set_max_age(plan):
    tracker = next(o for o in plan["ops"] if o["kind"] == "tracker")
    tracker["params"]["config"]["max_age"] = 0


def _sink(kind, params, inputs=None):
    """Put a `kind` sink with `params` over `inputs`, by default the plan's
    output op."""
    def edit(plan):
        default = [plan["sink"]] * (2 if kind == "temporal" else 1)
        plan["ops"].append({
            "op_id": "sink", "kind": kind, "params": params,
            "inputs": default if inputs is None else inputs})
        plan["sink"] = "sink"
    return edit


def _op(of, **fields):
    """Set `fields` of the plan's op of kind `of`."""
    return lambda plan: next(o for o in plan["ops"]
                             if o["kind"] == of).update(fields)


def _output_over_a_duration(plan):
    _sink("duration", DURATION)(plan)
    output = next(o for o in plan["ops"] if o["kind"] == "output")
    plan["ops"].append(dict(output, op_id="after", inputs=["sink"]))
    plan["sink"] = "after"


DURATION = {"query": "held", "min_frames": 3, "gap_tolerance": 0}
TEMPORAL = {"query": "seq", "max_interval": 2}
AGGREGATE = {"kind": "count_distinct", "binding": "c", "part": 0,
             "predicate": None}


def _edited_run(runner, workspace, edit, trace=None, program=None,
                query="reds"):
    """Run `query`'s plan, as `profile` saves it, after `edit` changes it."""
    plan = workspace["dir"] / "plan.json"
    program = program or workspace["program"]
    result = runner.invoke(main, [
        "profile", "-p", program, "-q", query,
        "--trace", workspace["trace"], "--meta", workspace["meta"],
        "--save-plan", str(plan),
    ])
    assert result.exit_code == 0, result.output
    obj = json.loads(plan.read_text())
    edit(obj)
    plan.write_text(json.dumps(obj))
    return runner.invoke(main, [
        "run", "-p", program, "--plan-file", str(plan),
        "--trace", trace or workspace["trace"], "--meta", workspace["meta"],
    ])


def _broken_trace(workspace) -> str:
    """The workspace's trace with its first line cut short: a run that
    reads a frame fails on line 1."""
    lines = Path(workspace["trace"]).read_text().splitlines(keepends=True)
    broken = workspace["dir"] / "broken.jsonl"
    broken.write_text(lines[0][:-5] + "\n" + "".join(lines[1:]))
    return str(broken)


@pytest.mark.parametrize("edit, code, message", [
    (lambda plan: plan.update(version=4), 2,
     "cannot load plan: plan version 4 unsupported (expected 7)"),
    (lambda plan: plan.update(version=5), 2,
     "cannot load plan: plan version 5 unsupported (expected 7)"),
    (lambda plan: plan.update(version=6), 2,
     "cannot load plan: plan version 6 unsupported (expected 7)"),
    (_set_output_kind, 3,
     "execution failed: output:reds: unknown operator kind 'nosuch'"),
    (_set_step_kind, 3,
     "execution failed: fused:proj:c.color: unknown operator kind 'nosuch'"),
    (_set_predicate, 3,
     "execution failed: fused:proj:c.color: "
     "bad expression encoding: {'bogus': 1}"),
    (_drop_prop, 3,
     "execution failed: fused:proj:c.color: missing param 'prop'"),
    (lambda plan: _step(plan, "vobj_filter")["params"].update(
        predicate={"cmp": 5}), 3,
     "execution failed: fused:proj:c.color: "
     "bad params: 'int' object is not subscriptable"),
    (_set_max_age, 3,
     "execution failed: tracker:c: bad params: max_age must be positive"),
    (_set_comparison(op="~"), 3,
     "execution failed: fused:proj:c.color: "
     "unknown comparison operator '~'"),
    (_set_comparison(prop="speed", op="~", literal=5), 3,
     "execution failed: fused:proj:c.color: "
     "unknown comparison operator '~'"),
    (_set_comparison(op="<"), 3,
     "execution failed: fused:proj:c.color: '<' needs a number, got 'red'"),
    (_set_comparison(prop="speed", op=">=", literal=True), 3,
     "execution failed: fused:proj:c.color: '>=' needs a number, got True"),
    (_set_comparison(op="in"), 3,
     "execution failed: fused:proj:c.color: 'in' needs a list, got 'red'"),
    (_sink("duration", dict(DURATION, min_frames=0)), 3,
     "execution failed: sink: bad min_frames 0"),
    (_sink("duration", dict(DURATION, min_frames="x")), 3,
     "execution failed: sink: bad min_frames 'x'"),
    (_sink("duration", dict(DURATION, min_frames=2.5)), 3,
     "execution failed: sink: bad min_frames 2.5"),
    (_sink("duration", dict(DURATION, gap_tolerance=-1)), 3,
     "execution failed: sink: bad gap_tolerance -1"),
    (_sink("duration", {"min_frames": 3, "gap_tolerance": 0}), 3,
     "execution failed: sink: missing param 'query'"),
    (_sink("temporal", dict(TEMPORAL, max_interval="x")), 3,
     "execution failed: sink: bad max_interval 'x'"),
    (_sink("temporal", dict(TEMPORAL, max_interval=-4)), 3,
     "execution failed: sink: bad max_interval -4"),
    (_sink("aggregate", dict(AGGREGATE, part=3)), 3,
     "execution failed: sink: bad part 3"),
    (_sink("aggregate", dict(AGGREGATE, kind="sum")), 3,
     "execution failed: sink: bad kind 'sum'"),
    (_sink("aggregate", dict(AGGREGATE, binding="x")), 3,
     "execution failed: sink: bad binding 'x'"),
    (_sink("aggregate", AGGREGATE, inputs=[]), 2,
     "cannot load plan: op 'sink': kind 'aggregate' takes 1 input, not 0"),
    (_op("output", inputs=[]), 2,
     "cannot load plan: op 'output:reds': kind 'output' takes 1 input, "
     "not 0"),
    (_sink("temporal", TEMPORAL, inputs=["output:reds"]), 2,
     "cannot load plan: op 'sink': kind 'temporal' takes 2 inputs, not 1"),
    (_op("reader", inputs=["output:reds"]), 2,
     "cannot load plan: op 'reader': kind 'reader' takes 0 inputs, not 1"),
    (_op("output", inputs=["fused:proj:c.color"] * 2), 2,
     "cannot load plan: op 'output:reds': kind 'output' takes 1 input, "
     "not 2"),
    (_op("output", inputs=["nosuch"]), 2,
     "cannot load plan: op 'output:reds': input 'nosuch' names no op"),
    (lambda plan: plan.update(sink="nosuch"), 2,
     "cannot load plan: plan sink 'nosuch' names no op"),
    (lambda plan: plan.update(sink=5), 2,
     "cannot load plan: plan sink 5 is not a string"),
    (_op("output", inputs="fused:proj:c.color"), 2,
     "cannot load plan: op 'output:reds': inputs 'fused:proj:c.color' "
     "are not a list of op ids"),
    (lambda plan: plan.update(ops={o["op_id"]: o for o in plan["ops"]}), 2,
     "cannot load plan: plan ops are not a list of objects"),
    (lambda plan: plan.pop("query"), 2,
     "cannot load plan: plan query None is not a string"),
    (_op("output", params=[]), 2,
     "cannot load plan: op 'output:reds': params are not an object"),
    (_op("output", kind=None), 2,
     "cannot load plan: op 'output:reds': kind None is not a string"),
    (_op("detector", op_id=None), 2,
     "cannot load plan: op id None is not a string"),
    (_op("detector", inputs=["output:reds"]), 2,
     "cannot load plan: cycle through 'detector:c'"),
    (lambda plan: plan["ops"].append(plan["ops"][0]), 2,
     "cannot load plan: duplicate operator id 'detector:c'"),
    (_output_over_a_duration, 2,
     "cannot load plan: op 'after': input 'sink' makes no frames"),
    (_op("detector", params={}), 2,
     "cannot load plan: plan references unregistered detector None"),
], ids=["version-4", "version-5", "version-6", "unknown-kind", "unknown-step-kind",
        "bad-predicate", "missing-param", "predicate-not-an-object",
        "bad-tracker-config", "bad-op-string-prop", "bad-op-numeric-prop",
        "ordered-op-string", "ordered-op-bool", "in-without-list",
        "duration-min-frames-0", "duration-min-frames-text",
        "duration-min-frames-fraction", "duration-negative-gap",
        "duration-without-query", "temporal-max-interval-text",
        "temporal-negative-max-interval", "aggregate-part-out-of-range",
        "aggregate-kind-sum", "aggregate-binding-of-no-part",
        "aggregate-without-input", "output-without-input",
        "temporal-with-one-input", "reader-with-an-input",
        "output-with-two-inputs", "input-names-no-op", "sink-names-no-op",
        "sink-not-a-string", "inputs-a-string", "ops-an-object",
        "without-query", "params-not-an-object", "kind-not-a-string",
        "op-id-not-a-string", "cycle", "duplicate-op-id",
        "output-over-a-duration", "detector-without-a-name"])
def test_edited_plan_file(runner, workspace, edit, code, message):
    result = _edited_run(runner, workspace, edit)
    assert result.exit_code == code
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stderr == message + "\n"


@pytest.mark.parametrize("kind, params, key, value", [
    ("duration", DURATION, "duration_fires", None),
    ("temporal", TEMPORAL, "temporal", None),
    ("aggregate", AGGREGATE, "video", {"aggregate": "count_distinct",
                                       "binding": "c", "value": 1,
                                       "per_track": {"1": {
                                           "true": 20, "false": 0,
                                           "undefined": 0}}}),
])
def test_edited_plan_file_with_a_good_sink_runs(runner, workspace, kind,
                                                params, key, value):
    result = _edited_run(runner, workspace, _sink(kind, params))
    assert result.exit_code == 0, result.output
    obj = json.loads(result.stdout)
    assert key in obj
    if value is not None:
        assert obj[key] == value


def test_a_bad_sink_fails_before_any_frame_is_read(runner, workspace):
    broken = _broken_trace(workspace)
    result = _edited_run(runner, workspace, lambda plan: None, broken)
    assert result.exit_code == 3
    assert "broken.jsonl:1: bad record" in result.stderr
    for edit, message in [
        (_sink("duration", dict(DURATION, min_frames=0)),
         "sink: bad min_frames 0"),
        (lambda plan: plan.update(sink="detector:c"),
         "detector:c: kind 'detector' is not a sink"),
        (_sink("temporal", TEMPORAL, inputs=["detector:c", "output:reds"]),
         "detector:c: kind 'detector' is not a sink"),
        (_sink("duration", DURATION, inputs=["detector:c"]),
         "detector:c: kind 'detector' is not a sink"),
    ]:
        result = _edited_run(runner, workspace, edit, broken)
        assert result.exit_code == 3
        assert result.stderr == f"execution failed: {message}\n"


# a spatial query whose plan holds a relation projector and filter
SPATIAL_PROGRAM = NEAR_PROGRAM.replace('impl="nosuch"', 'impl="distance_px"')


def _drop(kind, param):
    """Remove `param` from the params of the plan's op of kind `kind`."""
    return lambda plan: next(o for o in plan["ops"]
                             if o["kind"] == kind)["params"].pop(param)


def _set(kind, **params):
    """Set `params` of the plan's op of kind `kind`."""
    return lambda plan: next(o for o in plan["ops"]
                             if o["kind"] == kind)["params"].update(params)


def _set_step(kind, **params):
    """Set `params` of the plan's fused step of kind `kind`."""
    return lambda plan: _step(plan, kind)["params"].update(params)


def _set_tracker_config(**fields):
    """Set `fields` of the config of the plan's tracker op."""
    return lambda plan: next(o for o in plan["ops"] if o["kind"] == "tracker"
                             )["params"]["config"].update(fields)


NOISE = "noise scales must be positive and finite"
# JSON reads Infinity, NaN and true where a number is due
TRACKER_CONFIGS = [
    ("process_noise", math.inf, NOISE),
    ("process_noise", math.nan, NOISE),
    ("process_noise", True, NOISE),
    ("measurement_noise", -math.inf, NOISE),
    ("max_age", True, "max_age must be an int"),
    ("max_age", 2.5, "max_age must be an int"),
]


def _cmp(binding, prop, relation=None, args=None, op="==", literal="red"):
    """A comparison as a saved plan encodes it."""
    return {"cmp": {"binding": binding, "prop": prop, "relation": relation,
                    "args": args, "op": op, "literal": literal}}


NEAR_CMP = _cmp(None, "distance_px", "Near", ["c", "b"], "<", 500)


def _link_failure(runner, workspace, edit, query):
    """The run of `query`'s saved plan, edited, over a trace whose first
    line does not parse."""
    program = workspace["dir"] / "spatial.vq"
    program.write_text(SPATIAL_PROGRAM)
    return _edited_run(runner, workspace, edit, _broken_trace(workspace),
                       str(program), query)


@pytest.mark.parametrize("query, kind, param, op_id", [
    ("reds", "tracker", "config", "tracker:c"),
    ("reds_near_blues", "relation_filter", "args", "relfilter:Near"),
    ("reds_near_blues", "relation_projector", "bound", "relproj:Near"),
    ("reds", "output", "frame_output", "output:reds"),
], ids=["tracker-config", "relation-filter-args", "relation-projector-bound",
        "output-frame-output"])
def test_saved_plan_without_a_param_the_planner_writes_exit_3(
        runner, workspace, query, kind, param, op_id):
    """The planner always writes these params, so linking reads each as
    required, before any frame is read."""
    result = _link_failure(runner, workspace, _drop(kind, param), query)
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stderr == \
        f"execution failed: {op_id}: missing param {param!r}\n"


@pytest.mark.parametrize("query, edit, message", [
    ("reds", _set("tracker", vobj=None), "tracker:c: bad vobj None"),
    ("reds", _set("tracker", vobj=[]), "tracker:c: bad vobj []"),
    ("reds", _set("tracker", vobj="Truck"),
     "the program declares no type 'Truck'"),
    ("reds", _set("detector", vobj=None), "detector:c: bad vobj None"),
    ("reds", _set("detector", vobj=[]), "detector:c: bad vobj []"),
    ("reds", _set("output", bindings=True), "output:reds: bad bindings True"),
    ("reds", _set("output", bindings=[]), "output:reds: bad bindings []"),
    ("reds", _set("output", bindings=[0]), "output:reds: bad bindings [0]"),
    ("reds", _set("output", frame_output="p0"),
     "output:reds: bad frame_output 'p0'"),
    ("reds", _set("output", frame_output=1e300),
     "output:reds: bad frame_output 1e+300"),
    ("reds", _set("output", frame_output=[{"binding": "x",
                                           "prop": "direction"}]),
     "output:reds: bad frame_output [{'binding': 'x', 'prop': 'direction'}]"),
    ("reds_near_blues", _set("relation_filter", args=["c"]),
     "relfilter:Near: bad args ['c']"),
    ("reds", _set_step("projector", prop=[]), "fused:proj:c.color: bad prop []"),
    ("reds", _set("output", query=5), "output:reds: bad query 5"),
    ("reds", _set_comparison(binding="x"),
     "fused:proj:c.color: bad predicate reference 'x.color'"),
    ("reds", _set_comparison(binding=None, relation="Near", args=["c", "b"]),
     "fused:proj:c.color: bad predicate reference 'Near.color'"),
    ("reds", _set_comparison(prop=["color"]),
     "fused:proj:c.color: bad predicate reference \"c.['color']\""),
    ("reds", _set_step("vobj_filter", binding=5),
     "fused:proj:c.color: bad binding 5"),
    ("reds", _sink("aggregate", dict(AGGREGATE, predicate=_cmp("x", "color"))),
     "sink: bad predicate reference 'x.color'"),
    ("reds", _sink("aggregate", dict(AGGREGATE, predicate=NEAR_CMP)),
     "sink: bad predicate reference 'Near.distance_px'"),
    ("reds_near_blues",
     _set("relation_filter", predicate={"and": [NEAR_CMP, _cmp("x", "color")]}),
     "relfilter:Near: bad predicate reference 'x.color'"),
    ("reds_near_blues", _set("relation_projector", props=[]),
     "relproj:Near: bad props []"),
    ("reds", _op("tracker", inputs=["reader"]),
     "tracker:c: an input's frame graphs hold 0 parts, not 1"),
    ("reds", _op("fused", inputs=["reader"]),
     "fused:proj:c.color: an input's frame graphs hold 0 parts, not 1"),
    ("reds_near_blues", _op("relation_projector", inputs=["fused:proj:c.color"]),
     "relproj:Near: an input's frame graphs hold 1 parts, not 2"),
    ("reds_near_blues", _op("output", inputs=["fused:proj:c.color"]),
     "output:reds_near_blues: an input's frame graphs hold 1 parts, not 2"),
    ("reds", lambda plan: _step(plan, "projector").update(
        kind="join", params={}),
     "fused:proj:c.color: kind 'join' is not a fused step"),
    *[("reds", _set_tracker_config(**{field: value}),
       f"tracker:c: bad params: {message}")
      for field, value, message in TRACKER_CONFIGS],
], ids=["tracker-vobj-null", "tracker-vobj-empty", "tracker-vobj-undeclared",
        "detector-vobj-null", "detector-vobj-empty", "output-bindings-true",
        "output-bindings-empty", "output-bindings-number",
        "output-frame-output-string", "output-frame-output-number",
        "output-frame-output-of-no-binding", "relation-filter-one-arg",
        "projector-prop-list", "output-query-number",
        "filter-reference-of-another-binding", "filter-relation-reference",
        "filter-reference-prop-list", "filter-binding-number",
        "aggregate-reference-of-another-binding",
        "aggregate-relation-reference", "relation-filter-reference-of-no-arg",
        "relation-projector-props-list", "tracker-over-the-reader",
        "filter-over-the-reader", "relation-projector-over-one-branch",
        "output-over-one-branch", "fused-join-step",
        *[f"tracker-{field.replace('_', '-')}-{value}"
          for field, value, _m in TRACKER_CONFIGS]])
def test_saved_plan_param_checked_when_the_pass_links(runner, workspace,
                                                      query, edit, message):
    result = _link_failure(runner, workspace, edit, query)
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stderr == f"execution failed: {message}\n"


SCENE_PROGRAM = PROGRAM + """
query busy_reds {
  bind s: Scene
  bind c: Car
  frame_constraint: s.motion_score >= 0.5 & c.color == "red"
}
"""


@pytest.mark.parametrize("param", ["mode", "op", "threshold"])
def test_saved_frame_filter_without_a_param_the_planner_writes_exit_3(
        runner, workspace, param):
    """The planner writes these three for a scene filter as for a gate, so
    linking reads each as required, before any frame is read."""
    program = workspace["dir"] / "scene.vq"
    program.write_text(SCENE_PROGRAM)
    world = WorldSpec(meta=meta_1000(20), seed=11, objects=[
        car(1, 0, 19, (100.0, 200.0), velocity=(3.0, 0.0)),
    ], channels={"motion_score": [1.0] * 20})
    scene = dict(workspace,
                 trace=str(write_world(world, workspace["dir"] / "s")["trace"]))
    result = _edited_run(runner, scene, _drop("frame_filter", param),
                         _broken_trace(scene), str(program), "busy_reds")
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stderr == \
        f"execution failed: scene_filter:0: missing param {param!r}\n"


MINE_PROGRAM = PROGRAM.replace(
    '  property color: stateless(impl="attr:color") intrinsic\n',
    '  property color: stateless(impl="attr:color") intrinsic\n'
    '  property mine: stateless(impl="myfn")\n',
) + """
query greens {
  bind c: Car
  frame_constraint: c.color == "green" & c.mine == 1
}
"""

GATE = {"name": "busy", "kind": "frame_filter", "auto": True,
        "channel": "motion_score", "op": ">=", "threshold": 1}

# a manifest detector is the one the program's Car names (see below)
MY_CAR = {"name": "my_car", "kind": "detector", "classes": ["car"]}
# a zero-error classifier of Car gates its detector
HAS_CAR = {"name": "has_car", "kind": "classifier", "vobj": "Car",
           "target_class": "car"}


@pytest.mark.parametrize("command, flags, prefix", [
    ("run", [], "execution failed: "),
    ("run", ["--no-lazy"], "execution failed: "),
    ("profile", [], "profiling failed: "),
], ids=["run", "run-no-lazy", "profile"])
@pytest.mark.parametrize("frames", [20, 0], ids=["frames", "empty"])
@pytest.mark.parametrize("source, query, registration, named", [
    # no frame demands `mine` with lazy evaluation on: no car is green
    (MINE_PROGRAM, "greens",
     {"name": "myfn", "kind": "property_fn", "impl": "nope"},
     "Car.mine: property function 'myfn' names no implementation 'nope'"),
    (PROGRAM, "reds", dict(GATE, op="~"), "bad op '~'"),
    (PROGRAM, "reds", dict(GATE, threshold="high"), "bad threshold 'high'"),
    (PROGRAM, "reds", dict(GATE, mode="bogus"), "bad mode 'bogus'"),
    (PROGRAM, "reds", dict(MY_CAR, score_threshold="high"),
     "detector my_car: bad score_threshold 'high'"),
    (PROGRAM, "reds", dict(MY_CAR, score_threshold=float("nan")),
     "detector my_car: bad score_threshold nan"),
    (PROGRAM, "reds", dict(MY_CAR, classes=5),
     "detector my_car: bad classes 5"),
    (PROGRAM, "reds", dict(MY_CAR, classes="car"),
     "detector my_car: bad classes 'car'"),
    (PROGRAM, "reds", dict(MY_CAR, requires_attrs=["x"]),
     "detector my_car: bad requires_attrs ['x']"),
    (PROGRAM, "reds", dict(HAS_CAR, target_class=5),
     "classifier has_car: bad target_class 5"),
    (PROGRAM, "reds", dict(HAS_CAR, requires_attrs=["x"]),
     "classifier has_car: bad requires_attrs ['x']"),
], ids=["impl", "gate-op", "gate-threshold", "gate-mode",
        "detector-threshold", "detector-threshold-nan", "detector-classes",
        "detector-classes-string", "detector-attrs", "classifier-target",
        "classifier-attrs"])
def test_bad_registration_exit_3_before_any_frame(
        runner, workspace, command, flags, prefix, frames, source, query,
        registration, named):
    ws = workspace["dir"]
    program = ws / "bad.vq"
    if registration["kind"] == "detector":
        source = source.replace('detector: "general_car"',
                                f'detector: "{registration["name"]}"')
    program.write_text(source)
    manifest = ws / "bad.json"
    manifest.write_text(json.dumps({"registrations": [registration]}))
    meta = meta_1000(20)
    world = WorldSpec(meta=meta, seed=11, objects=[
        car(1, 0, 19, (100.0, 200.0), velocity=(3.0, 0.0)),
    ], channels={"motion_score": [2.0] * 20})
    trace = write_world(world, ws / "gated")["trace"]
    if not frames:
        trace.write_text("")
    result = runner.invoke(main, [
        command, "-p", str(program), "-q", query, "--trace", str(trace),
        "--meta", workspace["meta"], "--registry", str(manifest), *flags,
    ])
    assert result.exit_code == 3, result.output
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stdout == ""
    assert result.stderr.startswith(prefix)
    assert named in result.stderr
    assert result.stderr.count("\n") == 1


class TestProfile:
    def test_report_and_saved_plan(self, runner, workspace, tmp_path):
        manifest = tmp_path / "reg.json"
        manifest.write_text(json.dumps({"registrations": [{
            "name": "red_car", "kind": "detector", "classes": ["car"],
            "requires_attrs": {"color": "red"},
            "specializes": "Car", "subsumes": {"color": "red"},
        }]}))
        plan_path = tmp_path / "plan.json"
        result = runner.invoke(main, [
            "profile", "-p", workspace["program"], "-q", "reds",
            "--trace", workspace["trace"], "--meta", workspace["meta"],
            "--registry", str(manifest), "--save-plan", str(plan_path),
        ])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert len(report["candidates"]) == 2
        assert report["fallback"] is False
        # the error-free specialized detector ties on F1 and wins on cost
        saved = json.loads(plan_path.read_text())
        detectors = [o["params"]["detector"] for o in saved["ops"]
                     if o["kind"] == "detector"]
        assert detectors == ["red_car"]


    def canary_args(self, ws, *extra):
        return ["profile", "-p", ws["program"], "-q", "reds",
                "--trace", ws["trace"], "--meta", ws["meta"], *extra]

    def replace_line(self, ws, index, edit):
        lines = open(ws["trace"]).read().splitlines()
        lines[index] = edit(lines[index])
        with open(ws["trace"], "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def test_unknown_query_exit_1(self, runner, workspace):
        args = self.canary_args(workspace)
        args[args.index("reds")] = "ghost"
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.stderr == "unknown query 'ghost'\n"

    def test_bad_line_past_the_canary_is_never_read(self, runner, workspace):
        self.replace_line(workspace, 15, lambda line: line[:20])  # frame 15
        result = runner.invoke(main, self.canary_args(
            workspace, "--canary-frames", "10"))
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout)["selected"]
        result = runner.invoke(main, self.canary_args(workspace))
        assert result.exit_code == 3

    def test_bad_line_right_after_the_canary_is_never_read(self, runner,
                                                           workspace):
        args = self.canary_args(workspace, "--canary-frames", "10")
        intact = runner.invoke(main, args)
        assert intact.exit_code == 0, intact.output
        self.replace_line(workspace, 10, lambda line: line[:20])  # frame 10
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert result.stdout == intact.stdout
        result = runner.invoke(main, TestRun().args(workspace))
        assert result.exit_code == 3

    def test_bad_line_inside_the_canary_exit_3(self, runner, workspace):
        self.replace_line(workspace, 5, lambda line: line[:20])  # frame 5
        result = runner.invoke(main, self.canary_args(
            workspace, "--canary-frames", "10"))
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.stderr.startswith("profiling failed: ")
        assert "trace.jsonl:6: bad record" in result.stderr
        assert result.stderr.count("\n") == 1

    def test_box_outside_the_frame_inside_the_canary_exit_3(self, runner,
                                                            workspace):
        def widen(line):
            rec = json.loads(line)
            rec["dets"][0]["bbox"][2] = 1200.0  # the frame is 1000 px wide
            return json.dumps(rec)

        self.replace_line(workspace, 5, widen)
        result = runner.invoke(main, self.canary_args(
            workspace, "--canary-frames", "10"))
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.stderr.startswith("profiling failed: ")
        assert "outside resolution" in result.stderr
        assert result.stderr.count("\n") == 1

class TestSynth:
    def test_renders_world(self, runner, workspace):
        out_dir = workspace["dir"] / "rendered"
        result = runner.invoke(main, [
            "synth", "-w", workspace["world"], "-o", str(out_dir),
        ])
        assert result.exit_code == 0
        assert (out_dir / "trace.jsonl").exists()
        assert (out_dir / "meta.json").exists()
        assert (out_dir / "gt.jsonl").exists()
        # rendered trace matches the fixture rendered from the same world
        assert (out_dir / "trace.jsonl").read_bytes() == \
            (workspace["dir"] / "w" / "trace.jsonl").read_bytes()

    @pytest.mark.parametrize("edit, named", [
        (lambda w: w["meta"].update(fps=None),
         "must be a string or a real number"),
        (lambda w: w["objects"][0].update(velocity=None),
         "'NoneType' object is not iterable"),
        (lambda w: [w], "list indices must be integers"),
        (lambda w: w.update(channels=[]), "channels [] is not an object"),
        (lambda w: w["objects"][0].update(start_center=[1]),
         "start_center [1] is not a pair of finite numbers"),
        (lambda w: w.update(channels={"g": "ab"}),
         "channel 'g' 'ab' is not a list of finite numbers"),
        (lambda w: w["objects"][0].update(turn_frame="x",
                                          turn_velocity=[1, 0]),
         "turn_frame 'x' is not a finite number"),
        (lambda w: w["objects"][0].update(score=2),
         "score 2 is not a number in [0, 1]"),
        (lambda w: w["objects"][0].update(score=True),
         "score True is not a number in [0, 1]"),
        (lambda w: w["objects"][0].update({"class": 5}),
         "class 5 is not a string"),
    ], ids=["fps-null", "velocity-null", "list", "channels-list",
            "start-center-single", "channel-string", "turn-frame-string",
            "score-above-1", "score-bool", "class-number"])
    def test_world_of_the_wrong_shape_exit_1(self, runner, workspace, edit,
                                             named):
        world = json.loads(Path(workspace["world"]).read_text())
        world = edit(world) or world
        bad = workspace["dir"] / "bad-world.json"
        bad.write_text(json.dumps(world))
        result = runner.invoke(main, [
            "synth", "-w", str(bad), "-o", str(workspace["dir"] / "out"),
        ])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)  # not a traceback
        assert result.stderr.startswith("bad world file: ")
        assert named in result.stderr
        assert result.stderr.count("\n") == 1

    def test_bad_world_exit_1(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        result = runner.invoke(main, [
            "synth", "-w", str(bad), "-o", str(tmp_path / "out"),
        ])
        assert result.exit_code == 1

"""CLI surface: exit codes, result files, and run-to-run determinism."""

import hashlib
import json

import pytest
from click.testing import CliRunner

from vidquery.cli import main
from vidquery.synth import WorldSpec, write_world

from conftest import CAR_PROGRAM, car, meta_1000

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

    def test_unknown_query_exit_2(self, runner, workspace):
        result = runner.invoke(main, [
            "explain", "-p", workspace["program"], "-q", "nope",
        ])
        assert result.exit_code == 2


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

    def test_unknown_query_exit_1(self, runner, workspace):
        result = runner.invoke(main, self.args(workspace)[:-1] + ["ghost"])
        assert result.exit_code == 1

    def test_opt_flags_do_not_change_results(self, runner, workspace):
        texts = []
        for i, flags in enumerate([
            (), ("--no-memo", "--no-lazy", "--no-pullup", "--no-fusion"),
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
        assert entry.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("command, flag, value", [
    ("run", "--batch-size", "0"),
    ("profile", "--batch-size", "0"),
    ("run", "--accuracy-target", "2"),
    ("profile", "--accuracy-target", "-1"),
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

    def test_bad_world_exit_1(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        result = runner.invoke(main, [
            "synth", "-w", str(bad), "-o", str(tmp_path / "out"),
        ])
        assert result.exit_code == 1

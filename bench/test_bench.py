"""The benchmark's own tests, on its tiny smoke sizes.

    python -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# every workload loads these; the others are loaded where named below
LOADED_EVERYWHERE = {
    "dsl.parse", "dsl.validate", "planner.plan", "trace_io.parse",
    "registry.detector", "registry.property", "tracker.step",
    "operators.detector", "operators.tracker", "operators.projector",
    "operators.vobj_filter", "operators.fused", "operators.output",
    "operators.aggregate", "executor.run", "executor.finalize",
    "executor.cache_get", "executor.trace_digest",
}
LOADED_BY = {
    "dense": {"executor.cache_put"},
    "mixed": {"registry.relation", "operators.join",
              "operators.relation_projector", "operators.relation_filter",
              "executor.cache_put"},
    "gated_profile": {"planner.enumerate", "planner.profile", "planner.select",
                      "operators.frame_filter"},
}


def bench(*args, cwd=BENCH.parent):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170, check=False,
    )


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: v["unit"] for n, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_benchmark_json_names_what_the_run_prints():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        tracing.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_layer_records_spans_where_it_is_loaded(workload, tmp_path):
    runner = run.Runner(workloads.build(workload, 5, smoke=True), tmp_path)
    runner.rep()  # first repetition warms what the cached re-run reads
    tr = tracing.Tracer()
    uninstall = tracing.install(tr)
    try:
        run.run_setup(runner.wl, runner.meta)
        runner.rep(tr)
    finally:
        uninstall()
    recorded = set(tr.layer_times())
    assert LOADED_EVERYWHERE | LOADED_BY[workload] <= recorded
    assert runner.tally.correct, runner.tally.failures


def test_wrappers_reach_every_call_site_and_come_off():
    before = tracing.unwrapped_references()
    assert "vidquery.executor.open_trace (trace_io.parse)" in before
    assert "vidquery.operators.apply_detector (registry.detector)" in before
    uninstall = tracing.install(tracing.Tracer())
    try:
        assert tracing.unwrapped_references() == []
    finally:
        uninstall()
    assert tracing.unwrapped_references() == before


def test_checks_count_once_however_many_repetitions(tmp_path):
    runner = run.Runner(workloads.build("dense", 5, smoke=True), tmp_path)
    runner.rep()
    attempted = runner.tally.attempted
    runner.rep()
    runner.rep()
    assert runner.tally.attempted == attempted
    runner.tally.check("q", "check", True)
    runner.tally.check("q", "check", False, "broke once")
    runner.tally.check("q", "check", True)
    assert runner.tally.attempted == attempted + 1
    assert [f["detail"] for f in runner.tally.failures] == ["broke once"]


def test_host_clock_scales_by_the_bracketing_calibrations(monkeypatch):
    loops = iter([0.02, 0.04, 0.06])
    monkeypatch.setattr(run, "calibrate", lambda: next(loops))
    clock = run.HostClock()
    assert clock.lap() == pytest.approx(run.REF_CALIBRATION_S / 0.03)
    assert clock.lap() == pytest.approx(run.REF_CALIBRATION_S / 0.05)
    assert clock.host_speed() == pytest.approx(run.REF_CALIBRATION_S / 0.04)


def test_self_time_excludes_child_spans():
    tr = tracing.Tracer()
    outer = tr.begin("outer")
    inner = tr.begin("inner")
    tr.end(inner)
    tr.end(outer)
    times = tr.layer_times()
    (i_sid, _t, i_parent, *_r), (o_sid, *_o) = tr.spans
    assert i_parent == o_sid
    assert times["outer"]["self_s"] == pytest.approx(
        times["outer"]["total_s"] - times["inner"]["total_s"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_inputs_come_from_the_seed(workload, tmp_path):
    from vidquery import synth, trace_io

    def trace_bytes(seed, name):
        path = tmp_path / name
        trace_io.write_trace(
            synth.generate(workloads.build(workload, seed, True).world), path)
        return path.read_bytes()

    assert trace_bytes(7, "a") == trace_bytes(7, "b")
    assert trace_bytes(7, "a") != trace_bytes(8, "c")
    a, b = (workloads.build(workload, s).shape() for s in (7, 8))
    for key in ("frames", "queries", "alternatives"):
        assert a[key] == b[key]
    assert a["alive_mean"] == pytest.approx(b["alive_mean"], rel=0.05)


def test_stops_without_a_result_when_the_engine_is_absent(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "dense", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

#!/usr/bin/env python3
"""vidquery benchmark: run one seeded workload, check its outputs, and print
every metric by name and unit.

    python3 bench/run.py --workload dense --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20   # each in its own process
    python3 bench/run.py --workload mixed --smoke      # tiny sizes, seconds

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--trace 0` gives the
end-to-end metrics.  `--trace 1` alternates untraced repetitions with traced
ones (see bench/tracing.py) and gives the per-layer metrics, including the
traced against the untraced throughput.  The full report, with the host it
ran on, is written to .bench_out/BENCH_<workload>[_trace].json, and the
spans of the last traced repetition to .bench_out/SPANS_<workload>.json.

A repetition is the workload's main call followed by re-runs served from a
warm result store.  The main call is Session.run over every plan, writing
into a fresh result store, or for `gated_profile` planner.profile plus
select_plan.  Set-up (parse, validate, registry, planning) is timed on its
own, several times.  Every timing is a median over the samples of one run,
each preceded by gc.collect().

Timings are scaled to a host of fixed speed (see HostClock): the shared
vCPUs this benchmark was defined on drift by up to 1.6x within a minute,
in CPU time as much as in wall time, so raw medians of two runs of the same
code differ by more than any bound.  Each repetition (set-up samples, main
call, cached re-runs) is bracketed by a fixed calibration loop, and its
timings are scaled by REF_CALIBRATION_S over the loop's time there.  The raw wall-clock figures are printed and kept in the report
too (`wall_*`, `host_speed`).

The engine is imported from src/ next to this directory; without it the run
stops with a non-zero exit code before printing a result.
"""

from __future__ import annotations

import os

# one thread per workload process; must precede the numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("dense", "mixed", "gated_profile")
MIN_REPS = 3
SETUP_SHARE = 0.1  # of the measuring time spent timing set-up
SETUP_REPS = 3  # at least, between two repetitions
CACHED_SHARE = 0.2  # of a main call's time spent on cached re-runs after it
# calibrate() takes this long, as a median, on the 2-vCPU Intel Xeon
# (Python 3, numpy, one thread) the benchmark was defined on
REF_CALIBRATION_S = 0.065

END_TO_END = {
    "frames_per_s": "frames/s",
    "cost_units": "units",
    "selected_cost_units": "units",
    "setup_s": "s",
    "cached_run_s": "s",
    "peak_rss_mb": "MB",
}


def import_engine() -> None:
    """Put this checkout's src/ first on the path and check that vidquery
    comes from there."""
    if not (SRC / "vidquery" / "__init__.py").is_file():
        sys.exit(f"bench: no engine source under {SRC}")
    sys.path.insert(0, str(SRC))
    import vidquery

    if Path(vidquery.__file__).resolve().parent != SRC / "vidquery":
        sys.exit(f"bench: vidquery imported from {vidquery.__file__}")


import_engine()

import numpy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from vidquery import dsl, executor, planner, synth, trace_io  # noqa: E402


def environment() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class _Box:
    __slots__ = ("x", "y", "tag")

    def __init__(self, x, y, tag):
        self.x, self.y, self.tag = x, y, tag


_CALIBRATION_JSON = json.dumps([
    {"frame": i, "detections": [
        {"bbox": [i * 0.5, i * 0.25, i + 40.0, i + 30.0], "class": "car",
         "score": 0.9, "attrs": {"color": "red"}}] * 3}
    for i in range(200)])


def calibrate() -> float:
    """Seconds of a fixed calibration loop.  It does not touch the engine
    but does the kinds of work the engine's time goes to: float and dict
    arithmetic, small numpy arrays, building, grouping and sorting many
    small dicts and objects, and JSON parsing.  A single tight loop
    followed the host's speed on the main calls less well than this mix
    (over 12-second windows of `mixed`, their ratio moved about twice as
    much).  It works in small rounds, so that it adds nothing to the
    process's peak RSS."""
    gc.collect()
    t0 = time.perf_counter()
    total = 0.0
    vec = numpy.arange(64.0)
    for _round in range(6):
        table: dict = {}
        for i in range(5000):
            key = i % 97
            table[key] = table.get(key, 0.0) + i * 0.5
            total += abs(i - 3.0) * 1.0001
        for _ in range(250):
            total += float((vec * 1.5).sum())
        rows = [{"frame": i, "bbox": (i * 0.5, i * 0.25, i + 40.0, i + 30.0),
                 "label": "car" if i % 3 else "person", "score": i % 7 / 7}
                for i in range(2000)]
        for row in rows:
            if row["label"] == "car":
                total += row["bbox"][2] - row["bbox"][0]
        rows.sort(key=lambda row: (row["score"], -row["frame"]))
        groups: dict = {}
        for i in range(2500):
            groups.setdefault(i % 13, []).append(_Box(i * 1.0, i * 2.0,
                                                      i % 13))
        total += sum(b.x * b.y for group in groups.values() for b in group)
        total += len(json.loads(_CALIBRATION_JSON))
    return time.perf_counter() - t0


class HostClock:
    """Scales timings to a host on which calibrate() takes
    REF_CALIBRATION_S.

    `lap()` runs the calibration loop and returns the factor for the
    timings taken since the previous lap: REF_CALIBRATION_S over the mean
    of the loop's time at both ends.  On the host the benchmark was defined
    on, the median main-call time over 12-18-second windows moved by 1.6x
    while its ratio to the bracketing loops moved by a few percent."""

    def __init__(self):
        self.calibrations = [calibrate()]

    def lap(self) -> float:
        self.calibrations.append(calibrate())
        return REF_CALIBRATION_S / statistics.fmean(self.calibrations[-2:])

    def host_speed(self) -> float:
        """How fast the host ran against the reference, as a median."""
        return REF_CALIBRATION_S / statistics.median(self.calibrations)


@dataclass
class Tally:
    """Checks made on query outputs, keyed by query and check.  A check
    made in every repetition counts once and fails if it failed once, so
    `attempted` depends on the workload and seed, not on how many
    repetitions the time allowed.  A query that raises ends the run without
    a result."""

    results: dict = field(default_factory=dict)  # key -> failure or None

    def check(self, query: str, what: str, ok: bool, detail: str = "",
              known: str = "") -> None:
        key = (query, what)
        if key not in self.results or (not ok and self.results[key] is None):
            self.results[key] = None if ok else {
                "query": query, "check": what, "detail": detail,
                "known_defect": known}

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> list:
        return [f for f in self.results.values() if f is not None]

    @property
    def correct(self) -> bool:
        """No failure other than the named known defects."""
        return all(f["known_defect"] for f in self.failures)


@dataclass
class Setup:
    vprog: object
    registry: object
    config: object
    dags: list


def run_setup(wl, meta) -> Setup:
    """parse + validate + registry build + planning."""
    vprog = dsl.validate(dsl.parse(wl.program, file=f"{wl.name}.vq"),
                         file=f"{wl.name}.vq")
    registry = wl.build_registry()
    config = planner.PlannerConfig(accuracy_target=workloads.ACCURACY_TARGET)
    if wl.profiled:
        (query,) = wl.queries
        dags = planner.enumerate_alternatives(vprog, query, registry, config,
                                              meta)
    else:
        dags = [planner.plan_query(vprog, q, registry, config, meta)
                for q in wl.queries]
    return Setup(vprog, registry, config, dags)


def run_plans(st: Setup, meta, dags, trace, store=None):
    """One session: the seconds it took, a digest of each result file's
    bytes (kept instead of the bytes, so that peak RSS stays the engine's),
    the outcomes and the session's stats.  The digests are the benchmark's
    check and are made after the clock stops."""
    t0 = time.perf_counter()
    session = executor.Session(st.vprog, st.registry, meta)
    outcomes = session.run(dags, trace, result_store=store)
    seconds = time.perf_counter() - t0
    digests = [hashlib.sha256(executor.serialize_outcome(o).encode()).hexdigest()
               for o in outcomes]
    return seconds, digests, outcomes, session.stats


@dataclass
class MainResult:
    seconds: float  # of the main call alone
    cost_units: float
    selected_cost_units: float
    digests: list  # of the result files, or of each profile report
    selected: object = None  # plan chosen by select_plan
    fell_back: bool = False
    reports: list = field(default_factory=list)


def main_call(wl, st: Setup, meta, trace, store) -> MainResult:
    if not wl.profiled:
        seconds, digests, _outcomes, stats = run_plans(st, meta, st.dags,
                                                       trace, store)
        return MainResult(seconds, stats.cost_units, stats.cost_units, digests)
    t0 = time.perf_counter()
    reports = planner.profile(st.dags, trace, meta, st.vprog, st.registry,
                              st.config)
    selected, fell_back = planner.select_plan(st.dags, reports, st.config)
    seconds = time.perf_counter() - t0
    # profile runs the reference plan (st.dags[0]) once before scoring every
    # candidate; that session costs what reports[0] records
    cost = reports[0].cost_units + sum(r.cost_units for r in reports)
    chosen = next(r for r in reports if r.plan_id == selected.plan_id)
    digests = [hashlib.sha256(json.dumps(
        [r.plan_id, r.f1, r.cost_units, r.op_count, r.breakdown],
        sort_keys=True).encode()).hexdigest() for r in reports]
    return MainResult(seconds, cost, chosen.cost_units, digests, selected,
                      fell_back, reports)


def _diff(expected, actual) -> str:
    if expected == actual:
        return ""
    if isinstance(expected, list) and isinstance(actual, list):
        at = next((i for i, (e, a) in enumerate(zip(expected, actual))
                   if e != a), min(len(expected), len(actual)))
        return (f"{len(actual)} values against {len(expected)} expected, "
                f"first difference at index {at}: "
                f"{actual[at:at + 3]} against {expected[at:at + 3]}")
    return f"got {actual!r}, expected {expected!r}"


class Runner:
    """One workload in one process: its inputs, set-up, repetitions and
    output checks."""

    def __init__(self, wl, work_dir: Path):
        self.wl = wl
        self.meta = wl.world.meta
        self.work_dir = work_dir
        self.tally = Tally()
        self.trace = work_dir / "trace.jsonl"
        t0 = time.perf_counter()
        trace_io.write_trace(
            (synth.render_frame(wl.world, f) for f in range(wl.frames)),
            self.trace)
        self.generate_s = time.perf_counter() - t0
        self.setup = run_setup(wl, self.meta)
        self.first: MainResult | None = None
        self.cached_plans: list = []
        # what cached re-runs read: the last main call's store, or for
        # profiled workloads one warmed by the selected plan
        self.cached_store = None
        self.cached_digests: list = []
        self._stores = 0

    def fresh_store(self):
        shutil.rmtree(self.work_dir / f"store{self._stores}",
                      ignore_errors=True)
        self._stores += 1
        return executor.ResultStore(self.work_dir / f"store{self._stores}")

    def check_oracle(self) -> None:
        """Untimed: the reference plans' answers against the world."""
        wl = self.wl
        dags = self.setup.dags[:1] if wl.profiled else self.setup.dags
        _s, _digests, outcomes, _stats = run_plans(self.setup, self.meta,
                                                   dags, self.trace)
        by_query = {dag.query: o for dag, o in zip(dags, outcomes)}
        for chk in wl.checks:
            expected = chk.expected()
            actual = chk.actual(by_query[chk.query])
            known = ""
            if expected != actual and chk.known_defect is not None:
                under_defect, described = chk.known_defect()
                if described and actual == under_defect:
                    known = described
            self.tally.check(chk.query, f"oracle: {chk.what}",
                             expected == actual, _diff(expected, actual),
                             known)

    def rep(self, tr=None) -> tuple[float, float]:
        """One repetition: (main call seconds, cached re-run seconds)."""
        return self.main(tr), self.cached(tr)

    def main(self, tr=None) -> float:
        """The main call into a fresh result store, checked; its seconds."""
        store = None if self.wl.profiled else self.fresh_store()
        if tr is not None:
            tr.new_trace()
        gc.collect()
        result = main_call(self.wl, self.setup, self.meta, self.trace, store)
        self._check_main(result)
        if not self.wl.profiled:
            self.cached_store, self.cached_digests = store, result.digests
        return result.seconds

    def cached(self, tr=None) -> float:
        """A re-run of the cached plans from the store the last main call
        wrote (for `gated_profile`, the store warmed once), checked; its
        seconds."""
        wl, tally = self.wl, self.tally
        if tr is not None:
            tr.new_trace()
        gc.collect()
        cached_s, digests, _outcomes, stats = run_plans(
            self.setup, self.meta, self.cached_plans, self.trace,
            self.cached_store)
        for dag, digest, ref in zip(self.cached_plans, digests,
                                    self.cached_digests):
            tally.check(dag.query, "cached result equals the cold one",
                        digest == ref)
        tally.check(",".join(wl.queries), "cached re-run executes no operator",
                    stats.total_op_invocations == 0,
                    f"{stats.total_op_invocations} invocations")
        return cached_s

    def _check_main(self, result: MainResult) -> None:
        wl, tally = self.wl, self.tally
        query = ",".join(wl.queries)
        if self.first is None:
            self.first = result
            if wl.profiled:
                self._first_profile(result)
            else:
                self.cached_plans = self.setup.dags
        names = ([d.query for d in self.setup.dags] if not wl.profiled
                 else [f"{wl.queries[0]}#{i}"
                       for i in range(len(result.digests))])
        for name, digest, ref in zip(names, result.digests, self.first.digests):
            tally.check(name, "same result every repetition", digest == ref)
        tally.check(query, "same cost_units every repetition",
                    result.cost_units == self.first.cost_units,
                    f"{result.cost_units} != {self.first.cost_units}")
        if wl.profiled:
            tally.check(query, "same selected plan every repetition",
                        result.selected.plan_id
                        == self.first.selected.plan_id)

    def _first_profile(self, result: MainResult) -> None:
        query, tally = self.wl.queries[0], self.tally
        reports = result.reports
        tally.check(query, "reference plan scores F1 1.0",
                    reports[0].f1 == 1.0, f"f1={reports[0].f1}")
        chosen = next(r for r in reports
                      if r.plan_id == result.selected.plan_id)
        tally.check(query, "selected plan meets the accuracy target",
                    result.fell_back
                    or chosen.f1 + 1e-12 >= workloads.ACCURACY_TARGET,
                    f"f1={chosen.f1}")
        # warm the store the cached re-runs of the selected plan read
        self.cached_plans = [result.selected]
        self.cached_store = self.fresh_store()
        _s, self.cached_digests, _o, _st = run_plans(
            self.setup, self.meta, self.cached_plans, self.trace,
            self.cached_store)


def timed_setup(runner: Runner) -> float:
    gc.collect()
    t0 = time.perf_counter()
    run_setup(runner.wl, runner.meta)
    return time.perf_counter() - t0


def samples(fn, budget_s: float, min_reps: int) -> list[float]:
    """Seconds of calls of `fn` (each returns its own timing), at least
    `min_reps` of them and more until `budget_s` has passed."""
    times = []
    deadline = time.perf_counter() + budget_s
    while len(times) < min_reps or time.perf_counter() < deadline:
        times.append(fn())
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_end_to_end(runner: Runner,
                       seconds: float) -> tuple[dict, dict, dict]:
    """Repetitions until the time is up, with set-up timed between them so
    that every timing samples the whole run.  Each repetition is one lap of
    the host clock."""
    clock = HostClock()
    raw = {"setup_s": [], "main_s": [], "cached_s": []}
    scaled = {"setup_s": [], "main_s": [], "cached_s": []}
    budget = 0.0
    deadline = time.perf_counter() + seconds
    while len(raw["main_s"]) < MIN_REPS or time.perf_counter() < deadline:
        rep = {"setup_s": samples(lambda: timed_setup(runner), budget,
                                  SETUP_REPS),
               "main_s": [runner.main()]}
        rep["cached_s"] = samples(runner.cached,
                                  CACHED_SHARE * rep["main_s"][0], 1)
        factor = clock.lap()
        for name, times in rep.items():
            raw[name] += times
            scaled[name] += [t * factor for t in times]
        budget = SETUP_SHARE * (rep["main_s"][0] + sum(rep["cached_s"]))
    first = runner.first
    frames = runner.wl.frames
    metrics = {
        "frames_per_s": frames / statistics.median(scaled["main_s"]),
        "cost_units": first.cost_units,
        "selected_cost_units": first.selected_cost_units,
        "setup_s": statistics.median(scaled["setup_s"]),
        "cached_run_s": statistics.median(scaled["cached_s"]),
        "peak_rss_mb": peak_rss_mb(),
    }
    wall = {
        "wall_frames_per_s": frames / statistics.median(raw["main_s"]),
        "wall_setup_s": statistics.median(raw["setup_s"]),
        "wall_cached_run_s": statistics.median(raw["cached_s"]),
        "host_speed": clock.host_speed(),
    }
    detail = {"wall": raw, "scaled": scaled,
              "calibration_s": clock.calibrations}
    return metrics, wall, detail


def measure_layers(runner: Runner,
                   seconds: float) -> tuple[dict, dict, dict]:
    """Untraced and traced repetitions in turn; a traced one also re-runs
    set-up, and set-up, main call and cached re-run each get a trace id.
    Per-layer numbers are medians over the traced repetitions."""
    tr = tracing.Tracer()
    clock = HostClock()
    plain, traced, reps = [], [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_REPS or time.perf_counter() < deadline:
        plain.append(runner.rep()[0] * clock.lap())
        uninstall = tracing.install(tr)
        try:
            tr.reset()
            tr.new_trace()
            run_setup(runner.wl, runner.meta)
            main_s = runner.rep(tr)[0]
            leaks = tracing.unwrapped_references()
        finally:
            uninstall()
        factor = clock.lap()
        traced.append(main_s * factor)
        runner.tally.check("tracing", "every layer call site is wrapped",
                           not leaks, ", ".join(leaks))
        reps.append({n: v * factor if n.endswith("_s") else v
                     for n, v in tracing.summarize(tr).items()})
    names = sorted(set().union(*reps))
    metrics = {n: statistics.median(r.get(n, 0) for r in reps) for n in names}
    metrics["tracing.fps_ratio"] = statistics.median(plain) / \
        statistics.median(traced)
    # the spans of the last traced repetition, for a closer look
    (OUT_DIR / f"SPANS_{runner.wl.name}.json").write_text(json.dumps(
        {"fields": ["span", "trace", "parent", "name", "start", "end"],
         "spans": tr.spans}) + "\n")
    detail = {"untraced_main_s": plain, "traced_main_s": traced,
              "calibration_s": clock.calibrations}
    return metrics, {"host_speed": clock.host_speed()}, detail


def run_one(args) -> int:
    wl = workloads.build(args.workload, args.seed, smoke=args.smoke)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR))
    try:
        runner = Runner(wl, work_dir)
        if args.trace:
            metrics, wall, detail = measure_layers(runner, args.seconds)
            units = dict(tracing.PER_LAYER)
        else:
            metrics, wall, detail = measure_end_to_end(runner, args.seconds)
            units = END_TO_END
        # after measuring, so that peak_rss_mb is the engine's and not the
        # oracle's
        runner.check_oracle()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    tally = runner.tally
    failed = len(tally.failures)
    report = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "shape": wl.shape(),
        "env": environment(), "generate_s": runner.generate_s,
        "attempted": tally.attempted, "failed": failed,
        "correct": tally.correct,
        "error_rate": failed / max(1, tally.attempted),
        "failures": tally.failures, "metrics": metrics, "wall": wall,
        "samples": detail,
    }
    suffix = "_trace" if args.trace else ""
    (OUT_DIR / f"BENCH_{wl.name}{suffix}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"workload {wl.name} seed {args.seed}: "
          + json.dumps(wl.shape(), sort_keys=True))
    print("env " + json.dumps(report["env"], sort_keys=True))
    for name in sorted(metrics):
        unit = units.get(name, "s" if name.endswith("_s") else "")
        print(f"  {name:<40} {metrics[name]:>16.6g} {unit}")
    print(f"  {'error_rate':<40} {report['error_rate']:>16.6g} ratio")
    for name in sorted(wall):
        print(f"  {name:<40} {wall[name]:>16.6g} (unscaled)")
    for f in tally.failures:
        print(f"FAILED {f['query']}: {f['check']}: {f['detail']}"
              + (f" [known defect: {f['known_defect']}]"
                 if f["known_defect"] else ""))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u}
                    for n, u in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"{'workload':<14} {'error_rate':>10}  metrics")
    for name, res in results.items():
        rate = res["failed"] / max(1, res["attempted"])
        print(f"{name:<14} {rate:>10.4g}  " + "  ".join(
            f"{k}={v['value']:.6g} {v['unit']}"
            for k, v in res["metrics"].items()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

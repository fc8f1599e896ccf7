"""Command-line interface: validate, explain, profile, run, and synth.

Exit codes: 1 for parse/validation errors, usage errors and bad option
values (an output path that cannot be made or written is one), 2 for
planning errors, 3 for runtime errors.
"""

from __future__ import annotations

import errno
import json
import os
import stat
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

import click

from .dsl import DslSyntaxError, ValidationError, parse, validate
from .dsl.validate import SCENE_TYPE
from .executor import ExecConfig, ResultStore, run_plans, serialize_outcome
from .operators import InternalError, PlanLinkError
from .planner import (
    PlanError,
    PlanLoadError,
    PlannerConfig,
    ProfilingError,
    enumerate_alternatives,
    explain_dot,
    load_plan,
    plan_query,
    profile as profile_plans,
    save_plan,
    select_plan,
)
from .registry import ConfigurationError, RegistryError, builtin_registry, load_manifest
from .synth import load_world, write_world
from .trace_io import TraceError, load_meta

EXIT_VALIDATION = 1
EXIT_PLAN = 2
EXIT_RUNTIME = 3


def _fail(code: int, message: str):
    click.echo(message, err=True)
    sys.exit(code)


def _load_program(path: str):
    try:
        source = Path(path).read_text()
    except OSError as exc:
        _fail(EXIT_VALIDATION, f"cannot read program: {exc}")
    try:
        return validate(parse(source, file=path), file=path)
    except (DslSyntaxError, ValidationError) as exc:
        _fail(EXIT_VALIDATION, str(exc))


def _check_query(vprog, name: str) -> None:
    if name not in vprog.queries:
        _fail(EXIT_VALIDATION, f"unknown query {name!r}")


def _binds_object(vprog, name: str) -> bool:
    """Whether query `name` binds an object; a temporal query needs both of
    its parts to.  A query that binds only a Scene validates, so that other
    queries can extend it, but it cannot be planned on its own."""
    q = vprog.queries[name]
    if q.kind == "temporal":
        return _binds_object(vprog, q.first) and _binds_object(vprog, q.then)
    return any(t != SCENE_TYPE for _b, t in q.bindings)


def _load_registry(manifest: Optional[str]):
    registry = builtin_registry()
    if manifest:
        try:
            registry = load_manifest(manifest, registry)
        except (OSError, json.JSONDecodeError, RegistryError, ValueError) as exc:
            _fail(EXIT_VALIDATION, f"bad registry manifest: {exc}")
    registry.freeze()
    return registry


def _load_meta(path: Optional[str]):
    if path is None:
        return None
    try:
        return load_meta(path)
    except (OSError, KeyError, ValueError, TypeError, OverflowError) as exc:
        # JSONDecodeError is a ValueError; a null or a list where a number
        # belongs is a TypeError, and an infinite width an OverflowError
        _fail(EXIT_VALIDATION, f"bad meta file: {exc}")


def _config(cls, **kwargs):
    """Build a config object; a bad option value exits 1 with one line."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        _fail(EXIT_VALIDATION, f"bad option: {exc}")


@contextmanager
def _output_path(option: str):
    """A path given to `option` that cannot be made or written exits 1 with
    one line, as a bad option value does."""
    try:
        yield
    except OSError as exc:
        _fail(EXIT_VALIDATION, f"bad option: {option}: {exc}")


def _check_output_file(option: str, path: Optional[str]) -> None:
    """Exit 1 at once, before any frame is read, when the file `option`
    names is a directory or its directory is missing; the write itself still
    reports any other error."""
    if not path:
        return
    target = Path(path)
    with _output_path(option):
        if target.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                    path)
        if not stat.S_ISDIR(os.stat(target.parent).st_mode):
            raise NotADirectoryError(errno.ENOTDIR,
                                     os.strerror(errno.ENOTDIR),
                                     str(target.parent))


class _Main(click.Group):
    """A usage error exits 1 with one line: one of the group, an unknown
    option before the command, found as the group parses its arguments, or
    one of a command (an unknown command or option, a value of the wrong
    type, a missing option), found as the group invokes it.  Without
    arguments, click prints the help."""

    def parse_args(self, ctx, args):
        if not args:
            return super().parse_args(ctx, args)
        return _one_line_usage_error(super().parse_args, ctx, args)

    def invoke(self, ctx):
        return _one_line_usage_error(super().invoke, ctx)


def _one_line_usage_error(call, *args):
    try:
        return call(*args)
    except click.UsageError as exc:
        _fail(EXIT_VALIDATION, f"bad option: {exc.format_message()}")


@click.group(cls=_Main)
def main():
    """Declarative video-object queries over detection traces."""


@main.command(name="validate")
@click.option("--program", "-p", required=True, help="Query program file.")
@click.option("--registry", "manifest", default=None, help="Registry manifest JSON.")
def validate_cmd(program, manifest):
    """Parse and validate a program; exits non-zero on diagnostics."""
    vprog = _load_program(program)
    _load_registry(manifest)
    names = ", ".join(vprog.query_order) or "none"
    click.echo(f"ok: {len(vprog.types)} types, {len(vprog.queries)} queries ({names})")


@main.command()
@click.option("--program", "-p", required=True)
@click.option("--query", "-q", required=True)
@click.option("--registry", "manifest", default=None)
@click.option("--meta", "meta_path", default=None)
def explain(program, query, manifest, meta_path):
    """Print the planned operator DAG in DOT form."""
    vprog = _load_program(program)
    registry = _load_registry(manifest)
    meta = _load_meta(meta_path)
    _check_query(vprog, query)
    try:
        dag = plan_query(vprog, query, registry, meta=meta)
    except PlanError as exc:
        _fail(EXIT_PLAN, f"planning failed: {exc}")
    click.echo(f"// plan {dag.plan_id}")
    click.echo(explain_dot(dag))


@main.command(name="profile")
@click.option("--program", "-p", required=True)
@click.option("--query", "-q", required=True)
@click.option("--trace", required=True, help="Canary trace file.")
@click.option("--meta", "meta_path", required=True)
@click.option("--registry", "manifest", default=None)
@click.option("--canary-frames", default=0, show_default=True,
              help="0 profiles the whole canary trace.")
@click.option("--accuracy-target", default=0.9, show_default=True)
@click.option("--batch-size", default=16, show_default=True)
@click.option("--save-plan", "save_path", default=None,
              help="Write the selected plan to this file.")
def profile_cmd(program, query, trace, meta_path, manifest, canary_frames,
                accuracy_target, batch_size, save_path):
    """Enumerate plan alternatives, profile them on a canary, and select."""
    vprog = _load_program(program)
    registry = _load_registry(manifest)
    meta = _load_meta(meta_path)
    _check_query(vprog, query)
    config = _config(
        PlannerConfig,
        accuracy_target=accuracy_target,
        canary_frames=canary_frames,
        batch_size=batch_size,
    )
    _check_output_file("--save-plan", save_path)
    try:
        dags = enumerate_alternatives(vprog, query, registry, meta=meta)
        reports = profile_plans(dags, trace, meta, vprog, registry, config)
        selected, fell_back = select_plan(dags, reports, config)
    except PlanError as exc:
        _fail(EXIT_PLAN, f"planning failed: {exc}")
    except (ProfilingError, TraceError, PlanLinkError, ConfigurationError,
            RegistryError, InternalError, OSError) as exc:
        _fail(EXIT_RUNTIME, f"profiling failed: {exc}")
    if fell_back:
        click.echo(
            f"warning: no plan met accuracy target {accuracy_target}; "
            f"using the reference plan", err=True,
        )
    out = {
        "query": query,
        "accuracy_target": accuracy_target,
        "selected": selected.plan_id,
        "fallback": fell_back,
        "candidates": [vars(r) for r in reports],
    }
    click.echo(json.dumps(out, sort_keys=True, indent=2))
    if save_path:
        with _output_path("--save-plan"):
            save_plan(selected, save_path)


@main.command()
@click.option("--program", "-p", required=True)
@click.option("--query", "-q", "queries", multiple=True,
              help="Repeatable; defaults to every declared query.")
@click.option("--trace", required=True)
@click.option("--meta", "meta_path", required=True)
@click.option("--registry", "manifest", default=None)
@click.option("--batch-size", default=16, show_default=True)
@click.option("--plan-file", default=None,
              help="Execute a saved plan instead of planning.")
@click.option("--results", "results_dir", default=None,
              help="Result-cache directory; identical (trace, plan) pairs "
                   "are served from cache.")
@click.option("--out", "out_path", default=None,
              help="Write results to this file instead of stdout.")
@click.option("--no-memo", is_flag=True)
@click.option("--no-lazy", is_flag=True)
def run(program, queries, trace, meta_path, manifest, batch_size,
        plan_file, results_dir, out_path, no_memo, no_lazy):
    """Plan and execute queries over a trace."""
    vprog = _load_program(program)
    registry = _load_registry(manifest)
    meta = _load_meta(meta_path)
    for name in queries:
        _check_query(vprog, name)
    exec_config = _config(
        ExecConfig, batch_size=batch_size, lazy=not no_lazy, memo=not no_memo
    )
    _check_output_file("--out", out_path)
    try:
        if plan_file:
            dags = [load_plan(plan_file, registry)]
        else:
            # without -q, every query that can be planned on its own
            dags = []
            for name in queries or vprog.query_order:
                if not queries and not _binds_object(vprog, name):
                    click.echo(f"skipped {name!r}: binds no object", err=True)
                    continue
                dags.append(plan_query(vprog, name, registry, meta=meta))
    except PlanLoadError as exc:
        _fail(EXIT_PLAN, f"cannot load plan: {exc}")
    except PlanError as exc:
        _fail(EXIT_PLAN, f"planning failed: {exc}")
    store = None
    if results_dir:
        with _output_path("--results"):
            store = ResultStore(results_dir)
    try:
        outcomes, stats = run_plans(
            vprog, dags, trace, registry, meta, exec_config, store
        )
    except (TraceError, PlanLinkError, ConfigurationError, RegistryError,
            InternalError, OSError) as exc:
        _fail(EXIT_RUNTIME, f"execution failed: {exc}")
    text = "".join(serialize_outcome(o) for o in outcomes)
    if out_path:
        with _output_path("--out"):
            Path(out_path).write_text(text)
    else:
        click.echo(text, nl=False)
    click.echo(
        f"cost_units={stats.cost_units:g} "
        f"op_invocations={stats.total_op_invocations}",
        err=True,
    )


@main.command()
@click.option("--world", "-w", required=True, help="World description JSON.")
@click.option("--out", "-o", "out_dir", required=True)
def synth(world, out_dir):
    """Render a scripted world into trace, meta, and ground-truth files."""
    try:
        spec = load_world(world)
    except (OSError, KeyError, ValueError, TypeError, OverflowError) as exc:
        # as for a meta file; JSONDecodeError is a ValueError
        _fail(EXIT_VALIDATION, f"bad world file: {exc}")
    paths = write_world(spec, out_dir)
    for name, path in sorted(paths.items()):
        click.echo(f"{name}: {path}")


if __name__ == "__main__":
    main()

"""Command-line interface.

Subcommands: ``run`` plays one task, ``bench`` scores a dataset, ``trace``
re-exports or inspects a saved trace. Settings resolve in order: the config
dataclasses' defaults, then a key=value config file, then explicit flags;
click converts file values with the same option types as flags. The HTTP
endpoint and API key fall back to the environment (see ``build_backend``).
Exit codes: 0 success, 1 configuration error (any bad flag or file value,
or an endpoint answering 401, 403 or 404, included), 2 backend failure, 3
dataset error. Commands raise ``ConfigurationError``, ``BackendError`` or
``DatasetError``; the command group alone turns each into its message and
exit code.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import fields

import click

from .backends import (
    BackendError,
    ConfigurationError,
    ScriptedBackend,
    SyntheticBackend,
    SyntheticStep,
    load_fixture,
)
from .engine import RunConfig, run_task
from .harness import (
    BaselineParams,
    DatasetError,
    Method,
    TaskKind,
    export_chain_summary,
    export_trace,
    format_summary,
    load_dataset,
    read_trace,
    run_benchmark,
    summarize_trace,
)
from .inputs import read_lines
from .policy import MetricMode, PolicyConfig

EXIT_CONFIG = 1
EXIT_BACKEND = 2
EXIT_DATASET = 3

ENDPOINT_ENV = ("ENTRODUCTION_ENDPOINT", "OPENAI_BASE_URL")
API_KEY_ENV = ("ENTRODUCTION_API_KEY", "OPENAI_API_KEY")


def read_config_file(path: str | None, names: set[str]) -> dict[str, str]:
    """Parse a plain key=value config file; '#' starts a comment line. A key
    outside ``names``, the options of the command being run, is an error."""
    if path is None:
        return {}
    values: dict[str, str] = {}
    for line_number, line in read_lines(path, ConfigurationError, "config file"):
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{line_number}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip().lower().replace("-", "_")
        if key not in names:
            raise ConfigurationError(f"{path}:{line_number}: unknown key {key}")
        values[key] = value.strip()
    return values


def _given(settings: dict, config_class, **renamed: str) -> dict:
    """The settings a flag or the config file gave, keyed by the field of
    ``config_class`` each one fills (its option name unless ``renamed``)."""
    names = {field.name for field in fields(config_class)}
    given = {renamed.get(key, key): value for key, value in settings.items() if value is not None}
    return {key: value for key, value in given.items() if key in names}


def _build(make, *args, **values):
    """``make(*args, **values)``, with a rejected value as a configuration error."""
    try:
        return make(*args, **values)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc


def _open_output(path: str | None):
    """``path`` opened for writing, or a context of None without a path. Commands
    open outputs before any backend call, so an unwritable path costs no run."""
    try:
        return open(path, "w", encoding="utf-8") if path else nullcontext()
    except OSError as exc:
        raise ConfigurationError(f"cannot write {path}: {exc}") from exc


def _from_environment(names: tuple[str, ...]) -> str | None:
    """The first of the variables ``names`` set to a non-empty value."""
    return next((value for name in names if (value := os.environ.get(name))), None)


def build_backend(settings: dict):
    """The backend ``settings`` name. The HTTP endpoint and API key each come from
    the first source that gives one: flag, config file, ``ENDPOINT_ENV``/``API_KEY_ENV``."""
    name = settings["backend"]
    if name == "synthetic":
        schedule_text = settings["schedule"]
        try:
            targets = [float(v) for v in schedule_text.split(",") if v.strip()]
            return SyntheticBackend(
                [SyntheticStep(target_normalized_entropy=t, n_tokens=8) for t in targets]
            )
        except ValueError as exc:
            raise ConfigurationError(f"bad schedule: {schedule_text}") from exc
    if name == "scripted":
        if not settings["fixture"]:
            raise ConfigurationError("scripted backend requires --fixture")
        return ScriptedBackend(load_fixture(settings["fixture"]))
    from .backends.openai_http import OpenAIChatBackend

    model = settings["model"]
    if not model:
        raise ConfigurationError("openai backend requires --model")
    endpoint = settings["endpoint"] or _from_environment(ENDPOINT_ENV)
    if not endpoint:
        raise ConfigurationError(f"openai backend requires --endpoint, {' or '.join(ENDPOINT_ENV)}")
    api_key = settings["api_key"] or _from_environment(API_KEY_ENV)
    return OpenAIChatBackend(endpoint=endpoint, model=model, api_key=api_key)


def build_run_config(settings: dict) -> RunConfig:
    policy = _build(PolicyConfig, **_given(settings, PolicyConfig, expand="expand_enabled"))
    return _build(RunConfig, policy=policy, **_given(settings, RunConfig))


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Eager: the file's values become the defaults of options no flag sets."""
    try:
        names = {option.name for option in ctx.command.params if isinstance(option, click.Option)}
        ctx.default_map = read_config_file(path, names)
    except ConfigurationError as exc:
        raise click.BadParameter(str(exc), ctx=ctx, param=param) from exc


def _enum_option(*decls, enum_type, **kwargs):
    """An option taking an enum's value, case-insensitively, as that member."""
    return click.option(
        *decls,
        type=click.Choice([member.value for member in enum_type], case_sensitive=False),
        callback=lambda ctx, param, value: None if value is None else enum_type(value),
        **kwargs,
    )


def common_options(command):
    run = RunConfig()
    policy = run.policy
    backends = click.Choice(["synthetic", "scripted", "openai"], case_sensitive=False)
    options = [
        click.option("--config", callback=_load_config, is_eager=True, expose_value=False,
                     help="Key=value config file."),
        click.option("--backend", type=backends, default="synthetic", show_default=True,
                     help="Step backend."),
        click.option("--endpoint", help=f"API base URL (else ${' or $'.join(ENDPOINT_ENV)})."),
        click.option("--model", help="Model name for the HTTP backend."),
        click.option("--api-key", help=f"API key (else ${' or $'.join(API_KEY_ENV)})."),
        click.option("--fixture", help="Fixture JSONL for the scripted backend."),
        click.option("--schedule", default="0.95,0.9,0.85,0.5,0.3", show_default=True,
                     help="Entropy targets for the synthetic backend."),
        click.option("--epsilon", type=float, help=f"Exploration rate (default {policy.epsilon})."),
        click.option("--max-steps", type=int, help=f"Step budget (default {run.max_steps})."),
        click.option("--max-chains", type=int, help=f"Chain budget (default {run.max_chains})."),
        click.option("--stop-k", type=int, help=f"Soft-stop grace (default {policy.stop_k})."),
        _enum_option("--metric-mode", enum_type=MetricMode,
                     help=f"Deltas that drive decisions (default {policy.metric_mode.value})."),
        click.option("--expand/--no-expand", "expand", default=None,
                     help=f"Toggle the expand behavior (default {policy.expand_enabled})."),
        click.option("--seed", type=int, help=f"Run seed (default {policy.seed})."),
        click.option("--temperature", type=float,
                     help=f"Sampling temperature (default {run.temperature})."),
        click.option("--max-tokens", type=int,
                     help=f"Per-step token cap (default {run.max_tokens})."),
    ]
    for option in reversed(options):
        command = option(command)
    return command


@contextmanager
def _usage_errors_exit_config():
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = EXIT_CONFIG
        raise


class _Group(click.Group):
    """The one place a typed error becomes a message and an exit code. A bad
    flag or file value, a bad choice, a missing option or an unknown command
    exits EXIT_CONFIG, like every other configuration error."""

    def make_context(self, *args, **kwargs):
        with _usage_errors_exit_config():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_errors_exit_config():
            try:
                return super().invoke(ctx)
            except ConfigurationError as exc:
                message, code = f"configuration error: {exc}", EXIT_CONFIG
            except BackendError as exc:
                message, code = f"backend failure: {exc}", EXIT_BACKEND
            except DatasetError as exc:
                message, code = f"dataset error: {exc}", EXIT_DATASET
        click.echo(message, err=True)
        sys.exit(code)


@click.group(cls=_Group)
def main() -> None:
    """Entropy-guided multi-step reasoning."""


@main.command("run")
@click.argument("task")
@common_options
@click.option("--out", default=None, help="Write the trace JSONL here.")
@click.option("--summary-out", default=None, help="Write the per-chain CSV here.")
def run_command(task, out, summary_out, **settings) -> None:
    """Run one task and print its conclusion and run statistics."""
    backend = build_backend(settings)
    config = build_run_config(settings)
    with _open_output(out) as trace_sink, _open_output(summary_out) as summary_sink:
        result = _build(run_task, task, config, backend)
        if trace_sink:
            export_trace(result, trace_sink)
        if summary_sink:
            export_chain_summary(result, summary_sink)
    if result.aborted:
        raise BackendError(result.error)
    click.echo(f"conclusion: {result.conclusion!r}")
    click.echo(
        f"chains: {len(result.structure.chains)}  depth: {result.structure.depth()}  "
        f"steps: {result.total_steps}  wall: {result.wall_time:.3f}s"
    )


@main.command("bench")
@common_options
@click.option("--dataset", required=True, help="Dataset JSONL path.")
@_enum_option("--task-kind", enum_type=TaskKind, default=TaskKind.NUMERIC_MATH.value,
              show_default=True, help="Answer format.")
@_enum_option("--method", enum_type=Method, default=Method.ENTRODUCTION.value,
              show_default=True, help="Method to score.")
@click.option("--steps", type=int,
              help=f"Baseline chain length (default {BaselineParams.steps}).")
@click.option("--chains", type=int,
              help=f"Baseline chain count (default {BaselineParams.chains}).")
@click.option("--branching", type=int,
              help=f"Tree branching factor (default {BaselineParams.branching}).")
@click.option("--layers", type=int,
              help=f"Tree layer count (default {BaselineParams.layers}).")
@click.option("--strict", is_flag=True, default=False, help="Reject malformed dataset rows.")
@click.option("--out", default=None, help="Write the report JSON here.")
@click.option("--trace-out", default=None, help="Write adaptive run traces (JSONL) here.")
def bench_command(dataset, task_kind, method, strict, out, trace_out, **settings) -> None:
    """Score a method over a JSONL dataset."""
    if trace_out and method is not Method.ENTRODUCTION:
        raise ConfigurationError(f"--trace-out records adaptive runs only, not {method.value}")
    backend = build_backend(settings)
    run_config = build_run_config(settings)
    params = _build(BaselineParams, **_given(settings, BaselineParams))
    tasks = load_dataset(dataset, task_kind, strict=strict)
    with _open_output(out) as report_sink, _open_output(trace_out) as sink:
        def on_result(task, result):
            export_trace(result, sink, task_id=task.id)

        report = run_benchmark(
            method, tasks, backend, run_config=run_config, params=params,
            on_result=on_result if sink is not None else None,
        )
        if report_sink:
            report_sink.write(report.to_json() + "\n")
    click.echo(
        f"method: {report.method}  accuracy: {report.accuracy:.4f}  "
        f"mean steps/task: {report.mean_steps:.2f}  "
        f"mean steps/chain: {report.mean_steps_per_chain:.2f}  "
        f"mean calls/task: {report.mean_calls:.2f}"
    )
    failures = [r for r in report.records if r.error is not None]
    if failures:
        click.echo(f"tasks with backend failures: {len(failures)}", err=True)


@main.command("trace")
@click.argument("source")
@click.option("--out", default=None, help="Re-export the trace JSONL here.")
@click.option("--summary/--no-summary", default=True, help="Print aggregate statistics.")
def trace_command(source, out, summary) -> None:
    """Inspect or re-export a saved trace."""
    rows = read_trace(source)
    with _open_output(out) as handle:
        if handle:
            handle.writelines(json.dumps(row) + "\n" for row in rows)
    if summary:
        click.echo(format_summary(summarize_trace(rows)), nl=False)


if __name__ == "__main__":
    main()

"""Layered benchmark of entroduction: three workloads, checked outputs, one result line.

    python3 benchmarks/run.py --workload synthetic_sweep --seed 1 --seconds 30 --trace 0

Workloads (one closed-loop client, ``workers=1``, the CLI default):

* ``synthetic_sweep``: the adaptive method against ``SyntheticBackend``. Every
  task draws its own entropy schedule, step length (8, 32 or 128 tokens) and
  policy seed. Nothing waits, so solver, metrics, policy, structure, engine
  and trace export carry all the time.
* ``http_adaptive``: the adaptive method through ``OpenAIChatBackend`` against
  ``mock_server.py`` in its own process, with a 10 ms delay per request.
  Backend wait dominates, as with a real model.
* ``http_tot``: the tree-of-thought baseline (branching 3, 3 layers) against
  the same mock: a fixed fan-out of sibling requests and leaf elicitation,
  with no metrics, policy or structure calls.

Task timings are reported at a reference CPU speed (``calibrate.py``): each
task's on-CPU time is divided by the current slowdown of a fixed loop that
runs between tasks, and time spent waiting is kept as measured. Set-up is
divided by the slowdown of a reference import in a fresh interpreter. The
wall-clock figures are printed beside them.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the same
tasks untraced for half the time and traced for the other half, and prints
the per-layer metrics from the spans (see ``tracing.py``).

Every run checks its outputs: the behaviour digest of the first tasks must
repeat between the warm-up and the timed pass, equal the in-process
reference model's (HTTP workloads) and the recorded value for recorded seeds
(``recorded.json``); every synthetic step must realize a scheduled entropy
target; no task may fail. The last line of standard output is the JSON
result; the exit status is 3 when a check failed.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MOCK_MODEL = "mock-model"
SETUP_REPEATS = 5
IMPORT_PROGRAM = "import entroduction, entroduction.backends, entroduction.harness"
ACCOUNTING_TOLERANCE = 0.10


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path, or stop with an error."""
    if not (SRC / "entroduction" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))


_load_program()

import numpy  # noqa: E402
import requests  # noqa: E402

from entroduction.backends import OpenAIChatBackend  # noqa: E402
from entroduction.harness import export_trace, read_trace, run_benchmark  # noqa: E402

import tracing  # noqa: E402
from calibrate import Calibrator, import_reference_slowdown  # noqa: E402
from mock_server import DELAY_S  # noqa: E402
from stats import critical_path_calls, min_samples, percentile  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    ReferenceModelBackend,
    Workload,
    behaviour_digest,
    make_task,
    task_digest_lines,
)


class MockProcess:
    """The mock server in a child process, stopped by ``close``."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "mock_server.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, text=True,
        )
        self.control = requests.Session()
        ready, _, _ = select.select([self.proc.stdout], [], [], 60.0)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("PORT "):
            self.close()
            raise RuntimeError(f"mock server did not start: {line!r}")
        self.base = f"http://127.0.0.1:{int(line.split()[1])}"
        self.endpoint = self.base + "/v1"

    def requests_served(self) -> int:
        return self.control.get(self.base + "/stats", timeout=10).json()["requests"]

    def reset(self) -> None:
        self.control.post(self.base + "/reset", timeout=10).raise_for_status()

    def close(self) -> None:
        self.control.close()
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Window:
    """What one closed-loop pass over the task stream produced."""

    elapsed: float = 0.0
    # The benchmark's own work between tasks, timed piece by piece: building
    # the task and sampling the calibration loop before it, checking and
    # recording its outputs after it.
    own: float = 0.0
    latencies: list[float] = field(default_factory=list)
    # At the reference CPU speed: on-CPU time scaled by the calibration loop.
    scaled_elapsed: float = 0.0
    scaled_latencies: list[float] = field(default_factory=list)
    slowdowns: list[float] = field(default_factory=list)
    correct: int = 0
    failed: int = 0
    calls: int = 0
    chains: list[int] = field(default_factory=list)
    conclusion_calls: list[int] = field(default_factory=list)
    rounds: list[int] = field(default_factory=list)
    digest_lines: list[list[str]] = field(default_factory=list)
    trace_rows: list[list[dict]] = field(default_factory=list)
    digest_correct: list[bool] = field(default_factory=list)
    targets_ok: bool = True

    @property
    def tasks(self) -> int:
        return len(self.latencies)

    @property
    def digest(self) -> str:
        return behaviour_digest(self.digest_lines)

    @property
    def digest_accuracy(self) -> float:
        return sum(self.digest_correct) / len(self.digest_correct)


def _targets_realized(rows: list[dict], targets: tuple[float, ...], n_tokens: int) -> bool:
    return all(
        row["n_tokens"] == n_tokens
        and any(abs(row["norm_entropy"] - t) <= 1e-6 for t in targets)
        for row in rows
    )


def run_window(
    workload: Workload,
    seed: int,
    seconds: float,
    http_backend=None,
    mock: MockProcess | None = None,
    tracer: tracing.Tracer | None = None,
    min_tasks: int = 0,
) -> Window:
    """Run tasks in order until ``seconds`` passed and at least the digest
    tasks and ``min_tasks`` are done."""
    window = Window()
    keep = workload.digest_tasks
    least = max(keep, min_tasks)
    export = export_trace
    bench = run_benchmark
    if tracer is not None:
        export = tracer.wrap(tracing.EXPORT, export_trace)
        bench = tracer.wrap(tracing.RUN_BENCHMARK, run_benchmark)
    if mock is not None:
        mock.reset()

    calibrator = Calibrator()
    started = time.perf_counter()
    deadline = started + seconds
    for index in itertools.count():
        mark = time.perf_counter()
        task = make_task(workload, seed, index)
        sink = io.StringIO()
        runs = []

        def on_result(instance, result):
            export(result, sink, task_id=instance.id)
            runs.append(result)

        backend = task.synthetic or http_backend
        scope = nullcontext()
        if tracer is not None:
            name = tracing.SYNTHETIC_STEP if task.synthetic else tracing.HTTP_STEP
            backend = tracer.backend(backend, name)
            scope = tracer.task_span(index)
        slowdown = calibrator.slowdown()
        window.own += time.perf_counter() - mark
        with scope:
            # Process CPU time: it includes any worker threads of the engine,
            # and the mock runs in a process of its own.
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            report = bench(
                workload.method, [task.instance], backend,
                run_config=task.run_config, params=workload.params, on_result=on_result,
            )
            latency = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
        mark = time.perf_counter()
        window.latencies.append(latency)
        window.scaled_latencies.append(latency - cpu + cpu / slowdown)
        window.slowdowns.append(slowdown)

        record = report.records[0]
        window.correct += record.correct
        window.failed += record.error is not None
        window.chains.append(record.chains)
        if task.synthetic is not None:
            window.calls += task.synthetic.calls_made
        if runs:
            result = runs[0]
            window.conclusion_calls.append(result.conclusion_calls)
            window.rounds.append(
                max((e.step_index for e in result.trace), default=0)
                + (1 if result.conclusion_calls else 0)
            )
        if index < keep or tracer is not None:
            rows = read_trace(io.StringIO(sink.getvalue()))
            if tracer is not None:
                window.trace_rows.append(rows)
            if index < keep:
                window.digest_lines.append(task_digest_lines(record, rows))
                window.digest_correct.append(record.correct)
                if task.synthetic is not None and not _targets_realized(
                    rows, task.targets, task.n_tokens
                ):
                    window.targets_ok = False
        now = time.perf_counter()
        window.own += now - mark
        if index + 1 >= least and now >= deadline:
            break
    window.elapsed = time.perf_counter() - started
    window.scaled_elapsed = (
        window.elapsed - calibrator.spent
        - sum(window.latencies) + sum(window.scaled_latencies)
    )
    if mock is not None:
        window.calls = mock.requests_served()
    return window


def reference_digest(workload: Workload, seed: int) -> tuple[str, float]:
    """Digest and accuracy of the first tasks, served in-process by the reference model."""
    window = run_window(workload, seed, 0.0, http_backend=ReferenceModelBackend())
    return window.digest, window.digest_accuracy


def measure_setup(workload: Workload, seed: int) -> tuple[float, float, MockProcess | None]:
    """Median over repeats of: import the program in a fresh interpreter,
    start the mock, build the dataset and the backend. Returns it at the
    reference speed and as wall clock, and keeps the last mock.

    Each repeat is divided by the mean slowdown of the reference import
    timed before and after it. On a shared machine the raw median of five
    set-ups spread by 21% over a few minutes, the scaled one by 4%."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, slowdowns = [], [import_reference_slowdown()]
    mock = None
    try:
        for _ in range(SETUP_REPEATS):
            if mock is not None:
                mock.close()
                mock = None
            t0 = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", IMPORT_PROGRAM], env=env, cwd=ROOT, check=True
            )
            if workload.uses_http:
                mock = MockProcess()
                OpenAIChatBackend(endpoint=mock.endpoint, model=MOCK_MODEL)
            dataset = [make_task(workload, seed, i) for i in range(workload.digest_tasks)]
            times.append(time.perf_counter() - t0)
            del dataset
            slowdowns.append(import_reference_slowdown())
    except BaseException:
        if mock is not None:
            mock.close()
        raise
    scaled = [t / ((a + b) / 2) for t, a, b in zip(times, slowdowns, slowdowns[1:])]
    return statistics.median(scaled), statistics.median(times), mock


def http_backend(mock: MockProcess | None, session=None):
    if mock is None:
        return None
    return OpenAIChatBackend(
        endpoint=mock.endpoint, model=MOCK_MODEL, session=session or requests.Session()
    )


def load_recorded(workload: str, seed: int) -> dict | None:
    recorded = json.loads((HERE / "recorded.json").read_text(encoding="utf-8"))
    return recorded["workloads"].get(workload, {}).get(str(seed))


def machine_facts() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mock_delay_ms": DELAY_S * 1e3,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(
    workload: Workload, window: Window, setup_s: float, setup_wall: float
) -> tuple[dict, list[str]]:
    n = window.tasks
    tail_p = workload.tail_percentile
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "tasks_per_s": metric(n / window.scaled_elapsed, "1/s"),
        "task_ms_p50": metric(percentile(window.scaled_latencies, 50) * 1e3, "ms"),
        "task_ms_tail": metric(percentile(window.scaled_latencies, tail_p) * 1e3, "ms"),
        "backend_calls_per_task": metric(window.calls / n, "count"),
        "accuracy": metric(window.correct / n, "share"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    raw_p50 = percentile(window.latencies, 50) * 1e3
    raw_tail = percentile(window.latencies, tail_p) * 1e3
    notes = [
        f"setup_s: median of {SETUP_REPEATS} set-ups at reference speed "
        f"(wall clock: {setup_wall:.4g} s)",
        f"CPU slowdown against the reference loop: median "
        f"{statistics.median(window.slowdowns):.3f}, range {min(window.slowdowns):.3f}"
        f"-{max(window.slowdowns):.3f}",
        f"tasks_per_s: {n} tasks / {window.scaled_elapsed:.3f} s at reference speed "
        f"(wall clock: {window.elapsed:.3f} s, {n / window.elapsed:.4g}/s)",
        f"task_ms_p50: p50 of {n} tasks (wall clock: {raw_p50:.4g} ms)",
        f"task_ms_tail: p{tail_p} of {n} tasks (wall clock: {raw_tail:.4g} ms)",
        f"backend_calls_per_task: {window.calls} calls / {n} tasks",
        f"accuracy: {window.correct} correct / {n} tasks",
        f"failed: {window.failed} of {n} attempted",
    ]
    return metrics, notes


def per_layer(traced: Window, plain: Window, spans) -> tuple[dict, float, str]:
    """Per-layer metrics from the traced window's spans, the share of wall
    time that the spans and the benchmark's timed own work account for, and
    the bases of the ratios."""
    n = traced.tasks
    wall = traced.elapsed
    own = tracing.self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def total(name: str) -> float:
        return sum(spans[i].duration for i in by_name.get(name, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    def mean_us(name: str) -> float:
        return total(name) / count(name) * 1e6 if count(name) else 0.0

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    steps = by_name.get(tracing.HTTP_STEP, []) + by_name.get(tracing.SYNTHETIC_STEP, [])
    off_cpu = sum(spans[i].duration - spans[i].cpu for i in steps)
    per_task: dict[int, list[tuple[float, float]]] = {}
    for i in steps:
        per_task.setdefault(spans[i].task, []).append((spans[i].start, spans[i].end))
    critical = sum(critical_path_calls(v) for v in per_task.values())

    http_steps = by_name.get(tracing.HTTP_STEP, [])
    posts = by_name.get(tracing.POST, [])
    post_ms = [spans[i].duration * 1e3 for i in posts]
    solves = by_name.get(tracing.SOLVE, [])
    metric_calls = by_name.get(tracing.METRICS, [])
    buckets = {"n8": (0, 8), "n32": (9, 32), "n128": (33, 1 << 30)}

    rows = [row for task_rows in traced.trace_rows for row in task_rows]
    decisions = [row for row in rows if row["dH"] is not None]
    expand_draws = [
        row for row in decisions
        if row["sampled_action"] == "expand" and row["finalize_reason"] != "answer_marker"
    ]
    degraded = [row for row in expand_draws if row["executed"] == "deepen"]

    layer_self: dict[str, float] = {}
    for i, span in enumerate(spans):
        layer = tracing.LAYERS[span.name]
        layer_self[layer] = layer_self.get(layer, 0.0) + own[i]
    layer_self["bench"] = layer_self.get("bench", 0.0) + traced.own
    # Task spans never overlap, and with serial backend calls their total is
    # the sum of the self times inside them. Wall time that neither they nor
    # the timed own work cover is missing from the accounting.
    accounted = total(tracing.TASK) + traced.own

    m = {
        "backends.wait_share": metric(share(off_cpu, wall), "share"),
        "backends.critical_path_calls_per_task": metric(critical / n, "count"),
        "backends.openai_http.post_ms_p50": metric(
            statistics.median(post_ms) if post_ms else 0.0, "ms"),
        "backends.openai_http.local_us_per_call": metric(
            share(total(tracing.HTTP_STEP) - total(tracing.POST), len(http_steps)) * 1e6, "us"),
        "backends.openai_http.retries_per_task": metric((len(posts) - len(http_steps)) / n, "count"),
        "backends.synthetic.solve_us_per_call": metric(mean_us(tracing.SOLVE), "us"),
        "backends.synthetic.solve_calls_per_task": metric(len(solves) / n, "count"),
        "backends.synthetic.distinct_solve_share": metric(
            share(len({spans[i].info for i in solves}), len(solves)), "share"),
    }
    for bucket, (low, high) in buckets.items():
        chosen = [i for i in metric_calls if low <= spans[i].info <= high]
        m[f"metrics.compute_step_metrics.us_per_call.{bucket}"] = metric(
            share(sum(spans[i].duration for i in chosen), len(chosen)) * 1e6, "us")
    m["metrics.compute_step_metrics.calls_per_task"] = metric(len(metric_calls) / n, "count")
    m["policy.decide.us_per_call"] = metric(mean_us(tracing.DECIDE), "us")
    for action in ("deepen", "expand", "stop"):
        m[f"policy.executed_share.{action}"] = metric(
            share(sum(row["executed"] == action for row in decisions), len(decisions)), "share")
    m["structure.chains_per_task"] = metric(sum(traced.chains) / n, "count")
    m["structure.expand.calls_per_task"] = metric(count(tracing.EXPAND) / n, "count")
    m["structure.expand_degraded_share"] = metric(share(len(degraded), len(expand_draws)), "share")
    m["engine.rounds_per_task"] = metric(sum(traced.rounds) / n, "count")
    m["engine.conclusion_calls_per_task"] = metric(sum(traced.conclusion_calls) / n, "count")
    m["engine.self_ms_per_task"] = metric(layer_self.get("engine", 0.0) / n * 1e3, "ms")
    m["harness.benchmark.vote_us_per_task"] = metric(total(tracing.VOTE) / n * 1e6, "us")
    m["harness.trace.export_us_per_event"] = metric(
        share(total(tracing.EXPORT), len(rows)) * 1e6, "us")
    m["harness.baselines.self_ms_per_task"] = metric(
        layer_self.get("harness.baselines", 0.0) / n * 1e3, "ms")
    for layer in sorted(set(tracing.LAYERS.values())):
        m[f"{layer}.self_share"] = metric(share(layer_self.get(layer, 0.0), wall), "share")
    m["bench.accounted_share"] = metric(share(accounted, wall), "share")
    plain_rate = plain.tasks / plain.scaled_elapsed
    traced_rate = n / traced.scaled_elapsed
    m["bench.trace_overhead_pct"] = metric((1.0 - traced_rate / plain_rate) * 100.0, "%")
    bases = (
        f"bases: {n} traced tasks, {wall:.3f} s wall, {len(steps)} generate_step, "
        f"{len(posts)} post, {len(solves)} solve, {len(metric_calls)} compute_step_metrics, "
        f"{count(tracing.DECIDE)} decide, {len(decisions)} decisions, "
        f"{len(expand_draws)} expand draws, {len(rows)} trace events; "
        f"self times {sum(own):.3f} s + own work {traced.own:.3f} s"
    )
    return m, share(accounted, wall), bases


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Layered entroduction benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    setup_s, setup_wall, mock = measure_setup(workload, args.seed)
    failures: list[str] = []
    try:
        warmup = run_window(workload, args.seed, 0.0, http_backend(mock), mock)
        window_s = args.seconds / 2 if args.trace else args.seconds
        plain = run_window(
            workload, args.seed, window_s, http_backend(mock), mock,
            min_tasks=0 if args.trace else min_samples(workload.tail_percentile),
        )
        windows = [warmup, plain]
        if args.trace:
            tracer = tracing.Tracer()
            with tracer.installed():
                traced = run_window(
                    workload, args.seed, window_s, http_backend(mock, tracer.session()),
                    mock, tracer,
                )
            windows.append(traced)
            if not tracing.patches_restored():
                failures.append("tracing wrappers were not restored")
            metrics, accounted, bases = per_layer(traced, plain, tracer.spans)
            notes = [f"untraced: {plain.tasks} tasks / {plain.elapsed:.3f} s", bases]
            if abs(accounted - 1.0) > ACCOUNTING_TOLERANCE:
                failures.append(f"self times account for {accounted:.3f} of wall")
        else:
            metrics, notes = end_to_end(workload, plain, setup_s, setup_wall)
    finally:
        if mock is not None:
            mock.close()

    digest = plain.digest
    accuracy_first = plain.digest_accuracy
    for window in windows:
        if window.digest != digest:
            failures.append(f"digest {window.digest} differs from {digest}")
        if not window.targets_ok:
            failures.append("a synthetic step missed its entropy target")
    if workload.uses_http:
        expected, expected_accuracy = reference_digest(workload, args.seed)
        if (expected, expected_accuracy) != (digest, accuracy_first):
            failures.append(f"HTTP digest {digest} differs from reference {expected}")
    recorded = load_recorded(workload.name, args.seed)
    if recorded is not None and (recorded["digest"], recorded["accuracy"]) != (
        digest, accuracy_first
    ):
        failures.append(
            f"digest {digest}/accuracy {accuracy_first} differ from recorded "
            f"{recorded['digest']}/{recorded['accuracy']}"
        )
    attempted = sum(w.tasks for w in windows)
    failed = sum(w.failed for w in windows)
    if failed:
        failures.append(f"{failed} of {attempted} tasks failed")

    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"machine {json.dumps(machine_facts())}")
    print(f"digest {digest} over the first {workload.digest_tasks} tasks "
          f"(recorded: {'yes' if recorded else 'no'})")
    for line in notes:
        print(line)
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not failures else 3


if __name__ == "__main__":
    sys.exit(main())

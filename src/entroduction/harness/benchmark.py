"""Benchmark runner: methods over task sets, with accuracy and step accounting.

One report row per task: the method's raw per-chain answers are cleansed per
task kind, voted into a single prediction by ``majority_vote``, and scored by
exact string match against the gold answer. Adaptive answers carry their
chain's mean normalized entropy as the tie-breaking score; a baseline's
answers all score alike. A record's calls are its steps plus its answer
elicitations. Every method ends a failed task alike: the record is incorrect,
carries the backend error and counts only the work committed before the
failing call in serial order; the benchmark continues. Mean steps are
reported both per task and per chain, since the two differ for adaptive runs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..backends.base import Backend
from ..engine import RunConfig, RunResult, chain_conclusions, majority_vote, run_task
from .baselines import BaselineParams, Method, run_chain_baseline, run_tree_baseline
from .cleansing import clean_answer
from .datasets import TaskInstance

__all__ = [
    "Method",
    "TaskRecord",
    "BenchmarkReport",
    "run_benchmark",
]


@dataclass(frozen=True)
class TaskRecord:
    task_id: str
    predicted: str
    gold: str
    correct: bool
    steps: int
    chains: int
    calls: int
    wall_time: float
    error: str | None = None


@dataclass
class BenchmarkReport:
    method: str
    accuracy: float
    mean_steps: float
    mean_steps_per_chain: float
    mean_calls: float
    records: list[TaskRecord] = field(default_factory=list)

    def to_json(self) -> str:
        """Every field, in declaration order, each record as an object."""
        return json.dumps({**vars(self), "records": [vars(r) for r in self.records]}, indent=2)


def _vote_over(task: TaskInstance, answers: Sequence[tuple[str, float]]) -> str:
    """The vote over the (raw answer, score) pairs whose answer cleanses to
    a value."""
    kept = [
        (value, score)
        for answer, score in answers
        if (value := clean_answer(answer, task.task_kind, task.options))
    ]
    return majority_vote([value for value, _ in kept], [score for _, score in kept])


def _run_one(
    task: TaskInstance,
    method: Method,
    run_config: RunConfig,
    params: BaselineParams,
    backend: Backend,
    on_result: Callable[[TaskInstance, RunResult], None] | None,
) -> TaskRecord:
    started = time.perf_counter()
    if method is Method.ENTRODUCTION:
        result = run_task(task.question, run_config, backend)
        if on_result is not None:
            on_result(task, result)
        answers = [(answer, score) for _, answer, score in chain_conclusions(result)]
        steps, chains = result.total_steps, len(result.structure.chains)
        elicited, error = result.conclusion_calls, result.error
    else:
        if method is Method.TOT:
            outcome = run_tree_baseline(task.question, params, backend, config=run_config)
        else:
            n_chains = 1 if method is Method.COT else None
            outcome = run_chain_baseline(
                task.question, params, backend, n_chains=n_chains, config=run_config
            )
        # A baseline's answers count alike, so they share one score.
        answers = [(answer, 0.0) for answer in outcome.answers]
        steps, chains = outcome.steps_generated, outcome.chains
        elicited, error = outcome.conclusion_calls, outcome.error
    predicted = "" if error is not None else _vote_over(task, answers)
    return TaskRecord(
        task_id=task.id,
        predicted=predicted,
        gold=task.gold_answer,
        correct=predicted == task.gold_answer,
        steps=steps,
        chains=chains,
        calls=steps + elicited,
        wall_time=time.perf_counter() - started,
        error=error,
    )


def run_benchmark(
    method: Method,
    tasks: Sequence[TaskInstance],
    backend: Backend,
    run_config: RunConfig | None = None,
    params: BaselineParams | None = None,
    on_result: Callable[[TaskInstance, RunResult], None] | None = None,
) -> BenchmarkReport:
    """Score ``method`` on ``tasks``. Baselines take the shape ``params``,
    ``BaselineParams()`` when not given, as ``bench`` does.

    ``on_result`` receives each adaptive run, an aborted one with its
    partial trace (for trace export).
    Within a task, independent backend calls go out together, up to the
    backend's ``max_in_flight``, which changes timing, not results (see
    ``engine.CallScheduler``). Tasks run one after another. A backend error
    ends only its own task, recorded with ``error`` set; a
    ``ConfigurationError`` (a wrong endpoint or key) ends the benchmark.
    """
    if not tasks:
        raise ValueError("empty task list")
    run_config = run_config or RunConfig()
    params = params or BaselineParams()

    records = [
        _run_one(task, method, run_config, params, backend, on_result) for task in tasks
    ]

    correct = sum(1 for r in records if r.correct)
    total_steps = sum(r.steps for r in records)
    total_chains = sum(r.chains for r in records)
    return BenchmarkReport(
        method=method.value,
        accuracy=correct / len(records),
        mean_steps=total_steps / len(records),
        mean_steps_per_chain=(total_steps / total_chains) if total_chains else 0.0,
        mean_calls=sum(r.calls for r in records) / len(records),
        records=records,
    )

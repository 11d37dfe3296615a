"""Benchmark runner: methods over task sets, with accuracy and step accounting.

One report row per task: the method's raw per-chain answers are cleansed per
task kind, voted into a single prediction by ``majority_vote``, and scored by
exact string match against the gold answer. Adaptive answers carry their
chain's mean normalized entropy as the tie-breaking score; a baseline's
answers all score alike. A backend failure on a task, an aborted adaptive
run included, is recorded as incorrect with an error flag and the run
continues. Mean steps are reported both per task and per chain, since the
two averages differ for adaptive runs.
"""

from __future__ import annotations

import enum
import json
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..backends.base import Backend, BackendError
from ..engine import RunConfig, RunResult, chain_conclusions, majority_vote, run_task
from .baselines import BaselineParams, run_chain_baseline, run_tree_baseline
from .cleansing import clean_answer
from .datasets import TaskInstance

__all__ = [
    "Method",
    "TaskRecord",
    "BenchmarkReport",
    "run_benchmark",
]


class Method(enum.Enum):
    ENTRODUCTION = "entroduction"
    COT = "cot"
    COT_SC = "cotsc"
    TOT = "tot"


@dataclass(frozen=True)
class TaskRecord:
    task_id: str
    predicted: str
    gold: str
    correct: bool
    steps: int
    chains: int
    wall_time: float
    error: str | None = None


@dataclass
class BenchmarkReport:
    method: str
    accuracy: float
    mean_steps: float
    mean_steps_per_chain: float
    records: list[TaskRecord] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(
            {
                "method": self.method,
                "accuracy": self.accuracy,
                "mean_steps": self.mean_steps,
                "mean_steps_per_chain": self.mean_steps_per_chain,
                "records": [vars(r) for r in self.records],
            },
            indent=2,
        )


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
    predicted, steps, chains, error = "", 0, 0, None
    try:
        if method is Method.ENTRODUCTION:
            result = run_task(task.question, run_config, backend)
            if on_result is not None:
                on_result(task, result)
            if result.aborted:
                error = result.error or "run aborted"
            else:
                predicted = _vote_over(task, [(a, s) for _, a, s in chain_conclusions(result)])
                steps = result.total_steps
                chains = len(result.structure.chains)
        else:
            if method is Method.TOT:
                outcome = run_tree_baseline(
                    task.question, params, backend, config=run_config
                )
            else:
                n_chains = 1 if method is Method.COT else params.chains
                outcome = run_chain_baseline(
                    task.question, params, backend, n_chains=n_chains, config=run_config
                )
            # A baseline's answers count alike, so they share one score.
            predicted = _vote_over(task, [(answer, 0.0) for answer in outcome.answers])
            steps = outcome.steps_generated
            chains = params.chains if method is Method.COT_SC else 1
    except BackendError as exc:
        error = str(exc)
    return TaskRecord(
        task_id=task.id,
        predicted=predicted,
        gold=task.gold_answer,
        correct=predicted == task.gold_answer,
        steps=steps,
        chains=chains,
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
    """Score ``method`` on ``tasks``.

    ``on_result`` receives each adaptive run, an aborted one with its
    partial trace (for trace export).
    Within a task, independent backend calls go out together, up to the
    backend's ``max_in_flight`` (see ``engine.CallScheduler``); results do
    not depend on it. Tasks run one after another. A backend error ends
    only its own task, recorded with ``error`` set.
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
        records=records,
    )

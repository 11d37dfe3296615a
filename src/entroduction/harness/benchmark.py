"""Benchmark runner: methods over task sets, with accuracy and step accounting.

One report row per task: the method's raw per-chain answers are cleansed per
task kind, voted into a single prediction, and scored by exact string match
against the gold answer. Backend failures on a task are recorded as
incorrect with an error flag and the run continues. Mean steps are reported
both per task and per chain, since the two averages differ for adaptive
runs.
"""

from __future__ import annotations

import enum
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
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

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json() + "\n", encoding="utf-8")


def _vote_over(
    raw_answers: Sequence[str],
    task: TaskInstance,
    scores: Sequence[float] | None = None,
) -> str:
    cleansed: list[str] = []
    kept_scores: list[float] = []
    for index, answer in enumerate(raw_answers):
        value = clean_answer(answer, task.task_kind, task.options)
        if not value:
            continue
        cleansed.append(value)
        if scores is not None:
            kept_scores.append(scores[index])
    if not cleansed:
        return ""
    return majority_vote(cleansed, kept_scores if scores is not None else None)


def _run_one(
    task: TaskInstance,
    method: Method,
    run_config: RunConfig,
    params: BaselineParams,
    backend: Backend,
    on_result: Callable[[TaskInstance, RunResult], None] | None,
) -> TaskRecord:
    started = time.perf_counter()
    try:
        if method is Method.ENTRODUCTION:
            result = run_task(task.question, run_config, backend)
            if result.aborted:
                raise BackendError(result.error or "run aborted")
            if on_result is not None:
                on_result(task, result)
            answered = chain_conclusions(result)
            predicted = _vote_over(
                [a for _, a, _ in answered], task, [s for _, _, s in answered]
            )
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
            predicted = _vote_over(outcome.answers, task)
            steps = outcome.steps_generated
            chains = params.chains if method is Method.COT_SC else 1
        return TaskRecord(
            task_id=task.id,
            predicted=predicted,
            gold=task.gold_answer,
            correct=predicted == task.gold_answer,
            steps=steps,
            chains=chains,
            wall_time=time.perf_counter() - started,
        )
    except BackendError as exc:
        return TaskRecord(
            task_id=task.id,
            predicted="",
            gold=task.gold_answer,
            correct=False,
            steps=0,
            chains=0,
            wall_time=time.perf_counter() - started,
            error=str(exc),
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

    ``on_result`` receives each completed adaptive run (for trace export).
    Within a task, independent backend calls go out together, up to the
    backend's ``max_in_flight`` (see ``engine.generate_all``); results do
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

"""Workload inputs, the in-process reference model and the behaviour digest.

Every task is drawn from its own random stream keyed by (workload, seed,
task index), so a run that completes more tasks sees the same first tasks,
and the same seed always gives the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, replace

from entroduction.backends import (
    FinishReason,
    StepGeneration,
    SyntheticBackend,
    SyntheticStep,
    detect_answer_marker,
    render_step_prompt,
)
from entroduction.engine import RunConfig
from entroduction.harness import BaselineParams, Method, TaskInstance, TaskKind
from entroduction.metrics import TokenRecord
from entroduction.policy import PolicyConfig

from mock_server import MockModel

SYNTHETIC_N_TOKENS = (8, 32, 128)
SYNTHETIC_STEPS = 12
SYNTHETIC_P_CORRECT = 0.75
# No digits: a chain that stops before the answer step elicits no number.
STEP_TEXT = "Work through the next part of the sum."
TOT_PARAMS = BaselineParams(branching=3, layers=3)


@dataclass(frozen=True)
class Workload:
    name: str
    method: Method
    uses_http: bool
    run_config: RunConfig | None
    params: BaselineParams | None
    # Tasks whose behaviour digest every run checks; all runs complete them.
    digest_tasks: int
    # The highest percentile that keeps ten tasks beyond it at the task count
    # a 35 s run reaches (about 4000, 450 and 145). A timed pass runs on past
    # its deadline until that many tasks are done (1000 or 100).
    tail_percentile: int


WORKLOADS = {
    "synthetic_sweep": Workload(
        "synthetic_sweep", Method.ENTRODUCTION, False,
        RunConfig(max_steps=SYNTHETIC_STEPS, max_chains=16, policy=PolicyConfig(epsilon=0.5)),
        None, 64, 99,
    ),
    "http_adaptive": Workload(
        "http_adaptive", Method.ENTRODUCTION, True,
        # Two chains: the budget binds, so degraded expands occur, and the tail
        # of calls per task stays short enough for its p90 to hold steady
        # across seeds at about 450 tasks a run (with 4 chains it spread by
        # 20%, with 3 chains and 10 steps by 10%).
        RunConfig(max_steps=12, max_chains=2, policy=PolicyConfig(epsilon=0.5)),
        None, 16, 90,
    ),
    "http_tot": Workload("http_tot", Method.TOT, True, None, TOT_PARAMS, 8, 90),
}


@dataclass(frozen=True)
class BenchTask:
    instance: TaskInstance
    run_config: RunConfig | None
    # Synthetic tasks carry their own backend and the targets it realizes.
    synthetic: SyntheticBackend | None = None
    targets: tuple[float, ...] = ()
    n_tokens: int = 0


def _synthetic_schedule(rng: random.Random, gold: int) -> tuple[list[SyntheticStep], int]:
    n_tokens = rng.choice(SYNTHETIC_N_TOKENS)
    answer_at = rng.randint(2, 7)
    value = gold if rng.random() < SYNTHETIC_P_CORRECT else gold + rng.choice((-1, 1, 2))
    schedule = [
        SyntheticStep(
            target_normalized_entropy=round(rng.uniform(0.05, 1.0), 3),
            n_tokens=n_tokens,
            text=f"The answer is {value}." if index >= answer_at else STEP_TEXT,
        )
        for index in range(SYNTHETIC_STEPS)
    ]
    return schedule, n_tokens


def make_task(workload: Workload, seed: int, index: int) -> BenchTask:
    rng = random.Random(f"{workload.name}:{seed}:{index}")
    a, b = rng.randint(10, 99), rng.randint(10, 99)
    instance = TaskInstance(
        id=f"{seed}-{index}",
        question=f"Task {seed}-{index}: What is {a} + {b}?",
        gold_answer=str(a + b),
        task_kind=TaskKind.NUMERIC_MATH,
    )
    run_config = None
    if workload.run_config is not None:
        policy = replace(workload.run_config.policy, seed=rng.getrandbits(32))
        run_config = replace(workload.run_config, policy=policy)
    if workload.uses_http:
        return BenchTask(instance, run_config)
    schedule, n_tokens = _synthetic_schedule(rng, a + b)
    return BenchTask(
        instance,
        run_config,
        SyntheticBackend(schedule),
        tuple(step.target_normalized_entropy for step in schedule),
        n_tokens,
    )


class ReferenceModelBackend:
    """The mock's responses without HTTP: the expected output of the HTTP path.

    Builds the same messages the HTTP client sends and turns the mock's
    completion into token records directly, so a fault anywhere between the
    client and the engine shows up as a digest mismatch.
    """

    def __init__(self) -> None:
        self.model = MockModel()

    def generate_step(self, request) -> StepGeneration:
        messages = [
            {"role": "system", "content": request.system_prompt},
            {"role": "user", "content": render_step_prompt(request.task, request.prior_steps)},
        ]
        content = self.model.respond(messages)["choices"][0]["logprobs"]["content"]
        tokens = tuple(
            TokenRecord(
                text=entry["token"],
                chosen_logprob=entry["logprob"],
                top_alternatives=tuple(
                    (alt["token"], alt["logprob"]) for alt in entry["top_logprobs"]
                ),
            )
            for entry in content
        )
        text = "".join(token.text for token in tokens)
        finish = (
            FinishReason.ANSWER_MARKER if detect_answer_marker(text)
            else FinishReason.STOP_SEQUENCE
        )
        return StepGeneration(text=text, tokens=tokens, finish_reason=finish)


def _sig9(value: float | None) -> str:
    # Below 1e-12 a value is float noise around zero (a uniform step's variance).
    if value is None or abs(value) < 1e-12:
        return "0"
    return f"{value:.9g}"


def task_digest_lines(record, trace_rows: list[dict]) -> list[str]:
    """Behaviour of one task: its outcome and every trace event's decision."""
    lines = [json.dumps([record.task_id, record.predicted, record.steps, record.chains])]
    for row in trace_rows:
        lines.append(
            json.dumps(
                [
                    row["chain_id"], row["node_id"], row["executed"], row["finalize_reason"],
                    _sig9(row["entropy"]), _sig9(row["norm_entropy"]),
                    _sig9(row["var_entropy"]), _sig9(row["norm_var_entropy"]),
                ]
            )
        )
    return lines


def behaviour_digest(task_lines: list[list[str]]) -> str:
    sha = hashlib.sha256()
    for lines in task_lines:
        for line in lines:
            sha.update(line.encode())
            sha.update(b"\n")
    return sha.hexdigest()[:16]

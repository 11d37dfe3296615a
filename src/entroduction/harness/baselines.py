"""Fixed-shape baseline runners: plain chains, self-consistency, and trees.

Step accounting is exact and computed from the parameters, never hard-coded:
a plain chain costs ``steps`` nodes, self-consistency costs ``chains *
steps``, and a tree with ``branching`` children per node over ``layers``
levels (root level included) costs sum(branching**k for k in range(layers))
nodes. Final-answer elicitation calls are tracked separately from reasoning
steps. Requests and elicitation go through the engine's request helpers, so
a ``RunConfig`` sets sampling, prompt and marker for both the adaptive method
and these baselines. Chains advance in rounds through the engine's
``generate_all``; a tree runs on one ``CallScheduler``, which sends a node's
children as soon as its step returns and a leaf's elicitation as soon as the
leaf returns.
"""

from __future__ import annotations

import enum
from contextlib import closing
from dataclasses import dataclass

from ..backends.base import Backend, detect_answer_marker
from ..engine import (
    CallScheduler, RunConfig, conclusion_request, elicited_answer, generate_all, request_for
)

__all__ = [
    "BaselineMethod",
    "BaselineParams",
    "baseline_step_count",
    "math_params",
    "commonsense_params",
    "run_chain_baseline",
    "run_tree_baseline",
    "BaselineOutcome",
]


class BaselineMethod(enum.Enum):
    COT = "cot"
    COT_SC = "cotsc"
    TOT = "tot"


@dataclass(frozen=True)
class BaselineParams:
    """Shape parameters for the fixed baselines."""

    steps: int = 8
    chains: int = 1
    branching: int = 3
    layers: int = 5

    def __post_init__(self) -> None:
        if self.steps < 1 or self.chains < 1 or self.branching < 1 or self.layers < 1:
            raise ValueError("baseline parameters must be >= 1")


def baseline_step_count(method: BaselineMethod, params: BaselineParams) -> int:
    """Exact per-task reasoning-step cost of a baseline configuration."""
    if method is BaselineMethod.COT:
        return params.steps
    if method is BaselineMethod.COT_SC:
        return params.chains * params.steps
    return sum(params.branching**k for k in range(params.layers))


def math_params(method: BaselineMethod) -> BaselineParams:
    """Standard math-task configuration: 8-step chains, 3-chain consistency,
    ternary tree of 5 levels."""
    if method is BaselineMethod.COT:
        return BaselineParams(steps=8, chains=1)
    if method is BaselineMethod.COT_SC:
        return BaselineParams(steps=8, chains=3)
    return BaselineParams(branching=3, layers=5)


def commonsense_params(method: BaselineMethod) -> BaselineParams:
    """Standard commonsense configuration: 5-step chains, otherwise as math."""
    if method is BaselineMethod.COT:
        return BaselineParams(steps=5, chains=1)
    if method is BaselineMethod.COT_SC:
        return BaselineParams(steps=5, chains=3)
    return BaselineParams(branching=3, layers=5)


@dataclass
class BaselineOutcome:
    """Raw per-chain answers plus exact call accounting for one task."""

    answers: list[str]
    steps_generated: int
    conclusion_calls: int


Transcript = tuple[str, ...]


def run_chain_baseline(
    task: str,
    params: BaselineParams,
    backend: Backend,
    *,
    n_chains: int | None = None,
    config: RunConfig = RunConfig(),
) -> BaselineOutcome:
    """Fixed-length chains: every chain generates exactly ``params.steps``
    nodes (no early stopping, so accounting stays exact), one step of every
    chain at a time, then one answer per chain. ``config`` supplies the
    sampling settings, system prompt and answer marker."""
    chains = n_chains if n_chains is not None else params.chains
    transcripts: list[Transcript] = [()] * chains
    for _ in range(params.steps):
        requests = [request_for(config, task, path) for path in transcripts]
        generations = list(generate_all(backend, requests))
        transcripts = [path + (g.text,) for path, g in zip(transcripts, generations)]

    # A stated answer inside the transcript stands in for elicitation.
    stated = []
    for prior in transcripts:
        hits = [
            m
            for m in (detect_answer_marker(t, config.answer_marker) for t in prior)
            if m is not None
        ]
        stated.append(hits[-1] if hits else None)
    asked = [path for path, found in zip(transcripts, stated) if found is None]
    requests = [conclusion_request(config, task, path) for path in asked]
    elicited = (elicited_answer(config, g) for g in list(generate_all(backend, requests)))
    answers = [found if found is not None else next(elicited) for found in stated]
    return BaselineOutcome(answers, chains * params.steps, len(asked))


def run_tree_baseline(
    task: str,
    params: BaselineParams,
    backend: Backend,
    *,
    config: RunConfig = RunConfig(),
) -> BaselineOutcome:
    """Full tree expansion: one root step, then ``branching`` children per
    node for ``layers - 1`` further levels; answers come from the leaves, in
    breadth-first order. A node's children are requested as soon as its step
    returns, and a leaf's elicitation as soon as the leaf returns; a serial
    backend is still called layer by layer. ``config`` supplies the sampling
    settings, system prompt and answer marker."""
    asked: dict[tuple, tuple] = {}  # elicitation position -> leaf position
    answers: dict[tuple, str] = {}  # leaf position -> answer
    steps_generated = 0
    with closing(CallScheduler(backend)) as calls:
        priors = {calls.submit(request_for(config, task, ())): ()}
        for position, generation in calls:
            if position in asked:
                answers[asked[position]] = elicited_answer(config, generation)
                continue
            path = priors.pop(position) + (generation.text,)
            steps_generated += 1
            if len(path) < params.layers:
                for _ in range(params.branching):
                    priors[calls.submit(request_for(config, task, path))] = path
            elif (stated := detect_answer_marker(path[-1], config.answer_marker)) is None:
                asked[calls.submit(conclusion_request(config, task, path))] = position
            else:
                answers[position] = stated
    return BaselineOutcome([answers[p] for p in sorted(answers)], steps_generated, len(asked))

"""Fixed-shape baseline runners: plain chains, self-consistency, and trees.

Step accounting is exact and computed from the parameters, never hard-coded:
a plain chain costs ``steps`` nodes, self-consistency costs ``chains *
steps``, and a tree with ``branching`` children per node over ``layers``
levels (root level included) costs sum(branching**k for k in range(layers))
nodes. Final-answer elicitation calls are tracked separately from reasoning
steps. Requests and elicitation go through the engine's ``request_for`` and
``elicit_answer``, so a ``RunConfig`` sets sampling, prompt and marker for
both the adaptive method and these baselines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..backends.base import Backend, detect_answer_marker
from ..engine import RunConfig, elicit_answer, request_for

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
    vote_width: int | None = None
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


def run_chain_baseline(
    task: str,
    params: BaselineParams,
    backend: Backend,
    *,
    n_chains: int | None = None,
    config: RunConfig = RunConfig(),
) -> BaselineOutcome:
    """Fixed-length chains: every chain generates exactly ``params.steps``
    nodes (no early stopping, so accounting stays exact), then answers are
    sampled ``vote_width`` times round-robin across chains. ``config``
    supplies the sampling settings, system prompt and answer marker."""
    chains = n_chains if n_chains is not None else params.chains
    transcripts: list[tuple[str, ...]] = []
    steps_generated = 0
    for _ in range(chains):
        prior: tuple[str, ...] = ()
        for _ in range(params.steps):
            generation = backend.generate_step(request_for(config, task, prior))
            steps_generated += 1
            prior = prior + (generation.text,)
        transcripts.append(prior)

    vote_width = params.vote_width if params.vote_width is not None else chains
    answers: list[str] = []
    conclusion_calls = 0
    for i in range(vote_width):
        prior = transcripts[i % len(transcripts)]
        marker_hits = [
            m
            for m in (detect_answer_marker(t, config.answer_marker) for t in prior)
            if m is not None
        ]
        if marker_hits:
            # A stated answer inside the transcript stands in for elicitation.
            answers.append(marker_hits[-1])
            continue
        answers.append(elicit_answer(backend, config, task, prior))
        conclusion_calls += 1
    return BaselineOutcome(answers, steps_generated, conclusion_calls)


def run_tree_baseline(
    task: str,
    params: BaselineParams,
    backend: Backend,
    *,
    config: RunConfig = RunConfig(),
) -> BaselineOutcome:
    """Full tree expansion: one root step, then ``branching`` children per
    node for ``layers - 1`` further levels; answers come from the leaves.
    ``config`` supplies the sampling settings, system prompt and answer
    marker."""
    steps_generated = 0
    frontier: list[tuple[str, ...]] = []

    root = backend.generate_step(request_for(config, task, ()))
    steps_generated += 1
    frontier.append((root.text,))

    for _ in range(params.layers - 1):
        next_frontier: list[tuple[str, ...]] = []
        for path in frontier:
            for _ in range(params.branching):
                generation = backend.generate_step(request_for(config, task, path))
                steps_generated += 1
                next_frontier.append(path + (generation.text,))
        frontier = next_frontier

    answers: list[str] = []
    conclusion_calls = 0
    for path in frontier:
        found = detect_answer_marker(path[-1], config.answer_marker)
        if found is not None:
            answers.append(found)
            continue
        answers.append(elicit_answer(backend, config, task, path))
        conclusion_calls += 1
    return BaselineOutcome(answers, steps_generated, conclusion_calls)

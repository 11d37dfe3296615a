"""Fixed-shape baseline runners: plain chains, self-consistency, and trees.

Step accounting is exact and computed from the parameters, never hard-coded:
a plain chain costs ``steps`` nodes, self-consistency costs ``chains *
steps``, and a tree with ``branching`` children per node over ``layers``
levels (root level included) costs sum(branching**k for k in range(layers))
nodes. Final-answer elicitation calls are tracked separately from reasoning
steps. Requests and elicitation go through the engine's ``request_for`` and
``elicit_answers``, so a ``RunConfig`` sets sampling, prompt and marker for
both the adaptive method and these baselines. The calls of one tree layer,
of one step across all chains, and of the elicitation go out together
through the engine's ``generate_all``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from ..backends.base import Backend, detect_answer_marker
from ..engine import RunConfig, elicit_answers, generate_all, request_for

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


Transcript = tuple[str, ...]


def _extend(
    backend: Backend, config: RunConfig, task: str, paths: Sequence[Transcript]
) -> list[Transcript]:
    """Each path with one more generated step, the calls made together."""
    requests = [request_for(config, task, path) for path in paths]
    return [
        path + (generation.text,)
        for path, generation in zip(paths, list(generate_all(backend, requests)))
    ]


def _answers(
    backend: Backend,
    config: RunConfig,
    task: str,
    paths: Sequence[Transcript],
    stated: Sequence[str | None],
) -> tuple[list[str], int]:
    """The stated answer of each path where there is one, else one elicited
    after the path; and the number of elicitation calls."""
    asked = [path for path, found in zip(paths, stated) if found is None]
    elicited = iter(list(elicit_answers(backend, config, task, asked)))
    return [found if found is not None else next(elicited) for found in stated], len(asked)


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
    chain at a time, then answers are sampled ``vote_width`` times
    round-robin across chains. ``config`` supplies the sampling settings,
    system prompt and answer marker."""
    chains = n_chains if n_chains is not None else params.chains
    transcripts: list[Transcript] = [()] * chains
    for _ in range(params.steps):
        transcripts = _extend(backend, config, task, transcripts)

    vote_width = params.vote_width if params.vote_width is not None else chains
    voters = [transcripts[i % len(transcripts)] for i in range(vote_width)]
    # A stated answer inside the transcript stands in for elicitation.
    stated = []
    for prior in voters:
        hits = [
            m
            for m in (detect_answer_marker(t, config.answer_marker) for t in prior)
            if m is not None
        ]
        stated.append(hits[-1] if hits else None)
    answers, conclusion_calls = _answers(backend, config, task, voters, stated)
    return BaselineOutcome(answers, chains * params.steps, conclusion_calls)


def run_tree_baseline(
    task: str,
    params: BaselineParams,
    backend: Backend,
    *,
    config: RunConfig = RunConfig(),
) -> BaselineOutcome:
    """Full tree expansion: one root step, then ``branching`` children per
    node for ``layers - 1`` further levels, one layer at a time; answers come
    from the leaves. ``config`` supplies the sampling settings, system prompt
    and answer marker."""
    frontier = _extend(backend, config, task, [()])
    steps_generated = len(frontier)
    for _ in range(params.layers - 1):
        children = [path for path in frontier for _ in range(params.branching)]
        frontier = _extend(backend, config, task, children)
        steps_generated += len(frontier)

    stated = [detect_answer_marker(path[-1], config.answer_marker) for path in frontier]
    answers, conclusion_calls = _answers(backend, config, task, frontier, stated)
    return BaselineOutcome(answers, steps_generated, conclusion_calls)

"""Fixed-shape baseline runners: plain chains, self-consistency, and trees,
and ``Method``, every scored method (``BaselineMethod`` is the same enum).

Each shape is ``roots`` trees with ``branching`` children per node over
``layers`` levels (root level included): a plain chain is (1, 1, steps),
self-consistency (chains, 1, steps) and a tree (1, branching, layers). Step
accounting is exact and computed from the parameters, never hard-coded: a
shape costs roots * sum(branching**k for k in range(layers)) nodes.
Final-answer elicitation calls are tracked separately from reasoning steps.
A backend failure ends the task with a partial outcome, as in ``run_task``.
Requests and elicitation go through the engine's request helpers, so a
``RunConfig`` sets sampling for both the adaptive method and these baselines.
Every shape runs on one ``CallScheduler``, which sends a node's children as
soon as its step returns and a leaf's elicitation as soon as the leaf
returns, so no chain waits for another chain's steps. Calls are keyed by
path text, so a node's identical children (or the chains' first steps) leave
together; a failed task counts the calls at keys before its failing key.
"""

from __future__ import annotations

import enum
from contextlib import closing
from dataclasses import dataclass, replace

from ..backends.base import Backend, BackendError, detect_answer_marker
from ..engine import CallScheduler, RunConfig, conclusion_request, elicited_answer, request_for

__all__ = [
    "Method",
    "BaselineMethod",
    "BaselineParams",
    "baseline_step_count",
    "math_params",
    "commonsense_params",
    "run_chain_baseline",
    "run_tree_baseline",
    "BaselineOutcome",
]


class Method(enum.Enum):
    ENTRODUCTION = "entroduction"
    COT = "cot"
    COT_SC = "cotsc"
    TOT = "tot"


BaselineMethod = Method


@dataclass(frozen=True)
class BaselineParams:
    """Baseline shape. The defaults, the math shape, serve library and CLI alike."""

    steps: int = 8
    chains: int = 3
    branching: int = 3
    layers: int = 5

    def __post_init__(self) -> None:
        if self.steps < 1 or self.chains < 1 or self.branching < 1 or self.layers < 1:
            raise ValueError("baseline parameters must be >= 1")


def baseline_step_count(method: Method, params: BaselineParams) -> int:
    """Exact per-task reasoning-step cost of a baseline configuration."""
    if method is Method.COT:
        return params.steps
    if method is Method.COT_SC:
        return params.chains * params.steps
    if method is Method.TOT:
        return sum(params.branching**k for k in range(params.layers))
    raise ValueError(f"{method.value} has no fixed step count")


def math_params(method: Method) -> BaselineParams:
    """Standard math-task shape: the default, with one chain for CoT."""
    return BaselineParams(chains=1) if method is Method.COT else BaselineParams()


def commonsense_params(method: Method) -> BaselineParams:
    """Standard commonsense shape: 5-step chains, otherwise as math."""
    return replace(math_params(method), steps=5)


@dataclass
class BaselineOutcome:
    """Raw per-chain answers plus exact call accounting for one task.
    ``chains`` counts the trees begun. After a backend failure, ``error`` is
    its message and the rest covers the calls at keys before its call's key."""

    answers: list[str]
    steps_generated: int
    conclusion_calls: int
    chains: int
    error: str | None = None


def run_chain_baseline(
    task: str,
    params: BaselineParams,
    backend: Backend,
    *,
    n_chains: int | None = None,
    config: RunConfig = RunConfig(),
) -> BaselineOutcome:
    """Fixed-length chains: ``n_chains`` (default ``params.chains``) chains
    of exactly ``params.steps`` nodes each, with no early stopping, so
    accounting stays exact; one answer per chain; fewer than one chain is a
    ValueError. ``config`` supplies the sampling settings."""
    if n_chains is not None:
        params = replace(params, chains=n_chains)
    return _run_trees(task, params.chains, 1, params.steps, backend, config)


def run_tree_baseline(
    task: str,
    params: BaselineParams,
    backend: Backend,
    *,
    config: RunConfig = RunConfig(),
) -> BaselineOutcome:
    """Full tree expansion: one root step, then ``params.branching``
    children per node for ``params.layers - 1`` further levels; one answer
    per leaf. ``config`` supplies the sampling settings."""
    return _run_trees(task, 1, params.branching, params.layers, backend, config)


def _run_trees(
    task: str, roots: int, branching: int, layers: int, backend: Backend, config: RunConfig
) -> BaselineOutcome:
    """One answer per leaf, in leaf path text order: the last answer stated
    on the leaf's path, else one elicitation call's. A step call's key is its
    depth and the texts of its prior path, which its request is a function
    of, so identical requests share a key: the ``roots`` first steps are one
    key, a node's ``branching`` children another, sent together. A leaf's
    elicitation is keyed by the leaf's path one layer below it. A serial
    backend is called in key order, layer by layer and in path text order
    within a layer. Each step reply is read for an answer once."""
    answers: list[tuple[tuple, tuple, str]] = []  # (key, leaf path, answer)
    stated = {(1, ()): None}  # key -> the last answer stated on its prior path
    replied: list[tuple] = []  # every reply's key, as replies arrive
    error = None
    with closing(CallScheduler(backend)) as calls:
        request = request_for(config, task, ())
        for _ in range(roots):
            calls.submit(request, (1, ()))
        try:
            for key, generation in calls:
                replied.append(key)
                depth, prior = key
                if depth > layers:
                    answers.append((key, prior, elicited_answer(generation)))
                    continue
                path = prior + (generation.text,)
                answer = detect_answer_marker(generation.text) or stated[key]
                if depth < layers:
                    request = request_for(config, task, path)
                    stated[depth + 1, path] = answer
                    for _ in range(branching):
                        calls.submit(request, (depth + 1, path))
                elif answer is None:
                    calls.submit(conclusion_request(config, task, path), (depth + 1, path))
                else:
                    answers.append((key, path, answer))
        except BackendError as exc:
            error = str(exc)
    # Replies arrive in any order: count only those at keys a serial run commits.
    depths = [depth for depth, _ in filter(calls.kept, replied)]
    steps = sum(1 for depth in depths if depth <= layers)
    # A key's replies arrive in any order: equal leaf paths sort by answer.
    kept = sorted((path, answer) for key, path, answer in answers if calls.kept(key))
    return BaselineOutcome([answer for _, answer in kept], steps, len(depths) - steps,
                           chains=depths.count(1), error=error)

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
returns, so no chain waits for another chain's steps.
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
    its message and the rest covers the calls before it in serial order."""

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
    """One answer per leaf, in breadth-first order: the last answer stated
    on the leaf's path, else one elicitation call's. A call's key is its
    breadth-first place, (depth, path of child indices), so a serial backend
    is called layer by layer; a leaf's elicitation is keyed by the leaf's path
    one layer below it. Each step reply is read for an answer once."""
    answers: dict[tuple, str] = {}  # key of the call that gave a leaf's answer -> answer
    pending = {(1, (k,)): ((), None) for k in range(roots)}  # key -> prior steps, last answer
    replied: list[tuple] = []  # every reply's key, as replies arrive
    error = None
    with closing(CallScheduler(backend)) as calls:
        for key in pending:
            calls.submit(request_for(config, task, ()), key)
        try:
            for key, generation in calls:
                replied.append(key)
                depth, branch = key
                if depth > layers:
                    answers[key] = elicited_answer(generation)
                    continue
                prior, stated = pending.pop(key)
                path = prior + (generation.text,)
                stated = detect_answer_marker(generation.text) or stated
                if depth < layers:
                    request = request_for(config, task, path)
                    for j in range(branching):
                        calls.submit(request, (depth + 1, branch + (j,)))
                        pending[depth + 1, branch + (j,)] = path, stated
                elif stated is None:
                    calls.submit(conclusion_request(config, task, path), (depth + 1, branch))
                else:
                    answers[key] = stated
        except BackendError as exc:
            error = str(exc)
    # Replies arrive in any order: count only those a serial run commits.
    depths = [depth for depth, _ in filter(calls.kept, replied)]
    steps = sum(1 for depth in depths if depth <= layers)
    # By path alone, a leaf's elicitation sorts in the leaf's place.
    kept = sorted(filter(calls.kept, answers), key=lambda key: key[1])
    return BaselineOutcome([answers[key] for key in kept], steps, len(depths) - steps,
                           chains=depths.count(1), error=error)

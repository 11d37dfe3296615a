"""The control loop: generate, measure, decide, mutate, vote.

Each global iteration advances every unfinished chain by one generated step.
A chain's first two steps are taken unconditionally (no deltas exist yet);
from the third step on, the freshly measured step is compared with the
previous one and the delta pair is classified and sampled epsilon-greedily:

* Deepen keeps the chain growing,
* Expand immediately samples a sibling continuation, forming a new chain
  that shares the prefix by node identity (at the chain budget it degrades
  to a deepen),
* Stop finalizes the chain, either immediately (hard stop) or after a fixed
  grace of forced steps (soft stop).

A chain also finalizes as soon as a step states an answer ("the answer is
..."), which preempts whatever action was sampled for that step, and every
surviving chain finalizes when the step budget runs out. Chains without a
detected answer are asked once more to state one so they can join the vote.
The run conclusion is the majority vote over chain answers, ties broken by
the most confident chain (lowest mean normalized step entropy).

Backend calls that do not depend on each other go out together through
``generate_all``: every step call of an iteration, and the final elicitation
calls. Up to the backend's ``max_in_flight`` calls run at once (a backend
that declares none is called one request at a time, on the calling thread).
Results are still committed chain by chain in ascending id order, node ids
are allocated at commit time, and an expand's sibling call, which depends on
that chain's decision, runs at the chain's turn, so the trace is the one a
serial run produces.

``request_for``, ``elicit_answers`` and ``generate_all`` are the one way to
build a generation request, to elicit final answers and to fan calls out,
shared with the fixed-shape baselines.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .backends.base import (
    Backend,
    BackendError,
    DEFAULT_ANSWER_MARKER,
    DEFAULT_SYSTEM_PROMPT,
    GenerationRequest,
    StepGeneration,
    detect_answer_marker,
    render_conclusion_prompt,
)
from .metrics import StepMetrics, compute_step_metrics
from .policy import (
    Action,
    Decision,
    PolicyConfig,
    PolicyState,
    StopDirective,
    apply_stop,
    chain_rng,
    decide,
)
from .structure import Chain, ChainStatus, ReasoningNode, ReasoningStructure, create_structure

__all__ = [
    "ExecutedBehavior",
    "TraceEvent",
    "RunConfig",
    "RunResult",
    "run_task",
    "request_for",
    "generate_all",
    "elicit_answers",
    "majority_vote",
    "chain_conclusions",
]


class ExecutedBehavior:
    """Executed-behavior labels for trace events (post remaps): the value of
    the executed Action, or forced_deepen for an unconditional step."""

    DEEPEN = Action.DEEPEN.value
    EXPAND = Action.EXPAND.value
    STOP = Action.STOP.value
    FORCED_DEEPEN = "forced_deepen"


@dataclass(frozen=True)
class TraceEvent:
    """One generated step and the decision taken around it.

    Every event corresponds to exactly one generated node, including Stop
    events (the step that revealed the stop signal is kept; only future
    steps are cut off). ``state`` and the action fields are None for forced
    steps and for the sibling event of an expand.
    """

    step_index: int
    chain_id: int
    node_id: int
    metrics: StepMetrics
    state: PolicyState | None
    best_action: Action | None
    sampled_action: Action | None
    executed: str
    stop_pending_remaining: int | None = None
    finalize_reason: str | None = None


@dataclass(frozen=True)
class RunConfig:
    """Engine knobs for one run."""

    max_steps: int = 16
    max_chains: int = 16
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    answer_marker: str = DEFAULT_ANSWER_MARKER
    system_prompt: str = DEFAULT_SYSTEM_PROMPT
    temperature: float = GenerationRequest.temperature
    max_tokens: int = GenerationRequest.max_tokens
    top_logprobs: int = GenerationRequest.top_logprobs
    elicit_final_answer: bool = True

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.max_chains < 1:
            raise ValueError("max_chains must be >= 1")


@dataclass
class RunResult:
    """Everything one run produced."""

    structure: ReasoningStructure
    conclusion: str
    trace: tuple[TraceEvent, ...]
    total_steps: int
    wall_time: float
    no_conclusion: bool = False
    aborted: bool = False
    error: str | None = None
    conclusion_calls: int = 0


def majority_vote(
    conclusions: Sequence[str], scores: Sequence[float] | None = None
) -> str:
    """Most frequent conclusion; ties go to the lowest accompanying score.

    ``scores`` aligns with ``conclusions`` (mean normalized step entropy of
    the producing chain: lower means more confident). Without scores, ties
    resolve to the value seen first. Empty input yields the empty string.
    """
    conclusions = list(conclusions)
    if not conclusions:
        return ""
    if scores is not None and len(scores) != len(conclusions):
        raise ValueError("scores must align with conclusions")
    counts = Counter(conclusions)
    top = max(counts.values())
    tied = [value for value, count in counts.items() if count == top]
    if len(tied) == 1:
        return tied[0]
    tied_set = set(tied)
    if scores is None:
        for value in conclusions:
            if value in tied_set:
                return value
        return tied[0]
    best_value = None
    best_key: tuple[float, int] | None = None
    for index, (value, score) in enumerate(zip(conclusions, scores)):
        if value not in tied_set:
            continue
        key = (float(score), index)
        if best_key is None or key < best_key:
            best_key = key
            best_value = value
    return best_value if best_value is not None else tied[0]


def chain_conclusions(result: RunResult) -> list[tuple[int, str, float]]:
    """(chain id, raw answer, mean normalized entropy) for answered chains."""
    out = []
    for chain in result.structure.chains:
        if chain.final_answer:
            out.append((chain.id, chain.final_answer, chain.mean_normalized_entropy()))
    return out


def request_for(config: RunConfig, task: str, prior: Sequence[str]) -> GenerationRequest:
    """The generation request for ``task`` after the steps in ``prior``."""
    return GenerationRequest(
        system_prompt=config.system_prompt,
        task=task,
        prior_steps=tuple(prior),
        temperature=config.temperature,
        max_tokens=config.max_tokens,
        top_logprobs=config.top_logprobs,
    )


def generate_all(
    backend: Backend, requests: Iterable[GenerationRequest]
) -> Iterator[StepGeneration]:
    """Each request's generation, yielded in request order.

    Up to ``backend.max_in_flight`` calls run at once on worker threads. A
    backend without that attribute, or a batch with one distinct request, is
    called lazily on the caller's thread: one call per item consumed, so the
    calls and their order are those of a plain loop. Identical requests run
    one after another in submission order, so a backend that answers by
    (request, occurrence) gives the same replies in any schedule. The first
    failing request in order raises its error once every earlier result has
    been yielded. Closing the generator cancels calls not yet started and
    waits for those in flight; a caller that may stop early closes it
    (``contextlib.closing``).
    """
    requests = list(requests)
    groups: dict[GenerationRequest, list[int]] = {}
    for index, request in enumerate(requests):
        groups.setdefault(request, []).append(index)
    width = min(getattr(backend, "max_in_flight", 1), len(groups))
    if width <= 1:
        for request in requests:
            yield backend.generate_step(request)
        return

    futures: list[Future] = [Future() for _ in requests]

    def run_group(indices: list[int]) -> None:
        for index in indices:
            future = futures[index]
            if not future.set_running_or_notify_cancel():
                return
            try:
                future.set_result(backend.generate_step(requests[index]))
            except Exception as exc:
                # Later requests of the group would follow a failure in order.
                future.set_exception(exc)
                return

    pool = ThreadPoolExecutor(width, thread_name_prefix="entroduction-generate")
    try:
        for indices in groups.values():
            pool.submit(run_group, indices)
        for future in futures:
            yield future.result()
    finally:
        for future in futures:
            future.cancel()
        pool.shutdown(wait=True)


def elicit_answers(
    backend: Backend, config: RunConfig, task: str, priors: Iterable[Sequence[str]]
) -> Iterator[str]:
    """Ask once per prior for a final answer, yielded in order: the stated
    answer if the reply has the marker, else the whole stripped reply."""
    requests = [
        request_for(config, render_conclusion_prompt(task, prior), prior)
        for prior in map(tuple, priors)
    ]
    with closing(generate_all(backend, requests)) as generations:
        for generation in generations:
            answer = detect_answer_marker(generation.text, config.answer_marker)
            yield answer if answer is not None else generation.text.strip()


class _Runner:
    def __init__(self, task: str, config: RunConfig, backend: Backend):
        self.config = config
        self.backend = backend
        self.structure = create_structure(task, config.max_chains)
        self.trace: list[TraceEvent] = []
        self.rngs: dict[int, np.random.Generator] = {}
        self.total_steps = 0
        self.conclusion_calls = 0

    def rng_for(self, chain_id: int) -> np.random.Generator:
        if chain_id not in self.rngs:
            self.rngs[chain_id] = chain_rng(self.config.policy.seed, chain_id)
        return self.rngs[chain_id]

    def make_node(self, chain: Chain, generation: StepGeneration) -> ReasoningNode:
        if not generation.tokens:
            raise BackendError("empty step")
        metrics = compute_step_metrics(generation.tokens)
        node = ReasoningNode(
            id=self.structure.allocate_node_id(),
            step_index=len(chain.nodes) + 1,
            text=generation.text,
            tokens=generation.tokens,
            metrics=metrics,
        )
        self.total_steps += 1
        return node

    def record(
        self,
        chain: Chain,
        node: ReasoningNode,
        step_index: int,
        executed: str,
        state: PolicyState | None = None,
        decision: Decision | None = None,
        remaining: int | None = None,
        reason: str | None = None,
    ) -> None:
        """Finalize ``chain`` if ``node`` states an answer, then log the node."""
        answer = detect_answer_marker(node.text, self.config.answer_marker)
        if answer:
            chain.final_answer = answer
            chain.finalize()
            reason = "answer_marker"
        self.trace.append(
            TraceEvent(
                step_index=step_index,
                chain_id=chain.id,
                node_id=node.id,
                metrics=node.metrics,
                state=state,
                best_action=None if decision is None else decision.best,
                sampled_action=None if decision is None else decision.sampled,
                executed=executed,
                stop_pending_remaining=remaining,
                finalize_reason=reason,
            )
        )

    def advance_chain(
        self,
        chain: Chain,
        step_index: int,
        request: GenerationRequest,
        generation: StepGeneration,
    ) -> None:
        """Commit ``generation``, the reply to ``request``, as the chain's step
        in iteration ``step_index``."""
        node = self.make_node(chain, generation)

        # Soft-stop grace steps, and the first two steps (no delta pair
        # exists yet), are unconditional deepens.
        action, executed = Action.DEEPEN, ExecutedBehavior.FORCED_DEEPEN
        state = decision = None
        if chain.status is ChainStatus.ACTIVE and len(chain.nodes) >= 2:
            previous = chain.nodes[-1].metrics
            state = PolicyState(
                delta_entropy=node.metrics.entropy_bits - previous.entropy_bits,
                delta_variance=node.metrics.variance_entropy - previous.variance_entropy,
            )
            decision = decide(state, self.config.policy, self.rng_for(chain.id))
            action = decision.action
            if detect_answer_marker(node.text, self.config.answer_marker):
                # An answer preempts whatever was sampled: keep the step, end the chain.
                action = Action.DEEPEN
            elif action is Action.EXPAND and (
                len(self.structure.chains) >= self.structure.max_chains
            ):
                # Chain budget exhausted: degrade to a deepen, skip the sibling call.
                action = Action.DEEPEN
            executed = action.value

        remaining = reason = None
        if action is Action.EXPAND:
            sibling_node = self.make_node(chain, self.backend.generate_step(request))
            sibling_id = self.structure.expand(chain, node, sibling_node)
            assert sibling_id is not None  # budget was checked above
        else:
            chain.deepen(node)
        if chain.status is ChainStatus.STOP_PENDING:
            remaining = chain.tick_stop_grace()
            if remaining == 0:
                chain.finalize()
                reason = "stop_grace_exhausted"
        elif action is Action.STOP:
            if apply_stop(chain, self.config.policy) is StopDirective.TERMINATE:
                chain.finalize()
                reason = "stop"
            else:
                remaining = chain.stop_remaining
        self.record(chain, node, step_index, executed, state, decision, remaining, reason)
        if action is Action.EXPAND:
            self.record(
                self.structure.chains[-1], sibling_node, step_index, ExecutedBehavior.EXPAND
            )

    def advance_round(self, step_index: int) -> None:
        """Advance every unfinished chain by one step, calls made together."""
        chains = self.structure.unfinished_chains()
        requests = [
            request_for(self.config, self.structure.task, chain.node_texts())
            for chain in chains
        ]
        with closing(generate_all(self.backend, requests)) as generations:
            for chain, request, generation in zip(chains, requests, generations):
                self.advance_chain(chain, step_index, request, generation)

    def elicit_conclusions(self) -> None:
        pending = [
            chain for chain in self.structure.chains
            if not chain.final_answer and chain.nodes
        ]
        answers = elicit_answers(
            self.backend, self.config, self.structure.task,
            [chain.node_texts() for chain in pending],
        )
        with closing(answers):
            for chain, answer in zip(pending, answers):
                self.conclusion_calls += 1
                chain.final_answer = answer or None

    def run(self) -> RunResult:
        started = time.perf_counter()
        aborted = False
        error: str | None = None
        try:
            step_index = 0
            while step_index < self.config.max_steps and self.structure.unfinished_chains():
                step_index += 1
                self.advance_round(step_index)
            for chain in self.structure.unfinished_chains():
                chain.finalize()
            if self.config.elicit_final_answer:
                self.elicit_conclusions()
        except BackendError as exc:
            aborted = True
            error = str(exc)
            for chain in self.structure.unfinished_chains():
                chain.finalize()

        answered = [
            (chain.final_answer, chain.mean_normalized_entropy())
            for chain in self.structure.chains
            if chain.final_answer
        ]
        conclusion = majority_vote(
            [a for a, _ in answered], [s for _, s in answered]
        )
        return RunResult(
            structure=self.structure,
            conclusion=conclusion,
            trace=tuple(self.trace),
            total_steps=self.total_steps,
            wall_time=time.perf_counter() - started,
            no_conclusion=not answered,
            aborted=aborted,
            error=error,
            conclusion_calls=self.conclusion_calls,
        )


def run_task(task: str, config: RunConfig, backend: Backend) -> RunResult:
    """Run the full control loop for one task against ``backend``.

    Deterministic given (task, config, backend behavior): chain random
    streams are keyed by (seed, chain id) and chains are committed in
    ascending id order, with chains created mid-iteration first acting in
    the next iteration. Calls made together (see ``generate_all``) change
    timing, not results. A fatal backend error aborts the run and returns the
    partial trace with ``aborted`` set; no worker thread outlives the call.
    A blank task raises ValueError before any backend call.
    """
    return _Runner(task, config, backend).run()

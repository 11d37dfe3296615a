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

Backend calls go through a ``CallScheduler``, which sends up to the
backend's ``max_in_flight`` calls at once (a backend that declares none is
called one request at a time, on the calling thread). This loop keeps its
rounds: the step calls of an iteration, and then the elicitation calls, go
out together through ``generate_all``. Results are still committed chain by
chain in ascending id order, node ids are allocated at commit time, and an
expand's sibling call, which depends on that chain's decision, runs at the
chain's turn, so the trace is the one a serial run produces.

``request_for``, ``conclusion_request`` with ``elicited_answer``, and the
scheduler are the one way to build a step request, to elicit a final answer
and to send calls, shared with the fixed-shape baselines.
"""

from __future__ import annotations

import math
import time
from collections import Counter, deque
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

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
    "CallScheduler",
    "generate_all",
    "conclusion_request",
    "elicited_answer",
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


class CallScheduler:
    """One run's backend calls, each sent as soon as it is submitted.

    ``submit`` queues a request and returns its position in a serial run:
    breadth first, then by parent, then by submission, where a request
    submitted after a reply was taken is that reply's child. Iterating
    yields ``(position, generation)`` per reply, on the caller's thread, as
    replies arrive. Up to ``backend.max_in_flight`` calls run at once on
    worker threads; a backend without it is called lazily on the caller's
    thread in position order, as in a plain loop, and so is a call with
    nothing in flight and only identical requests waiting. Identical
    requests run one after another in submission order, so a backend that
    answers by (request, occurrence) gives the same replies in any schedule.
    The earliest failure by position is raised once every reply before it
    has been yielded. ``close`` cancels calls not yet started and waits for
    those in flight.
    """

    def __init__(self, backend: Backend):
        self._backend = backend
        self._width = getattr(backend, "max_in_flight", 1)
        self._waiting: list[tuple[tuple, GenerationRequest]] = []
        self._running: dict[Future, tuple[tuple, GenerationRequest]] = {}
        self._ready: deque[tuple[tuple, StepGeneration]] = deque()
        # Calls at or after the earliest failure's position are dropped.
        self._limit, self._error = (math.inf,), None
        self._pool: ThreadPoolExecutor | None = None
        self._parent, self._children = (), 0

    def submit(self, request: GenerationRequest) -> tuple:
        path = self._parent + (self._children,)
        self._children += 1
        position = (len(path), path)
        if position < self._limit:
            self._waiting.append((position, request))
        return position

    def __iter__(self) -> Iterator[tuple[tuple, StepGeneration]]:
        while True:
            while not self._ready:
                if not self._waiting and all(
                    position > self._limit for position, _ in self._running.values()
                ):
                    if self._error is not None:
                        raise self._error
                    return
                self._send()
            position, generation = self._ready.popleft()
            self._parent, self._children = position[1], 0
            yield position, generation

    def _send(self) -> None:
        """Make the first waiting call here if nothing could run beside it,
        else start calls not held behind an identical one and take replies."""
        if self._waiting and (self._width <= 1 or not self._running and all(
                request == self._waiting[0][1] for _, request in self._waiting)):
            position, request = self._waiting.pop(0)
            self._finish(position, self._backend.generate_step, request)
            return
        held = {request for _, request in self._running.values()}
        waiting, self._waiting = self._waiting, []
        for position, request in waiting:
            if request in held or len(self._running) >= self._width:
                self._waiting.append((position, request))
            else:
                self._pool = self._pool or ThreadPoolExecutor(
                    self._width, thread_name_prefix="entroduction-generate")
                future = self._pool.submit(self._backend.generate_step, request)
                self._running[future] = (position, request)
            held.add(request)
        done, _ = wait(self._running, return_when=FIRST_COMPLETED)
        for future in sorted(done, key=lambda f: self._running[f][0]):
            self._finish(self._running.pop(future)[0], future.result)

    def _finish(self, position: tuple, outcome: Callable[..., StepGeneration], *args) -> None:
        if position > self._limit:
            return
        try:
            self._ready.append((position, outcome(*args)))
        except Exception as exc:
            self._limit, self._error = position, exc
            self._waiting = [w for w in self._waiting if w[0] < position]
            self._ready = deque(r for r in self._ready if r[0] < position)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)


def generate_all(
    backend: Backend, requests: Iterable[GenerationRequest]
) -> Iterator[StepGeneration]:
    """Each request's generation, yielded in request order, from one
    ``CallScheduler``: a backend without ``max_in_flight`` is called lazily,
    one call per item consumed, and the first failing request in order
    raises once every earlier result has been yielded. Closing the generator
    cancels calls not yet started and waits for those in flight; a caller
    that may stop early closes it (``contextlib.closing``)."""
    with closing(CallScheduler(backend)) as calls:
        positions = [calls.submit(request) for request in requests]
        replies, arrivals = {}, iter(calls)
        for position in positions:
            while position not in replies:
                replies.update([next(arrivals)])
            yield replies.pop(position)


def conclusion_request(config: RunConfig, task: str, prior: Sequence[str]) -> GenerationRequest:
    """The request asking for a final answer after the steps in ``prior``."""
    return request_for(config, render_conclusion_prompt(task, tuple(prior)), prior)


def elicited_answer(config: RunConfig, generation: StepGeneration) -> str:
    """The answer a conclusion reply states, else the whole stripped reply."""
    answer = detect_answer_marker(generation.text, config.answer_marker)
    return answer if answer is not None else generation.text.strip()


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
        requests = [
            conclusion_request(self.config, self.structure.task, chain.node_texts())
            for chain in pending
        ]
        with closing(generate_all(self.backend, requests)) as generations:
            for chain, generation in zip(pending, generations):
                self.conclusion_calls += 1
                chain.final_answer = elicited_answer(self.config, generation) or None

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

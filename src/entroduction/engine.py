"""The control loop: generate, measure, decide, mutate, vote.

Each global iteration advances every unfinished chain by one generated step.
A chain's first two steps are taken unconditionally (no deltas exist yet);
from the third step on, the freshly measured step is compared with the
previous one and the delta pair is classified and sampled epsilon-greedily:

* Deepen keeps the chain growing,
* Expand immediately samples a sibling continuation, forming a new chain
  that shares the prefix by node identity (at the chain budget it degrades
  to a deepen, so progress is never lost),
* Stop finalizes the chain, either immediately (hard stop, stop_k = 1) or
  after a grace of stop_k - 1 forced steps (soft stop), which later deltas
  cannot cancel.

A chain also finalizes as soon as a step states an answer (the text after
the last ``ANSWER_MARKER``, "the answer is", the sentence both prompt
templates ask for), which preempts whatever action was sampled for that
step, and every surviving chain finalizes when the step budget runs out.
Chains without a detected answer are asked once more to state one so they
can join the vote.
The run conclusion is the majority vote over chain answers, ties broken by
the most confident chain (lowest mean normalized step entropy).

A run sends every backend call through one ``CallScheduler``, up to the
backend's ``max_in_flight`` at once (a backend that declares none is called
on the calling thread, one request at a time). A call's key is its place in
a serial run: ``(j, c, 0)`` for chain c's step in iteration j, ``(j, c, 1)``
for its expand sibling and ``(max_steps + 1, c, 0)`` for its elicitation. A
chain submits its next call (its next step within the budget, else its
elicitation) as soon as its own step is committed, with an expand's sibling
call; only a chain that an expand creates waits for the iteration's last
step. So every call but a sibling is submitted in key order, and identical
requests keep their serial occurrences.
The run takes each reply from the scheduler by its key, in key order, and
allocates node ids as it commits them, so the trace is the one a serial run
produces. Each reply object is measured, and read for an answer, once per
run: a backend that returns one object to several calls (the synthetic
backend, to every chain at a depth and to an expand's sibling) gets one
reading, reused by every node built from it.

``request_for``, ``conclusion_request`` with ``elicited_answer``, and the
scheduler are the one way to build a step request, to elicit a final answer
and to send calls, shared with the fixed-shape baselines.
"""

from __future__ import annotations

import time
from bisect import insort
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

from .backends.base import (
    Backend,
    BackendError,
    DEFAULT_SYSTEM_PROMPT,
    GenerationRequest,
    StepGeneration,
    detect_answer_marker,
    render_conclusion_prompt,
)
from .metrics import StepMetrics, compute_step_metrics
from .policy import (
    Action,
    ChainRng,
    Decision,
    PolicyConfig,
    PolicyState,
    chain_rng,
    decide,
)
from .structure import Chain, ReasoningNode, ReasoningStructure, create_structure

__all__ = [
    "ExecutedBehavior",
    "TraceEvent",
    "RunConfig",
    "RunResult",
    "run_task",
    "request_for",
    "CallScheduler",
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
    temperature: float = GenerationRequest.temperature
    max_tokens: int = GenerationRequest.max_tokens
    elicit_final_answer: bool = True

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.max_chains < 1:
            raise ValueError("max_chains must be >= 1")
        # The run's requests carry these sampling values: check them as a request does.
        request_for(self, "", ())


@dataclass
class RunResult:
    """Everything one run produced."""

    structure: ReasoningStructure
    conclusion: str
    trace: tuple[TraceEvent, ...]
    total_steps: int
    wall_time: float
    aborted: bool = False
    error: str | None = None
    conclusion_calls: int = 0


def majority_vote(
    conclusions: Sequence[str], scores: Sequence[float] | None = None
) -> str:
    """Most frequent conclusion; ties go to the lowest accompanying score,
    then to the value seen first.

    ``scores`` aligns with ``conclusions`` (mean normalized step entropy of
    the producing chain: lower means more confident); without scores, every
    score counts as equal. Empty input yields the empty string.
    """
    conclusions = list(conclusions)
    if not conclusions:
        return ""
    if scores is not None and len(scores) != len(conclusions):
        raise ValueError("scores must align with conclusions")
    counts = Counter(conclusions)
    _, _, index = min(
        (-counts[value], 0.0 if scores is None else float(scores[i]), i)
        for i, value in enumerate(conclusions)
    )
    return conclusions[index]


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
        system_prompt=DEFAULT_SYSTEM_PROMPT,
        task=task,
        prior_steps=tuple(prior),
        temperature=config.temperature,
        max_tokens=config.max_tokens,
    )


class CallScheduler:
    """A run's backend calls, each placed by a key its caller gives.

    ``submit(request, key)`` queues a call at ``key``, its place in a serial
    run: any value that compares with the run's other keys. Several calls
    may share a key if they are the same request. ``take(key)`` returns
    ``(key, generation)`` for a reply at ``key``, and ``take()`` (or
    iterating) for the first reply to arrive, on the caller's thread; a key's
    replies are handed out one at a time in the order they arrive, replies
    that arrive early wait here until taken, and iteration stops once no call
    is left. Up to ``backend.max_in_flight`` calls run at once on worker
    threads, started in key order, and the calls at one key run together; a
    backend without it is called lazily on the caller's thread in key order,
    as in a plain loop. Identical requests at different keys run one key at a
    time in key order: each waits until every reply at the key before it has
    been taken, and then the lowest-keyed one waiting starts. An expand's
    sibling, submitted right after its step's reply is taken, thus runs
    before any identical request at a higher key, so a backend that answers
    by (request, occurrence) gives each key the same replies in any schedule.
    With nothing in flight and no other waiting call free to start, the first
    waiting call is made here, so taking replies out of key order never
    stalls. A blank reply fails its call with ``BackendError("empty step")``,
    whichever backend sent it. A failed call fails its key: the earliest
    failing key is raised once every reply at an earlier key has been
    returned, and ``kept`` tells the keys before it. ``close`` cancels calls
    not yet started and waits for those in flight.
    """

    def __init__(self, backend: Backend):
        self._backend = backend
        self._width = getattr(backend, "max_in_flight", 1)
        self._waiting: list[tuple[Any, GenerationRequest]] = []  # in key order
        self._running: dict[Future, tuple[Any, GenerationRequest]] = {}
        self._ready: dict[Any, tuple[GenerationRequest, list[StepGeneration]]] = {}  # untaken
        # The earliest failure's (key, error): calls at or after it are dropped.
        self._failed: tuple[Any, Exception] | None = None
        self._pool: ThreadPoolExecutor | None = None

    def kept(self, key: Any) -> bool:
        """Whether ``key`` is before every failed call's key."""
        return self._failed is None or key < self._failed[0]

    def submit(self, request: GenerationRequest, key: Any) -> None:
        if self.kept(key):
            insort(self._waiting, (key, request))

    def __iter__(self) -> Iterator[tuple[Any, StepGeneration]]:
        return self

    def take(self, key: Any = None) -> tuple[Any, StepGeneration]:
        """A reply at ``key``, or the first to arrive when ``key`` is None. With no
        call left to give one, ``take()`` raises StopIteration, ``take(key)`` KeyError."""
        while not self._ready or key is not None and key not in self._ready:
            if not self._waiting and not any(self.kept(k) for k, _ in self._running.values()):
                if self._failed is not None:
                    raise self._failed[1]
                raise StopIteration if key is None else KeyError(key)
            self._send()
        if key is None:
            key = next(iter(self._ready))
        replies = self._ready[key][1]
        if len(replies) == 1:
            del self._ready[key]
        return key, replies.pop(0)

    __next__ = take

    def _send(self) -> None:
        """Make the first waiting call here if nothing could run beside it, else
        start calls not held behind an identical one at another key and take replies."""
        if self._width > 1:
            held = {request: key for key, request in self._running.values()}  # request -> its key
            held.update((request, key) for key, (request, _) in self._ready.items())
            free = [call for call in self._waiting if held.setdefault(call[1], call[0]) == call[0]]
        if self._width <= 1 or not self._running and free in ([], self._waiting[:1]):
            self._finish(*self._waiting.pop(0))
            return
        for call in free[:self._width - len(self._running)]:
            self._waiting.remove(call)
            self._pool = self._pool or ThreadPoolExecutor(
                self._width, thread_name_prefix="entroduction-generate")
            self._running[self._pool.submit(self._backend.generate_step, call[1])] = call
        done, _ = wait(self._running, return_when=FIRST_COMPLETED)
        for future in sorted(done, key=lambda f: self._running[f][0]):
            self._finish(*self._running.pop(future), future)

    def _finish(self, key: Any, request: GenerationRequest, future: Future | None = None) -> None:
        """Keep the reply to ``request``: ``future``'s, else one made here."""
        if not self.kept(key):
            return
        try:
            generation = self._backend.generate_step(request) if future is None else future.result()
            if not generation.text.strip():
                raise BackendError("empty step")
            self._ready.setdefault(key, (request, []))[1].append(generation)
        except Exception as exc:
            self._failed = key, exc
            self._waiting = [w for w in self._waiting if w[0] < key]
            self._ready = {k: r for k, r in self._ready.items() if k < key}

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)


def conclusion_request(config: RunConfig, task: str, prior: Sequence[str]) -> GenerationRequest:
    """The request asking for a final answer after the steps in ``prior``."""
    return request_for(config, render_conclusion_prompt(task, tuple(prior)), prior)


def elicited_answer(generation: StepGeneration) -> str:
    """The answer a conclusion reply states, else the whole stripped reply."""
    answer = detect_answer_marker(generation.text)
    return answer if answer is not None else generation.text.strip()


class _Runner:
    def __init__(self, task: str, config: RunConfig, backend: Backend):
        self.config = config
        self.calls = CallScheduler(backend)
        self.structure = create_structure(task)
        self.trace: list[TraceEvent] = []
        self.rngs: dict[int, ChainRng] = {}
        # The grace steps left to each chain with a soft stop pending, by chain id.
        self.grace: dict[int, int] = {}
        self.conclusion_calls = 0
        # One reading per reply object: the reply (so its id is not reused),
        # its metrics and the answer it states.
        self.readings: dict[int, tuple[StepGeneration, StepMetrics, str | None]] = {}

    def rng_for(self, chain_id: int) -> ChainRng:
        if chain_id not in self.rngs:
            self.rngs[chain_id] = chain_rng(self.config.policy.seed, chain_id)
        return self.rngs[chain_id]

    def make_node(self, key: tuple) -> tuple[ReasoningNode, str | None]:
        """A node from the reply at ``key``, and the answer it states; a
        reply object is measured and read the first time only."""
        _, generation = self.calls.take(key)
        reading = self.readings.get(id(generation))
        if reading is None:
            reading = self.readings[id(generation)] = (
                generation,
                compute_step_metrics(generation.tokens),
                detect_answer_marker(generation.text),
            )
        node = ReasoningNode(
            id=self.structure.allocate_node_id(),
            text=generation.text,
            metrics=reading[1],
        )
        return node, reading[2]

    def record(
        self,
        chain: Chain,
        node: ReasoningNode,
        answer: str | None,
        step_index: int,
        executed: str,
        state: PolicyState | None = None,
        decision: Decision | None = None,
        remaining: int | None = None,
        reason: str | None = None,
    ) -> None:
        """Finalize ``chain`` if ``node`` states ``answer``, then log the node."""
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

    def follow_up(self, chain: Chain, step_index: int, texts: list[str]) -> None:
        """Submit the call ``chain`` makes after step ``step_index``, its steps being
        ``texts``: its next step while unfinished within budget, else its elicitation."""
        if not chain.finalized and step_index < self.config.max_steps:
            request = request_for(self.config, self.structure.task, texts)
            self.calls.submit(request, (step_index + 1, chain.id, 0))
        elif self.config.elicit_final_answer and not chain.final_answer:
            request = conclusion_request(self.config, self.structure.task, texts)
            self.calls.submit(request, (self.config.max_steps + 1, chain.id, 0))

    def advance_chain(self, chain: Chain, step_index: int) -> None:
        """Commit the reply at ``(step_index, chain.id, 0)`` as the chain's step and
        submit its next call, with the sibling call at ``(step_index, chain.id, 1)``."""
        node, answer = self.make_node((step_index, chain.id, 0))

        # Soft-stop grace steps, and the first two steps (no delta pair
        # exists yet), are unconditional deepens.
        action, executed = Action.DEEPEN, ExecutedBehavior.FORCED_DEEPEN
        state = decision = None
        pending = self.grace.get(chain.id)
        if pending is None and len(chain.nodes) >= 2:
            previous = chain.nodes[-1].metrics
            state = PolicyState(
                delta_entropy=node.metrics.entropy_bits - previous.entropy_bits,
                delta_variance=node.metrics.variance_entropy - previous.variance_entropy,
            )
            decision = decide(state, self.config.policy, self.rng_for(chain.id))
            action = decision.action
            if answer:
                # An answer preempts whatever was sampled: keep the step, end the chain.
                action = Action.DEEPEN
            elif action is Action.EXPAND and len(self.structure.chains) >= self.config.max_chains:
                # Chain budget exhausted: degrade to a deepen, skip the sibling call.
                action = Action.DEEPEN
            executed = action.value

        remaining = reason = None
        if action is Action.EXPAND:
            texts = chain.node_texts()
            self.calls.submit(request_for(self.config, self.structure.task, texts),
                              (step_index, chain.id, 1))
            self.follow_up(chain, step_index, [*texts, node.text])
            sibling_node, sibling_answer = self.make_node((step_index, chain.id, 1))
            sibling_id = self.structure.expand(chain, node, sibling_node)
        else:
            chain.deepen(node)
        if pending is not None:
            self.grace[chain.id] = remaining = pending - 1
            if remaining == 0:
                chain.finalize()
                reason = "stop_grace_exhausted"
        elif action is Action.STOP and self.config.policy.stop_k == 1:
            chain.finalize()
            reason = "stop"
        elif action is Action.STOP:
            self.grace[chain.id] = remaining = self.config.policy.stop_k - 1
        self.record(chain, node, answer, step_index, executed, state, decision, remaining, reason)
        if action is Action.EXPAND:
            self.record(self.structure.chains[sibling_id], sibling_node, sibling_answer,
                        step_index, ExecutedBehavior.EXPAND)
        else:
            self.follow_up(chain, step_index, chain.node_texts())

    def run(self) -> RunResult:
        started = time.perf_counter()
        error: str | None = None
        try:
            self.follow_up(self.structure.chains[0], 0, [])
            step_index = 0
            while step_index < self.config.max_steps and (
                    chains := self.structure.unfinished_chains()):
                step_index += 1
                created = len(self.structure.chains)
                for chain in chains:
                    self.advance_chain(chain, step_index)
                # New chains send their first calls after every older chain's.
                for chain in self.structure.chains[created:]:
                    self.follow_up(chain, step_index, chain.node_texts())
            for chain in self.structure.chains:
                if self.config.elicit_final_answer and not chain.final_answer:
                    _, generation = self.calls.take((self.config.max_steps + 1, chain.id, 0))
                    self.conclusion_calls += 1
                    chain.final_answer = elicited_answer(generation) or None
        except BackendError as exc:
            error = str(exc)
        finally:
            self.calls.close()
        for chain in self.structure.unfinished_chains():
            chain.finalize()
        result = RunResult(
            structure=self.structure,
            conclusion="",
            trace=tuple(self.trace),
            total_steps=self.structure.nodes_allocated,
            wall_time=time.perf_counter() - started,
            aborted=error is not None,
            error=error,
            conclusion_calls=self.conclusion_calls,
        )
        answered = chain_conclusions(result)
        result.conclusion = majority_vote([a for _, a, _ in answered], [s for _, _, s in answered])
        return result


def run_task(task: str, config: RunConfig, backend: Backend) -> RunResult:
    """Run the full control loop for one task against ``backend``.

    Deterministic given (task, config, backend behavior): chain random
    streams are keyed by (seed, chain id) and chains are committed in
    ascending id order. A chain created mid-iteration first acts in the next
    iteration, and sends its first call once the iteration's last step is
    committed; any other chain's next call leaves once its own step is (keys
    in the module docstring). Calls made together change timing, not results. A
    ``BackendError`` aborts the run and returns the partial trace with
    ``aborted`` set; a ``ConfigurationError`` from a call is raised. No
    worker thread outlives the call. A blank task raises ValueError before
    any backend call.
    """
    return _Runner(task, config, backend).run()

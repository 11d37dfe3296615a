"""Concurrent backend calls change timing, never results.

``KeyedBackend`` answers each call as a pure function of the request and of
how many identical requests came before it (its occurrence), after a random
sleep, like the benchmark's mock chat server. A run against it must give the
same trace, answers and call counts whether the backend declares
``max_in_flight`` 4 (calls on worker threads) or 1 (serial, in order).
"""

from __future__ import annotations

import hashlib
import random
import threading
import time
from collections import Counter
from contextlib import closing

import pytest

from helpers import A30, P22, P33, UNIFORM4, make_step
from test_trace_pin import snapshot
from entroduction import engine
from entroduction.backends import (
    BackendError,
    GenerationRequest,
    ScriptedBackend,
    SyntheticBackend,
    SyntheticStep,
)
from entroduction.engine import RunConfig, generate_all, run_task
from entroduction.harness import BaselineParams, run_chain_baseline, run_tree_baseline
from entroduction.policy import PolicyConfig

WORKER_PREFIX = "entroduction-generate"
SLOW_FAILURE_S = 0.1
# How long a held call waits for the call it must overlap with.
GATE_TIMEOUT_S = 2.0
TREE = BaselineParams(branching=3, layers=3)


class KeyedBackend:
    """Replies keyed by (request, occurrence), with up to ``jitter_s`` of sleep.

    ``fail_on`` names the (request, occurrence) call that raises
    ``BackendError``, and ``slow_fail_on`` one that raises after a further
    ``SLOW_FAILURE_S``. ``calls`` lists every call's key in call order,
    ``failures`` the keys that raised, in the order they raised, and
    ``peak`` is the most calls seen in flight at once.
    """

    def __init__(self, max_in_flight: int, jitter_s: float = 0.002, fail_on=None,
                 seed: int = 0, slow_fail_on=None):
        self.max_in_flight = max_in_flight
        self.jitter_s = jitter_s
        self.fail_on = fail_on
        self.slow_fail_on = slow_fail_on
        self.calls: list[tuple[GenerationRequest, int]] = []
        self.failures: list[tuple[GenerationRequest, int]] = []
        self.peak = 0
        self._seen: Counter = Counter()
        self._in_flight = 0
        self._lock = threading.Lock()
        self._jitter = random.Random(seed)

    def generate_step(self, request: GenerationRequest):
        with self._lock:
            self._in_flight += 1
            self.peak = max(self.peak, self._in_flight)
            arrival, service = (self._jitter.uniform(0.0, self.jitter_s) for _ in "ab")
        try:
            # Calls reach the model in random order, as over a network.
            time.sleep(arrival)
            with self._lock:
                key = (request, self._seen[request])
                self._seen[request] += 1
                self.calls.append(key)
            time.sleep(service)
            if key == self.slow_fail_on:
                time.sleep(SLOW_FAILURE_S)
            if key in (self.fail_on, self.slow_fail_on):
                with self._lock:
                    self.failures.append(key)
                raise BackendError(f"injected failure on call {key[1]}")
            return self.reply(*key)
        finally:
            with self._lock:
                self._in_flight -= 1

    def reply(self, request: GenerationRequest, occurrence: int):
        return reply(request, occurrence)


def reply(request: GenerationRequest, occurrence: int):
    rng = random.Random(hashlib.sha256(repr((request, occurrence)).encode()).digest())
    if request.task.startswith("Task:") or (
        len(request.prior_steps) >= 3 and rng.random() < 0.1
    ):
        # Conclusion prompts (rendered from the task) always state an answer.
        text = f"The answer is {rng.randint(1, 3)}"
    else:
        text = f"step {rng.getrandbits(32):08x}"
    return make_step(text, [rng.uniform(0.0, 3.0) for _ in range(rng.randint(4, 8))])


def worker_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith(WORKER_PREFIX)]


def adaptive_config(seed: int) -> RunConfig:
    return RunConfig(
        max_steps=10, max_chains=6, policy=PolicyConfig(epsilon=0.9, stop_k=2, seed=seed)
    )


def run_both(run):
    """``run(backend)`` against a serial and a concurrent keyed backend."""
    serial, concurrent = KeyedBackend(1), KeyedBackend(4)
    return (run(serial), serial), (run(concurrent), concurrent)


class TestEngineDeterminism:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 6])
    def test_same_run_in_any_schedule(self, seed):
        (serial, serial_backend), (concurrent, concurrent_backend) = run_both(
            lambda backend: run_task("q", adaptive_config(seed), backend)
        )
        assert not serial.aborted
        assert snapshot(concurrent) == snapshot(serial)
        assert len(concurrent_backend.calls) == len(serial_backend.calls)
        assert serial_backend.peak == 1
        assert worker_threads() == []

    def test_rounds_overlap(self):
        runs = [
            run_both(lambda backend: run_task("q", adaptive_config(seed), backend))
            for seed in (2, 3, 6)
        ]
        # Rounds had several chains, and their calls overlapped.
        assert min(len(r.structure.chains) for (r, _), _ in runs) >= 4
        assert max(backend.peak for _, (_, backend) in runs) >= 2

    # Seed 3 grows six chains over 36 calls: the failure hits a lone first
    # step, steps and siblings of multi-chain rounds, and the last elicitation.
    @pytest.mark.parametrize("position", [2, 6, 12, 20, 29, -1])
    def test_same_abort_in_any_schedule(self, position):
        config = adaptive_config(3)
        reference = KeyedBackend(1)
        run_task("q", config, reference)
        fail_on = reference.calls[position]
        outcomes = []
        for width in (1, 4):
            backend = KeyedBackend(width, fail_on=fail_on)
            outcomes.append(run_task("q", config, backend))
            assert worker_threads() == []
        serial, concurrent = outcomes
        assert serial.aborted and concurrent.aborted
        # Every call before the failing one was committed.
        failed_at = reference.calls.index(fail_on)
        assert serial.total_steps + serial.conclusion_calls == failed_at
        assert concurrent.error == serial.error
        assert snapshot(concurrent) == snapshot(serial)


class TestBaselineDeterminism:
    def test_tree(self):
        params = BaselineParams(branching=3, layers=3)
        (serial, serial_backend), (concurrent, concurrent_backend) = run_both(
            lambda backend: run_tree_baseline("what is 2 + 2?", params, backend)
        )
        assert vars(concurrent) == vars(serial)
        assert serial.steps_generated == 13
        assert len(concurrent_backend.calls) == len(serial_backend.calls)
        assert concurrent_backend.peak >= 2
        assert worker_threads() == []

    def test_chains(self):
        params = BaselineParams(steps=3, chains=3, vote_width=5)
        (serial, serial_backend), (concurrent, concurrent_backend) = run_both(
            lambda backend: run_chain_baseline("what is 2 + 2?", params, backend)
        )
        assert vars(concurrent) == vars(serial)
        assert serial.steps_generated == 9 and len(serial.answers) == 5
        assert len(concurrent_backend.calls) == len(serial_backend.calls)
        assert concurrent_backend.peak >= 2
        assert worker_threads() == []

    def test_failure_raises_the_same_error(self):
        params = BaselineParams(branching=3, layers=3)
        reference = KeyedBackend(1)
        run_tree_baseline("q", params, reference)
        fail_on = reference.calls[6]
        errors = []
        for width in (1, 4):
            with pytest.raises(BackendError) as caught:
                run_tree_baseline("q", params, KeyedBackend(width, fail_on=fail_on))
            errors.append(str(caught.value))
            assert worker_threads() == []
        assert errors[0] == errors[1]


class GatedBackend(KeyedBackend):
    """Holds the last second-layer call of a tree until a third-layer call
    has started, and fails that call if none starts in ``GATE_TIMEOUT_S``."""

    def __init__(self):
        super().__init__(4)
        self.second_layer_calls = 0
        self.third_layer_started = threading.Event()

    def generate_step(self, request: GenerationRequest):
        if len(request.prior_steps) == 2:
            self.third_layer_started.set()
        elif len(request.prior_steps) == 1:
            with self._lock:
                self.second_layer_calls += 1
                last = self.second_layer_calls == TREE.branching
            if last and not self.third_layer_started.wait(GATE_TIMEOUT_S):
                raise BackendError("the third layer waited for the whole second layer")
        return super().generate_step(request)


class TwinBackend(KeyedBackend):
    """Gives the first two second-layer calls the same reply, so the children
    of those two siblings are six identical requests."""

    def reply(self, request: GenerationRequest, occurrence: int):
        if len(request.prior_steps) == 1 and occurrence == 1:
            occurrence = 0
        return reply(request, occurrence)


class TestTreeDataflow:
    def test_children_sent_before_their_layer_ends(self):
        backend = GatedBackend()
        outcome = run_tree_baseline("what is 2 + 2?", TREE, backend)
        serial = run_tree_baseline("what is 2 + 2?", TREE, KeyedBackend(1))
        assert vars(outcome) == vars(serial)
        assert worker_threads() == []

    def test_identical_siblings_keep_serial_replies(self):
        serial_backend = TwinBackend(1)
        serial = run_tree_baseline("what is 2 + 2?", TREE, serial_backend)
        requests = Counter(request for request, _ in serial_backend.calls)
        assert max(requests.values()) == 6
        # The twins' subtrees answer differently, so swapping them would show.
        assert serial.answers[0:3] != serial.answers[3:6]
        for seed in range(10):
            backend = TwinBackend(4, jitter_s=0.003, seed=seed)
            assert vars(run_tree_baseline("what is 2 + 2?", TREE, backend)) == vars(serial)
            assert backend.peak >= 2
        assert worker_threads() == []

    def test_earliest_failure_in_serial_order_wins(self):
        reference = KeyedBackend(1, jitter_s=0.0)
        run_tree_baseline("q", TREE, reference)
        # The last second-layer call fails slowly; the first third-layer call,
        # later in serial order, fails at once.
        early, late = reference.calls[3], reference.calls[4]
        errors = []
        for width in (1, 4):
            backend = KeyedBackend(width, fail_on=late, slow_fail_on=early)
            with pytest.raises(BackendError) as caught:
                run_tree_baseline("q", TREE, backend)
            errors.append(str(caught.value))
            assert worker_threads() == []
        assert backend.failures == [late, early]
        assert errors == ["injected failure on call 2"] * 2


def call_label(call) -> str:
    """``s``/``c`` (step or conclusion request), the number of prior steps,
    the end of the last one and the occurrence of the request."""
    request, occurrence = call
    kind = "c" if request.task.startswith("Task:") else "s"
    last = request.prior_steps[-1][-8:] if request.prior_steps else "-"
    return f"{kind}{len(request.prior_steps)} {last}#{occurrence}"


# Serial call sequences recorded when every baseline ran layer by layer
# (tree) or step by step (chains) through generate_all.
SERIAL_TREE_CALLS = [
    "s0 -#0",
    "s1 c41693dc#0", "s1 c41693dc#1", "s1 c41693dc#2",
    "s2 e01ecd92#0", "s2 e01ecd92#1", "s2 e01ecd92#2",
    "s2 524b0ac2#0", "s2 524b0ac2#1", "s2 524b0ac2#2",
    "s2 b5490d72#0", "s2 b5490d72#1", "s2 b5490d72#2",
    "c3 4af43e2e#0", "c3 ebe87919#0", "c3 8813da7a#0", "c3 53368fd6#0",
    "c3 9aa3c691#0", "c3 bf086637#0", "c3 acac9bc2#0", "c3 aae1c24c#0",
    "c3 e87bdb7b#0",
]
SERIAL_COTSC_CALLS = [
    "s0 -#0", "s0 -#1", "s0 -#2",
    "s1 c41693dc#0", "s1 0bfaf59c#0", "s1 6c148c34#0",
    "s2 e01ecd92#0", "s2 4cc6c1bb#0", "s2 e2bde9e7#0",
    "c3 4af43e2e#0", "c3 298a632c#0", "c3 5920ef2e#0",
]


class TestSerialCallOrder:
    def test_tree(self):
        backend = KeyedBackend(1, jitter_s=0.0)
        outcome = run_tree_baseline("what is 2 + 2?", TREE, backend)
        assert [call_label(call) for call in backend.calls] == SERIAL_TREE_CALLS
        assert vars(outcome) == {
            "answers": ["2", "1", "2", "3", "3", "2", "3", "2", "3"],
            "steps_generated": 13,
            "conclusion_calls": 9,
        }

    def test_chains(self):
        backend = KeyedBackend(1, jitter_s=0.0)
        outcome = run_chain_baseline(
            "what is 2 + 2?", BaselineParams(steps=3, chains=3), backend
        )
        assert [call_label(call) for call in backend.calls] == SERIAL_COTSC_CALLS
        assert vars(outcome) == {
            "answers": ["2", "3", "2"], "steps_generated": 9, "conclusion_calls": 3
        }


class TestGenerateAll:
    def requests(self, tasks):
        return [GenerationRequest(system_prompt="s", task=task) for task in tasks]

    def test_identical_requests_keep_submission_order(self):
        tasks = ["a", "b", "a", "c", "a", "b", "d", "a"]
        expected = list(generate_all(KeyedBackend(1), self.requests(tasks)))
        for seed in range(10):
            backend = KeyedBackend(4, jitter_s=0.003, seed=seed)
            assert list(generate_all(backend, self.requests(tasks))) == expected
            assert backend.peak >= 2
        assert worker_threads() == []

    def test_serial_backend_is_called_lazily_without_threads(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a serial backend must not start threads")

        monkeypatch.setattr(engine, "ThreadPoolExecutor", no_pool)
        backend = KeyedBackend(1)
        generations = generate_all(backend, self.requests(["a", "b", "c"]))
        assert backend.calls == []
        next(generations)
        assert len(backend.calls) == 1
        assert len(list(generations)) == 2
        # The in-process backends declare nothing: serial, no threads.
        run_task("q", adaptive_config(0), SyntheticBackend([SyntheticStep(logprobs=A30)]))
        run_tree_baseline("q", BaselineParams(branching=2, layers=3),
                          SyntheticBackend([SyntheticStep(logprobs=A30)]))

    def test_closing_early_cancels_and_joins(self):
        backend = KeyedBackend(2, jitter_s=0.0)
        slow = backend.generate_step

        def generate_step(request):
            time.sleep(0.02)
            return slow(request)

        backend.generate_step = generate_step
        tasks = [f"t{i}" for i in range(8)]
        with closing(generate_all(backend, self.requests(tasks))) as generations:
            next(generations)
        assert worker_threads() == []
        assert len(backend.calls) < len(tasks)


def test_scripted_multi_chain_round_keeps_serial_order():
    """A non-last chain expands inside a two-chain round: its sibling call
    comes before the next chain's step, as in a plain loop. Expected values
    recorded before calls were fanned out."""
    backend = ScriptedBackend([
        make_step("s1", A30), make_step("s2", UNIFORM4), make_step("s3", P22),
        make_step("s3 sibling", P22), make_step("s4", P33),
        make_step("s4 sibling", A30), make_step("c1 s4", A30),
        make_step("The answer is 1", A30), make_step("The answer is 2", A30),
        make_step("The answer is 3", A30),
    ])
    config = RunConfig(max_steps=4, max_chains=4, policy=PolicyConfig(epsilon=0.0))
    result = run_task("q", config, backend)
    assert [
        (e.step_index, e.chain_id, e.node_id, e.executed, e.finalize_reason)
        for e in result.trace
    ] == [
        (1, 0, 0, "forced_deepen", None), (2, 0, 1, "forced_deepen", None),
        (3, 0, 2, "expand", None), (3, 1, 3, "expand", None),
        (4, 0, 4, "expand", None), (4, 2, 5, "expand", None),
        (4, 1, 6, "deepen", None),
    ]
    assert [
        (c.id, [n.text for n in c.nodes], c.final_answer) for c in result.structure.chains
    ] == [
        (0, ["s1  ", "s2  ", "s3  ", "s4  "], "1"),
        (1, ["s1  ", "s2  ", "s3 sibling", "c1 s4"], "2"),
        (2, ["s1  ", "s2  ", "s3  ", "s4 sibling"], "3"),
    ]
    assert (result.conclusion, result.total_steps, result.conclusion_calls) == ("2", 7, 3)
    assert backend.calls_made == 10 and not result.aborted

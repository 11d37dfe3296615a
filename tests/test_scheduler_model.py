"""Model-checked ``CallScheduler``: drawn plans give the serial run's replies.

A plan submits requests at keys and takes replies, in one of the shapes the
engine and the tree runner use. Each plan runs three times: against a
serial backend (no ``max_in_flight``, called on the caller's thread in key
order) as the reference; against the same serial backend failing the drawn
keys' calls; and against ``KeyedBackend`` at width 2 to 4, with jitter,
failing the same calls. Replies are a function of (request, occurrence), so
a scheduler that keeps identical requests in key order gives every key its
serial reply in any schedule, and the earliest failing key ends both runs
alike. Each run plays on a helper thread with a timeout, so a livelock fails
the test instead of hanging it. Shrinking is off: a livelocked plan leaves
its helper thread spinning, and each shrink step would leave one more.
"""

from __future__ import annotations

import threading
from types import SimpleNamespace

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from test_concurrency import KeyedBackend, worker_threads
from entroduction.backends import BackendError, GenerationRequest
from entroduction.engine import CallScheduler

PLAN_TIMEOUT_S = 10.0
# A request alphabet of 3, so identical requests are common.
REQUESTS = [GenerationRequest(system_prompt="s", task=task) for task in "abc"]
MODEL_SETTINGS = settings(
    derandomize=True, deadline=None, max_examples=100,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)


class FailingBackend(KeyedBackend):
    """``KeyedBackend`` whose (request, occurrence) calls in ``failing`` raise at
    once, with no jitter, so two failures often land in one batch of replies.
    The occurrence is read before the jitter: identical requests never overlap
    under the scheduler, so it is the one ``KeyedBackend`` counts."""

    def __init__(self, max_in_flight: int, failing: frozenset, **kwargs):
        super().__init__(max_in_flight, **kwargs)
        self.failing = failing

    def generate_step(self, request: GenerationRequest):
        with self._lock:
            call = (request, self._seen[request])
            fails = call in self.failing
            self._seen[request] += fails
        if fails:
            raise BackendError(f"injected failure: {request.task} #{call[1]}")
        return super().generate_step(request)


def serial_backend(failing: frozenset = frozenset()) -> SimpleNamespace:
    """The same replies from a backend with no ``max_in_flight``."""
    return SimpleNamespace(generate_step=FailingBackend(1, failing, jitter_s=0.0).generate_step)


class Run:
    """One plan played on one scheduler: every submit and take, and the error."""

    def __init__(self, backend):
        self.calls = CallScheduler(backend)
        self.requests: dict = {}  # key -> request, for every submit
        self.replies: dict = {}  # key -> reply, for every take
        self.error: Exception | None = None

    def submit(self, request: GenerationRequest, key) -> None:
        self.requests[key] = request
        self.calls.submit(request, key)

    def take(self, key=None):
        key, self.replies[key] = self.calls.take(key)
        return key


def play(plan, backend) -> Run:
    """``plan(run)`` on a helper thread; the scheduler is closed after it."""
    run = Run(backend)

    def body():
        try:
            plan(run)
        except Exception as exc:  # a BackendError is the plan's failure; any other fails below
            run.error = exc
        finally:
            run.calls.close()

    helper = threading.Thread(target=body, daemon=True)
    helper.start()
    helper.join(PLAN_TIMEOUT_S)
    assert not helper.is_alive(), f"plan unfinished after {PLAN_TIMEOUT_S} s: a livelock"
    assert run.error is None or isinstance(run.error, BackendError), run.error
    return run


def rounds_plan(rounds):
    """Engine rounds: each round's steps submitted at ``(r, k, 0)``, then taken,
    either in key order with an expand sibling of the same request submitted
    at ``(r, k, 1)`` and taken at once, or in a drawn order with no siblings."""

    def plan(run: Run) -> None:
        for r, (entries, order) in enumerate(rounds):
            for k, (letter, _) in enumerate(entries):
                run.submit(REQUESTS[letter], (r, k, 0))
            for k in order:
                letter, sibling = entries[k]
                run.take((r, k, 0))
                if sibling:
                    run.submit(REQUESTS[letter], (r, k, 1))
                    run.take((r, k, 1))

    return plan


def tree_plan(roots, branching):
    """The tree runner: roots at ``(1, (k,))``, replies taken as they arrive,
    and each node's children submitted when it is taken. The children share
    one request, their parent's path, which no other node's children use."""

    def plan(run: Run) -> None:
        for k, letter in enumerate(roots):
            run.submit(REQUESTS[letter], (1, (k,)))
        for depth, path in iter(run.take, None):  # take() ends it once no call is left
            if depth <= len(branching):
                child = GenerationRequest(system_prompt="s", task=f"after {path}")
                for j in range(branching[depth - 1]):
                    run.submit(child, (depth + 1, path + (j,)))

    return plan


def check(plan, width: int, seed: int, failing_draw: list[int]) -> None:
    """``plan`` at ``width`` against its serial run, failing the drawn keys' calls."""
    reference = play(plan, serial_backend())
    assert reference.error is None
    keys = sorted(reference.requests)
    assert sorted(reference.replies) == keys
    # The drawn indices pick failing keys; a serial run calls in key order,
    # so a key's occurrence counts the identical requests at earlier keys.
    failing = [keys[i % len(keys)] for i in failing_draw]
    calls = frozenset(
        (reference.requests[key],
         sum(reference.requests[k] == reference.requests[key] for k in keys if k < key))
        for key in failing
    )
    serial = play(plan, serial_backend(calls)) if failing else reference
    concurrent = play(plan, FailingBackend(width, calls, seed=seed))
    assert worker_threads() == []

    # The failure surfaces at the earliest failing key, in both runs.
    assert repr(concurrent.error) == repr(serial.error)
    first = min(failing, default=None)
    for key in keys:
        kept = first is None or key < first
        assert serial.calls.kept(key) == concurrent.calls.kept(key) == kept, key
    # Every reply taken at a kept key is the serial reply there, and every
    # reply the serial run took was taken.
    taken = {k: reply for k, reply in concurrent.replies.items() if concurrent.calls.kept(k)}
    for key, reply in taken.items():
        assert reply == reference.replies[key], key
    assert serial.replies.keys() <= taken.keys()


widths = st.integers(2, 4)
seeds = st.integers(0, 2**16)
# No failing call, one, or two: the second a few keys after the first, so
# both are often in flight at once and fail in one batch of replies.
failures = st.one_of(
    st.just([]),
    st.lists(st.integers(0, 63), min_size=1, max_size=1),
    st.tuples(st.integers(0, 63), st.integers(1, 3)).map(lambda d: [d[0], d[0] + d[1]]),
)
letters = st.integers(0, len(REQUESTS) - 1)
key_order_round = st.lists(st.tuples(letters, st.booleans()), min_size=1, max_size=5).map(
    lambda entries: (entries, range(len(entries))))
shuffled_round = st.lists(letters, min_size=1, max_size=5).flatmap(
    lambda picked: st.permutations(range(len(picked))).map(
        lambda order: ([(letter, False) for letter in picked], order)))


class TestSchedulerModel:
    @MODEL_SETTINGS
    @given(st.lists(key_order_round, min_size=1, max_size=4), widths, seeds, failures)
    def test_engine_rounds_with_siblings(self, rounds, width, seed, failing):
        check(rounds_plan(rounds), width, seed, failing)

    @MODEL_SETTINGS
    @given(st.lists(shuffled_round, min_size=1, max_size=4), widths, seeds, failures)
    def test_rounds_taken_out_of_key_order(self, rounds, width, seed, failing):
        check(rounds_plan(rounds), width, seed, failing)

    @MODEL_SETTINGS
    @given(st.lists(letters, min_size=1, max_size=3), st.lists(st.integers(1, 3), max_size=2),
           widths, seeds, failures)
    def test_tree_arrival_order(self, roots, branching, width, seed, failing):
        check(tree_plan(roots, branching), width, seed, failing)

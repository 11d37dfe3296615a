"""Model-checked ``CallScheduler``: drawn plans give the serial run's replies.

A plan submits requests at keys and takes replies, in one of the shapes the
engine and the tree runner use; a key may hold several calls of one
request. Each plan runs three times: against a serial backend (no
``max_in_flight``, called on the caller's thread in key order) as the
reference; against the same serial backend failing the drawn keys' calls;
and against ``FailingBackend`` at width 2 to 4 (1 to 4 for plans with
repeated keys), with jitter, failing the same calls. Replies are a function
of (request, occurrence), so a scheduler that keeps identical requests at
different keys in key order gives every key its serial replies, as a
multiset, in any schedule, and the earliest failing key ends both runs
alike. Where a key's calls become free with every worker idle, they must
also be in flight together. The fixed baselines are checked the same way,
on drawn shapes. Each run plays on a helper thread with a timeout, so a
livelock fails the test instead of hanging it. Shrinking is off: a
livelocked plan leaves its helper thread spinning, and each shrink step
would leave one more.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from contextlib import contextmanager
from types import SimpleNamespace
from unittest import mock

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from test_concurrency import KeyedBackend, baseline_key, reply, worker_threads
from entroduction import engine
from entroduction.backends import BackendError, GenerationRequest
from entroduction.engine import CallScheduler
from entroduction.harness import BaselineParams, run_chain_baseline, run_tree_baseline

PLAN_TIMEOUT_S = 10.0
# A request alphabet of 3, so identical requests are common.
REQUESTS = [GenerationRequest(system_prompt="s", task=task) for task in "abc"]
MODEL_SETTINGS = settings(
    derandomize=True, deadline=None, max_examples=100,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)


class FailingBackend(KeyedBackend):
    """``KeyedBackend``'s replies, where the (request, occurrence) calls in
    ``failing`` raise at once, with no jitter, so two failures often land in
    one batch of replies. A call takes its occurrence as it starts, so the
    identical calls at one key, started together, take occurrences o, o+1, ...
    in any order; ``calls`` lists every call's (request, occurrence)."""

    def __init__(self, max_in_flight: int, failing: frozenset, **kwargs):
        super().__init__(max_in_flight, **kwargs)
        self.failing = failing

    def generate_step(self, request: GenerationRequest):
        with self._lock:
            call = (request, self._seen[request])
            self._seen[request] += 1
            self.calls.append(call)
            jitter = self._jitter.uniform(0.0, self.jitter_s)
        if call in self.failing:
            raise BackendError(f"injected failure: {request.task} #{call[1]}")
        time.sleep(jitter)
        return reply(*call)


def serial_backend(failing: frozenset = frozenset()) -> SimpleNamespace:
    """The same replies from a backend with no ``max_in_flight``."""
    backend = FailingBackend(1, failing, jitter_s=0.0)
    return SimpleNamespace(generate_step=backend.generate_step, calls=backend.calls)


class Run:
    """One plan played on one scheduler: every submit and take, and the error."""

    def __init__(self, backend):
        self.calls = CallScheduler(backend)
        self.requests: dict = {}  # key -> the requests submitted there
        self.replies: dict = {}  # key -> the replies taken there
        self.error: Exception | None = None

    def submit(self, request: GenerationRequest, key) -> None:
        self.requests.setdefault(key, []).append(request)
        self.calls.submit(request, key)

    def take(self, key=None):
        key, generation = self.calls.take(key)
        self.replies.setdefault(key, []).append(generation)
        return key


def within_timeout(body) -> None:
    """``body()`` on a helper thread, failing the test if it runs past the timeout."""
    helper = threading.Thread(target=body, daemon=True)
    helper.start()
    helper.join(PLAN_TIMEOUT_S)
    assert not helper.is_alive(), f"plan unfinished after {PLAN_TIMEOUT_S} s: a livelock"


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

    within_timeout(body)
    assert run.error is None or isinstance(run.error, BackendError), run.error
    return run


@contextmanager
def in_flight():
    """Each key's and each request's most calls in flight at once, read from
    the scheduler's running calls whenever it waits for a reply."""
    peaks = SimpleNamespace(by_key=Counter(), by_request=Counter())
    real_wait = engine.wait

    def recording_wait(running, **kwargs):
        for counts, values in ((peaks.by_key, [key for key, _ in running.values()]),
                               (peaks.by_request, [request for _, request in running.values()])):
            for value, n in Counter(values).items():
                counts[value] = max(counts[value], n)
        return real_wait(running, **kwargs)

    with mock.patch.object(engine, "wait", recording_wait):
        yield peaks


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
    """A tree keyed by child indices: roots at ``(1, (k,))``, replies taken as
    they arrive, and each node's children submitted when it is taken. The
    children share one request, their parent's path, which no other node's
    children use, at distinct keys, so they go out one at a time."""

    def plan(run: Run) -> None:
        for k, letter in enumerate(roots):
            run.submit(REQUESTS[letter], (1, (k,)))
        for depth, path in iter(run.take, None):  # take() ends it once no call is left
            if depth <= len(branching):
                child = GenerationRequest(system_prompt="s", task=f"after {path}")
                for j in range(branching[depth - 1]):
                    run.submit(child, (depth + 1, path + (j,)))

    return plan


def repeated_rounds_plan(rounds):
    """Rounds of keys ``(r, k)`` holding ``count`` calls of one request each,
    all submitted, then taken either key by key (each key's replies in a
    row) or as they arrive."""

    def plan(run: Run) -> None:
        for r, (entries, in_key_order) in enumerate(rounds):
            for k, (letter, count) in enumerate(entries):
                for _ in range(count):
                    run.submit(REQUESTS[letter], (r, k))
            for k, (_, count) in enumerate(entries):
                for _ in range(count):
                    run.take((r, k) if in_key_order else None)

    # Each round starts with every worker idle, so its first key's calls leave together.
    plan.together = lambda reference: {(r, 0): entries[0][1] for r, (entries, _) in enumerate(rounds)}
    return plan


def path_tree_plan(roots, branching):
    """The tree runner: ``roots`` calls at ``(1, ())``, replies taken as they
    arrive, and each node's children submitted at one key, its depth and
    path texts, when it is taken."""

    def plan(run: Run) -> None:
        for _ in range(roots):
            run.submit(REQUESTS[0], (1, ()))
        for depth, path in iter(run.take, None):
            if depth <= len(branching):
                path = path + (run.replies[depth, path][-1].text,)
                child = GenerationRequest(system_prompt="s", task=f"after {path}")
                for _ in range(branching[depth - 1]):
                    run.submit(child, (depth + 1, path))

    def together(reference: Run) -> dict:
        """The roots' key, or a lone root's children's key, with its call count."""
        if roots > 1 or not branching:
            return {(1, ()): roots}
        return {key: branching[0] for key in reference.requests if key[0] == 2}

    plan.together = together
    return plan


def check(plan, width: int, seed: int, failing_draw: list[int]) -> None:
    """``plan`` at ``width`` against its serial run, failing the drawn keys' calls."""
    reference = play(plan, serial_backend())
    assert reference.error is None
    keys = sorted(reference.requests)
    assert sorted(reference.replies) == keys
    assert all(len(reference.replies[key]) == len(reference.requests[key]) for key in keys)

    def occurrences(key) -> range:
        """The occurrences of the calls at ``key`` in a serial run, which calls
        in key order: after the identical requests at earlier keys."""
        request = reference.requests[key][0]
        first = sum(len(reference.requests[k]) for k in keys
                    if k < key and reference.requests[k][0] == request)
        return range(first, first + len(reference.requests[key]))

    # The drawn indices pick failing keys and one call at each; a second
    # failure at one key could fail it with either message.
    failing = {}
    for i in failing_draw:
        failing.setdefault(keys[i % len(keys)], i // len(keys))
    calls = frozenset((reference.requests[key][0], occurrences(key)[j % len(occurrences(key))])
                      for key, j in failing.items())
    serial = play(plan, serial_backend(calls)) if failing else reference
    with in_flight() as peaks:
        concurrent = play(plan, FailingBackend(width, calls, seed=seed))
    assert worker_threads() == []

    # The failure surfaces at the earliest failing key, in both runs.
    assert repr(concurrent.error) == repr(serial.error)
    first = min(failing, default=None)
    for key in keys:
        kept = first is None or key < first
        assert serial.calls.kept(key) == concurrent.calls.kept(key) == kept, key
    # Every kept key's replies are the serial replies there, as a multiset,
    # and both runs took replies at the same kept keys.
    taken = [{k: Counter(replies) for k, replies in run.replies.items() if run.calls.kept(k)}
             for run in (serial, concurrent)]
    assert taken[0] == taken[1]
    for key, replies in taken[1].items():
        assert replies == Counter(reference.replies[key]), key
    # A key whose calls become free with every worker idle has them in flight together.
    for key, count in getattr(plan, "together", lambda _: {})(reference).items():
        if min(count, width) > 1 and concurrent.calls.kept(key) and key in concurrent.requests:
            assert peaks.by_key[key] >= min(count, width), (key, count, dict(peaks.by_key))


def check_baseline(method, shape, width: int, seed: int, failing_draw: list[int]) -> None:
    """A baseline shape at ``width`` against its serial run, failing drawn
    calls: one outcome, and the first identical calls in flight together."""
    if method == "tot":
        params = BaselineParams(branching=shape[0], layers=shape[1])
        together = params.branching if params.layers > 1 else 1
    else:
        params = BaselineParams(chains=shape[0], steps=shape[1])
        together = params.chains

    def run(backend):
        outcome = []
        runner = run_tree_baseline if method == "tot" else run_chain_baseline
        within_timeout(lambda: outcome.append(runner("q", params, backend)))
        return outcome[0]

    reference = serial_backend()
    run(reference)
    # The drawn indices pick failing calls, one at each key: a key fails
    # with whichever of its failing calls fails first.
    failing = {}
    for i in failing_draw:
        request, occurrence = reference.calls[i % len(reference.calls)]
        failing.setdefault(baseline_key(request), (request, occurrence))
    calls = frozenset(failing.values())
    serial = run(serial_backend(calls))
    with in_flight() as peaks:
        concurrent = run(FailingBackend(width, calls, seed=seed))
    assert worker_threads() == []
    assert vars(concurrent) == vars(serial)
    # The first key of several calls (the roots, or a lone root's children)
    # becomes free with every worker idle.
    if not calls:
        assert max(peaks.by_request.values(), default=1) >= min(together, width)


widths = st.integers(2, 4)
all_widths = st.integers(1, 4)
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


repeated_round = st.tuples(
    st.lists(st.tuples(letters, st.integers(1, 3)), min_size=1, max_size=4), st.booleans())
baseline_shapes = st.tuples(st.sampled_from(["tot", "cotsc"]), st.tuples(
    st.integers(1, 3), st.integers(1, 3)))


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

    @MODEL_SETTINGS
    @given(st.lists(repeated_round, min_size=1, max_size=3), all_widths, seeds, failures)
    def test_repeated_keys(self, rounds, width, seed, failing):
        check(repeated_rounds_plan(rounds), width, seed, failing)

    @MODEL_SETTINGS
    @given(st.integers(1, 3), st.lists(st.integers(1, 3), max_size=2), all_widths, seeds,
           failures)
    def test_tree_by_path(self, roots, branching, width, seed, failing):
        check(path_tree_plan(roots, branching), width, seed, failing)

    @MODEL_SETTINGS
    @given(baseline_shapes, all_widths, seeds, failures)
    def test_baselines(self, shape, width, seed, failing):
        check_baseline(*shape, width, seed, failing)

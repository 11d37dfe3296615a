"""Control-loop tests: engineered schedules, soft stop, expand, voting."""

from __future__ import annotations

import dataclasses
import json
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    A15,
    A30,
    A60,
    DEEPEN_SCHEDULE,
    DEEPEN_UP_SCHEDULE,
    EXPAND_SCHEDULE,
    P11,
    P22,
    P33,
    STOP_SCHEDULE,
    UNIFORM4,
    make_step,
    synthetic_schedule,
)
from test_concurrency import GATE_TIMEOUT_S, KeyedBackend, adaptive_config, reply, worker_threads
from entroduction import engine
from entroduction.backends import (
    GenerationRequest,
    ScriptedBackend,
    SyntheticBackend,
    SyntheticStep,
)
from entroduction.engine import (
    CallScheduler,
    ExecutedBehavior,
    RunConfig,
    RunResult,
    chain_conclusions,
    majority_vote,
    run_task,
)
from entroduction.harness import trace_event_to_dict
from entroduction.policy import Action, MetricMode, PolicyConfig
from entroduction.structure import ChainStatus


def greedy_config(stop_k=1, **kwargs) -> RunConfig:
    policy = PolicyConfig(epsilon=0.0, stop_k=stop_k, seed=kwargs.pop("seed", 0),
                          metric_mode=kwargs.pop("metric_mode", MetricMode.BOTH),
                          expand_enabled=kwargs.pop("expand_enabled", True))
    return RunConfig(policy=policy, elicit_final_answer=False, **kwargs)


def run_schedule(schedule, config) -> RunResult:
    return run_task("test task", config, SyntheticBackend(synthetic_schedule(schedule)))


def executed_sequence(result: RunResult) -> list[str]:
    return [event.executed for event in result.trace]


class TestQuadrantBehaviors:
    def test_stop_quadrant_hard_stop(self):
        result = run_schedule(STOP_SCHEDULE, greedy_config(stop_k=1, max_steps=6))
        chain = result.structure.chains[0]
        assert len(result.structure.chains) == 1
        assert len(chain.nodes) == 3
        assert executed_sequence(result) == [
            ExecutedBehavior.FORCED_DEEPEN,
            ExecutedBehavior.FORCED_DEEPEN,
            ExecutedBehavior.STOP,
        ]
        assert chain.status is ChainStatus.FINALIZED
        stop_event = result.trace[2]
        assert stop_event.state.delta_entropy > 0
        assert stop_event.state.delta_variance > 0
        assert stop_event.best_action is Action.STOP
        assert stop_event.finalize_reason == "stop"

    def test_stop_quadrant_soft_stop_two(self):
        result = run_schedule(STOP_SCHEDULE, greedy_config(stop_k=2, max_steps=6))
        chain = result.structure.chains[0]
        assert len(chain.nodes) == 4
        assert executed_sequence(result) == [
            ExecutedBehavior.FORCED_DEEPEN,
            ExecutedBehavior.FORCED_DEEPEN,
            ExecutedBehavior.STOP,
            ExecutedBehavior.FORCED_DEEPEN,
        ]
        assert result.trace[2].stop_pending_remaining == 1
        assert result.trace[3].stop_pending_remaining == 0
        assert result.trace[3].finalize_reason == "stop_grace_exhausted"

    def test_stop_quadrant_soft_stop_three(self):
        result = run_schedule(STOP_SCHEDULE, greedy_config(stop_k=3, max_steps=8))
        chain = result.structure.chains[0]
        assert len(chain.nodes) == 5
        assert executed_sequence(result)[2:] == [
            ExecutedBehavior.STOP,
            ExecutedBehavior.FORCED_DEEPEN,
            ExecutedBehavior.FORCED_DEEPEN,
        ]

    def test_expand_quadrant(self):
        result = run_schedule(EXPAND_SCHEDULE, greedy_config(max_steps=3))
        assert len(result.structure.chains) == 2
        original, sibling = result.structure.chains
        assert len(original.nodes) == 3 and len(sibling.nodes) == 3
        assert sibling.parent == (original.id, 2)
        for left, right in zip(original.nodes[:2], sibling.nodes[:2]):
            assert left is right
        assert original.nodes[2] is not sibling.nodes[2]
        expand_events = [e for e in result.trace if e.executed == ExecutedBehavior.EXPAND]
        assert len(expand_events) == 2
        assert {e.chain_id for e in expand_events} == {0, 1}
        assert all(e.step_index == 3 for e in expand_events)
        assert result.total_steps == 4  # two forced + the two fork branches

    def test_deepen_quadrant_then_stop(self):
        result = run_schedule(DEEPEN_SCHEDULE, greedy_config(stop_k=1, max_steps=6))
        chain = result.structure.chains[0]
        assert len(chain.nodes) == 4
        assert executed_sequence(result) == [
            ExecutedBehavior.FORCED_DEEPEN,
            ExecutedBehavior.FORCED_DEEPEN,
            ExecutedBehavior.DEEPEN,
            ExecutedBehavior.STOP,
        ]
        deepen_event = result.trace[2]
        assert deepen_event.state.delta_entropy < 0
        assert deepen_event.state.delta_variance < 0
        assert deepen_event.best_action is Action.DEEPEN

    def test_deepen_quadrant_entropy_up_variance_down(self):
        result = run_schedule(DEEPEN_UP_SCHEDULE, greedy_config(max_steps=4))
        event = result.trace[2]
        assert event.state.delta_entropy > 0
        assert event.state.delta_variance < 0
        assert event.best_action is Action.DEEPEN
        assert event.executed == ExecutedBehavior.DEEPEN


class TestRunConfig:
    @pytest.mark.parametrize("values", [
        {"temperature": -1.0}, {"temperature": float("nan")}, {"temperature": float("inf")},
        {"max_tokens": 0},
    ])
    def test_rejects_what_a_request_rejects(self, values):
        with pytest.raises(ValueError) as request_error:
            GenerationRequest(system_prompt="s", task="t", **values)
        with pytest.raises(ValueError) as config_error:
            RunConfig(**values)
        assert str(config_error.value) == str(request_error.value)

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError, match="max_chains"):
            RunConfig(max_chains=0)


class TestBudgetAndBounds:
    def test_expand_degrades_at_budget(self):
        config = greedy_config(max_steps=3, max_chains=1)
        result = run_schedule(EXPAND_SCHEDULE, config)
        assert len(result.structure.chains) == 1
        event = result.trace[2]
        assert event.sampled_action is Action.EXPAND
        assert event.executed == ExecutedBehavior.DEEPEN
        assert result.total_steps == 3  # no sibling call was spent

    def test_step_budget_bounds_depth(self):
        config = greedy_config(max_steps=5)
        result = run_schedule([UNIFORM4], config)  # constant deltas: deepen forever
        assert result.structure.depth() == 5
        assert len(result.structure.chains[0].nodes) == 5
        assert all(c.finalized for c in result.structure.chains)

    def test_expand_disabled_remap(self):
        config = greedy_config(max_steps=3, expand_enabled=False)
        result = run_schedule(EXPAND_SCHEDULE, config)
        assert len(result.structure.chains) == 1
        event = result.trace[2]
        assert event.best_action is Action.EXPAND
        assert event.sampled_action is Action.EXPAND
        assert event.executed == ExecutedBehavior.DEEPEN

    def test_metric_mode_none_always_deepens(self):
        config = greedy_config(max_steps=4, metric_mode=MetricMode.NONE)
        result = run_schedule(STOP_SCHEDULE, config)
        assert len(result.structure.chains[0].nodes) == 4
        assert all(
            e.executed in (ExecutedBehavior.DEEPEN, ExecutedBehavior.FORCED_DEEPEN)
            for e in result.trace
        )

    def test_metric_mode_variance_only_expands_on_stop_quadrant(self):
        config = greedy_config(max_steps=3, metric_mode=MetricMode.VARIANCE_ONLY)
        result = run_schedule(STOP_SCHEDULE, config)
        assert len(result.structure.chains) == 2


class TestDeterminism:
    @pytest.mark.parametrize("epsilon", [0.0, 0.25, 0.9])
    def test_bit_identical_traces(self, epsilon):
        def one_run() -> RunResult:
            policy = PolicyConfig(epsilon=epsilon, stop_k=2, seed=123)
            config = RunConfig(max_steps=8, max_chains=4, policy=policy,
                               elicit_final_answer=False)
            backend = SyntheticBackend(synthetic_schedule(EXPAND_SCHEDULE))
            return run_task("determinism", config, backend)

        first, second = one_run(), one_run()
        first_lines = [json.dumps(trace_event_to_dict(e)) for e in first.trace]
        second_lines = [json.dumps(trace_event_to_dict(e)) for e in second.trace]
        assert first_lines == second_lines
        assert first.conclusion == second.conclusion
        assert first.total_steps == second.total_steps

    def test_different_seeds_diverge(self):
        def one_run(seed) -> list[str]:
            policy = PolicyConfig(epsilon=0.5, seed=seed)
            config = RunConfig(max_steps=8, max_chains=4, policy=policy,
                               elicit_final_answer=False)
            backend = SyntheticBackend(synthetic_schedule(EXPAND_SCHEDULE))
            return [
                e.executed for e in run_task("x", config, backend).trace
            ]

        sequences = {tuple(one_run(seed)) for seed in range(8)}
        assert len(sequences) > 1


class TestAccounting:
    def test_total_steps_equals_nodes_and_events(self):
        for schedule, stop_k in ((STOP_SCHEDULE, 1), (STOP_SCHEDULE, 2),
                                 (EXPAND_SCHEDULE, 1), (DEEPEN_SCHEDULE, 1)):
            result = run_schedule(schedule, greedy_config(stop_k=stop_k, max_steps=5))
            assert result.total_steps == result.structure.total_nodes()
            assert result.total_steps == len(result.trace)

    def test_depth_law(self):
        result = run_schedule(EXPAND_SCHEDULE, greedy_config(max_steps=4))
        depth = result.structure.depth()
        assert depth == max(len(c.nodes) for c in result.structure.chains)
        assert depth <= 4


class TestAnswerMarker:
    def test_marker_finalizes_chain(self):
        backend = ScriptedBackend([
            make_step("think about it", UNIFORM4),
            make_step("So the answer is 12.", A30),
        ])
        config = greedy_config(max_steps=6)
        result = run_task("twelve?", config, backend)
        chain = result.structure.chains[0]
        assert chain.final_answer == "12."
        assert len(chain.nodes) == 2
        assert result.trace[1].finalize_reason == "answer_marker"
        assert result.conclusion == "12."

    def test_marker_during_grace_period(self):
        # Stop sampled at step 3 opens a grace step; its text states an
        # answer, which must finalize the chain with the marker reason.
        backend = ScriptedBackend([
            make_step("s1", STOP_SCHEDULE[0]),
            make_step("s2", STOP_SCHEDULE[1]),
            make_step("s3", STOP_SCHEDULE[2]),
            make_step("the answer is 5", UNIFORM4),
        ])
        result = run_task("q", greedy_config(stop_k=2, max_steps=8), backend)
        chain = result.structure.chains[0]
        assert chain.final_answer == "5"
        assert result.trace[3].finalize_reason == "answer_marker"

    def test_conclusion_elicited_at_step_limit(self):
        backend = ScriptedBackend([
            make_step("step one", UNIFORM4),
            make_step("step two", UNIFORM4),
            make_step("The answer is 99", A60),
        ])
        policy = PolicyConfig(epsilon=0.0, seed=0)
        config = RunConfig(max_steps=2, policy=policy, elicit_final_answer=True)
        result = run_task("q", config, backend)
        assert result.conclusion == "99"
        assert result.conclusion_calls == 1
        assert result.total_steps == 2  # the elicitation does not count

    def test_engine_alone_states_answers(self):
        backend = SyntheticBackend([
            SyntheticStep(logprobs=UNIFORM4, text="think it through"),
            SyntheticStep(logprobs=A30, text="the answer is 3, so the answer is 4"),
        ])
        result = run_task("q", greedy_config(max_steps=6), backend)
        chain = result.structure.chains[0]
        assert chain.final_answer == "4"
        assert result.trace[1].finalize_reason == "answer_marker"


class FreshCopies:
    """``backend``'s replies, each call answered by a new equal object."""

    def __init__(self, backend):
        self.backend = backend

    def generate_step(self, request: GenerationRequest):
        return dataclasses.replace(self.backend.generate_step(request))


class TestReadOnce:
    def test_each_reply_object_is_measured_once_per_run(self, monkeypatch):
        measured = []

        def counted(tokens, _measure=engine.compute_step_metrics):
            measured.append(1)
            return _measure(tokens)

        monkeypatch.setattr(engine, "compute_step_metrics", counted)
        rows = [UNIFORM4, A30, P22, A15, P11, A60, P33, UNIFORM4]
        policy = PolicyConfig(epsilon=0.9, stop_k=2, seed=3)
        config = RunConfig(max_steps=8, max_chains=16, policy=policy)

        def one_run(backend):
            measured.clear()
            result = run_task("q", config, backend)
            return result, len(measured)

        shared, shared_measured = one_run(SyntheticBackend(synthetic_schedule(rows)))
        fresh, fresh_measured = one_run(FreshCopies(SyntheticBackend(synthetic_schedule(rows))))
        # The synthetic backend returns one object per depth, to every chain and sibling.
        assert len(shared.structure.chains) > 1
        assert shared_measured == shared.structure.depth() < shared.total_steps
        assert fresh_measured == fresh.total_steps
        assert [trace_event_to_dict(e) for e in shared.trace] == [
            trace_event_to_dict(e) for e in fresh.trace
        ]
        assert [[n.id for n in c.nodes] for c in shared.structure.chains] == [
            [n.id for n in c.nodes] for c in fresh.structure.chains
        ]
        assert shared.conclusion == fresh.conclusion
        assert shared.conclusion_calls == fresh.conclusion_calls > 0


class TestAbort:
    def test_backend_failure_preserves_partial_trace(self):
        backend = ScriptedBackend([make_step("only step", UNIFORM4)])
        result = run_task("q", greedy_config(max_steps=4), backend)
        assert result.aborted
        assert "exhausted" in result.error
        assert len(result.trace) == 1
        assert all(c.finalized for c in result.structure.chains)
        assert result.conclusion == ""

    def test_whitespace_reply_aborts_the_run(self):
        blank = make_step("", UNIFORM4)  # one space per token
        assert blank.text and not blank.text.strip()
        backend = ScriptedBackend([make_step("only step", UNIFORM4), blank])
        result = run_task("q", greedy_config(max_steps=4), backend)
        assert result.aborted
        assert result.error == "empty step"
        assert len(result.trace) == 1
        assert result.total_steps == 1


def reference_vote(conclusions, scores=None):
    """The vote as documented: the most frequent value; among the tied
    values, the one at the lowest score, then the one seen first."""
    if not conclusions:
        return ""
    top = max(conclusions.count(value) for value in conclusions)
    tied = [i for i, value in enumerate(conclusions) if conclusions.count(value) == top]
    if scores is None:
        return conclusions[tied[0]]
    return conclusions[min(tied, key=lambda i: (scores[i], i))]


class TestMajorityVote:
    def test_strict_majority(self):
        assert majority_vote(["4", "4", "5"]) == "4"

    def test_singleton(self):
        assert majority_vote(["7"]) == "7"

    def test_empty(self):
        assert majority_vote([]) == ""

    def test_tie_breaks_by_score(self):
        assert majority_vote(["3", "8"], scores=[0.2, 0.6]) == "3"
        assert majority_vote(["3", "8"], scores=[0.7, 0.6]) == "8"

    def test_tie_without_scores_first_seen(self):
        assert majority_vote(["b", "a"]) == "b"

    def test_output_is_member(self):
        values = ["x", "y", "x", "z", "z"]
        assert majority_vote(values) in values

    def test_score_length_mismatch(self):
        with pytest.raises(ValueError):
            majority_vote(["a"], scores=[0.1, 0.2])

    @given(st.data(), st.lists(st.sampled_from("abcd"), max_size=12))
    def test_matches_brute_force_reference(self, data, conclusions):
        # Few distinct values and scores, so count and score ties are common.
        scores = data.draw(st.lists(
            st.sampled_from([0.1, 0.25, 0.5]) | st.floats(0.0, 1.0),
            min_size=len(conclusions), max_size=len(conclusions),
        ))
        assert majority_vote(conclusions) == reference_vote(conclusions)
        assert majority_vote(conclusions, scores) == reference_vote(conclusions, scores)

    def test_engine_tie_break_uses_chain_confidence(self):
        # Expand at step 3, then each branch states a different answer at
        # step 4. The low-entropy branch (answer 3) must win the tie.
        backend = ScriptedBackend([
            make_step("s1", EXPAND_SCHEDULE[0]),
            make_step("s2", EXPAND_SCHEDULE[1]),
            make_step("s3 branch a", EXPAND_SCHEDULE[2]),
            make_step("s3 branch b", EXPAND_SCHEDULE[2]),
            make_step("the answer is 3", A60),      # chain 0: low entropy
            make_step("the answer is 8", UNIFORM4), # chain 1: high entropy
        ])
        result = run_task("tie", greedy_config(max_steps=4, max_chains=4), backend)
        answers = dict(
            (chain_id, answer) for chain_id, answer, _ in chain_conclusions(result)
        )
        assert answers == {0: "3", 1: "8"}
        assert result.conclusion == "3"


class HoldingBackend(KeyedBackend):
    """Holds request ``held`` until the first call of ``twin`` has returned
    and then until a further call starts, or for at most ``HOLD_S``."""

    HOLD_S = 0.1

    def __init__(self, held: GenerationRequest, twin: GenerationRequest):
        super().__init__(4, jitter_s=0.0)
        self.held, self.twin = held, twin
        self.twin_returned = threading.Event()
        self.started_after = threading.Event()

    def generate_step(self, request: GenerationRequest):
        if request == self.held:
            assert self.twin_returned.wait(GATE_TIMEOUT_S)
            self.started_after.wait(self.HOLD_S)
        elif self.twin_returned.is_set():
            self.started_after.set()
        generation = super().generate_step(request)
        if request == self.twin:
            self.twin_returned.set()
        return generation


class TestCallScheduler:
    def test_identical_requests_answered_in_key_order(self):
        # R at key 3 must not start while R's reply at key 1 waits, untaken,
        # behind key 0: R submitted at key 2 after key 1 is taken comes first.
        x, r = (GenerationRequest(system_prompt="s", task=task) for task in "xr")
        backend = HoldingBackend(held=x, twin=r)
        calls = CallScheduler(backend)
        for key, request in [(0, x), (1, r), (3, r)]:
            calls.submit(request, key)
        try:
            assert calls.take(0) == (0, reply(x, 0))
            assert calls.take(1) == (1, reply(r, 0))
            calls.submit(r, 2)
            assert calls.take(2) == (2, reply(r, 1))
            assert calls.take(3) == (3, reply(r, 2))
            assert list(calls) == []
        finally:
            calls.close()
        assert worker_threads() == []

    def test_taking_out_of_key_order_finishes(self):
        # Once R and S at keys 0 and 1 wait untaken, every waiting call is
        # held behind one of them: the first waiting call then runs here.
        r, s = (GenerationRequest(system_prompt="s", task=task) for task in "rs")
        calls = CallScheduler(KeyedBackend(2, jitter_s=0.0))
        for key, request in enumerate([r, s, r, s]):
            calls.submit(request, key)
        taken = []
        worker = threading.Thread(
            target=lambda: taken.extend(calls.take(key) for key in (3, 0, 1, 2)), daemon=True)
        worker.start()
        worker.join(GATE_TIMEOUT_S)
        calls.close()
        assert not worker.is_alive()
        assert taken == [(3, reply(s, 1)), (0, reply(r, 0)), (1, reply(s, 0)), (2, reply(r, 1))]
        assert worker_threads() == []

    def test_serial_backend_is_called_in_key_order(self):
        backend = KeyedBackend(1, jitter_s=0.0)
        calls = CallScheduler(backend)
        for key, task in [((2, 0), "c"), ((0, 1), "b"), ((0, 0), "a")]:
            calls.submit(GenerationRequest(system_prompt="s", task=task), key)
        assert [key for key, _ in calls] == [(0, 0), (0, 1), (2, 0)]
        assert [request.task for request, _ in backend.calls] == ["a", "b", "c"]

    def test_taking_a_key_nothing_produces_raises_key_error(self):
        # A stray StopIteration would silently end an enclosing next() or map.
        calls = CallScheduler(KeyedBackend(1, jitter_s=0.0))
        calls.submit(GenerationRequest(system_prompt="s", task="a"), 0)
        with pytest.raises(KeyError):
            calls.take(1)  # never queued
        assert calls.take(0)[0] == 0
        with pytest.raises(KeyError):
            calls.take(0)  # already taken
        with pytest.raises(StopIteration):
            calls.take()

    @pytest.mark.parametrize("seed", [2, 3, 6])
    def test_one_thread_pool_per_run(self, monkeypatch, seed):
        pools = []

        def counted_pool(*args, _pool=engine.ThreadPoolExecutor, **kwargs):
            pools.append(args)
            return _pool(*args, **kwargs)

        monkeypatch.setattr(engine, "ThreadPoolExecutor", counted_pool)
        result = run_task("q", adaptive_config(seed), KeyedBackend(4))
        # Several rounds had more than one chain, yet all shared one pool.
        assert len(result.structure.chains) >= 4 and not result.aborted
        assert len(pools) == 1
        assert worker_threads() == []

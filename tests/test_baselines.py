"""The fixed baselines share one tree runner: leaf answers and chain dataflow."""

from __future__ import annotations

import threading

from helpers import UNIFORM4, make_step
from test_concurrency import GATE_TIMEOUT_S, KeyedBackend, worker_threads
from entroduction.backends import BackendError, GenerationRequest
from entroduction.harness import BaselineParams, baselines, run_chain_baseline, run_tree_baseline

QUESTION = "what is 2 + 2?"


class TestBlankReply:
    def test_whitespace_reply_fails_the_tree(self):
        class BlankSecondLayer:
            max_in_flight = 2

            def generate_step(self, request: GenerationRequest):
                return make_step("" if request.prior_steps else "thinking", UNIFORM4)

        outcome = run_tree_baseline(
            QUESTION, BaselineParams(branching=2, layers=3), BlankSecondLayer()
        )
        assert vars(outcome) == {
            "answers": [], "steps_generated": 1, "conclusion_calls": 0, "chains": 1,
            "error": "empty step",
        }
        assert worker_threads() == []


class TestLeafAnswer:
    def test_interior_answer_stands_in_for_elicitation(self):
        requests = []

        class InteriorAnswerBackend:
            """States an answer at the second layer only; a conclusion
            request would be answered with 9."""

            def generate_step(self, request: GenerationRequest):
                requests.append(request)
                if request.task != QUESTION:
                    text = "The answer is 9"
                elif len(request.prior_steps) == 1:
                    text = "The answer is 7"
                else:
                    text = "thinking"
                return make_step(text, UNIFORM4)

        outcome = run_tree_baseline(
            QUESTION, BaselineParams(branching=2, layers=3), InteriorAnswerBackend()
        )
        assert vars(outcome) == {
            "answers": ["7"] * 4, "steps_generated": 7, "conclusion_calls": 0, "chains": 1,
            "error": None,
        }
        assert all(request.task == QUESTION for request in requests)


class TestReadOnce:
    def test_each_step_reply_read_once_and_each_node_builds_one_request(self, monkeypatch):
        reads, requests = [], []

        def counting(text):
            reads.append(text)
            return real(text)

        class ThinkingBackend:
            def generate_step(self, request: GenerationRequest):
                requests.append(request)
                return make_step("thinking", UNIFORM4)

        real = baselines.detect_answer_marker
        monkeypatch.setattr(baselines, "detect_answer_marker", counting)
        outcome = run_tree_baseline(
            QUESTION, BaselineParams(branching=3, layers=3), ThinkingBackend()
        )
        # 1 + 3 + 9 step replies, each read once; the leaves' 9 elicitations
        # are read by the engine's elicited_answer.
        assert (outcome.steps_generated, outcome.conclusion_calls) == (13, 9)
        assert len(reads) == 13
        # The root request, then one per inner node, shared by its children.
        steps = [request for request in requests if request.task == QUESTION]
        assert len(steps) == 13 and len({id(request) for request in steps}) == 5


class GatedChainsBackend(KeyedBackend):
    """Holds the last chain's first step until another chain's second step
    has started, and fails that call if none starts in ``GATE_TIMEOUT_S``."""

    def __init__(self, chains: int):
        super().__init__(4)
        self.chains = chains
        self.first_steps = 0
        self.second_step_started = threading.Event()

    def generate_step(self, request: GenerationRequest):
        if len(request.prior_steps) == 1:
            self.second_step_started.set()
        elif not request.prior_steps:
            with self._lock:
                self.first_steps += 1
                last = self.first_steps == self.chains
            if last and not self.second_step_started.wait(GATE_TIMEOUT_S):
                raise BackendError("the second steps waited for every first step")
        return super().generate_step(request)


class TestChainDataflow:
    def test_next_step_sent_before_other_chains_return(self):
        params = BaselineParams(steps=3, chains=3)
        outcome = run_chain_baseline(QUESTION, params, GatedChainsBackend(params.chains))
        serial = run_chain_baseline(QUESTION, params, KeyedBackend(1))
        assert vars(outcome) == vars(serial)
        assert worker_threads() == []

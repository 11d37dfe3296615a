"""Scripted and synthetic backend tests, plus answer-marker detection."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    A30,
    NOT_UTF8,
    P11,
    UNIFORM4,
    make_step,
    synthetic_schedule,
)
from entroduction.backends import (
    ANSWER_MARKER,
    BackendError,
    ConfigurationError,
    FinishReason,
    GenerationRequest,
    ScriptedBackend,
    StepGeneration,
    SyntheticBackend,
    SyntheticStep,
    detect_answer_marker,
    dump_fixture,
    load_fixture,
    logits_for_normalized_entropy,
)
import entroduction
from entroduction import backends
from entroduction.backends import base, openai_http
from entroduction.backends.scripted import step_to_json
from entroduction.backends.synthetic import _chunk_text, _family_entropy, _solve
from entroduction.metrics import (
    TokenRecord,
    _softmax_terms,
    compute_step_metrics,
    step_entropy,
    step_softmax,
)


STEP_TEXT = "Work through the next part of the sum."
ANSWER_TEXT = "The answer is 42."
# A target-0.37 step: chosen_logprob.hex() of the first token and of every
# later token, recorded with the exactly rounded softmax normalizer.
PINNED_TARGET_LOGPROBS = {
    2: ("-0x1.2e14375d7a1fdp-4", "-0x1.52659cacebd10p+1"),
    8: ("-0x1.719c9764464fdp-3", "-0x1.df9c468844650p+1"),
    32: ("-0x1.fcd05189c4a0cp-3", "-0x1.3caee94a4e250p+2"),
    128: ("-0x1.2ba1ab7b32f16p-2", "-0x1.8dd0673db32f1p+2"),
}
# First 16 hex digits of the sha256 of the token texts joined by NUL.
PINNED_PIECES = {
    (2, STEP_TEXT): "0c1655d836690277",
    (2, ANSWER_TEXT): "9aff1966e7433ef6",
    (8, STEP_TEXT): "46a0b85a01c113d5",
    (8, ANSWER_TEXT): "a6d80bec2aca9ce1",
    (32, STEP_TEXT): "d9caf62bed937dd1",
    (32, ANSWER_TEXT): "90bb80e49b4fead2",
    (128, STEP_TEXT): "1768ffc79ab80b76",
    (128, ANSWER_TEXT): "f96ffa440ba80ab9",
}


def request(prior=()) -> GenerationRequest:
    return GenerationRequest(system_prompt="sys", task="q", prior_steps=tuple(prior))


def reference_chunk_text(text: str, n: int) -> list[str]:
    """The piece split as one slice per loop iteration: the reference."""
    if len(text) < n:
        text = text + " " * (n - len(text))
    base, extra = divmod(len(text), n)
    pieces = []
    offset = 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        pieces.append(text[offset : offset + size])
        offset += size
    return pieces


def reference_tokens(entry: SyntheticStep) -> tuple[TokenRecord, ...]:
    """The first step of a one-entry schedule, built token by token over
    logprobs of length n, one record per distinct (piece, logprob) key: the
    reference for the build per distinct piece."""
    if entry.logprobs is not None:
        raw = list(entry.logprobs)
    else:
        raw = list(logits_for_normalized_entropy(entry.target_normalized_entropy, entry.n_tokens))
    peak = max(raw)
    log_total = math.log(math.fsum(math.exp(x - peak) for x in raw))
    logprobs = [x - peak - log_total for x in raw]
    text = entry.text or "synthetic step 1 of the reasoning schedule."
    keys = list(zip(reference_chunk_text(text, len(logprobs)), logprobs))
    shared = {key: TokenRecord(key[0], min(0.0, key[1])) for key in dict.fromkeys(keys)}
    return tuple(map(shared.__getitem__, keys))


def validated_solve(target: float, n_tokens: int, tolerance: float = 1e-9) -> float:
    """The bisection with every evaluation checked: a fresh logit list
    through ``step_softmax``, then ``step_entropy`` with its distribution
    checks. The reference for ``_solve``."""
    max_entropy = math.log2(n_tokens)

    def normalized(a: float) -> float:
        return step_entropy(step_softmax([a] + [0.0] * (n_tokens - 1))) / max_entropy

    lo, hi = 0.0, 1.0
    while normalized(hi) > target:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError(f"cannot realize normalized entropy {target}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normalized(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < tolerance * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def sharing(tokens) -> list[int]:
    """Each token's position of the first token that is the same object."""
    first: dict[int, int] = {}
    return [first.setdefault(id(token), i) for i, token in enumerate(tokens)]


@st.composite
def synthetic_entries(draw) -> SyntheticStep:
    """Target and explicit-logprob entries, with texts shorter than, as long
    as and longer than the step, from a small alphabet so pieces repeat."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 200))
        target = draw(st.just(1.0) | st.floats(0.0, 1.0, exclude_min=True))
        entry = dict(target_normalized_entropy=target, n_tokens=n)
    else:
        value = st.floats(-40.0, 10.0) | st.sampled_from([-1.0, -2.5, 0.0])
        logprobs = draw(st.lists(value, min_size=1, max_size=200))
        n = len(logprobs)
        entry = dict(logprobs=logprobs)
    length = draw(st.sampled_from([n - 1, n, n + 1]) | st.integers(0, 3 * n))
    text = draw(st.none() | st.text("ab. é", min_size=length, max_size=length))
    return SyntheticStep(text=text, **entry)


class TestDetectAnswerMarker:
    def test_default_pattern(self):
        assert detect_answer_marker("So the answer is 42.") == "42."

    def test_no_marker(self):
        assert detect_answer_marker("We should consider both cases.") is None

    def test_case_insensitive_last_occurrence(self):
        text = "The Answer Is maybe. THE ANSWER IS 7"
        assert detect_answer_marker(text) == "7"
        # "İ".lower() is two characters long: the span is cut from the text itself.
        assert detect_answer_marker("İİ: the answer is 142") == "142"
        assert detect_answer_marker("İİİ: the answer is 142") == "142"

    def test_marker_without_remainder(self):
        assert detect_answer_marker("the answer is") is None


class TestScriptedBackend:
    def test_playback_order_and_identity(self, tmp_path):
        steps = [
            make_step("first step", UNIFORM4),
            make_step("The answer is 9", A30, FinishReason.ANSWER_MARKER),
        ]
        path = tmp_path / "fixture.jsonl"
        dump_fixture(steps, path)
        backend = ScriptedBackend(load_fixture(path))
        replayed = [backend.generate_step(request()) for _ in range(2)]
        assert replayed == steps
        assert [json.dumps(step_to_json(s)) for s in replayed] == [
            json.dumps(step_to_json(s)) for s in steps
        ]

    def test_two_loads_byte_identical(self, tmp_path):
        steps = [make_step("alpha beta", P11)]
        path = tmp_path / "fixture.jsonl"
        dump_fixture(steps, path)
        first = path.read_bytes()
        dump_fixture(load_fixture(path), path)
        assert path.read_bytes() == first

    def test_exhaustion(self, tmp_path):
        backend = ScriptedBackend([make_step("only", UNIFORM4)])
        backend.generate_step(request())
        with pytest.raises(BackendError, match="exhausted"):
            backend.generate_step(request())

    def test_alternatives_ignored_and_not_written(self, tmp_path):
        path = tmp_path / "f.jsonl"
        old_line = {"text": "x", "finish_reason": "stop_sequence",
                    "tokens": [{"text": "x", "logprob": -0.2,
                                "top": [{"token": "x", "logprob": -0.2}]}]}
        path.write_text(json.dumps(old_line) + "\n", encoding="utf-8")
        step = StepGeneration("x", (TokenRecord("x", -0.2),), FinishReason.STOP_SEQUENCE)
        assert load_fixture(path) == [step]
        dump_fixture([step], path)
        assert json.loads(path.read_text(encoding="utf-8"))["tokens"] == [
            {"text": "x", "logprob": -0.2}
        ]

    @pytest.mark.parametrize("finish", [{}, {"finish_reason": "content_filter"},
                                        {"finish_reason": None}, {"finish_reason": [1]}])
    def test_finish_reason_optional_and_ignored(self, tmp_path, finish):
        path = tmp_path / "f.jsonl"
        line = {"text": "x", **finish, "tokens": [{"text": "x", "logprob": -0.2}]}
        path.write_text(json.dumps(line) + "\n", encoding="utf-8")
        assert load_fixture(path) == [StepGeneration("x", (TokenRecord("x", -0.2),))]

    def test_finish_reason_not_written(self, tmp_path):
        path = tmp_path / "f.jsonl"
        dump_fixture([make_step("The answer is 9", A30, FinishReason.ANSWER_MARKER)], path)
        assert "finish_reason" not in json.loads(path.read_text(encoding="utf-8"))

    def test_unreadable_fixture_is_configuration_error(self, tmp_path):
        path = tmp_path / "fixture.jsonl"
        path.write_bytes(NOT_UTF8)
        for missing_or_not_utf8 in (tmp_path / "missing.jsonl", path):
            with pytest.raises(ConfigurationError, match="cannot read fixture"):
                load_fixture(missing_or_not_utf8)

    def test_bad_fixture_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "x"}\n', encoding="utf-8")
        with pytest.raises(BackendError, match="bad fixture line 1"):
            load_fixture(path)

    @pytest.mark.parametrize("token", [5, "x", ["x", -0.1], None])
    def test_non_object_token_is_bad_fixture_line(self, tmp_path, token):
        path = tmp_path / "bad.jsonl"
        line = {"text": "a", "finish_reason": "stop_sequence", "tokens": [token]}
        path.write_text(json.dumps(line) + "\n", encoding="utf-8")
        with pytest.raises(BackendError, match="bad fixture line 1: token entry must be an object"):
            load_fixture(path)

    @pytest.mark.parametrize("step_text, text, logprob, error", [
        ("None", None, -0.1, "token text must be a string"),
        ("7", 7, -0.1, "token text must be a string"),
        ("x", ["x"], -0.1, "token text must be a string"),
        ("x", "x", True, "logprob must be a number"),
        ("x", "x", False, "logprob must be a number"),
        ("x", "x", "-0.1", "logprob must be a number"),
        ("x", "x", float("nan"), "NaN is not standard JSON"),
        ("x", "x", 0.5, "logprob must be <= 0, got 0.5"),
        (None, "None", -0.1, "step text must be a string"),
        (7, "7", -0.1, "step text must be a string"),
    ])
    def test_bad_text_or_logprob_is_bad_fixture_line(
        self, tmp_path, step_text, text, logprob, error
    ):
        path = tmp_path / "bad.jsonl"
        line = {"text": step_text, "finish_reason": "stop_sequence",
                "tokens": [{"text": text, "logprob": logprob}]}
        path.write_text(json.dumps(line) + "\n", encoding="utf-8")
        with pytest.raises(BackendError, match=f"bad fixture line 1: {error}"):
            load_fixture(path)

    def test_rounding_size_positive_logprob_reads_as_zero(self, tmp_path):
        path = tmp_path / "rounding.jsonl"
        lines = [{"text": "x", "finish_reason": "stop_sequence",
                  "tokens": [{"text": "x", "logprob": logprob}]}
                 for logprob in (1e-9, base.LOGPROB_ROUNDING)]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        assert [step.tokens[0].chosen_logprob for step in load_fixture(path)] == [0.0, 0.0]

    def test_huge_integer_logprob_is_bad_fixture_line(self, tmp_path):
        path = tmp_path / "huge.jsonl"
        line = {"text": "x", "finish_reason": "stop_sequence",
                "tokens": [{"text": "x", "logprob": -10**400}]}
        path.write_text(json.dumps(line) + "\n", encoding="utf-8")
        with pytest.raises(BackendError, match="bad fixture line 1"):
            load_fixture(path)


class TestSyntheticBackend:
    def test_entropy_targets_hit(self):
        targets = [0.9, 0.55, 0.2]
        backend = SyntheticBackend(
            [SyntheticStep(target_normalized_entropy=t, n_tokens=12) for t in targets]
        )
        prior: tuple[str, ...] = ()
        for target in targets:
            step = backend.generate_step(request(prior))
            metrics = compute_step_metrics(step.tokens)
            assert metrics.normalized_entropy == pytest.approx(target, abs=1e-6)
            prior = prior + (step.text,)

    def test_monotone_schedule_realized(self):
        targets = [0.95, 0.8, 0.6, 0.4, 0.15]
        backend = SyntheticBackend(
            [SyntheticStep(target_normalized_entropy=t) for t in targets]
        )
        prior: tuple[str, ...] = ()
        observed = []
        for _ in targets:
            step = backend.generate_step(request(prior))
            observed.append(compute_step_metrics(step.tokens).normalized_entropy)
            prior = prior + (step.text,)
        assert all(a > b for a, b in zip(observed, observed[1:]))

    def test_explicit_logprob_entries(self):
        backend = SyntheticBackend(synthetic_schedule([UNIFORM4, A30]))
        first = backend.generate_step(request())
        second = backend.generate_step(request(("s1",)))
        m1 = compute_step_metrics(first.tokens)
        m2 = compute_step_metrics(second.tokens)
        assert m1.entropy_bits == pytest.approx(2.0, abs=1e-12)
        assert m2.entropy_bits < m1.entropy_bits

    def test_schedule_reuse_past_end(self):
        backend = SyntheticBackend(synthetic_schedule([UNIFORM4]))
        step = backend.generate_step(request(("a", "b", "c", "d")))
        assert compute_step_metrics(step.tokens).entropy_bits == pytest.approx(2.0, abs=1e-12)

    def test_token_texts_reconstruct_text(self):
        backend = SyntheticBackend(
            [SyntheticStep(logprobs=UNIFORM4, text="The answer is 4")]
        )
        step = backend.generate_step(request())
        assert "".join(t.text for t in step.tokens) == step.text
        assert detect_answer_marker(step.text) == "4"

    @pytest.mark.parametrize("n", [2, 8, 32, 128])
    @pytest.mark.parametrize("text", [STEP_TEXT, ANSWER_TEXT])
    def test_target_step_pinned(self, n, text):
        entry = SyntheticStep(target_normalized_entropy=0.37, n_tokens=n, text=text)
        step = SyntheticBackend([entry]).generate_step(request())
        first, rest = PINNED_TARGET_LOGPROBS[n]
        assert [t.chosen_logprob.hex() for t in step.tokens] == [first] + [rest] * (n - 1)
        assert step.text == text.ljust(n)
        pieces = "\0".join(t.text for t in step.tokens).encode()
        assert hashlib.sha256(pieces).hexdigest()[:16] == PINNED_PIECES[n, text]

    def test_equal_pieces_share_one_record(self):
        entry = SyntheticStep(target_normalized_entropy=0.37, n_tokens=32, text=ANSWER_TEXT)
        backend = SyntheticBackend([entry])
        tokens = backend.generate_step(request()).tokens
        padding = tokens[len(ANSWER_TEXT):]
        assert padding and all(t is padding[0] for t in padding)
        distinct = {(t.text, t.chosen_logprob) for t in tokens}
        assert len({id(t) for t in tokens}) == len(distinct) < len(tokens)
        # One step per index, built by each backend; every call is counted.
        assert backend.generate_step(request()).tokens is tokens
        assert SyntheticBackend([entry]).generate_step(request()).tokens is not tokens
        assert backend.calls_made == 2

    def test_threads_get_one_step_per_index(self):
        schedule = [SyntheticStep(target_normalized_entropy=t, n_tokens=16) for t in (0.3, 0.6, 0.9)]
        backend = SyntheticBackend(schedule)
        barrier = threading.Barrier(8, timeout=10)
        seen = [[] for _ in range(8)]

        def call(slot):
            barrier.wait()
            for i in range(60):
                seen[slot].append(backend.generate_step(request(("s",) * (i % 3))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(slot,)) for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert backend.calls_made == 8 * 60
        for depth in range(3):
            assert len({id(steps[i]) for steps in seen for i in range(depth, 60, 3)}) == 1

    @settings(max_examples=300, deadline=None)
    @given(synthetic_entries())
    def test_step_equals_reference(self, entry):
        tokens = SyntheticBackend([entry]).generate_step(request()).tokens
        expected = reference_tokens(entry)
        assert [t.text for t in tokens] == [t.text for t in expected]
        assert [t.chosen_logprob.hex() for t in tokens] == [
            t.chosen_logprob.hex() for t in expected
        ]
        assert sharing(tokens) == sharing(expected)

    @given(st.text(max_size=300), st.integers(1, 120))
    @example("", 1)
    @example("", 7)
    def test_chunk_text_properties(self, text, n):
        pieces = _chunk_text(text, n)
        assert len(pieces) == n and all(pieces)
        assert "".join(pieces) == text.ljust(n)
        sizes = [len(piece) for piece in pieces]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[0] - sizes[-1] <= 1
        assert pieces == reference_chunk_text(text, n)

    def test_keyed_by_depth_not_call_count(self):
        backend = SyntheticBackend(synthetic_schedule([UNIFORM4, A30, P11]))
        # Two calls with the same prior depth get the same entry.
        one = backend.generate_step(request(("x",)))
        two = backend.generate_step(request(("y",)))
        assert [t.chosen_logprob for t in one.tokens] == [
            t.chosen_logprob for t in two.tokens
        ]

    def test_bad_entry_rejected(self):
        with pytest.raises(ValueError):
            SyntheticStep()
        with pytest.raises(ValueError):
            SyntheticStep(logprobs=UNIFORM4, target_normalized_entropy=0.5)
        with pytest.raises(ValueError):
            SyntheticBackend([])

    @pytest.mark.parametrize(
        "target, n_tokens",
        [(0.0, 8), (1.5, 8), (-0.2, 8), (float("nan"), 8), (0.5, 1)],
    )
    def test_bad_target_rejected_at_construction(self, target, n_tokens):
        with pytest.raises(ValueError):
            SyntheticStep(target_normalized_entropy=target, n_tokens=n_tokens)

    @pytest.mark.parametrize(
        "logprobs", [(), (math.nan, -1.0), (math.inf, -1.0), (-1.0, -math.inf)]
    )
    def test_bad_logprobs_rejected_at_construction(self, logprobs):
        # Once built, an empty entry would fail mid-run outside BackendError,
        # and a non-finite one would read every token's logprob as 0.0.
        with pytest.raises(ValueError, match="logprobs must be non-empty and finite"):
            SyntheticStep(logprobs=logprobs)


class TestLogitsForTarget:
    @pytest.mark.parametrize("target", [1.0, 0.9, 0.5, 0.21, 0.05])
    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_targets(self, target, n):
        import math

        from entroduction.metrics import step_entropy, step_softmax

        logits = logits_for_normalized_entropy(target, n)
        realized = step_entropy(step_softmax(logits)) / math.log2(n)
        assert realized == pytest.approx(target, abs=1e-6)

    def test_invalid_targets(self):
        for _ in range(2):  # raised again: nothing bad was cached
            with pytest.raises(ValueError):
                logits_for_normalized_entropy(0.0, 4)
            with pytest.raises(ValueError):
                logits_for_normalized_entropy(1.2, 4)
            with pytest.raises(ValueError):
                logits_for_normalized_entropy(0.5, 1)

    @pytest.mark.parametrize("n", [2, 8, 32, 128])
    def test_cached_equals_uncached_bisection(self, n):
        targets = [0.05] + [round(0.025 * k, 3) for k in range(3, 40)] + [0.999, 1.0]
        for target in targets:
            if target == 1.0:
                uncached = (0.0,) * n
            else:
                uncached = (_solve.__wrapped__(target, n),) + (0.0,) * (n - 1)
            assert logits_for_normalized_entropy(target, n) == uncached
            assert logits_for_normalized_entropy(target, n) == uncached

    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_solve_equals_validated_bisection_on_sweep_keys(self, n):
        # Every target the synthetic_sweep benchmark can draw at this length.
        for target in (round(k / 1000, 3) for k in range(50, 1000)):
            assert _solve.__wrapped__(target, n).hex() == validated_solve(target, n).hex()

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.integers(2, 300))
    def test_solve_equals_validated_bisection(self, target, n):
        assert _solve.__wrapped__(target, n).hex() == validated_solve(target, n).hex()

    @settings(max_examples=1000, deadline=None)
    @given(
        st.floats(0.0, 40.0)
        | st.floats(0.0, 1e6)
        | st.sampled_from([0.0, 1.0, 744.5, 745.2, 746.0, 1e6]),
        st.integers(2, 300),
    )
    def test_family_entropy_equals_general_kernel(self, a, n):
        # The solver's range, and past a = 745, where the rest underflow to
        # p = 0 and give 0 terms.
        expanded = _softmax_terms([a] + [0.0] * (n - 1))[0]
        assert _family_entropy(a, n).hex() == expanded.hex()

    @pytest.mark.parametrize(
        "target, n, solved",
        [
            (0.5, 8, "0x1.87bd887200000p+1"),
            (0.05, 128, "0x1.0f8bcef200000p+3"),
            (0.9, 2, "0x1.8b54200c00000p-1"),
            (0.37, 32, "0x1.2cc866be00000p+2"),
        ],
    )
    def test_solution_pinned(self, target, n, solved):
        # Recorded before the solve was memoized; the benchmark digests
        # depend on these last bits.
        assert logits_for_normalized_entropy(target, n)[0] == float.fromhex(solved)

    def test_second_backend_solves_nothing(self):
        schedule = [
            SyntheticStep(target_normalized_entropy=t, n_tokens=24)
            for t in (0.612, 0.418)
        ]
        first = SyntheticBackend(schedule)
        steps = [first.generate_step(request()), first.generate_step(request(("a",)))]
        misses = _solve.cache_info().misses
        second = SyntheticBackend(schedule)
        again = [second.generate_step(request()), second.generate_step(request(("b",)))]
        assert _solve.cache_info().misses == misses
        assert [s.tokens for s in again] == [s.tokens for s in steps]

    def test_threads_share_one_key(self):
        _solve.cache_clear()
        barrier = threading.Barrier(8, timeout=10)
        results = []

        def solve():
            barrier.wait()
            results.append(logits_for_normalized_entropy(0.333, 64))

        threads = [threading.Thread(target=solve) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert len(results) == 8
        assert all(result == results[0] for result in results)
        assert results[0][0] == _solve.__wrapped__(0.333, 64)


class TestGenerationRequest:
    def test_defaults(self):
        req = GenerationRequest(system_prompt="s", task="t")
        assert req.temperature == 0.7
        assert req.max_tokens == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            GenerationRequest(system_prompt="s", task="t", temperature=-1.0)
        for temperature in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                GenerationRequest(system_prompt="s", task="t", temperature=temperature)
        with pytest.raises(ValueError):
            GenerationRequest(system_prompt="s", task="t", max_tokens=0)


class TestStepGenerationInvariant:
    def test_token_concat_must_match(self):
        tokens = (TokenRecord("ab", -0.5), TokenRecord("cd", -0.5))
        with pytest.raises(ValueError, match="concatenate"):
            StepGeneration("abXcd", tokens, FinishReason.STOP_SEQUENCE)

    def test_nonempty_text_requires_tokens(self):
        with pytest.raises(ValueError, match="tokens"):
            StepGeneration("abc", (), FinishReason.STOP_SEQUENCE)


class TestTemplates:
    def test_template_read_once(self, monkeypatch):
        expected = (
            resources.files("entroduction.templates")
            .joinpath("step_prompt.txt")
            .read_text("utf-8")
            .format(task="q", prior_steps="1. a\n2. b")
        )
        reads = []

        def files(package):
            reads.append(package)
            return resources.files(package)

        monkeypatch.setattr(base, "resources", SimpleNamespace(files=files))
        base.load_template.cache_clear()
        try:
            rendered = [base.render_step_prompt("q", ("a", "b")) for _ in range(3)]
        finally:
            base.load_template.cache_clear()
        assert rendered == [expected] * 3
        assert reads == ["entroduction.templates"]

    @pytest.mark.parametrize("name", ["step_prompt.txt", "conclusion_prompt.txt"])
    def test_template_asks_for_the_answer_marker(self, name):
        # Answers are read by ANSWER_MARKER alone: each prompt must ask for a
        # quoted sentence that holds it.
        asked = re.findall(r'"([^"]*)"', base.load_template(name))
        assert any(ANSWER_MARKER in sentence.lower() for sentence in asked)


def loaded_by_program(names: set[str]) -> str:
    """The sorted list of ``names`` a fresh interpreter holds after importing the
    program's four entry modules (this test process already holds them)."""
    program = (
        "import sys, entroduction, entroduction.backends, entroduction.harness, "
        f"entroduction.cli; print(sorted(set(sys.modules).intersection({sorted(names)!r})))"
    )
    src = str(Path(entroduction.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


class TestLazyHttpImport:
    def test_program_imports_without_the_http_stack(self):
        assert loaded_by_program({"requests", "urllib3"}) == "[]"

    def test_program_imports_without_numpy(self):
        assert loaded_by_program({"numpy", "requests"}) == "[]"

    def test_http_backend_resolves_on_access(self):
        assert backends.OpenAIChatBackend is openai_http.OpenAIChatBackend
        assert "OpenAIChatBackend" in backends.__all__
        namespace: dict = {}
        exec("from entroduction.backends import *", namespace)
        assert namespace["OpenAIChatBackend"] is openai_http.OpenAIChatBackend

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="has no attribute 'NoSuchBackend'"):
            backends.NoSuchBackend

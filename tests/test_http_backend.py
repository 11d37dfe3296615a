"""HTTP backend tests against a local chat-completions mock. No egress."""

from __future__ import annotations

import json
import math
import threading
import time
import urllib.request

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from helpers import EXPAND_SCHEDULE, synthetic_schedule
from mock_server import ChatCompletionsMock, completion_payload
from entroduction.backends import base, openai_http
from entroduction.backends import (
    BackendError,
    ConfigurationError,
    FinishReason,
    GenerationRequest,
    OpenAIChatBackend,
    SyntheticBackend,
    TransportError,
)
from entroduction.engine import ExecutedBehavior, RunConfig, run_task
from entroduction.harness import (
    BaselineParams,
    Method,
    TaskInstance,
    TaskKind,
    run_benchmark,
)
from entroduction.metrics import TokenRecord, compute_step_metrics
from entroduction.policy import PolicyConfig

THREE_TOKENS = [("Add ", -0.2), ("the ", -1.6), ("numbers.", -0.7)]
RATE_LIMITED = (429, {"error": "rate limited"})
# A JSON integer too large for a float: float() raises OverflowError.
HUGE = 10**400

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
logprob_values = (
    st.floats(max_value=1.0) | st.sampled_from([HUGE, -HUGE, 0, -3]) | json_values
)
alternative_entries = st.fixed_dictionaries(
    {"token": json_values, "logprob": logprob_values}
) | json_values
token_entries = st.fixed_dictionaries(
    {"token": st.text(max_size=5) | json_values, "logprob": logprob_values},
    optional={"top_logprobs": st.lists(alternative_entries, max_size=3) | json_values},
) | json_values
logprob_content = st.lists(token_entries, max_size=4) | json_values


def make_backend(mock, **kwargs) -> OpenAIChatBackend:
    kwargs.setdefault("retry_backoff", 0.01)
    return OpenAIChatBackend(endpoint=mock.endpoint, model="test-model", **kwargs)


def step_request(**kwargs) -> GenerationRequest:
    defaults = dict(
        system_prompt="be brief",
        task="what is 2+2?",
        prior_steps=("first thought",),
        temperature=0.7,
        max_tokens=128,
        top_logprobs=5,
    )
    defaults.update(kwargs)
    return GenerationRequest(**defaults)


class TestRequestShape:
    def test_payload_fields_verbatim(self):
        with ChatCompletionsMock([completion_payload(THREE_TOKENS)]) as mock:
            backend = make_backend(mock)
            backend.generate_step(step_request(temperature=0.35, max_tokens=77))
            body = mock.requests[0]
        assert body["model"] == "test-model"
        assert body["temperature"] == 0.35
        assert body["max_tokens"] == 77
        assert body["logprobs"] is True
        assert body["top_logprobs"] == 5
        assert body["stop"] == ["\n"]
        assert body["messages"][0] == {"role": "system", "content": "be brief"}
        user = body["messages"][1]
        assert user["role"] == "user"
        assert "what is 2+2?" in user["content"]
        assert "first thought" in user["content"]

    def test_api_key_header(self, monkeypatch, tmp_path):
        monkeypatch.setenv("NETRC", str(tmp_path / "absent"))
        with ChatCompletionsMock([completion_payload(THREE_TOKENS)]) as mock:
            make_backend(mock, api_key="sk-test").generate_step(step_request())
            make_backend(mock).generate_step(step_request())
        assert mock.headers[0]["Authorization"] == "Bearer sk-test"
        assert "Authorization" not in mock.headers[1]
        assert mock.headers[0]["Content-Type"] == "application/json"


class TestParsing:
    def test_tokens_and_metrics_match_oracle(self):
        with ChatCompletionsMock([completion_payload(THREE_TOKENS)]) as mock:
            backend = make_backend(mock)
            step = backend.generate_step(step_request())
        assert step.text == "Add the numbers."
        assert [t.chosen_logprob for t in step.tokens] == [-0.2, -1.6, -0.7]
        metrics = compute_step_metrics(step.tokens)
        ref = oracle.metrics_ref([-0.2, -1.6, -0.7])
        for field, expected in ref.items():
            assert oracle.close(getattr(metrics, field), expected, rel=1e-9), field

    def test_top_logprobs_sorted_and_clamped(self):
        tokens = [("x", 1e-9, [("y", -2.0), ("x", 1e-9)])]
        with ChatCompletionsMock([completion_payload(tokens)]) as mock:
            backend = make_backend(mock)
            step = backend.generate_step(step_request())
        assert step.tokens[0].chosen_logprob == 0.0
        alts = step.tokens[0].top_alternatives
        assert alts == (("x", 0.0), ("y", -2.0))

    @pytest.mark.parametrize(
        "entry",
        [
            {"token": "x", "logprob": float("nan")},
            {"token": "x", "logprob": float("-inf")},
            {"token": "x", "logprob": float("inf")},
            {"token": "x"},
            {"token": "x", "logprob": None},
            {"token": "x", "logprob": "low"},
            {"logprob": -0.1},
            {"token": "x", "logprob": -0.1,
             "top_logprobs": [{"token": "y", "logprob": float("nan")}]},
            {"token": "x", "logprob": -0.1,
             "top_logprobs": [{"token": "y", "logprob": float("-inf")}]},
            {"token": "x", "logprob": -0.1, "top_logprobs": [{"token": "y"}]},
            {"token": "x", "logprob": -HUGE},
            {"token": "x", "logprob": HUGE},
            {"token": "x", "logprob": -0.1,
             "top_logprobs": [{"token": "y", "logprob": -HUGE}]},
        ],
    )
    def test_bad_logprob_rejected(self, entry):
        with pytest.raises(BackendError):
            OpenAIChatBackend._parse_tokens([entry])

    @given(logprob_content)
    @settings(max_examples=300, deadline=None)
    def test_fuzz_valid_records_or_backend_error(self, content):
        try:
            records = OpenAIChatBackend._parse_tokens(content)
        except BackendError:
            return
        for record in records:
            assert isinstance(record, TokenRecord)
            assert math.isfinite(record.chosen_logprob) and record.chosen_logprob <= 0.0
            for _, lp in record.top_alternatives or ():
                assert math.isfinite(lp) and lp <= 0.0

    def test_huge_integer_logprob_ends_only_its_task(self):
        huge = completion_payload([("x", -HUGE)])
        tasks = [TaskInstance(f"t{i}", f"q{i}", "4", TaskKind.NUMERIC_MATH) for i in (1, 2)]
        good = completion_payload([("The answer is 4", -0.05)])
        with ChatCompletionsMock([huge, huge, good]) as mock:
            backend = make_backend(mock)
            assert run_task("q", RunConfig(), backend).aborted
            report = run_benchmark(
                Method.COT, tasks, backend, params=BaselineParams(steps=1)
            )
        assert "OverflowError" in report.records[0].error
        assert not report.records[0].correct
        assert report.records[1].correct and report.records[1].error is None

    def test_bad_logprob_ends_only_its_task(self):
        payload = completion_payload([("x", float("nan"))])
        task = TaskInstance("t", "q", "1", TaskKind.NUMERIC_MATH)
        with ChatCompletionsMock([payload]) as mock:
            backend = make_backend(mock)
            assert run_task("q", RunConfig(), backend).aborted
            report = run_benchmark(Method.COT, [task], backend)
        assert report.records[0].error and not report.records[0].correct

    @pytest.mark.parametrize(
        "body",
        [[], {"choices": ["x"]}, {"choices": [{"logprobs": "x"}]}],
        ids=["list body", "string choice", "string logprobs"],
    )
    def test_bad_response_shape_rejected(self, body):
        with ChatCompletionsMock([body]) as mock:
            backend = make_backend(mock)
            with pytest.raises(BackendError, match="malformed"):
                backend.generate_step(step_request())

    def test_bad_response_shape_ends_only_its_task(self):
        tasks = [TaskInstance(f"t{i}", f"q{i}", "4", TaskKind.NUMERIC_MATH) for i in (1, 2)]
        good = completion_payload([("The answer is 4", -0.05)])
        with ChatCompletionsMock([{"choices": ["x"]}, good]) as mock:
            report = run_benchmark(
                Method.COT, tasks, make_backend(mock), params=BaselineParams(steps=1)
            )
        assert "malformed" in report.records[0].error
        assert not report.records[0].correct
        assert report.records[1].correct and report.records[1].error is None

    def test_finish_reasons(self):
        answer_tokens = [("The answer is 4", -0.05)]
        with ChatCompletionsMock(
            [
                completion_payload(THREE_TOKENS, finish_reason="length"),
                completion_payload(answer_tokens),
                completion_payload(THREE_TOKENS, finish_reason="stop"),
            ]
        ) as mock:
            backend = make_backend(mock)
            first = backend.generate_step(step_request())
            second = backend.generate_step(step_request())
            third = backend.generate_step(step_request())
        assert first.finish_reason is FinishReason.LENGTH
        assert second.finish_reason is FinishReason.ANSWER_MARKER
        assert third.finish_reason is FinishReason.STOP_SEQUENCE


class TestFailures:
    def test_retry_then_success(self):
        with ChatCompletionsMock(
            [completion_payload(THREE_TOKENS)], fail_first=1
        ) as mock:
            backend = make_backend(mock)
            step = backend.generate_step(step_request())
            assert step.text == "Add the numbers."
            assert len(mock.requests) == 2

    def test_retries_exhausted(self):
        with ChatCompletionsMock(
            [completion_payload(THREE_TOKENS)], fail_first=99
        ) as mock:
            backend = make_backend(mock, max_attempts=3)
            with pytest.raises(TransportError, match="3 attempts"):
                backend.generate_step(step_request())
            assert len(mock.requests) == 3

    def test_rate_limited_then_success(self):
        responses = [RATE_LIMITED, completion_payload(THREE_TOKENS)]
        with ChatCompletionsMock(responses) as mock:
            step = make_backend(mock).generate_step(step_request())
            assert step.text == "Add the numbers."
            assert len(mock.requests) == 2

    @pytest.mark.parametrize("status", [429, 503])
    def test_retry_after_honoured_and_capped(self, status, monkeypatch):
        waits = []
        monkeypatch.setattr(time, "sleep", waits.append)
        responses = [
            (status, {}, {"Retry-After": "0"}),
            (status, {}, {"Retry-After": "86400"}),
            completion_payload(THREE_TOKENS),
        ]
        with ChatCompletionsMock(responses) as mock:
            make_backend(mock, retry_backoff=5.0).generate_step(step_request())
            assert len(mock.requests) == 3
        assert waits == [0.0, openai_http.MAX_RETRY_AFTER_S]

    def test_backoff_has_full_jitter(self, monkeypatch):
        waits, spans = [], []

        def uniform(lo, hi):
            spans.append((lo, hi))
            return hi / 2

        monkeypatch.setattr(time, "sleep", waits.append)
        http_date = {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}
        with ChatCompletionsMock([(503, {}, http_date)]) as mock:
            backend = make_backend(mock, retry_backoff=1.0, max_attempts=4)
            monkeypatch.setattr(backend._jitter, "uniform", uniform)
            with pytest.raises(TransportError, match="503"):
                backend.generate_step(step_request())
        assert spans == [(0.0, 1.0), (0.0, 2.0), (0.0, 4.0)]
        assert waits == [0.5, 1.0, 2.0]

    def test_rate_limited_throughout_ends_only_its_task(self):
        with ChatCompletionsMock([RATE_LIMITED]) as mock:
            with pytest.raises(TransportError, match="429"):
                make_backend(mock, max_attempts=3).generate_step(step_request())
            assert len(mock.requests) == 3

        tasks = [TaskInstance(f"t{i}", f"q{i}", "4", TaskKind.NUMERIC_MATH) for i in (1, 2)]
        good = completion_payload([("The answer is 4", -0.05)])
        with ChatCompletionsMock([RATE_LIMITED] * 3 + [good]) as mock:
            report = run_benchmark(
                Method.COT, tasks, make_backend(mock), params=BaselineParams(steps=1)
            )
        assert "429" in report.records[0].error
        assert not report.records[0].correct
        assert report.records[1].correct and report.records[1].error is None

    def test_unreachable_endpoint(self):
        backend = OpenAIChatBackend(
            endpoint="http://127.0.0.1:9",  # discard port, nothing listens
            model="m",
            timeout=0.2,
            max_attempts=2,
            retry_backoff=0.01,
        )
        with pytest.raises(TransportError):
            backend.generate_step(step_request())

    def test_missing_logprobs_is_fatal(self):
        payload = completion_payload(THREE_TOKENS)
        del payload["choices"][0]["logprobs"]
        with ChatCompletionsMock([payload]) as mock:
            backend = make_backend(mock)
            with pytest.raises(ConfigurationError, match="logprobs unavailable"):
                backend.generate_step(step_request())

    def test_client_error_is_configuration(self):
        with ChatCompletionsMock([(404, {"error": "no such model"})]) as mock:
            backend = make_backend(mock)
            with pytest.raises(ConfigurationError, match="404"):
                backend.generate_step(step_request())
            assert len(mock.requests) == 1  # no retry on 4xx other than 429

    @pytest.mark.parametrize("fault", ["reset", "slow"])
    def test_transport_fault_retried(self, fault):
        with ChatCompletionsMock(
            [completion_payload(THREE_TOKENS)], fail_first=1, fault=fault
        ) as mock:
            step = make_backend(mock, timeout=0.2).generate_step(step_request())
            assert step.text == "Add the numbers."
            assert len(mock.requests) == 2

    def test_bad_json_is_not_retried_and_ends_only_its_task(self):
        good = completion_payload([("The answer is 4", -0.05)])
        with ChatCompletionsMock([good], fail_first=1, fault="bad_json") as mock:
            with pytest.raises(BackendError, match="bad JSON") as caught:
                make_backend(mock).generate_step(step_request())
            assert not isinstance(caught.value, TransportError)
            assert len(mock.requests) == 1

        tasks = [TaskInstance(f"t{i}", f"q{i}", "4", TaskKind.NUMERIC_MATH) for i in (1, 2)]
        with ChatCompletionsMock([good], fail_first=1, fault="bad_json") as mock:
            report = run_benchmark(
                Method.COT, tasks, make_backend(mock), params=BaselineParams(steps=1)
            )
            assert len(mock.requests) == 2
        assert "bad JSON" in report.records[0].error
        assert not report.records[0].correct
        assert report.records[1].correct and report.records[1].error is None

    @pytest.mark.parametrize(
        "fault, cause", [("reset", "Connection reset"), ("slow", "Read timed out")]
    )
    def test_transport_fault_ends_only_its_task(self, fault, cause):
        good = completion_payload([("The answer is 4", -0.05)])
        with ChatCompletionsMock([good], fail_first=2, fault=fault) as mock:
            backend = make_backend(mock, timeout=0.2, max_attempts=2)
            with pytest.raises(TransportError, match=f"after 2 attempts: .*{cause}"):
                backend.generate_step(step_request())

        tasks = [TaskInstance(f"t{i}", f"q{i}", "4", TaskKind.NUMERIC_MATH) for i in (1, 2)]
        with ChatCompletionsMock([good], fail_first=2, fault=fault) as mock:
            backend = make_backend(mock, timeout=0.2, max_attempts=2)
            report = run_benchmark(
                Method.COT, tasks, backend, params=BaselineParams(steps=1)
            )
            assert len(mock.requests) == 3
        assert "unreachable after 2 attempts" in report.records[0].error
        assert cause in report.records[0].error
        assert not report.records[0].correct
        assert report.records[1].correct and report.records[1].error is None


class TestEnvironment:
    """Proxies, CA bundle and netrc are read once, when the backend is built."""

    @pytest.fixture(autouse=True)
    def clean_environment(self, monkeypatch, tmp_path):
        for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy",
                     "REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)
        monkeypatch.setenv("NETRC", str(tmp_path / "absent"))

    def test_http_proxy_and_no_proxy(self, monkeypatch):
        payload = completion_payload(THREE_TOKENS)
        with ChatCompletionsMock([payload]) as target, ChatCompletionsMock(
            [payload]
        ) as proxy:
            monkeypatch.setenv("HTTP_PROXY", proxy.endpoint.removesuffix("/v1"))
            make_backend(target).generate_step(step_request())
            monkeypatch.setenv("NO_PROXY", "127.0.0.1")
            make_backend(target).generate_step(step_request())
        # A proxy receives the absolute URL; the bypassed call goes direct.
        assert proxy.paths == [target.endpoint + "/chat/completions"]
        assert target.paths == ["/v1/chat/completions"]

    @pytest.mark.parametrize("variable", ["REQUESTS_CA_BUNDLE", "CURL_CA_BUNDLE"])
    def test_ca_bundle_reaches_verify(self, variable, monkeypatch, tmp_path):
        bundle = tmp_path / "ca.pem"
        bundle.write_text("")
        monkeypatch.setenv(variable, str(bundle))
        verified = []

        class Recording(requests.adapters.HTTPAdapter):
            def send(self, request, **kwargs):
                verified.append(kwargs["verify"])
                return super().send(request, **kwargs)

        session = requests.Session()
        session.mount("http://", Recording())
        with ChatCompletionsMock([completion_payload(THREE_TOKENS)]) as mock:
            backend = make_backend(mock, session=session)
            backend.generate_step(step_request())
        assert verified == [str(bundle)]
        assert session.trust_env is False

    def test_environment_read_once(self, monkeypatch):
        with ChatCompletionsMock([completion_payload(THREE_TOKENS)]) as mock:
            backend = make_backend(mock)
            reads = []
            monkeypatch.setattr(
                urllib.request, "getproxies_environment", lambda: reads.append(1) or {}
            )
            # A proxy set after construction is not seen: nothing listens there.
            monkeypatch.setenv("HTTP_PROXY", "http://127.0.0.1:9")
            for _ in range(3):
                backend.generate_step(step_request())
            assert len(mock.requests) == 3
        assert reads == []

    def test_api_key_beats_netrc(self, monkeypatch, tmp_path):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine 127.0.0.1 login user password secret\n")
        monkeypatch.setenv("NETRC", str(netrc))
        with ChatCompletionsMock([completion_payload(THREE_TOKENS)]) as mock:
            make_backend(mock, api_key="sk-test").generate_step(step_request())
            make_backend(mock).generate_step(step_request())
        assert [h["Authorization"] for h in mock.headers] == [
            "Bearer sk-test",
            "Basic dXNlcjpzZWNyZXQ=",
        ]

    def test_backends_sharing_a_session_keep_their_own_settings(
        self, monkeypatch, tmp_path
    ):
        netrc = tmp_path / "netrc"
        netrc.write_text("machine localhost login user password secret\n")
        monkeypatch.setenv("NETRC", str(netrc))
        payload = completion_payload(THREE_TOKENS)
        session = requests.Session()
        with ChatCompletionsMock([payload]) as target, ChatCompletionsMock(
            [payload]
        ) as proxy:
            monkeypatch.setenv("HTTP_PROXY", proxy.endpoint.removesuffix("/v1"))
            monkeypatch.setenv("NO_PROXY", "127.0.0.1")
            other_host = target.endpoint.replace("127.0.0.1", "localhost")
            proxied = OpenAIChatBackend(other_host, "test-model", session=session)
            direct = make_backend(target, api_key="sk-test", session=session)
            proxied.generate_step(step_request())
            direct.generate_step(step_request())
        # The first backend's proxy and netrc credentials stay with it.
        assert proxy.paths == [other_host + "/chat/completions"]
        assert proxy.headers[0]["Authorization"] == "Basic dXNlcjpzZWNyZXQ="
        assert target.paths == ["/v1/chat/completions"]
        assert target.headers[0]["Authorization"] == "Bearer sk-test"

    def test_non_finite_body_never_sent(self):
        with ChatCompletionsMock([completion_payload(THREE_TOKENS)]) as mock:
            with pytest.raises(ValueError):
                make_backend(mock)._post({"temperature": math.nan})
        assert mock.requests == []


class TestSharedPrefix:
    """Expand siblings share their whole prompt, so a prefix-caching server
    can reuse it only if both render to the same bytes."""

    def test_sibling_renders_byte_identical(self):
        requests = []
        synthetic = SyntheticBackend(synthetic_schedule(EXPAND_SCHEDULE))

        class Recording:
            def generate_step(self, request):
                requests.append(request)
                return synthetic.generate_step(request)

        config = RunConfig(
            policy=PolicyConfig(epsilon=0.0, stop_k=1), max_steps=3,
            elicit_final_answer=False,
        )
        result = run_task("add 2 and 2", config, Recording())
        assert [e.executed for e in result.trace][-2:] == [ExecutedBehavior.EXPAND] * 2
        chain, sibling = [r for r in requests if len(r.prior_steps) == 2]
        assert chain == sibling

        http = OpenAIChatBackend(endpoint="http://127.0.0.1:9/v1", model="m")
        assert json.dumps(http._payload(chain)) == json.dumps(http._payload(sibling))

    def test_threads_render_byte_identical(self):
        http = OpenAIChatBackend(endpoint="http://127.0.0.1:9/v1", model="m")
        request = step_request(prior_steps=("first thought", "second thought"))
        expected = json.dumps(http._payload(request))
        base.load_template.cache_clear()
        barrier = threading.Barrier(4, timeout=10)
        rendered = []

        def render():
            barrier.wait()
            rendered.append(json.dumps(http._payload(request)))

        threads = [threading.Thread(target=render) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert rendered == [expected] * 4


class TestConstruction:
    def test_url_normalization(self):
        assert (
            OpenAIChatBackend._completions_url("http://h/v1")
            == "http://h/v1/chat/completions"
        )
        assert (
            OpenAIChatBackend._completions_url("http://h/v1/chat/completions")
            == "http://h/v1/chat/completions"
        )

    def test_missing_endpoint_rejected(self):
        with pytest.raises(ConfigurationError):
            OpenAIChatBackend(endpoint="", model="m")

    def test_max_in_flight_declared(self):
        assert OpenAIChatBackend(endpoint="http://h/v1", model="m").max_in_flight == 4
        backend = OpenAIChatBackend(endpoint="http://h/v1", model="m", max_in_flight=2)
        assert backend.max_in_flight == 2
        with pytest.raises(AttributeError):
            backend.max_in_flight = 8
        with pytest.raises(ConfigurationError, match="max_in_flight"):
            OpenAIChatBackend(endpoint="http://h/v1", model="m", max_in_flight=0)

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("ENTRODUCTION_ENDPOINT", raising=False)
        monkeypatch.delenv("OPENAI_BASE_URL", raising=False)
        with pytest.raises(ConfigurationError, match="no endpoint"):
            OpenAIChatBackend.from_env(model="m")
        monkeypatch.setenv("ENTRODUCTION_ENDPOINT", "http://127.0.0.1:1/v1")
        monkeypatch.setenv("ENTRODUCTION_API_KEY", "k")
        backend = OpenAIChatBackend.from_env(model="m")
        assert backend._url == "http://127.0.0.1:1/v1/chat/completions"
        assert backend._headers["Authorization"] == "Bearer k"

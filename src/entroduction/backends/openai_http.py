"""HTTP backend for OpenAI-compatible chat-completions endpoints.

Sends one chat-completions request per reasoning step, asking for the
sampled tokens' log-probabilities and no alternatives, and parses them into
token records. Network failures, 429 (rate limited) and 5xx responses are
retried: after a numeric ``Retry-After`` header, capped at
``MAX_RETRY_AFTER_S``, or else after an exponential backoff with full jitter.
A 401, 403 or 404 (wrong key or URL), or a response without logprob
content, is a configuration error, which ends the whole command because
every call would fail alike; any other 4xx (a prompt past the context
window, say) is a backend error of its one call and is not retried.
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
from urllib.parse import urlsplit, urlunsplit

import requests

from ..metrics import TokenRecord
from .base import (
    ConfigurationError,
    BackendError,
    GenerationRequest,
    StepGeneration,
    TransportError,
    json_logprob,
    render_step_prompt,
)

__all__ = ["OpenAIChatBackend"]

STOP_SEQUENCES = ("\n",)  # a step is one line
DEFAULT_TIMEOUT = 30.0
DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_MAX_IN_FLIGHT = 4
MAX_RETRY_AFTER_S = 30.0


def _retry_after(response: requests.Response) -> float | None:
    """The wait a numeric ``Retry-After`` header asks for, capped at
    ``MAX_RETRY_AFTER_S``; None when absent, negative or not a number (an
    HTTP date is not parsed)."""
    try:
        seconds = float(response.headers.get("Retry-After", ""))
    except ValueError:
        return None
    if math.isnan(seconds) or seconds < 0:
        return None
    return min(seconds, MAX_RETRY_AFTER_S)


class OpenAIChatBackend:
    """Chat-completions client that returns token-level logprob evidence.

    ``endpoint`` is the API base (".../v1") or a full chat-completions URL;
    one that is not an http(s) URL with a host is a ``ConfigurationError``.
    Both it and ``api_key`` are used as given; the backend reads neither
    from the environment (the CLI resolves both). In-flight requests are
    bounded by a semaphore of ``max_in_flight``, so many chains and tasks
    can share one backend safely; the engine sends up to that many
    independent calls at once.

    The environment is read once, when the backend is built: proxies (after
    ``NO_PROXY``), ``REQUESTS_CA_BUNDLE``/``CURL_CA_BUNDLE`` and netrc for
    this endpoint are kept on the backend and passed with each call. The
    backend takes over the session it is given and turns its ``trust_env``
    off, so a second backend built on the same session reads no environment
    and sends none of the first one's settings. An API key wins over netrc;
    netrc credentials apply only when no key is given.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        api_key: str | None = None,
        timeout: float = DEFAULT_TIMEOUT,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        retry_backoff: float = 0.5,
        session: requests.Session | None = None,
    ):
        try:
            parts = urlsplit(endpoint)
            parts.port  # a port that is not a number in range raises ValueError
        except ValueError as exc:
            raise ConfigurationError(f"bad endpoint {endpoint!r}: {exc}") from exc
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ConfigurationError(f"endpoint must be an http(s) URL with a host, got {endpoint!r}")
        if not model:
            raise ConfigurationError("model is required")
        if max_in_flight < 1:
            raise ConfigurationError("max_in_flight must be >= 1")
        if max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if not (math.isfinite(timeout) and timeout > 0):
            raise ConfigurationError(f"timeout must be finite and > 0, got {timeout}")
        if not (math.isfinite(retry_backoff) and retry_backoff >= 0):
            raise ConfigurationError(f"retry_backoff must be finite and >= 0, got {retry_backoff}")
        self._url = self._completions_url(endpoint)
        self._model = model
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        self._timeout = timeout
        self._max_attempts = max_attempts
        self._retry_backoff = retry_backoff
        self._jitter = random.Random()
        self._session = session or requests.Session()
        # Per-call proxies, verify and auth for this URL, read once here.
        self._proxies, self._verify, self._auth = {}, None, None
        if self._session.trust_env:
            settings = self._session.merge_environment_settings(
                self._url, {}, None, None, None
            )
            self._proxies, self._verify = settings["proxies"], settings["verify"]
            if not api_key and not self._session.auth:
                self._auth = requests.utils.get_netrc_auth(self._url)
            self._session.trust_env = False
        self._max_in_flight = max_in_flight
        self._in_flight = threading.BoundedSemaphore(max_in_flight)

    @property
    def max_in_flight(self) -> int:
        """How many requests this backend sends at once."""
        return self._max_in_flight

    @staticmethod
    def _completions_url(endpoint: str) -> str:
        """``endpoint`` with its path ending in ``/chat/completions``, its query kept."""
        parts = urlsplit(endpoint)
        path = parts.path.rstrip("/")
        if not path.endswith("/chat/completions"):
            path += "/chat/completions"
        return urlunsplit(parts._replace(path=path))

    def _payload(self, request: GenerationRequest) -> dict:
        return {
            "model": self._model,
            "messages": [
                {"role": "system", "content": request.system_prompt},
                {
                    "role": "user",
                    "content": render_step_prompt(request.task, request.prior_steps),
                },
            ],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
            "logprobs": True,
            "stop": list(STOP_SEQUENCES),
        }

    def _post(self, payload: dict) -> dict:
        body = json.dumps(payload, allow_nan=False).encode()
        last_error: Exception | None = None
        for attempt in range(1, self._max_attempts + 1):
            wait = None
            try:
                with self._in_flight:
                    response = self._session.post(
                        self._url,
                        data=body,
                        headers=self._headers,
                        timeout=self._timeout,
                        proxies=self._proxies,
                        verify=self._verify,
                        auth=self._auth,
                    )
            except requests.RequestException as exc:
                last_error = exc
            else:
                status = response.status_code
                if status < 400:
                    try:
                        return response.json()
                    except ValueError as exc:
                        raise BackendError(f"bad JSON from endpoint: {exc}") from exc
                if status < 500 and status != 429:
                    error = ConfigurationError if status in (401, 403, 404) else BackendError
                    raise error(f"endpoint rejected request ({status}): {response.text[:500]}")
                last_error = TransportError(f"HTTP {status}: {response.text[:200]}")
                wait = _retry_after(response)
            if attempt < self._max_attempts:
                if wait is None:
                    ceiling = self._retry_backoff * 2 ** (attempt - 1)
                    wait = self._jitter.uniform(0.0, ceiling)
                time.sleep(wait)
        raise TransportError(
            f"endpoint unreachable after {self._max_attempts} attempts: {last_error}"
        )

    @staticmethod
    def _parse_tokens(content: list) -> tuple[TokenRecord, ...]:
        """Token records from a logprobs payload's ``token`` and ``logprob``
        fields, each logprob read by ``json_logprob``; any ``top_logprobs``
        alternatives are ignored. A text that is not a string, or a logprob
        that is missing, not a number, non-finite, float-overflowing or
        positive beyond rounding, is a BackendError."""
        try:
            return tuple(
                TokenRecord(item["token"], json_logprob(item["logprob"])) for item in content
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise BackendError(f"malformed logprob entry: {exc!r}") from exc

    def generate_step(self, request: GenerationRequest) -> StepGeneration:
        data = self._post(self._payload(request))
        choices = data.get("choices") if isinstance(data, dict) else None
        if not (isinstance(choices, list) and choices and isinstance(choices[0], dict)):
            raise BackendError(f"malformed completion response: {str(data)[:200]}")
        choice = choices[0]

        logprobs = choice.get("logprobs")
        if logprobs is not None and not isinstance(logprobs, dict):
            raise BackendError(f"malformed logprobs: {str(logprobs)[:200]}")
        if not logprobs or not logprobs.get("content"):
            raise ConfigurationError("logprobs unavailable")
        tokens = self._parse_tokens(logprobs["content"])

        # The token texts are authoritative: stop-sequence trimming can make
        # message.content disagree with the logprob stream.
        text = "".join(t.text for t in tokens)
        return StepGeneration(text=text, tokens=tokens)

"""Deterministic chat-completions mock with a per-request delay.

Each response is a pure function of the request's messages and of how many
times the same messages were seen before (the occurrence number), so the
output does not depend on the order in which distinct requests arrive, and
the two identical sibling requests of an expand still get distinct steps.

The simulated model answers "What is A + B?" tasks. A step carries 16 to 32
tokens with top-5 alternatives. From the third step on, the request's hash
decides whether the step states "The answer is N."; a conclusion request
always does. N is right with probability ``P_CORRECT``.

Run as a script it serves on 127.0.0.1 with a ``DELAY_S`` delay per request
and prints ``PORT <n>`` once ready:

    python3 benchmarks/mock_server.py

It stops on SIGTERM or when its standard input closes. Every response is
written with a single ``write`` on a keep-alive connection: a status line and
headers sent apart from the body meet Nagle's algorithm and delayed ACKs and
cost about 40 ms per call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import random
import re
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

TASK_RE = re.compile(r"What is (\d+) \+ (\d+)\?")
STEP_LINE_RE = re.compile(r"^\d+\. ", re.MULTILINE)
STEPS_HEADER = "Steps so far:"
CONCLUSION_CUE = "State the final answer now"

DELAY_S = 0.010
P_CORRECT = 0.8
P_ANSWER_FROM_STEP_3 = 0.3
WORDS = (
    " first", " add", " the", " tens", " then", " units", " carry", " one",
    " so", " we", " check", " each", " digit", " and", " keep", " going",
    " next", " sum", " part", " left", " right", " now", " note", " that",
)


def request_key(messages: list) -> str:
    """Canonical form of a request's messages, independent of JSON layout."""
    return json.dumps(messages, sort_keys=True, separators=(",", ":"))


def prior_step_count(user_content: str) -> int:
    """Steps listed in the last "Steps so far:" section of the prompt."""
    section = user_content.rsplit(STEPS_HEADER, 1)[-1]
    return len(STEP_LINE_RE.findall(section))


def _token(text: str, logprob: float, rng: random.Random) -> dict:
    """One logprob entry with five alternatives whose mass stays below 1."""
    rest = 1.0 - math.exp(logprob)
    weights = sorted((rng.random() for _ in range(4)), reverse=True)
    scale = rest * rng.uniform(0.5, 0.95) / sum(weights)
    top = [(text, logprob)] + [
        (f"{text}~{i}", math.log(w * scale)) for i, w in enumerate(weights)
    ]
    top.sort(key=lambda pair: pair[1], reverse=True)
    return {
        "token": text,
        "logprob": logprob,
        "top_logprobs": [{"token": t, "logprob": lp} for t, lp in top],
    }


def completion(messages: list, occurrence: int) -> dict:
    """The chat completion the simulated model returns for this request."""
    digest = hashlib.sha256(f"{request_key(messages)}#{occurrence}".encode()).digest()
    rng = random.Random(int.from_bytes(digest[:8], "big"))
    user = messages[-1]["content"]
    match = TASK_RE.search(user)
    gold = int(match.group(1)) + int(match.group(2)) if match else 0
    concluding = CONCLUSION_CUE in user
    answers = concluding or (
        prior_step_count(user) >= 2 and rng.random() < P_ANSWER_FROM_STEP_3
    )

    n_tokens = rng.randint(16, 32)
    texts = [rng.choice(WORDS) for _ in range(n_tokens)]
    if answers:
        value = gold if rng.random() < P_CORRECT else gold + rng.choice((-2, -1, 1, 3))
        texts[-4:] = [" The", " answer", " is", f" {value}."]
    else:
        texts[-1] = "."
    # A per-step spread makes step entropy and its variance move between steps.
    spread = rng.uniform(0.2, 3.0)
    entries = [
        _token(text, -min(20.0, max(1e-3, rng.expovariate(1.0 / spread))), rng)
        for text in texts
    ]
    return {
        "id": digest.hex()[:16],
        "object": "chat.completion",
        "choices": [
            {
                "index": 0,
                "message": {"role": "assistant", "content": "".join(texts)},
                "logprobs": {"content": entries},
                "finish_reason": "stop",
            }
        ],
    }


class MockModel:
    """Occurrence counting around ``completion``; safe to share across threads."""

    def __init__(self) -> None:
        self._seen: Counter[str] = Counter()
        self._lock = threading.Lock()
        self.requests = 0

    def reset(self) -> None:
        with self._lock:
            self._seen.clear()
            self.requests = 0

    def respond(self, messages: list) -> dict:
        key = request_key(messages)
        with self._lock:
            occurrence = self._seen[key]
            self._seen[key] += 1
            self.requests += 1
        return completion(messages, occurrence)


def _http_response(status: str, payload: dict) -> bytes:
    """Status line, headers and body as one buffer, sent with one write."""
    body = json.dumps(payload).encode()
    head = (
        f"HTTP/1.1 {status}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "\r\n"
    ).encode()
    return head + body


def make_server(delay_s: float = DELAY_S, port: int = 0) -> ThreadingHTTPServer:
    model = MockModel()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def _reply(self, status: str, payload: dict) -> None:
            self.wfile.write(_http_response(status, payload))

        def do_GET(self):  # noqa: N802
            if self.path == "/stats":
                self._reply("200 OK", {"requests": model.requests})
            else:
                self._reply("404 Not Found", {"error": self.path})

        def do_POST(self):  # noqa: N802
            started = time.perf_counter()
            body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
            if self.path == "/reset":
                model.reset()
                self._reply("200 OK", {"requests": 0})
                return
            if not self.path.endswith("/chat/completions"):
                self._reply("404 Not Found", {"error": self.path})
                return
            response = _http_response("200 OK", model.respond(json.loads(body)["messages"]))
            # The delay absorbs the mock's own work, so its service time does
            # not follow the machine's CPU speed.
            remaining = delay_s - (time.perf_counter() - started)
            if remaining > 0:
                time.sleep(remaining)
            self.wfile.write(response)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", port), Handler)
    server.daemon_threads = True
    return server


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args(argv)
    server = make_server(port=args.port)

    def stop_when_parent_goes() -> None:
        sys.stdin.read()
        server.shutdown()

    threading.Thread(target=stop_when_parent_goes, daemon=True).start()
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())

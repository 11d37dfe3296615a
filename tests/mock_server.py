"""Local chat-completions mock for HTTP backend tests. No network egress:
binds 127.0.0.1 on an ephemeral port."""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


def completion_payload(tokens, finish_reason="stop", content=None):
    """An OpenAI-style chat completion carrying logprob content.

    ``tokens`` is a list of (text, logprob) or (text, logprob, top) tuples,
    where ``top`` is a list of (token, logprob) alternatives.
    """
    entries = []
    for token in tokens:
        text, logprob = token[0], token[1]
        top = token[2] if len(token) > 2 else None
        entry = {"token": text, "logprob": logprob}
        if top is not None:
            entry["top_logprobs"] = [
                {"token": t, "logprob": lp} for t, lp in top
            ]
        entries.append(entry)
    joined = "".join(t[0] for t in tokens)
    return {
        "id": "mock",
        "object": "chat.completion",
        "choices": [
            {
                "index": 0,
                "message": {"role": "assistant", "content": content or joined},
                "logprobs": {"content": entries},
                "finish_reason": finish_reason,
            }
        ],
    }


class ChatCompletionsMock:
    """Replays canned responses in FIFO order and records request bodies.

    A response is a JSON payload (sent with status 200), a ``(status,
    payload)`` pair or a ``(status, payload, headers)`` triple.
    ``fail_first`` makes the first N requests return HTTP 500 (each failure
    consumes no canned response). When the queue empties, the last response
    is repeated.
    """

    def __init__(self, responses, fail_first: int = 0):
        self.responses = list(responses)
        self.requests: list[dict] = []
        self.fail_first = fail_first
        self._lock = threading.Lock()
        self._served = 0
        self._failures_sent = 0

        mock = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                with mock._lock:
                    mock.requests.append(body)
                    if mock._failures_sent < mock.fail_first:
                        mock._failures_sent += 1
                        self.send_response(500)
                        self.end_headers()
                        self.wfile.write(b"injected failure")
                        return
                    index = min(mock._served, len(mock.responses) - 1)
                    payload = mock.responses[index]
                    mock._served += 1
                status, headers = 200, {}
                if isinstance(payload, tuple):
                    status, payload, *rest = payload
                    headers = rest[0] if rest else {}
                data = json.dumps(payload).encode()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                for name, value in headers.items():
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):  # silence test output
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=lambda: self._server.serve_forever(poll_interval=0.02), daemon=True
        )

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1"

    def __enter__(self) -> "ChatCompletionsMock":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._server.shutdown()
        self._server.server_close()

"""Local chat-completions mock for HTTP backend tests. No network egress:
binds 127.0.0.1 on an ephemeral port."""

from __future__ import annotations

import json
import socket
import struct
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

# How long a "slow" fault holds a request: well past a test's short timeout.
SLOW_FAULT_S = 2.0


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
    """Replays canned responses in FIFO order and records each request's
    body, path and headers.

    A response is a JSON payload (sent with status 200), a ``(status,
    payload)`` pair or a ``(status, payload, headers)`` triple.
    ``fail_first`` makes the first N requests fail (each failure consumes no
    canned response) with the ``fault`` named: ``"status"`` answers HTTP 500,
    ``"reset"`` sends the headers and part of the body and then resets the
    connection, and ``"slow"`` holds the request for ``SLOW_FAULT_S``, past a
    short client timeout, and closes it unanswered. When the queue
    empties, the last response is repeated.
    """

    def __init__(self, responses, fail_first: int = 0, fault: str = "status"):
        if fault not in ("status", "reset", "slow"):
            raise ValueError(f"unknown fault {fault!r}")
        self.responses = list(responses)
        self.requests: list[dict] = []
        self.paths: list[str] = []
        self.headers: list = []
        self.fail_first = fail_first
        self.fault = fault
        self._lock = threading.Lock()
        self._closing = threading.Event()
        self._served = 0
        self._failures_sent = 0

        mock = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):  # noqa: N802
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length) or b"{}")
                with mock._lock:
                    mock.requests.append(body)
                    mock.paths.append(self.path)
                    mock.headers.append(self.headers)
                    failing = mock._failures_sent < mock.fail_first
                    if failing:
                        mock._failures_sent += 1
                    else:
                        index = min(mock._served, len(mock.responses) - 1)
                        payload = mock.responses[index]
                        mock._served += 1
                if failing:
                    self.fail()
                    return
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

            def fail(self):
                if mock.fault == "slow":
                    mock._closing.wait(SLOW_FAULT_S)
                elif mock.fault == "reset":
                    self.send_response(200)
                    self.send_header("Content-Length", "1024")
                    self.end_headers()
                    self.wfile.write(b'{"choices": [')
                    # Linger 0: closing sends RST instead of FIN.
                    self.connection.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
                    )
                    self.connection.close()
                else:
                    self.send_response(500)
                    self.end_headers()
                    self.wfile.write(b"injected failure")

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
        self._closing.set()
        self._server.shutdown()
        self._server.server_close()

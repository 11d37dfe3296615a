import json
import random
import threading

import requests

from mock_server import MockModel, completion, make_server, prior_step_count


def _messages(task: str, steps: int) -> list:
    prior = "\n".join(f"{i + 1}. step {i}" for i in range(steps)) or "(none yet)"
    return [
        {"role": "system", "content": "sys"},
        {"role": "user", "content": f"Task: {task}\n\nSteps so far:\n{prior}\n\nNext."},
    ]


REQUESTS = [_messages(f"What is {a} + 7?", s) for a in range(10, 16) for s in range(4)]
# Identical sibling requests, as an expand sends them.
REQUESTS += [REQUESTS[3], REQUESTS[3], REQUESTS[9]]


def _served(order: list[int]) -> dict:
    model = MockModel()
    out = {}
    for index in order:
        out.setdefault(json.dumps(REQUESTS[index]), []).append(model.respond(REQUESTS[index]))
    return out


def test_responses_do_not_depend_on_request_order():
    order = list(range(len(REQUESTS)))
    shuffled = order[:]
    random.Random(7).shuffle(shuffled)
    assert _served(order) == _served(shuffled)


def test_repeated_request_gets_distinct_steps():
    model = MockModel()
    first, second = model.respond(REQUESTS[0]), model.respond(REQUESTS[0])
    assert first != second
    assert first == completion(REQUESTS[0], 0)
    assert second == completion(REQUESTS[0], 1)


def test_step_shape():
    for messages in REQUESTS:
        content = completion(messages, 0)["choices"][0]["logprobs"]["content"]
        assert 16 <= len(content) <= 32
        for entry in content:
            assert entry["logprob"] < 0
            top = [alt["logprob"] for alt in entry["top_logprobs"]]
            assert len(top) == 5 and top == sorted(top, reverse=True)


def test_answer_marker_depth_and_conclusion():
    early = [m for m in REQUESTS if prior_step_count(m[-1]["content"]) < 2]
    for messages in early:
        assert "answer is" not in completion(messages, 0)["choices"][0]["message"]["content"]
    concluding = _messages("What is 20 + 22?", 3)
    concluding[-1]["content"] += " State the final answer now."
    text = completion(concluding, 0)["choices"][0]["message"]["content"]
    assert "The answer is" in text


def test_http_server_matches_pure_function_in_shuffled_order():
    server = make_server(0.0)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01})
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
        order = list(range(len(REQUESTS)))
        random.Random(3).shuffle(order)
        seen: dict[str, int] = {}
        with requests.Session() as session:
            for index in order:
                messages = REQUESTS[index]
                key = json.dumps(messages)
                response = session.post(url, json={"model": "m", "messages": messages}, timeout=10)
                assert response.headers["Content-Length"] == str(len(response.content))
                assert response.json() == completion(messages, seen.get(key, 0))
                seen[key] = seen.get(key, 0) + 1
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()

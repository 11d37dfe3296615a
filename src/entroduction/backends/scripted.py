"""Fixture-playback backend: replays recorded steps, byte for byte.

Fixtures are JSONL, one step per line:

    {"text": "...", "tokens": [{"text": "...", "logprob": -0.3}, ...]}

Texts must be strings; logprobs are read by ``json_logprob``, so one of
rounding size above 0 reads as 0. A step's ``finish_reason`` and a token's
``top`` key, which older versions wrote, may carry any value: both are
ignored and neither is written. Playback is strictly in file order and
mutation-free, so two runs over the same fixture are identical.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Iterable, Sequence

from ..inputs import parse_json, read_lines
from ..metrics import TokenRecord
from .base import (
    BackendError, ConfigurationError, GenerationRequest, StepGeneration, json_logprob,
)

__all__ = ["ScriptedBackend", "load_fixture", "dump_fixture"]


def _token_from_json(obj: dict) -> TokenRecord:
    if not isinstance(obj, dict):
        raise TypeError(f"token entry must be an object, got {obj!r}")
    return TokenRecord(text=obj["text"], chosen_logprob=json_logprob(obj["logprob"]))


def step_from_json(obj: dict) -> StepGeneration:
    return StepGeneration(
        text=obj["text"],
        tokens=tuple(_token_from_json(t) for t in obj["tokens"]),
    )


def step_to_json(step: StepGeneration) -> dict:
    return {
        "text": step.text,
        "tokens": [{"text": t.text, "logprob": t.chosen_logprob} for t in step.tokens],
    }


def load_fixture(path: str | Path) -> list[StepGeneration]:
    steps = []
    for line_number, line in read_lines(path, ConfigurationError, "fixture"):
        try:
            steps.append(step_from_json(parse_json(line)))
        except (KeyError, ValueError, TypeError, OverflowError) as exc:
            raise BackendError(f"bad fixture line {line_number}: {exc}") from exc
    return steps


def dump_fixture(steps: Iterable[StepGeneration], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for step in steps:
            handle.write(json.dumps(step_to_json(step)) + "\n")


class ScriptedBackend:
    """Replays a recorded sequence of step generations in order.

    Playback position is shared across chains and guarded by a lock, so the
    backend is safe to call concurrently, though interleaving then follows
    call order.
    """

    def __init__(self, steps: Sequence[StepGeneration]):
        self._steps = list(steps)
        self._position = 0
        self._lock = threading.Lock()

    @property
    def calls_made(self) -> int:
        return self._position

    def generate_step(self, request: GenerationRequest) -> StepGeneration:
        with self._lock:
            if self._position >= len(self._steps):
                raise BackendError(
                    f"fixture exhausted after {len(self._steps)} steps"
                )
            step = self._steps[self._position]
            self._position += 1
        return step

"""Backend abstraction: anything that can produce one reasoning step.

A backend call returns exactly one sentence-level step together with the
log-probability evidence for every token in it. Implementations: an
OpenAI-compatible HTTP client, a fixture-playback backend, and a synthetic
backend that manufactures steps realizing a requested entropy schedule.
"""

from __future__ import annotations

import enum
import functools
import math
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Protocol

from ..metrics import TokenRecord

__all__ = [
    "BackendError",
    "TransportError",
    "ConfigurationError",
    "FinishReason",
    "GenerationRequest",
    "StepGeneration",
    "Backend",
    "ANSWER_MARKER",
    "DEFAULT_SYSTEM_PROMPT",
    "detect_answer_marker",
    "load_template",
    "render_step_prompt",
    "render_conclusion_prompt",
]


class BackendError(Exception):
    """Base class for backend failures."""


class TransportError(BackendError):
    """Network-level failure that survived the retry budget."""


class ConfigurationError(Exception):
    """A setup problem (bad setting, wrong endpoint or key, no logprob
    support): it ends the whole run or command, not one task."""


class FinishReason(enum.Enum):
    """Labels a caller may pass as ``StepGeneration.finish_reason``; nothing reads them."""

    STOP_SEQUENCE = "stop_sequence"
    ANSWER_MARKER = "answer_marker"


ANSWER_MARKER = "the answer is"  # the sentence both prompt templates ask for
DEFAULT_SYSTEM_PROMPT = (
    "You are a careful reasoner. Work on the task one short step at a time."
)


@dataclass(frozen=True)
class GenerationRequest:
    """Inputs for one step generation."""

    system_prompt: str
    task: str
    prior_steps: tuple[str, ...] = ()
    temperature: float = 0.7
    max_tokens: int = 128

    def __post_init__(self) -> None:
        object.__setattr__(self, "prior_steps", tuple(self.prior_steps))
        if not 0.0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if self.max_tokens < 1:
            raise ValueError("max_tokens must be >= 1")


@dataclass(frozen=True)
class StepGeneration:
    """One generated step: its text and token evidence. ``finish_reason`` is
    accepted and ignored: no backend sets it and it is not compared."""

    text: str
    tokens: tuple[TokenRecord, ...]
    finish_reason: object = field(default=None, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not isinstance(self.text, str):
            raise TypeError(f"step text must be a string, got {self.text!r}")
        if self.text and not self.tokens:
            raise ValueError("non-empty text requires tokens")
        if self.tokens:
            joined = "".join(t.text for t in self.tokens)
            if joined != self.text:
                raise ValueError("token texts must concatenate to the step text")


class Backend(Protocol):
    """Anything with ``generate_step``.

    A backend may also declare ``max_in_flight``, the number of calls it
    takes at once; the engine then sends up to that many independent calls
    concurrently, from worker threads, so ``generate_step`` must be
    thread-safe. A backend without the attribute is called one request at a
    time, in order, on the caller's thread.
    """

    def generate_step(self, request: GenerationRequest) -> StepGeneration:
        """Produce the next reasoning step for the request's chain context."""
        ...


LOGPROB_ROUNDING = 1e-6  # a few float32 ulps of log 1: a positive logprob this small is rounding


def json_logprob(value: object) -> float:
    """A logprob read from JSON, a finite number and not a boolean, as a float;
    a positive value up to ``LOGPROB_ROUNDING`` reads as 0.0, a larger one fails."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"logprob must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"non-finite logprob {value}")
    if value > LOGPROB_ROUNDING:
        raise ValueError(f"logprob must be <= 0, got {value}")
    return min(float(value), 0.0)


# The greedy prefix makes a match end after the marker's last occurrence.
_MARKER_PATTERN = re.compile(".*" + re.escape(ANSWER_MARKER), re.IGNORECASE | re.DOTALL)


def detect_answer_marker(text: str) -> str | None:
    """Trailing answer span after the last occurrence of ``ANSWER_MARKER``, if any.

    Matching is case-insensitive; the remainder is stripped of surrounding
    whitespace. Returns None when the marker is absent or has no remainder.
    """
    match = _MARKER_PATTERN.match(text)
    remainder = text[match.end():].strip() if match else ""
    return remainder or None


@functools.cache
def load_template(name: str) -> str:
    """A prompt template asset shipped with the package, read once."""
    return (
        resources.files("entroduction.templates").joinpath(name).read_text("utf-8")
    )


def _format_steps(prior_steps: tuple[str, ...]) -> str:
    if not prior_steps:
        return "(none yet)"
    return "\n".join(f"{i + 1}. {step}" for i, step in enumerate(prior_steps))


def render_step_prompt(task: str, prior_steps: tuple[str, ...]) -> str:
    """User message asking for the next single reasoning step."""
    template = load_template("step_prompt.txt")
    return template.format(task=task, prior_steps=_format_steps(prior_steps))


def render_conclusion_prompt(task: str, prior_steps: tuple[str, ...]) -> str:
    """User message asking the chain to state its final answer."""
    template = load_template("conclusion_prompt.txt")
    return template.format(task=task, prior_steps=_format_steps(prior_steps))

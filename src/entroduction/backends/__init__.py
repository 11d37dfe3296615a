"""Model backends: HTTP, fixture playback, and synthetic entropy schedules.

``OpenAIChatBackend`` is imported on first access, so ``requests`` loads
only when the HTTP backend is used.
"""

from .base import (
    ANSWER_MARKER,
    Backend,
    BackendError,
    ConfigurationError,
    DEFAULT_SYSTEM_PROMPT,
    FinishReason,
    GenerationRequest,
    StepGeneration,
    TransportError,
    detect_answer_marker,
    render_conclusion_prompt,
    render_step_prompt,
)
from .scripted import ScriptedBackend, dump_fixture, load_fixture
from .synthetic import SyntheticBackend, SyntheticStep, logits_for_normalized_entropy

__all__ = [
    "Backend",
    "BackendError",
    "ConfigurationError",
    "TransportError",
    "FinishReason",
    "GenerationRequest",
    "StepGeneration",
    "ANSWER_MARKER",
    "DEFAULT_SYSTEM_PROMPT",
    "detect_answer_marker",
    "render_step_prompt",
    "render_conclusion_prompt",
    "OpenAIChatBackend",
    "ScriptedBackend",
    "load_fixture",
    "dump_fixture",
    "SyntheticBackend",
    "SyntheticStep",
    "logits_for_normalized_entropy",
]


def __getattr__(name: str):
    if name == "OpenAIChatBackend":
        from .openai_http import OpenAIChatBackend

        return OpenAIChatBackend
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

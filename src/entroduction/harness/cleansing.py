"""Answer cleansing: raw model text to a comparable answer string.

Numeric predictions are cleansed by removing commas, extracting every number
with a regex, and keeping the first or last one. Choice predictions match an
option letter, an option's text as a substring, or normalize to yes/no for
boolean questions. An empty result means no answer was found.
"""

from __future__ import annotations

import enum
import re
from typing import Sequence

from ..backends.base import ANSWER_MARKER
from .datasets import OPTION_LABELS, TaskKind, normalize_boolean

__all__ = [
    "Position",
    "clean_answer_numeric",
    "clean_answer_choice",
    "clean_answer",
    "numeric_position_for",
]

NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")
PAREN_LETTER_RE = re.compile(r"\(([A-Za-z])\)")
# Uppercase only: a lowercase bare "a" is usually the article, not a label.
BARE_LETTER_RE = re.compile(r"\b([A-J])\b")


class Position(enum.Enum):
    FIRST = "first"
    LAST = "last"


def clean_answer_numeric(pred: str, position: Position = Position.LAST) -> str:
    """Comma removal, regex number extraction, positional selection."""
    stripped = pred.replace(",", "")
    numbers = NUMBER_RE.findall(stripped)
    if not numbers:
        return ""
    return numbers[0] if position is Position.FIRST else numbers[-1]


def numeric_position_for(pred: str) -> Position:
    """Select FIRST when the prediction opens with an answer statement,
    LAST otherwise (the final computation of a reasoning chain comes last)."""
    if pred.strip().lower().startswith(ANSWER_MARKER):
        return Position.FIRST
    return Position.LAST


def _is_boolean_options(options: Sequence[str]) -> bool:
    lowered = {o.strip().lower() for o in options}
    return bool(lowered) and lowered <= {"yes", "no", "true", "false"}


def clean_answer_choice(pred: str, options: Sequence[str]) -> str:
    """Match a prediction against labeled options.

    Tries, in order: a parenthesized letter, a bare letter in the label
    range, then option-text substring containment (longest options first).
    Yes/no option sets normalize to "yes"/"no" instead of a letter.
    """
    if not options:
        raise ValueError("options must be non-empty")
    if len(options) > len(OPTION_LABELS):
        raise ValueError(f"at most {len(OPTION_LABELS)} options can be labeled")
    if _is_boolean_options(options):
        return normalize_boolean(pred)

    labels = OPTION_LABELS[: len(options)]
    for regex in (PAREN_LETTER_RE, BARE_LETTER_RE):
        hits = [m.group(1).upper() for m in regex.finditer(pred)]
        hits = [h for h in hits if h in labels]
        if hits:
            return hits[-1]
    lowered = pred.lower()
    by_length = sorted(enumerate(options), key=lambda pair: len(pair[1]), reverse=True)
    for index, option in by_length:
        if option and option.lower() in lowered:
            return labels[index]
    return ""


def clean_answer(pred: str, task_kind: TaskKind, options: Sequence[str] = ()) -> str:
    """Dispatch cleansing by task kind; a number's position is picked by ``numeric_position_for``."""
    if task_kind is TaskKind.NUMERIC_MATH:
        return clean_answer_numeric(pred, numeric_position_for(pred))
    if task_kind is TaskKind.BOOLEAN:
        return normalize_boolean(pred)
    return clean_answer_choice(pred, options)

"""Answer cleansing: raw model text to a comparable answer string.

The one reader of answers, for predictions and dataset golds alike. A numeric
answer loses its commas and keeps the last number found by a regex, rewritten
from its own digits (never rounded): no leading zeros, no trailing fraction
zeros or bare point, no sign on zero, and "0" before a leading point. A choice
answer becomes an option letter: a parenthesized letter, a bare letter in the
label range, or the option whose text it contains. A boolean answer becomes
"yes" or "no" from its first yes, no, true or false word. An empty result
means no answer was found.
"""

from __future__ import annotations

import enum
import re
from typing import Sequence

__all__ = [
    "TaskKind",
    "Position",
    "clean_answer_numeric",
    "clean_answer_choice",
    "clean_answer",
]

# A point that follows a digit is not a leading point: "3.5.1" reads as 3.5 and 1.
NUMBER_RE = re.compile(r"-?(?:\d+(?:\.\d+)?|(?<!\d)\.\d+)")
PAREN_LETTER_RE = re.compile(r"\(([A-Za-z])\)")
# Uppercase only: a lowercase bare "a" is usually the article, not a label.
BARE_LETTER_RE = re.compile(r"\b([A-J])\b")
YES_NO_RE = re.compile(r"\b(yes|no|true|false)\b", re.IGNORECASE)
# One label per option of a choice task, so a choice task has at most ten.
OPTION_LABELS = "ABCDEFGHIJ"


class TaskKind(enum.Enum):
    NUMERIC_MATH = "numeric"
    MULTIPLE_CHOICE = "choice"
    BOOLEAN = "boolean"


class Position(enum.Enum):
    FIRST = "first"
    LAST = "last"


def clean_answer_numeric(pred: str, position: Position = Position.LAST) -> str:
    """Comma removal, regex number extraction, positional selection, canonical form."""
    numbers = NUMBER_RE.findall(pred.replace(",", ""))
    if not numbers:
        return ""
    number = numbers[0] if position is Position.FIRST else numbers[-1]
    whole, _, fraction = number.lstrip("-").partition(".")
    digits = (whole.lstrip("0") or "0") + ("." + fraction.rstrip("0")).rstrip(".")
    return digits if digits == "0" or not number.startswith("-") else "-" + digits


def normalize_boolean(text: str) -> str:
    """The first yes, no, true or false word in ``text``, in any case, as
    "yes" or "no"; "" when there is none."""
    match = YES_NO_RE.search(text)
    if not match:
        return ""
    return "yes" if match.group(1).lower() in ("yes", "true") else "no"


def clean_answer_choice(pred: str, options: Sequence[str]) -> str:
    """Match a prediction against labeled options.

    Tries, in order: a parenthesized letter, a bare letter in the label
    range, then option-text substring containment (longest options first).
    """
    if not options:
        raise ValueError("options must be non-empty")
    if len(options) > len(OPTION_LABELS):
        raise ValueError(f"at most {len(OPTION_LABELS)} options can be labeled")

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
    """Dispatch cleansing by task kind; a numeric answer keeps its last number."""
    if task_kind is TaskKind.NUMERIC_MATH:
        return clean_answer_numeric(pred)
    if task_kind is TaskKind.BOOLEAN:
        return normalize_boolean(pred)
    return clean_answer_choice(pred, options)

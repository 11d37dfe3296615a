"""Benchmark dataset ingestion.

Datasets are JSONL with fields ``id``, ``question``, and ``answer``; choice
tasks add an ``options`` list of 1 to 10 strings. Grade-school math files that
embed the gold answer after a ``####`` marker are unwrapped on load.
"""

from __future__ import annotations

import enum
import logging
import re
from dataclasses import dataclass
from pathlib import Path

from ..inputs import parse_json, read_lines

__all__ = ["TaskKind", "TaskInstance", "DatasetError", "load_dataset", "extract_gold_answer"]

logger = logging.getLogger(__name__)

GOLD_MARKER_RE = re.compile(r"####\s*(.+)")
YES_NO_RE = re.compile(r"\b(yes|no|true|false)\b", re.IGNORECASE)
# One label per option of a choice task, so a choice task has at most ten.
OPTION_LABELS = "ABCDEFGHIJ"


class TaskKind(enum.Enum):
    NUMERIC_MATH = "numeric"
    MULTIPLE_CHOICE = "choice"
    BOOLEAN = "boolean"


class DatasetError(Exception):
    """Unreadable dataset file or no usable rows."""


@dataclass(frozen=True)
class TaskInstance:
    id: str
    question: str
    gold_answer: str
    task_kind: TaskKind
    options: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "options", tuple(self.options))
        if not self.gold_answer:
            raise ValueError("gold_answer must be non-empty")
        if not self.question.strip():
            raise ValueError("question must be non-empty")
        if self.task_kind is TaskKind.MULTIPLE_CHOICE and not (
            1 <= len(self.options) <= len(OPTION_LABELS)
        ):
            raise ValueError(f"a choice task needs 1 to {len(OPTION_LABELS)} options")


def extract_gold_answer(answer: str) -> str:
    """Unwrap a '#### <answer>' gold marker if present; strip commas from it."""
    match = GOLD_MARKER_RE.search(answer)
    if match:
        return match.group(1).strip().replace(",", "")
    return answer.strip()


def normalize_boolean(text: str) -> str:
    """The first yes, no, true or false word in ``text``, in any case, as
    "yes" or "no"; "" when there is none."""
    match = YES_NO_RE.search(text)
    if not match:
        return ""
    return "yes" if match.group(1).lower() in ("yes", "true") else "no"


def _gold(answer, task_kind: TaskKind) -> str:
    """The JSON value ``answer``, unwrapped and read as a prediction of
    ``task_kind`` is, so the two compare as strings: a boolean gold as yes or
    no, a numeric one without commas (an integral JSON number as an integer,
    a JSON boolean rejected). A choice gold is only unwrapped."""
    if task_kind is TaskKind.BOOLEAN:
        if not (gold := normalize_boolean(extract_gold_answer(str(answer)))):
            raise ValueError(f"boolean answer names neither yes nor no: {answer!r}")
        return gold
    if task_kind is TaskKind.MULTIPLE_CHOICE:
        return extract_gold_answer(str(answer))
    if isinstance(answer, bool):
        raise ValueError("numeric answer must not be a JSON boolean")
    if isinstance(answer, float) and answer.is_integer():
        answer = int(answer)
    return extract_gold_answer(str(answer)).replace(",", "")


def _parse_row(obj: dict, task_kind: TaskKind) -> TaskInstance:
    missing = [
        key for key in ("id", "question", "answer") if key not in obj or obj[key] is None
    ]
    if missing:
        raise ValueError(f"missing or null fields: {', '.join(missing)}")
    if not isinstance(obj["question"], str):
        raise ValueError("question must be a string")
    options = [] if obj.get("options") is None else obj["options"]
    if not isinstance(options, list) or not all(isinstance(o, str) for o in options):
        raise ValueError("options must be a list of strings")
    return TaskInstance(
        id=str(obj["id"]),
        question=str(obj["question"]),
        gold_answer=_gold(obj["answer"], task_kind),
        task_kind=task_kind,
        options=tuple(options),
    )


def load_dataset(
    path: str | Path, task_kind: TaskKind, strict: bool = False
) -> list[TaskInstance]:
    """Load a JSONL dataset; malformed lines are skipped with a warning, or
    rejected outright in strict mode. Zero valid rows is always an error."""
    tasks: list[TaskInstance] = []
    for line_number, line in read_lines(path, DatasetError, "dataset"):
        try:
            tasks.append(_parse_row(parse_json(line), task_kind))
        except (ValueError, TypeError, KeyError) as exc:
            message = f"{path}:{line_number}: skipping malformed row: {exc}"
            if strict:
                raise DatasetError(message) from exc
            logger.warning(message)
    if not tasks:
        raise DatasetError(f"no valid rows in {path}")
    return tasks

"""Benchmark dataset ingestion.

Datasets are JSONL with fields ``id``, ``question``, and ``answer``; choice
tasks add an ``options`` list of 1 to 10 strings. Grade-school math files that
embed the gold answer after a ``####`` marker are unwrapped on load, and every
gold is then read by ``clean_answer``, the reader of predictions.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, replace
from pathlib import Path

from ..inputs import parse_json, read_lines
from .cleansing import NUMBER_RE, OPTION_LABELS, TaskKind, clean_answer

__all__ = ["TaskKind", "TaskInstance", "DatasetError", "load_dataset", "extract_gold_answer"]

logger = logging.getLogger(__name__)

GOLD_MARKER_RE = re.compile(r"####\s*(.+)")


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
    answer = obj["answer"]
    if isinstance(answer, (list, dict)):
        raise ValueError(f"answer must be a string or a number, got {answer!r}")
    if isinstance(answer, float) and answer.is_integer():
        answer = int(answer)
    task = TaskInstance(
        id=str(obj["id"]),
        question=str(obj["question"]),
        gold_answer=extract_gold_answer(str(answer)),
        task_kind=task_kind,
        options=tuple(options),
    )
    # The row's shape, its options included, is checked before its gold is read.
    gold = clean_answer(task.gold_answer, task_kind, task.options)
    numbers = NUMBER_RE.findall(task.gold_answer.replace(",", ""))
    if not gold or task_kind is TaskKind.NUMERIC_MATH and len(numbers) != 1:
        raise ValueError(f"{task_kind.value} gold reads as no single answer: {obj['answer']!r}")
    return replace(task, gold_answer=gold)


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

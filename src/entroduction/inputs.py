"""Input files: the one reader for datasets, fixtures, traces and config files.

Every input is UTF-8 text, optionally opening with a byte-order mark, whose
lines end at ``\\n``, ``\\r\\n`` or ``\\r``. A JSONL line is standard JSON:
``NaN``, ``Infinity`` and ``-Infinity`` are rejected.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO

__all__ = ["read_lines", "parse_json"]


def read_lines(
    source: str | Path | IO[str], error: type[Exception], kind: str
) -> list[tuple[int, str]]:
    """The non-blank lines of ``source``, a path or an open text file, each
    stripped and paired with its line number from 1. A file that cannot be
    read or decoded raises ``error``, naming the file's ``kind``."""
    try:
        if isinstance(source, (str, Path)):
            with open(source, encoding="utf-8-sig") as handle:
                lines = handle.readlines()
        else:
            lines = source.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {kind} {source}: {exc}") from exc
    return [(number, text) for number, line in enumerate(lines, start=1) if (text := line.strip())]


def _reject_constant(name: str) -> None:
    raise ValueError(f"{name} is not standard JSON")


# Built once: json.loads with a keyword builds a decoder on every call.
parse_json = json.JSONDecoder(parse_constant=_reject_constant).decode

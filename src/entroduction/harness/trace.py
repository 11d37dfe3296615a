"""Trace persistence: JSONL event streams and per-chain CSV summaries.

One JSON line per generated step, carrying the full metric bundle and the
decision around it. Floats are serialized at full double precision, so a
round-trip recovers the exact values.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path
from typing import IO, Iterable

from ..engine import RunResult, TraceEvent
from ..inputs import parse_json, read_lines
from .datasets import DatasetError

__all__ = [
    "trace_event_to_dict",
    "export_trace",
    "read_trace",
    "export_chain_summary",
    "summarize_trace",
]


def trace_event_to_dict(event: TraceEvent, task_id: str = "") -> dict:
    return {
        "task_id": task_id,
        "j": event.step_index,
        "chain_id": event.chain_id,
        "node_id": event.node_id,
        "n_tokens": event.metrics.n,
        "entropy": event.metrics.entropy_bits,
        "norm_entropy": event.metrics.normalized_entropy,
        "var_entropy": event.metrics.variance_entropy,
        "norm_var_entropy": event.metrics.normalized_variance_entropy,
        "dH": None if event.state is None else event.state.delta_entropy,
        "dVar": None if event.state is None else event.state.delta_variance,
        "best_action": None if event.best_action is None else event.best_action.value,
        "sampled_action": (
            None if event.sampled_action is None else event.sampled_action.value
        ),
        "executed": event.executed,
        "stop_pending_remaining": event.stop_pending_remaining,
        "finalize_reason": event.finalize_reason,
    }


def export_trace(result: RunResult, sink: IO[str], task_id: str = "") -> None:
    """Write one JSONL line per trace event to the open text file ``sink``."""
    for event in result.trace:
        sink.write(json.dumps(trace_event_to_dict(event, task_id)) + "\n")


# The fields summarize_trace reads from every row, with the type each must have.
SUMMARY_FIELDS = {"chain_id": int, "executed": str, "entropy": (int, float), "j": int}


def read_trace(source: str | Path | IO[str]) -> list[dict]:
    """The rows of a JSONL trace. A file that cannot be read or decoded, or a
    line that is not a JSON object holding every ``SUMMARY_FIELDS`` key with
    a value of its type, raises ``DatasetError``."""
    rows = []
    for line_number, line in read_lines(source, DatasetError, "trace"):
        try:
            row = parse_json(line)
            if not isinstance(row, dict):
                raise ValueError(f"expected a JSON object, got {type(row).__name__}")
            if missing := [key for key in SUMMARY_FIELDS if key not in row]:
                raise ValueError(f"missing fields {', '.join(missing)}")
            if wrong := [key for key, kind in SUMMARY_FIELDS.items()
                         if isinstance(row[key], bool) or not isinstance(row[key], kind)]:
                raise ValueError(f"fields of the wrong type: {', '.join(wrong)}")
        except ValueError as exc:
            raise DatasetError(f"bad trace line {line_number}: {exc}") from exc
        rows.append(row)
    return rows


def export_chain_summary(result: RunResult, sink: IO[str]) -> None:
    """Write a per-chain CSV to the open text file ``sink``: length, why the chain
    ended (its last event's ``finalize_reason``, else ``aborted`` if the run
    failed, else ``budget``), lineage, answer, confidence."""
    writer = csv.writer(sink, lineterminator="\n")  # line ends like every other output
    writer.writerow(
        ["chain_id", "length", "status", "parent_chain", "shared_prefix",
         "final_answer", "mean_norm_entropy"]
    )
    ended = {event.chain_id: event.finalize_reason for event in result.trace}
    unended = "aborted" if result.aborted else "budget"
    for chain in result.structure.chains:
        parent_chain, shared = ("", "") if chain.parent is None else chain.parent
        writer.writerow(
            [
                chain.id,
                len(chain.nodes),
                ended.get(chain.id) or unended,
                parent_chain,
                shared,
                chain.final_answer or "",
                f"{chain.mean_normalized_entropy():.12g}",
            ]
        )


def summarize_trace(rows: Iterable[dict]) -> dict:
    """Aggregate view of an exported trace (for CLI inspection)."""
    rows = list(rows)
    chains = sorted({row["chain_id"] for row in rows})
    executed_counts: dict[str, int] = {}
    for row in rows:
        executed_counts[row["executed"]] = executed_counts.get(row["executed"], 0) + 1
    entropies = [row["entropy"] for row in rows]
    return {
        "events": len(rows),
        "chains": len(chains),
        "max_step": max((row["j"] for row in rows), default=0),
        "executed_counts": dict(sorted(executed_counts.items())),
        "mean_entropy": (sum(entropies) / len(entropies)) if entropies else 0.0,
    }


def format_summary(summary: dict) -> str:
    buffer = io.StringIO()
    for key, value in summary.items():
        buffer.write(f"{key}: {value}\n")
    return buffer.getvalue()

"""Evaluation harness: datasets, cleansing, baselines, benchmarks, traces."""

from .baselines import (
    BaselineMethod,
    BaselineOutcome,
    BaselineParams,
    Method,
    baseline_step_count,
    commonsense_params,
    math_params,
    run_chain_baseline,
    run_tree_baseline,
)
from .benchmark import BenchmarkReport, TaskRecord, run_benchmark
from .cleansing import (
    Position,
    TaskKind,
    clean_answer,
    clean_answer_choice,
    clean_answer_numeric,
)
from .datasets import DatasetError, TaskInstance, extract_gold_answer, load_dataset
from .trace import (
    export_chain_summary,
    export_trace,
    format_summary,
    read_trace,
    summarize_trace,
    trace_event_to_dict,
)

__all__ = [
    "BaselineMethod",
    "BaselineOutcome",
    "BaselineParams",
    "baseline_step_count",
    "math_params",
    "commonsense_params",
    "run_chain_baseline",
    "run_tree_baseline",
    "BenchmarkReport",
    "Method",
    "TaskRecord",
    "run_benchmark",
    "Position",
    "clean_answer",
    "clean_answer_choice",
    "clean_answer_numeric",
    "DatasetError",
    "TaskInstance",
    "TaskKind",
    "extract_gold_answer",
    "load_dataset",
    "export_chain_summary",
    "export_trace",
    "format_summary",
    "read_trace",
    "summarize_trace",
    "trace_event_to_dict",
]

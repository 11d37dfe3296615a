"""Spans around the calls into each layer, recorded from outside the program.

``Tracer.installed()`` replaces module and class attributes with timing
wrappers for the duration of a run and restores the originals afterwards.
Spans live in memory: name, task, parent span, start and end, plus thread
CPU time for backend calls and an optional attribute (token count, solver
key). Each thread keeps its own stack of open spans. A span opened on a
thread with no open span (an engine worker) takes as parent the innermost
span open on the client thread, the one that runs the tasks.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

import requests

from entroduction import engine
from entroduction.backends import synthetic
from entroduction.harness import benchmark
from entroduction.structure import Chain, ReasoningStructure

TASK = "bench.task"
RUN_BENCHMARK = "harness.benchmark.run"
VOTE = "harness.benchmark.vote"
BASELINE = "harness.baselines.run_tree_baseline"
EXPORT = "harness.trace.export_trace"
RUN_TASK = "engine.run_task"
HTTP_STEP = "backends.openai_http.generate_step"
POST = "backends.openai_http.post"
SYNTHETIC_STEP = "backends.synthetic.generate_step"
SOLVE = "backends.synthetic.solve"
METRICS = "metrics.compute_step_metrics"
DECIDE = "policy.decide"
DEEPEN = "structure.deepen"
EXPAND = "structure.expand"

# Layer of each span name, for self-time accounting.
LAYERS = {
    TASK: "bench",
    RUN_BENCHMARK: "harness.benchmark",
    VOTE: "harness.benchmark",
    BASELINE: "harness.baselines",
    EXPORT: "harness.trace",
    RUN_TASK: "engine",
    HTTP_STEP: "backends.openai_http",
    POST: "backends.openai_http",
    SYNTHETIC_STEP: "backends.synthetic",
    SOLVE: "backends.synthetic",
    METRICS: "metrics",
    DECIDE: "policy",
    DEEPEN: "structure",
    EXPAND: "structure",
}


def _records_len(records, *args, **kwargs):
    return len(records)


def _solve_key(target, n_tokens, *args, **kwargs):
    return (target, n_tokens)


# (owner, attribute, span name, attribute extractor) for every patched call.
PATCHES = (
    (benchmark, "run_task", RUN_TASK, None),
    (benchmark, "run_tree_baseline", BASELINE, None),
    (benchmark, "clean_answer", VOTE, None),
    (benchmark, "majority_vote", VOTE, None),
    (engine, "compute_step_metrics", METRICS, _records_len),
    (engine, "decide", DECIDE, None),
    (synthetic, "logits_for_normalized_entropy", SOLVE, _solve_key),
    (Chain, "deepen", DEEPEN, None),
    (ReasoningStructure, "expand", EXPAND, None),
)


@dataclass
class Span:
    name: str
    task: int
    parent: int  # index into Tracer.spans, -1 for a root span
    start: float = 0.0
    end: float = 0.0
    # CPU seconds of the span's own thread, recorded for backend calls only.
    # A call runs on one thread, so this stays right when calls overlap.
    cpu: float = 0.0
    info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.task = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._client: list[int] = []

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str, info: object = None) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._client[-1] if self._client else -1
        span = Span(name, self.task, parent, info=info)
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def task_span(self, task: int) -> Iterator[Span]:
        """The root span of one task, opened on the client thread."""
        self.task = task
        self._client = self._stack()
        span = self._open(TASK)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn: Callable, info: Callable | None = None,
             cpu: bool = False) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name, info(*args, **kwargs) if info else None)
            cpu_start = time.thread_time() if cpu else 0.0
            try:
                return fn(*args, **kwargs)
            finally:
                if cpu:
                    span.cpu = time.thread_time() - cpu_start
                self._close(span)

        traced.__wrapped__ = fn
        return traced

    def backend(self, inner, name: str):
        """A backend whose ``generate_step`` calls are spans of ``name``."""
        return _TracedBackend(self.wrap(name, inner.generate_step, cpu=True))

    def session(self) -> requests.Session:
        """A ``requests.Session`` that records every ``post`` as a span."""
        session = requests.Session()
        session.post = self.wrap(POST, session.post)
        return session

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in PATCHES]
        try:
            for (owner, attr, name, info), (_, _, fn) in zip(PATCHES, originals):
                setattr(owner, attr, self.wrap(name, fn, info))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)


class _TracedBackend:
    def __init__(self, generate_step: Callable) -> None:
        self.generate_step = generate_step


def patches_restored() -> bool:
    """True when no patched attribute still holds a tracing wrapper."""
    return not any(
        hasattr(vars(owner)[attr], "__wrapped__") for owner, attr, _, _ in PATCHES
    )


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children that overlap (calls on worker threads) cover their union once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    own = [span.duration for span in spans]
    for parent, intervals in children.items():
        covered, reach = 0.0, -float("inf")
        for start, end in sorted(intervals):
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        own[parent] -= covered
    return own

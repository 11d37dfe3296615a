"""CPU speed of the moment, from a fixed loop that does not touch the program.

The shared machines this benchmark runs on change CPU speed by up to 2x over
tens of seconds, as neighbours come and go. A run samples the loop every
``INTERVAL_S`` and scales each task's on-CPU time by the loop's slowdown
against ``REFERENCE_S``, so timings read as if the CPU ran at the reference
speed. Time spent waiting (the mock's delay) is not scaled. The loop mixes
small NumPy reductions with dict and float work, like the program's own
steps, but calls none of its code, so a faster program stays faster.

Set-up (process start and imports) has its own reference: a fresh
interpreter importing the program's dependencies, none of its own code.
Each set-up is scaled by that reference timed just before and after it.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# Median duration of one loop on the shared 2-vCPU Intel Xeon machine the
# bounds were set on.
REFERENCE_S = 2.3e-3
INTERVAL_S = 0.25
WINDOW = 5
IMPORT_REFERENCE = "import numpy, requests"
# Median duration of IMPORT_REFERENCE on the same machine.
IMPORT_REFERENCE_S = 0.335


def loop() -> float:
    total = 0.0
    for i in range(200):
        weights = np.arange(1.0, 33.0) * (i + 1)
        p = weights / weights.sum()
        total += float(-(p * np.log2(p)).sum())
        squares = {j: j * j for j in range(20)}
        total += sum(squares.values()) * 1e-9
    return total


class Calibrator:
    """Rolling median of recent loop durations, sampled between tasks."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._next = 0.0
        for _ in range(WINDOW):
            self.sample()
        self.spent = 0.0

    def sample(self) -> None:
        started = time.perf_counter()
        loop()
        ended = time.perf_counter()
        self.samples.append(ended - started)
        self.spent += ended - started
        self._next = ended + INTERVAL_S

    def slowdown(self) -> float:
        """Current loop duration over the reference; sampled when due."""
        if time.perf_counter() >= self._next:
            self.sample()
        return statistics.median(self.samples[-WINDOW:]) / REFERENCE_S


def import_reference_slowdown() -> float:
    """Duration of a fresh interpreter running ``IMPORT_REFERENCE`` over
    ``IMPORT_REFERENCE_S``."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_REFERENCE], check=True)
    return (time.perf_counter() - started) / IMPORT_REFERENCE_S

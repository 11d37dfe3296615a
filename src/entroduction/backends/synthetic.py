"""Synthetic backend: manufactures steps with controlled entropy.

Each schedule entry either gives explicit per-token log-probability values or
a target normalized step entropy that is realized by solving a one-hot logit
family with bisection. The entry used for a call is chosen by how many prior
steps the request carries, so two chains at the same depth see the same
schedule entry and every formula and control path becomes reproducible
without a model. A backend builds each index's step once and returns that
same frozen step for every later call at the index.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from typing import Sequence

from ..metrics import TokenRecord, _entropy_terms
from .base import GenerationRequest, StepGeneration

__all__ = ["SyntheticStep", "SyntheticBackend", "logits_for_normalized_entropy"]


def logits_for_normalized_entropy(target: float, n_tokens: int) -> tuple[float, ...]:
    """Logit vector of length ``n_tokens`` whose softmax entropy, divided by
    log2(n), hits ``target``.

    Uses the family [a, 0, ..., 0]: a = 0 is uniform (normalized entropy 1)
    and the entropy falls monotonically to 0 as ``a`` grows, so bisection
    converges to float precision. The solved ``a`` is memoized for each
    process, keyed by ``(target, n_tokens)``, so each distinct target is
    bisected once.
    """
    _check_target(target, n_tokens)
    if target == 1.0:
        return (0.0,) * n_tokens
    return (_solve(target, n_tokens),) + (0.0,) * (n_tokens - 1)


def _check_target(target: float, n_tokens: int) -> None:
    if n_tokens < 2:
        raise ValueError("need at least two tokens to target an entropy")
    if not 0.0 < target <= 1.0:
        raise ValueError("target normalized entropy must be in (0, 1]")


def _family_entropy(a: float, n_tokens: int) -> float:
    """Entropy of the softmax of [a, 0, ..., 0] for ``a >= 0``, from its two
    distinct entries and their multiplicities. Exactly rounded sums do not
    depend on order, so these are the bits of ``metrics._softmax_terms``."""
    rest = math.exp(-a)
    total = math.fsum([1.0] + [rest] * (n_tokens - 1))
    _, (first_term, rest_term) = _entropy_terms((1.0 / total, rest / total))
    return 0.0 - math.fsum([first_term] + [rest_term] * (n_tokens - 1))


@functools.cache
def _solve(target: float, n_tokens: int) -> float:
    """The ``a`` of [a, 0, ..., 0] that realizes ``target``, by bisection to a
    relative width of 1e-9. ``a`` stays in [0, 1e6], so the logits are finite
    and go unchecked."""
    max_entropy = math.log2(n_tokens)

    def normalized(a: float) -> float:
        return _family_entropy(a, n_tokens) / max_entropy

    lo, hi = 0.0, 1.0
    while normalized(hi) > target:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError(f"cannot realize normalized entropy {target}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if normalized(mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class SyntheticStep:
    """One schedule entry: explicit logprobs or an entropy target."""

    logprobs: tuple[float, ...] | None = None
    target_normalized_entropy: float | None = None
    n_tokens: int = 8
    text: str | None = None

    def __post_init__(self) -> None:
        if (self.logprobs is None) == (self.target_normalized_entropy is None):
            raise ValueError(
                "give exactly one of logprobs or target_normalized_entropy"
            )
        if self.logprobs is not None:
            object.__setattr__(self, "logprobs", tuple(float(v) for v in self.logprobs))
            if not self.logprobs or not all(map(math.isfinite, self.logprobs)):
                raise ValueError(f"logprobs must be non-empty and finite, got {self.logprobs}")
        else:
            _check_target(self.target_normalized_entropy, self.n_tokens)


def _chunk_text(text: str, n: int) -> list[str]:
    """Split ``text``, space-padded to ``n``, into ``n`` non-empty pieces that concatenate
    back, sizes within one, longer first; sliced at C level on every call."""
    text = text.ljust(n)
    if len(text) == n:
        return list(text)
    size, extra = divmod(len(text), n)
    split = extra * (size + 1)
    return [text[i : i + size + 1] for i in range(0, split, size + 1)] + [
        text[i : i + size] for i in range(split, len(text), size)
    ]


def _logprobs(raw: Sequence[float]) -> list[float]:
    """Logits shifted to proper logprobs (<= 0); metrics are shift-invariant."""
    peak = max(raw)
    shifted = [x - peak for x in raw]
    log_total = math.log(math.fsum(map(math.exp, shifted)))
    return [x - log_total for x in shifted]


@functools.cache
def _target_logprobs(a: float, n_tokens: int) -> tuple[float, float]:
    """(first, rest) logprobs of the logits [a, 0, ..., 0], clamped to <= 0. Memoized
    for each process: one entry per solved target (``a = 0`` for target 1.0)."""
    first, rest = _logprobs([a] + [0.0] * (n_tokens - 1))[:2]
    return min(0.0, first), min(0.0, rest)


class SyntheticBackend:
    """Builds steps whose measured entropies follow a schedule.

    The schedule entry for a call is ``schedule[len(prior_steps)]``; calls
    past the end reuse the final entry, so runs of any length are served.
    Once per process, each entropy target is solved and turned into its two
    logprobs (``_target_logprobs``). Once per backend, each schedule index
    is built into one frozen ``StepGeneration``, with one ``TokenRecord`` per
    distinct (piece, logprob) pair; later calls at that index return it.
    """

    def __init__(self, schedule: Sequence[SyntheticStep]):
        if not schedule:
            raise ValueError("schedule must be non-empty")
        self._schedule = list(schedule)
        self._lock = threading.Lock()
        self._calls = 0
        self._steps: dict[int, StepGeneration] = {}

    @property
    def calls_made(self) -> int:
        return self._calls

    def generate_step(self, request: GenerationRequest) -> StepGeneration:
        with self._lock:
            self._calls += 1
        index = min(len(request.prior_steps), len(self._schedule) - 1)
        step = self._steps.get(index)
        if step is not None:
            return step
        entry = self._schedule[index]
        text = entry.text or f"synthetic step {index + 1} of the reasoning schedule."
        if entry.logprobs is not None:
            logprobs = _logprobs(entry.logprobs)
            pieces = _chunk_text(text, len(logprobs))
            # Equal (piece, logprob) pairs share one record.
            keys = list(zip(pieces, logprobs))
            shared = {key: TokenRecord(key[0], min(0.0, key[1])) for key in dict.fromkeys(keys)}
            tokens = tuple(map(shared.__getitem__, keys))
        else:
            logits = logits_for_normalized_entropy(entry.target_normalized_entropy, entry.n_tokens)
            first, rest = _target_logprobs(logits[0], len(logits))
            pieces = _chunk_text(text, len(logits))
            # Solved through the public name once per index and backend, so
            # traced runs count solver calls. Tokens after the head share one
            # record per distinct piece, at ``rest``; the head joins them only
            # when first == rest.
            shared = {piece: TokenRecord(piece, rest) for piece in dict.fromkeys(pieces[1:])}
            head = shared.get(pieces[0]) if first == rest else None
            tokens = (head or TokenRecord(pieces[0], first), *map(shared.__getitem__, pieces[1:]))
        # Racing builds of an index are equal; every caller gets the first stored.
        step = StepGeneration(text="".join(pieces), tokens=tokens)
        return self._steps.setdefault(index, step)

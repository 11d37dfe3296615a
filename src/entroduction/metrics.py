"""Entropy kernels for a single reasoning step.

A reasoning step is a sentence made of sampled tokens. Each token carries the
log-probability the model assigned to it at its position. Treating those
log-probabilities as the step's logit vector, a softmax turns them into a
distribution p over the step's positions, from which we compute:

* step entropy (bits): Shannon entropy of p,
* normalized entropy: step entropy divided by its maximum log2(n),
* the per-token series: each position's contribution -p*log2(p), so the
  series sums to the step entropy and its mean is entropy/n,
* variance entropy: the population variance of that series,
* normalized variance entropy: variance entropy divided by log2(n).

``compute_step_metrics`` derives all of them from one softmax and one pass
over the -p*log2(p) terms. All logarithms are base 2. All functions here are
pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "TokenRecord",
    "StepMetrics",
    "step_softmax",
    "step_entropy",
    "normalized_step_entropy",
    "token_entropies",
    "variance_entropy",
    "normalized_variance_entropy",
    "compute_step_metrics",
]


@dataclass(frozen=True)
class TokenRecord:
    """One generated token with its log-probability evidence.

    ``chosen_logprob`` is the natural-log probability of the sampled token.
    ``top_alternatives`` optionally holds the top-K per-position alternatives
    as (token, logprob) pairs, sorted by descending logprob.
    """

    text: str
    chosen_logprob: float
    top_alternatives: tuple[tuple[str, float], ...] | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.chosen_logprob):
            raise ValueError("non-finite logit")
        if self.chosen_logprob > 0.0:
            raise ValueError(f"chosen_logprob must be <= 0, got {self.chosen_logprob}")
        if self.top_alternatives is None:
            return
        alts = tuple((str(t), float(lp)) for t, lp in self.top_alternatives)
        object.__setattr__(self, "top_alternatives", alts)
        # One pass: a positive logprob raises at once, disorder after the scan.
        unsorted, previous = False, math.inf
        for _, lp in alts:
            if lp > 0.0:
                raise ValueError(f"alternative logprob must be <= 0, got {lp}")
            unsorted = unsorted or lp > previous
            previous = lp
        if unsorted:
            raise ValueError("alternatives must be sorted by descending logprob")


@dataclass(frozen=True)
class StepMetrics:
    """Entropy bundle for one reasoning step of ``n`` tokens."""

    n: int
    entropy_bits: float
    normalized_entropy: float
    mean_token_entropy: float
    variance_entropy: float
    normalized_variance_entropy: float


def _entropy_and_contributions(p: np.ndarray) -> tuple[float, np.ndarray]:
    """Entropy of ``p`` and its per-token terms -p*log2(p), 0 where p = 0.

    The entropy sums the positive entries' p*log2(p) alone, so numpy's
    pairwise grouping does not depend on how many probabilities underflowed
    to 0, and subtracts the total from 0, so a zero entropy is +0.0 where a
    negation would give -0.0. With every entry positive, the usual case, the
    same terms come from ``p`` unmasked; a zero, negative or NaN entry masks.
    """
    if p.size and p.min() > 0.0:
        plogp = p * np.log2(p)
        return float(0.0 - plogp.sum()), -plogp
    positive = p > 0.0
    q = p[positive]
    plogp = q * np.log2(q)
    series = np.zeros_like(p)
    series[positive] = -plogp
    return float(0.0 - plogp.sum()), series


def _softmax_terms(logits: np.ndarray) -> tuple[float, np.ndarray]:
    """``_entropy_and_contributions`` of the softmax of finite 1-D ``logits``,
    as ``step_softmax`` computes it but without its checks."""
    weights = np.exp(logits - logits.max())
    return _entropy_and_contributions(weights / weights.sum())


def step_softmax(logits: Sequence[float] | np.ndarray) -> np.ndarray:
    """Softmax over a step's logit vector, computed with max-subtraction.

    Invariant under adding a constant to every logit; entries are positive
    and sum to 1 within 1e-12.
    """
    arr = np.asarray(logits, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("empty step")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite logit")
    shifted = arr - arr.max()
    weights = np.exp(shifted)
    return weights / weights.sum()


def _distribution(p: Sequence[float] | np.ndarray) -> np.ndarray:
    """``p`` as a non-empty 1-D float64 array of finite, non-negative entries
    summing to 1 within 1e-9; NaN fails ``>= 0`` and an infinity the sum."""
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("empty step")
    if not np.all(arr >= 0.0) or abs(float(arr.sum()) - 1.0) > 1e-9:
        raise ValueError("not a distribution")
    return arr


def step_entropy(p: Sequence[float] | np.ndarray) -> float:
    """Shannon entropy, in bits, of a probability vector.

    Uses the convention 0*log2(0) = 0. The input must sum to 1 within 1e-9.
    """
    return _entropy_and_contributions(_distribution(p))[0]


def normalized_step_entropy(entropy_bits: float, n: int) -> float:
    """Entropy divided by its maximum log2(n).

    A one-token step has no within-step dispersion, so n=1 maps to 0 rather
    than dividing by log2(1) = 0.
    """
    if n <= 0:
        raise ValueError("invalid length")
    if n == 1:
        return 0.0
    return entropy_bits / math.log2(n)


def token_entropies(p: Sequence[float] | np.ndarray) -> np.ndarray:
    """Per-token contributions -p*log2(p) of a probability vector.

    The series sums to the step entropy, tying the mean token entropy to
    entropy/n. The input is checked as ``step_entropy`` checks it.
    """
    return _entropy_and_contributions(_distribution(p))[1]


def variance_entropy(token_entropy_values: Sequence[float] | np.ndarray) -> float:
    """Population variance (divide by n) of a per-token entropy series."""
    arr = np.asarray(token_entropy_values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("empty step")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite token entropy")
    return float(np.var(arr))


def normalized_variance_entropy(var: float, n: int) -> float:
    """Variance entropy divided by log2(n); 0 for one-token steps."""
    if n <= 0:
        raise ValueError("invalid length")
    if var < 0.0:
        raise ValueError("negative variance")
    if n == 1:
        return 0.0
    return var / math.log2(n)


def compute_step_metrics(records: Iterable[TokenRecord]) -> StepMetrics:
    """All entropy quantities for one step, from its token records.

    The sampled tokens' log-probabilities serve as the step's logit vector;
    raw logits are not observable through inference APIs, and the softmax
    absorbs any per-step constant shift. ``TokenRecord`` guarantees finite
    logprobs, so nothing built here is checked again.
    """
    logits = np.array([r.chosen_logprob for r in records], dtype=np.float64)
    n = logits.size
    if n == 0:
        raise ValueError("empty step")
    entropy, series = _softmax_terms(logits)
    mean = series.sum() / n
    # The population variance, computed term for term as np.var does.
    var = float(((series - mean) ** 2).sum() / n)
    return StepMetrics(
        n=n,
        entropy_bits=entropy,
        normalized_entropy=normalized_step_entropy(entropy, n),
        mean_token_entropy=float(mean),
        variance_entropy=var,
        normalized_variance_entropy=normalized_variance_entropy(var, n),
    )

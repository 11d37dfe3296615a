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
over the -p*log2(p) terms. All logarithms are base 2. A step holds at most a
few hundred tokens, so the kernels are plain Python over lists of floats.
Every sum is exactly rounded (``math.fsum``, Shewchuk's algorithm), so a
result does not depend on the order of the tokens, and a probability whose
``exp`` underflows to 0 contributes a 0 term. All functions here are pure and
thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, fsum, isfinite, log2
from typing import Iterable

__all__ = [
    "TokenRecord",
    "StepMetrics",
    "step_softmax",
    "step_entropy",
    "normalized_step_entropy",
    "variance_entropy",
    "normalized_variance_entropy",
    "compute_step_metrics",
]


@dataclass(frozen=True)
class TokenRecord:
    """One generated token with its log-probability evidence.

    ``chosen_logprob`` is the natural-log probability of the sampled token,
    the only evidence the metrics read. ``top_alternatives`` is accepted and
    ignored: it is neither checked nor compared.
    """

    text: str
    chosen_logprob: float
    top_alternatives: object = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.text, str):
            raise TypeError(f"token text must be a string, got {self.text!r}")
        if not isfinite(self.chosen_logprob):
            raise ValueError("non-finite logit")
        if self.chosen_logprob > 0.0:
            raise ValueError(f"chosen_logprob must be <= 0, got {self.chosen_logprob}")


@dataclass(frozen=True)
class StepMetrics:
    """Entropy bundle for one reasoning step of ``n`` tokens."""

    n: int
    entropy_bits: float
    normalized_entropy: float
    mean_token_entropy: float
    variance_entropy: float
    normalized_variance_entropy: float


def _softmax(logits: list[float]) -> list[float]:
    """Softmax of finite ``logits`` with max-subtraction and an exactly rounded
    normalizer, unchecked."""
    peak = max(logits)
    weights = [exp(x - peak) for x in logits]
    total = fsum(weights)
    return [w / total for w in weights]


def _entropy_terms(p: Iterable[float]) -> tuple[float, list[float]]:
    """Entropy of ``p`` and its terms p*log2(p), 0 where p = 0 (a probability
    that underflowed). The entropy is 0 minus the exactly rounded sum of the
    terms, so it does not depend on their order and a zero entropy is +0.0."""
    terms = [x * log2(x) if x > 0.0 else 0.0 for x in p]
    return 0.0 - fsum(terms), terms


def _softmax_terms(logits: list[float]) -> tuple[float, list[float]]:
    """``_entropy_terms`` of the softmax of finite ``logits``, as
    ``step_softmax`` computes it but without its checks."""
    return _entropy_terms(_softmax(logits))


def _spread(values: Iterable[float], shift: float, n: int) -> float:
    """Exactly rounded sum of (v + shift)**2 over ``values``, divided by ``n``."""
    return fsum([(d := v + shift) * d for v in values]) / n


def step_softmax(logits: Iterable[float]) -> list[float]:
    """Softmax over a step's logit vector, computed with max-subtraction.

    Invariant under adding a constant to every logit; entries are positive
    and sum to 1 within 1e-12.
    """
    values = [float(x) for x in logits]
    if not values:
        raise ValueError("empty step")
    if not all(map(isfinite, values)):
        raise ValueError("non-finite logit")
    return _softmax(values)


def _distribution(p: Iterable[float]) -> list[float]:
    """``p`` as a non-empty list of non-negative floats summing to 1 within
    1e-9. NaN fails the range check; so does an entry above 1 + 1e-9, which
    would fail the sum anyway, and bounding it keeps ``fsum`` from overflowing."""
    values = [float(x) for x in p]
    if not values:
        raise ValueError("empty step")
    if not all(0.0 <= x <= 1.0 + 1e-9 for x in values) or abs(fsum(values) - 1.0) > 1e-9:
        raise ValueError("not a distribution")
    return values


def step_entropy(p: Iterable[float]) -> float:
    """Shannon entropy, in bits, of a probability vector.

    Uses the convention 0*log2(0) = 0. The input must sum to 1 within 1e-9.
    """
    return _entropy_terms(_distribution(p))[0]


def normalized_step_entropy(entropy_bits: float, n: int) -> float:
    """Entropy divided by its maximum log2(n).

    A one-token step has no within-step dispersion, so n=1 maps to 0 rather
    than dividing by log2(1) = 0.
    """
    if n <= 0:
        raise ValueError("invalid length")
    if n == 1:
        return 0.0
    return entropy_bits / log2(n)


def variance_entropy(token_entropy_values: Iterable[float]) -> float:
    """Population variance (divide by n) of a per-token entropy series."""
    values = [float(x) for x in token_entropy_values]
    if not values:
        raise ValueError("empty step")
    if not all(map(isfinite, values)):
        raise ValueError("non-finite token entropy")
    n = len(values)
    return _spread(values, -fsum(values) / n, n)


def normalized_variance_entropy(var: float, n: int) -> float:
    """Variance entropy divided by log2(n); 0 for one-token steps."""
    if n <= 0:
        raise ValueError("invalid length")
    if var < 0.0:
        raise ValueError("negative variance")
    if n == 1:
        return 0.0
    return var / log2(n)


def compute_step_metrics(records: Iterable[TokenRecord]) -> StepMetrics:
    """All entropy quantities for one step, from its token records.

    The sampled tokens' log-probabilities serve as the step's logit vector;
    raw logits are not observable through inference APIs, and the softmax
    absorbs any per-step constant shift. ``TokenRecord`` guarantees finite
    logprobs, so nothing built here is checked again.
    """
    logits = [r.chosen_logprob for r in records]
    n = len(logits)
    if n == 0:
        raise ValueError("empty step")
    entropy, terms = _softmax_terms(logits)
    # The series -p*log2(p) sums to the entropy, so its mean is entropy/n and
    # each deviation from the mean is -(term + mean).
    mean = entropy / n
    var = _spread(terms, mean, n)
    return StepMetrics(
        n=n,
        entropy_bits=entropy,
        normalized_entropy=normalized_step_entropy(entropy, n),
        mean_token_entropy=mean,
        variance_entropy=var,
        normalized_variance_entropy=normalized_variance_entropy(var, n),
    )

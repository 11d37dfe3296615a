"""Shared test construction helpers."""

from __future__ import annotations

import math

from entroduction.backends import FinishReason, StepGeneration, SyntheticStep
from entroduction.metrics import TokenRecord

# Logit palette (n=4) with known entropy/variance ordering, used to steer the
# controller into specific delta quadrants. Values verified against the
# mpmath oracle:
#   UNIFORM4: H=2.000000  V=0.000000
#   A15:      H=1.607057  V=0.000563
#   A30:      H=0.763273  V=0.000086
#   A60:      H=0.074583  V=0.000022
#   P11:      H=1.839942  V=0.005004
#   P22:      H=1.527065  V=0.019398
#   P33:      H=1.275360  V=0.036417
UNIFORM4 = (0.0, 0.0, 0.0, 0.0)
A15 = (1.5, 0.0, 0.0, 0.0)
A30 = (3.0, 0.0, 0.0, 0.0)
A60 = (6.0, 0.0, 0.0, 0.0)
P11 = (1.0, 1.0, 0.0, 0.0)
P22 = (2.0, 2.0, 0.0, 0.0)
P33 = (3.0, 3.0, 0.0, 0.0)

# Schedules indexed by prior-step count; classification starts at step 3.
STOP_SCHEDULE = (UNIFORM4, A30, P11)          # step 3 delta: (+H, +V) -> stop
EXPAND_SCHEDULE = (A30, UNIFORM4, P22)        # step 3 delta: (-H, +V) -> expand
DEEPEN_SCHEDULE = (UNIFORM4, P11, A30, P11)   # step 3: (-H, -V) deepen, step 4: (+H, +V) stop
DEEPEN_UP_SCHEDULE = (UNIFORM4, P33, A15)     # step 3 delta: (+H, -V) -> deepen

# Bytes that start like UTF-16 text and do not decode as UTF-8.
NOT_UTF8 = b"\xff\xfe{\x00}\x00\n\x00"


def shifted_logprobs(logits) -> list[float]:
    """Turn an arbitrary logit vector into valid logprobs (<= 0 each)."""
    peak = max(logits)
    total = math.log(sum(math.exp(x - peak) for x in logits))
    return [x - peak - total for x in logits]


def chunk_text(text: str, n: int) -> list[str]:
    if len(text) < n:
        text = text + " " * (n - len(text))
    base, extra = divmod(len(text), n)
    pieces, offset = [], 0
    for i in range(n):
        size = base + (1 if i < extra else 0)
        pieces.append(text[offset : offset + size])
        offset += size
    return pieces


def make_records(logits, alternatives=None) -> tuple[TokenRecord, ...]:
    """Token records whose chosen logprobs realize ``logits`` after a shift."""
    logprobs = shifted_logprobs(logits)
    alts = alternatives or [None] * len(logprobs)
    return tuple(
        TokenRecord(text=f"t{i}", chosen_logprob=lp, top_alternatives=alt)
        for i, (lp, alt) in enumerate(zip(logprobs, alts))
    )


def make_step(
    text: str, logits, finish: FinishReason = FinishReason.STOP_SEQUENCE
) -> StepGeneration:
    """A step generation whose token texts chunk ``text`` exactly."""
    logprobs = shifted_logprobs(logits)
    pieces = chunk_text(text, len(logprobs))
    tokens = tuple(
        TokenRecord(text=piece, chosen_logprob=lp)
        for piece, lp in zip(pieces, logprobs)
    )
    return StepGeneration(text="".join(pieces), tokens=tokens, finish_reason=finish)


def synthetic_schedule(logit_rows) -> list[SyntheticStep]:
    return [SyntheticStep(logprobs=tuple(row)) for row in logit_rows]

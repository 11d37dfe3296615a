"""Behavior selection from entropy deltas.

The controller observes how step entropy and variance entropy moved between
the two most recent steps of a chain and maps the sign pair to a best action:

* entropy down, variance down: the chain is settling, keep deepening;
* entropy up, variance down: broader but not dispersed, keep deepening;
* entropy down, variance up: locally divergent, expand into a second branch;
* entropy up, variance up: unstable, stop this chain.

Zero deltas count as decreases, favoring continuation. The actual action is
then drawn epsilon-greedily: the best action with probability 1 - epsilon,
each alternative with epsilon / 2. The engine carries out the sampled action,
including ``stop_k``'s hard or soft stop.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "Action",
    "MetricMode",
    "PolicyState",
    "PolicyConfig",
    "Decision",
    "classify",
    "action_distribution",
    "apply_metric_mode",
    "decide",
    "sample_action",
    "ChainRng",
    "chain_rng",
]


class Action(enum.Enum):
    DEEPEN = "deepen"
    EXPAND = "expand"
    STOP = "stop"


ACTION_ORDER: tuple[Action, ...] = (Action.DEEPEN, Action.EXPAND, Action.STOP)


class MetricMode(enum.Enum):
    """Which delta components drive classification (ablation switches)."""

    BOTH = "both"
    ENTROPY_ONLY = "entropy"
    VARIANCE_ONLY = "variance"
    NONE = "none"


@dataclass(frozen=True)
class PolicyState:
    """Deltas between consecutive steps: (entropy change, variance change)."""

    delta_entropy: float
    delta_variance: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delta_entropy) and math.isfinite(self.delta_variance)):
            raise ValueError("policy state must be finite")


@dataclass(frozen=True)
class PolicyConfig:
    epsilon: float = 0.25
    stop_k: int = 2
    metric_mode: MetricMode = MetricMode.BOTH
    expand_enabled: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if self.stop_k < 1:
            raise ValueError(f"stop_k must be >= 1, got {self.stop_k}")


@dataclass(frozen=True)
class Decision:
    """Outcome of one sampling round.

    ``sampled`` is the raw epsilon-greedy draw; ``action`` is the draw after
    the expand-disabled remap and is what the engine executes.
    """

    best: Action
    sampled: Action
    action: Action


def classify(state: PolicyState) -> Action:
    """Best action for a delta pair; zero components count as decreases."""
    if state.delta_variance <= 0.0:
        return Action.DEEPEN
    if state.delta_entropy <= 0.0:
        return Action.EXPAND
    return Action.STOP


def action_distribution(best: Action, epsilon: float) -> dict[Action, float]:
    """Epsilon-greedy probabilities: 1 - epsilon on best, epsilon/2 elsewhere."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    alternative = epsilon / (len(ACTION_ORDER) - 1)
    return {a: (1.0 - epsilon if a is best else alternative) for a in ACTION_ORDER}


def apply_metric_mode(state: PolicyState, mode: MetricMode) -> PolicyState:
    """Zero out the delta components the ablation mode ignores."""
    if mode is MetricMode.BOTH:
        return state
    if mode is MetricMode.ENTROPY_ONLY:
        return PolicyState(state.delta_entropy, 0.0)
    if mode is MetricMode.VARIANCE_ONLY:
        return PolicyState(0.0, state.delta_variance)
    return PolicyState(0.0, 0.0)


def _draw(distribution: dict[Action, float], rng: ChainRng) -> Action:
    u = rng.random()
    cumulative = 0.0
    for action in ACTION_ORDER:
        cumulative += distribution[action]
        if u < cumulative:
            return action
    return ACTION_ORDER[-1]


def decide(state: PolicyState, config: PolicyConfig, rng: ChainRng) -> Decision:
    """Classify, sample, and remap in one round.

    MetricMode.NONE bypasses sampling entirely (always deepen, no rng draw).
    With expand disabled, a sampled Expand executes as Deepen; the raw draw
    is preserved for the trace.
    """
    if config.metric_mode is MetricMode.NONE:
        return Decision(Action.DEEPEN, Action.DEEPEN, Action.DEEPEN)
    best = classify(apply_metric_mode(state, config.metric_mode))
    sampled = _draw(action_distribution(best, config.epsilon), rng)
    action = sampled
    if sampled is Action.EXPAND and not config.expand_enabled:
        action = Action.DEEPEN
    return Decision(best=best, sampled=sampled, action=action)


def sample_action(
    state: PolicyState, config: PolicyConfig, rng: ChainRng
) -> Action:
    """The action to execute for ``state`` (post ablation remaps)."""
    return decide(state, config, rng).action


M32, M64, M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The (xor, multiplier) pair of each of a SeedSequence hash's first ``count``
    uses: the running constant, then the constant after its update."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & M32)
    return list(zip(consts, consts[1:]))


def _hash(value: int, xor: int, mult: int) -> int:
    value = (value ^ xor) * mult & M32
    return value ^ value >> 16


# SeedSequence's hash constants do not depend on the data, so they are
# precomputed: four pool fills and twelve cross mixes (INIT_A, MULT_A), then
# eight output words drawn from pool word i % 4 (INIT_B, MULT_B).
_FILL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_MIX = [(s, d) for s in range(4) for d in range(4) if s != d]
_OUTPUT = [(i % 4, *c) for i, c in enumerate(_hash_constants(0x8B51F9DD, 0x58F38DED, 8))]


class ChainRng:
    """numpy's ``default_rng(SeedSequence([seed & M64, chain_id & M64]))``
    without numpy: SeedSequence's entropy pool (4 words) seeds a PCG64
    (XSL-RR, O'Neill 2014) stream, and ``random`` returns the next double in
    [0, 1) exactly as ``Generator.random()`` does, bit for bit."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int, chain_id: int):
        entropy = []
        for value in (seed & M64, chain_id & M64):
            entropy += (value & M32, value >> 32) if value >> 32 else (value,)
        pool = [_hash(v, *c) for v, c in zip(entropy + [0] * (4 - len(entropy)), _FILL)]
        for (src, dst), consts in zip(_MIX, _FILL[4:]):
            value = (0xCA01F9DD * pool[dst] - 0x4973F715 * _hash(pool[src], *consts)) & M32
            pool[dst] = value ^ value >> 16
        words = [_hash(pool[i], xor, mult) for i, xor, mult in _OUTPUT]
        # generate_state(4, uint64) is (s_hi, s_lo, i_hi, i_lo), each the
        # little-endian pair of two words; PCG64 seeds on them with one step.
        initial = words[0] << 64 | words[1] << 96 | words[2] | words[3] << 32
        self._inc = (words[4] << 65 | words[5] << 97 | words[6] << 1 | words[7] << 33 | 1) & M128
        self._state = ((self._inc + initial) * PCG64_MULTIPLIER + self._inc) & M128

    def random(self) -> float:
        """The next uniform double in [0, 1): one LCG step, XSL-RR, 53 bits."""
        state = self._state = (self._state * PCG64_MULTIPLIER + self._inc) & M128
        folded = (state >> 64 ^ state) & M64
        rot = state >> 122
        return (((folded >> rot | folded << (64 - rot)) & M64) >> 11) * 2.0**-53


def chain_rng(seed: int, chain_id: int) -> ChainRng:
    """Independent random stream for one chain of one run.

    Streams are keyed by (run seed, chain id), so per-chain draw sequences do
    not depend on scheduling order.
    """
    return ChainRng(seed, chain_id)

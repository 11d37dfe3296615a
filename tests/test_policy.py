"""Policy tests: quadrant map, epsilon-greedy law, soft stop, determinism."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroduction.policy import (
    ACTION_ORDER,
    Action,
    MetricMode,
    PolicyConfig,
    PolicyState,
    action_distribution,
    apply_metric_mode,
    chain_rng,
    classify,
    decide,
    sample_action,
)

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


QUADRANT_TABLE = [
    ((-0.1, -0.1), Action.DEEPEN),
    ((0.1, -0.1), Action.DEEPEN),
    ((-0.1, 0.1), Action.EXPAND),
    ((0.1, 0.1), Action.STOP),
    # Boundary zeros count as decreases.
    ((0.0, 0.0), Action.DEEPEN),
    ((0.0, -0.1), Action.DEEPEN),
    ((-0.1, 0.0), Action.DEEPEN),
    ((0.1, 0.0), Action.DEEPEN),
    ((0.0, 0.1), Action.EXPAND),
]


class TestClassify:
    @pytest.mark.parametrize("deltas,expected", QUADRANT_TABLE)
    def test_quadrants(self, deltas, expected):
        assert classify(PolicyState(*deltas)) is expected

    @given(finite, finite)
    @settings(max_examples=300)
    def test_total(self, d_entropy, d_variance):
        assert classify(PolicyState(d_entropy, d_variance)) in ACTION_ORDER

    def test_non_finite_state_rejected(self):
        with pytest.raises(ValueError):
            PolicyState(float("nan"), 0.0)


class TestActionDistribution:
    def test_quarter_epsilon(self):
        dist = action_distribution(Action.DEEPEN, 0.25)
        assert dist == {
            Action.DEEPEN: 0.75,
            Action.EXPAND: 0.125,
            Action.STOP: 0.125,
        }

    def test_greedy_limit(self):
        dist = action_distribution(Action.STOP, 0.0)
        assert dist[Action.STOP] == 1.0
        assert dist[Action.DEEPEN] == 0.0 and dist[Action.EXPAND] == 0.0

    def test_full_exploration(self):
        dist = action_distribution(Action.EXPAND, 1.0)
        assert dist[Action.EXPAND] == 0.0
        assert dist[Action.DEEPEN] == 0.5 and dist[Action.STOP] == 0.5

    @given(st.floats(min_value=0.0, max_value=1.0), st.sampled_from(ACTION_ORDER))
    @settings(max_examples=200)
    def test_valid_distribution(self, epsilon, best):
        dist = action_distribution(best, epsilon)
        assert abs(sum(dist.values()) - 1.0) <= 1e-12
        assert all(v >= 0.0 for v in dist.values())
        if epsilon < 2.0 / 3.0:
            assert max(dist, key=dist.get) is best

    def test_epsilon_out_of_range(self):
        with pytest.raises(ValueError):
            action_distribution(Action.DEEPEN, 1.5)


class TestSampleAction:
    def test_greedy_deterministic(self):
        config = PolicyConfig(epsilon=0.0, seed=1)
        rng = chain_rng(1, 0)
        for _ in range(20):
            assert sample_action(PolicyState(-1, -1), config, rng) is Action.DEEPEN

    def test_seeded_reproducibility(self):
        config = PolicyConfig(epsilon=0.6, seed=9)
        rng_a, rng_b = chain_rng(9, 3), chain_rng(9, 3)
        seq_a = [sample_action(PolicyState(1, 1), config, rng_a) for _ in range(200)]
        seq_b = [sample_action(PolicyState(1, 1), config, rng_b) for _ in range(200)]
        assert seq_a == seq_b

    def test_chain_streams_differ(self):
        config = PolicyConfig(epsilon=0.8, seed=4)
        rng_a, rng_b = chain_rng(4, 0), chain_rng(4, 1)
        seq_a = [sample_action(PolicyState(1, 1), config, rng_a) for _ in range(100)]
        seq_b = [sample_action(PolicyState(1, 1), config, rng_b) for _ in range(100)]
        assert seq_a != seq_b

    def test_frequency_law(self):
        config = PolicyConfig(epsilon=0.25, seed=0)
        rng = chain_rng(0, 0)
        n = 20_000
        counts = {action: 0 for action in ACTION_ORDER}
        for _ in range(n):
            counts[sample_action(PolicyState(1, 1), config, rng)] += 1
        for action, p in action_distribution(Action.STOP, 0.25).items():
            bound = 3.0 * math.sqrt(p * (1 - p) / n)
            assert abs(counts[action] / n - p) <= bound

    def test_expand_remap(self):
        config = PolicyConfig(epsilon=0.0, expand_enabled=False)
        rng = chain_rng(0, 0)
        decision = decide(PolicyState(-1, 1), config, rng)
        assert decision.best is Action.EXPAND
        assert decision.sampled is Action.EXPAND
        assert decision.action is Action.DEEPEN

    def test_metric_mode_entropy_only(self):
        # Variance delta forced to zero counts as a decrease: always deepen.
        config = PolicyConfig(epsilon=0.0, metric_mode=MetricMode.ENTROPY_ONLY)
        rng = chain_rng(0, 0)
        for state in (PolicyState(1, 1), PolicyState(-1, 1), PolicyState(1, -1)):
            assert sample_action(state, config, rng) is Action.DEEPEN

    def test_metric_mode_variance_only(self):
        config = PolicyConfig(epsilon=0.0, metric_mode=MetricMode.VARIANCE_ONLY)
        rng = chain_rng(0, 0)
        assert sample_action(PolicyState(1, 1), config, rng) is Action.EXPAND
        assert sample_action(PolicyState(1, -1), config, rng) is Action.DEEPEN

    def test_metric_mode_none_skips_rng(self):
        config = PolicyConfig(epsilon=1.0, metric_mode=MetricMode.NONE, seed=2)
        rng = chain_rng(2, 0)
        for _ in range(10):
            assert sample_action(PolicyState(1, 1), config, rng) is Action.DEEPEN
        assert rng.random() == chain_rng(2, 0).random()

    def test_apply_metric_mode(self):
        state = PolicyState(0.5, -0.5)
        assert apply_metric_mode(state, MetricMode.BOTH) == state
        assert apply_metric_mode(state, MetricMode.ENTROPY_ONLY) == PolicyState(0.5, 0.0)
        assert apply_metric_mode(state, MetricMode.VARIANCE_ONLY) == PolicyState(0.0, -0.5)


class TestPolicyConfig:
    def test_defaults(self):
        config = PolicyConfig()
        assert config.epsilon == 0.25
        assert config.stop_k == 2
        assert config.metric_mode is MetricMode.BOTH
        assert config.expand_enabled

    def test_validation(self):
        with pytest.raises(ValueError):
            PolicyConfig(epsilon=-0.1)
        with pytest.raises(ValueError):
            PolicyConfig(stop_k=0)


class TestChainRng:
    def test_reproducible(self):
        a, b = chain_rng(7, 2), chain_rng(7, 2)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_negative_seed_handled(self):
        rng = chain_rng(-5, 0)
        assert 0.0 <= float(rng.random()) < 1.0

    @pytest.mark.parametrize(
        "seed, chain_id",
        [
            (0, 0), (1, 0), (77, 250), (-5, 0), (-1, -1), (-(2**40), 3),
            (2**32 - 1, 2**32), (2**32, 7), (2**63, 2**64 - 1),
            (2**64, 0), (2**64 + 7, 2**40), (2**70 + 123, -(2**65)), (-(2**64) - 1, 2**64 + 2),
        ],
    )
    def test_equals_numpy_default_rng(self, seed, chain_id):
        # numpy's stream, which chain_rng ports, is the oracle.
        mask = 2**64 - 1
        oracle = np.random.default_rng(np.random.SeedSequence([seed & mask, chain_id & mask]))
        rng = chain_rng(seed, chain_id)
        assert [rng.random().hex() for _ in range(64)] == [
            float(oracle.random()).hex() for _ in range(64)
        ]

    def test_equals_numpy_default_rng_on_random_keys(self):
        pick = random.Random(20240018)
        mask = 2**64 - 1
        for _ in range(300):
            seed = pick.choice([pick.randrange(-(2**70), 2**70), pick.randrange(-100, 100)])
            chain_id = pick.choice([pick.randrange(0, 64), pick.randrange(-(2**66), 2**66)])
            words = [seed & mask, chain_id & mask]
            oracle = np.random.default_rng(np.random.SeedSequence(words))
            rng = chain_rng(seed, chain_id)
            for _ in range(50):
                assert rng.random() == oracle.random(), (seed, chain_id)

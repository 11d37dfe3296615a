"""Metric kernel tests against frozen oracle values and properties.

Frozen constants were computed with the mpmath reference in oracle.py at 30
significant digits; see that module for the derivations.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from helpers import make_records, shifted_logprobs
from entroduction.metrics import (
    StepMetrics,
    TokenRecord,
    compute_step_metrics,
    normalized_step_entropy,
    normalized_variance_entropy,
    step_entropy,
    step_softmax,
    token_entropies,
    variance_entropy,
)

# Oracle-computed reference values for the two-logit step [2, 0].
P_TWO = (0.8807970779778824, 0.11920292202211756)
H_TWO = 0.5270653410031616
CONTRIB_TWO = (0.16129016228541954, 0.36577517871774207)
VAR_TWO = 0.010453530486331807

finite_logits = st.lists(
    st.floats(min_value=-30.0, max_value=30.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=32,
)


class TestStepSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(step_softmax([0.0, 0.0]), [0.5, 0.5], atol=1e-15)

    def test_two_logit_values(self):
        np.testing.assert_allclose(step_softmax([2.0, 0.0]), P_TWO, rtol=1e-12)

    def test_shift_invariance_exact_case(self):
        np.testing.assert_allclose(
            step_softmax([5.0, 5.0, 5.0]), [1 / 3, 1 / 3, 1 / 3], atol=1e-15
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty step"):
            step_softmax([])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite logit"):
            step_softmax([0.0, float("nan")])
        with pytest.raises(ValueError, match="non-finite logit"):
            step_softmax([0.0, float("inf")])

    @given(finite_logits, st.floats(min_value=-50, max_value=50))
    @settings(max_examples=200)
    def test_shift_invariance(self, logits, shift):
        base = step_softmax(logits)
        shifted = step_softmax([x + shift for x in logits])
        assert np.all(np.abs(base - shifted) <= 1e-12)
        assert abs(float(base.sum()) - 1.0) <= 1e-12
        assert np.all(base > 0)


class TestStepEntropy:
    def test_uniform_over_four(self):
        assert step_entropy([0.25, 0.25, 0.25, 0.25]) == pytest.approx(2.0, abs=1e-12)

    def test_degenerate(self):
        assert step_entropy([1.0]) == 0.0

    def test_two_logit_value(self):
        assert step_entropy(P_TWO) == pytest.approx(H_TWO, rel=1e-12)

    def test_zero_probability_convention(self):
        assert step_entropy([1.0, 0.0]) == 0.0

    def test_not_a_distribution(self):
        with pytest.raises(ValueError, match="not a distribution"):
            step_entropy([0.5, 0.6])
        with pytest.raises(ValueError, match="not a distribution"):
            step_entropy([1.5, -0.5])

    @given(finite_logits)
    @settings(max_examples=300)
    def test_bounds(self, logits):
        p = step_softmax(logits)
        h = step_entropy(p)
        assert -1e-12 <= h <= math.log2(len(logits)) + 1e-9

    def test_uniform_attains_maximum(self):
        for n in (2, 3, 7, 64):
            assert step_entropy([1.0 / n] * n) == pytest.approx(math.log2(n), rel=1e-12)


class TestNormalizedEntropy:
    def test_uniform_hits_bound(self):
        assert normalized_step_entropy(2.0, 4) == 1.0

    def test_single_token_convention(self):
        assert normalized_step_entropy(0.0, 1) == 0.0

    def test_two_token_divisor(self):
        assert normalized_step_entropy(H_TWO, 2) == pytest.approx(H_TWO, rel=1e-15)

    def test_invalid_length(self):
        with pytest.raises(ValueError, match="invalid length"):
            normalized_step_entropy(1.0, 0)


class TestTokenEntropies:
    def test_contribution_symmetric(self):
        np.testing.assert_allclose(token_entropies([0.5, 0.5]), [0.5, 0.5], atol=1e-15)

    def test_contribution_two_logit(self):
        values = token_entropies(P_TWO)
        np.testing.assert_allclose(values, CONTRIB_TWO, rtol=1e-12)
        assert values.sum() == pytest.approx(H_TWO, rel=1e-12)

    def test_zero_probability_contributes_zero(self):
        np.testing.assert_array_equal(token_entropies([1.0, 0.0]), [0.0, 0.0])


class TestVarianceEntropy:
    def test_constant_sequence(self):
        assert variance_entropy([0.5, 0.5, 0.5]) == 0.0

    def test_simple_pair(self):
        assert variance_entropy([0.0, 2.0]) == pytest.approx(1.0, abs=1e-15)

    def test_two_logit_contributions(self):
        assert variance_entropy(CONTRIB_TWO) == pytest.approx(VAR_TWO, rel=1e-12)

    def test_population_not_sample(self):
        # ddof=0: mean 1, squared deviations (1, 0, 1) -> 2/3, not 1.
        assert variance_entropy([0.0, 1.0, 2.0]) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty step"):
            variance_entropy([])

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=20))
    @settings(max_examples=200)
    def test_non_negative_and_zero_iff_constant(self, values):
        var = variance_entropy(values)
        assert var >= 0.0
        if max(values) - min(values) == 0.0:
            assert var <= 1e-12
        if var <= 1e-15:
            assert max(values) - min(values) <= 1e-6


class TestNormalizedVarianceEntropy:
    def test_two_token_divisor(self):
        assert normalized_variance_entropy(1.0, 2) == 1.0

    def test_zero_variance(self):
        assert normalized_variance_entropy(0.0, 7) == 0.0

    def test_single_token_convention(self):
        assert normalized_variance_entropy(0.3, 1) == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError, match="invalid length"):
            normalized_variance_entropy(0.1, 0)
        with pytest.raises(ValueError, match="negative variance"):
            normalized_variance_entropy(-0.1, 3)


class TestComputeStepMetrics:
    def test_two_equal_logprobs(self):
        records = make_records([0.0, 0.0])
        m = compute_step_metrics(records)
        assert m.n == 2
        assert m.entropy_bits == pytest.approx(1.0, abs=1e-12)
        assert m.normalized_entropy == pytest.approx(1.0, abs=1e-12)
        assert m.variance_entropy == pytest.approx(0.0, abs=1e-15)

    def test_single_token(self):
        m = compute_step_metrics((TokenRecord("x", -0.7),))
        assert m == StepMetrics(1, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_three_token_oracle_values(self):
        records = tuple(
            TokenRecord(f"t{i}", lp) for i, lp in enumerate([-0.2, -1.6, -0.7])
        )
        m = compute_step_metrics(records)
        ref = oracle.metrics_ref([-0.2, -1.6, -0.7])
        assert m.n == ref["n"]
        assert m.entropy_bits == pytest.approx(1.394832645796777, rel=1e-12)
        assert m.normalized_entropy == pytest.approx(0.8800414174859844, rel=1e-12)
        assert m.mean_token_entropy == pytest.approx(0.4649442152655923, rel=1e-12)
        assert m.variance_entropy == pytest.approx(0.0033923240843920666, rel=1e-11)
        assert m.normalized_variance_entropy == pytest.approx(
            0.0021403181986000067, rel=1e-11
        )
        for field in ref:
            assert oracle.close(getattr(m, field), ref[field], rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty step"):
            compute_step_metrics(())

    def test_contribution_consistency_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(1, 33))
            logits = rng.uniform(-6, 0, size=n)
            records = make_records(logits)
            m = compute_step_metrics(records)
            series = token_entropies(step_softmax([r.chosen_logprob for r in records]))
            assert abs(series.sum() - m.entropy_bits) <= 1e-9
            assert m.mean_token_entropy == pytest.approx(m.entropy_bits / n, rel=1e-9)
            assert 0.0 <= m.normalized_entropy <= 1.0 + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        logits = rng.uniform(-4, 0, size=9)
        records = make_records(logits)
        base = compute_step_metrics(records)
        for _ in range(10):
            order = rng.permutation(9)
            shuffled = tuple(records[i] for i in order)
            m = compute_step_metrics(shuffled)
            assert m.entropy_bits == pytest.approx(base.entropy_bits, rel=1e-12)
            assert m.variance_entropy == pytest.approx(base.variance_entropy, rel=1e-12)

    def test_oracle_equivalence_small_batch(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(1, 65))
            logprobs = shifted_logprobs(rng.uniform(-8, 0, size=n).tolist())
            records = tuple(
                TokenRecord(f"t{i}", lp) for i, lp in enumerate(logprobs)
            )
            m = compute_step_metrics(records)
            ref = oracle.metrics_ref(logprobs)
            for field, expected in ref.items():
                assert oracle.close(getattr(m, field), expected, rel=1e-9), field


def sawtooth(n: int, step: float, span: float) -> list[float]:
    return [-((i * step) % span) for i in range(n)]


# Fixed steps and their StepMetrics, recorded as float.hex with the
# earlier kernel (separate step_entropy / token_entropies / np.var calls).
# Any rewrite of compute_step_metrics must reproduce every bit, including
# the sign of a zero entropy, which is +0.0 (that kernel gave -0.0 for n1).
PINNED_STEPS = {
    "n1": [-0.7],
    "n2": [-0.1, -2.4],
    "n8": sawtooth(8, 0.7316, 5.0),
    "n9": sawtooth(9, 1.1137, 7.5),
    "n32": sawtooth(32, 0.4219, 9.0),
    "n128": sawtooth(128, 0.2473, 12.0),
    "tied": [-2.0] * 5,
    "tied_pairs": [-0.25, -0.25, -1.5, -1.5, -4.0, -4.0],
    "underflow": [0.0, -800.0, -0.5, -800.0, -3.0],
    "underflow_n40": [
        -800.0 if i % 3 == 1 else -((i * 0.6131) % 6.0) for i in range(40)
    ],
}
PINNED_METRICS = {
    "n1": (
        1,
        "0x0.0p+0",
        "0x0.0p+0",
        "0x0.0p+0",
        "0x0.0p+0",
        "0x0.0p+0",
    ),
    "n2": (
        2,
        "0x1.c2c5a2fd0fe22p-2",
        "0x1.c2c5a2fd0fe22p-2",
        "0x1.c2c5a2fd0fe22p-3",
        "0x1.269e80c53e586p-7",
        "0x1.269e80c53e586p-7",
    ),
    "n8": (
        8,
        "0x1.171a8ca61e782p+1",
        "0x1.74236632d34adp-1",
        "0x1.171a8ca61e782p-2",
        "0x1.2c1b71ab720ebp-5",
        "0x1.9024978f42be4p-7",
    ),
    "n9": (
        9,
        "0x1.0d9aaa04e8868p+1",
        "0x1.5433db85e94f7p-1",
        "0x1.df4bd8ec480b9p-3",
        "0x1.4b235ac3c36f0p-5",
        "0x1.a1d98a27ee8cep-7",
    ),
    "n32": (
        32,
        "0x1.d127a16fdc284p+1",
        "0x1.741fb4597ced0p-1",
        "0x1.d127a16fdc284p-4",
        "0x1.26c12f1871130p-6",
        "0x1.d79b7e8d81b80p-9",
    ),
    "n128": (
        128,
        "0x1.42703f73d9522p+2",
        "0x1.708048846614bp-1",
        "0x1.42703f73d9522p-5",
        "0x1.2ff77802143e3p-8",
        "0x1.5b63f6ddcdfdfp-11",
    ),
    "tied": (
        5,
        "0x1.2934f0979a371p+1",
        "0x1.0000000000000p+0",
        "0x1.db87e758f6be8p-2",
        "0x0.0p+0",
        "0x0.0p+0",
    ),
    "tied_pairs": (
        6,
        "0x1.e190c8cd91640p+0",
        "0x1.749708f821282p-1",
        "0x1.410b30890b980p-2",
        "0x1.31f3360e0d40cp-5",
        "0x1.d96e37677ed58p-7",
    ),
    "underflow": (
        5,
        "0x1.1f4a61a2e9428p+0",
        "0x1.eeeacf4114227p-2",
        "0x1.cbaa35d175373p-3",
        "0x1.9329475cce984p-5",
        "0x1.5b43a245a31c4p-6",
    ),
    "underflow_n40": (
        40,
        "0x1.c57f949e4cce0p+1",
        "0x1.54da49236e0dcp-1",
        "0x1.6acc76e50a3e6p-4",
        "0x1.157448e429a21p-6",
        "0x1.a112c12407d52p-9",
    ),
}


class TestPinnedBits:
    @pytest.mark.parametrize("name", sorted(PINNED_STEPS))
    def test_fields_bit_identical(self, name):
        records = [TokenRecord(f"t{i}", lp) for i, lp in enumerate(PINNED_STEPS[name])]
        m = compute_step_metrics(records)
        observed = (m.n,) + tuple(
            getattr(m, field).hex()
            for field in (
                "entropy_bits",
                "normalized_entropy",
                "mean_token_entropy",
                "variance_entropy",
                "normalized_variance_entropy",
            )
        )
        assert observed == PINNED_METRICS[name]


class TestTokenRecordValidation:
    def test_positive_logprob_rejected(self):
        with pytest.raises(ValueError):
            TokenRecord("x", 0.1)

    def test_unsorted_alternatives_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            TokenRecord("x", -0.5, top_alternatives=(("a", -2.0), ("b", -1.0)))

    def test_positive_alternative_rejected(self):
        with pytest.raises(ValueError):
            TokenRecord("x", -0.5, top_alternatives=(("a", 0.2),))

    @pytest.mark.parametrize(
        "chosen, alternatives, message",
        [
            (0.1, None, "chosen_logprob must be <= 0, got 0.1"),
            (float("nan"), None, "non-finite logit"),
            (-0.5, (("a", 0.2),), "alternative logprob must be <= 0, got 0.2"),
            (-0.5, (("a", -2.0), ("b", -1.0)),
             "alternatives must be sorted by descending logprob"),
            # A positive alternative is reported before an earlier disorder.
            (-0.5, (("a", -2.0), ("b", -1.0), ("c", 0.5)),
             "alternative logprob must be <= 0, got 0.5"),
        ],
    )
    def test_error_messages(self, chosen, alternatives, message):
        with pytest.raises(ValueError) as raised:
            TokenRecord("x", chosen, top_alternatives=alternatives)
        assert str(raised.value) == message

    def test_list_alternatives_and_int_logprobs_converted(self):
        record = TokenRecord("x", -1, top_alternatives=[["a", -1], ("b", -2.5)])
        assert record.top_alternatives == (("a", -1.0), ("b", -2.5))
        assert type(record.top_alternatives) is tuple
        assert all(type(pair) is tuple for pair in record.top_alternatives)
        assert type(record.top_alternatives[0][1]) is float

import pytest

from stats import critical_path_calls, min_samples, percentile


def test_percentile_refuses_fewer_than_ten_beyond():
    values = list(range(100))
    assert percentile(values, 90) == 89  # ten samples (90..99) lie beyond
    with pytest.raises(ValueError, match="need 10"):
        percentile(values, 91)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)
    assert percentile(list(range(20)), 50) == 9


def test_min_samples_is_the_least_count_with_a_defined_percentile():
    for p in (50, 90, 99):
        n = min_samples(p)
        assert percentile(list(range(n)), p) >= 0
        with pytest.raises(ValueError):
            percentile(list(range(n - 1)), p)
    assert (min_samples(90), min_samples(99)) == (100, 1000)


def test_critical_path_serial_spans_all_count():
    spans = [(0.0, 1.0), (1.0, 2.0), (2.5, 3.0), (3.0, 4.5)]
    assert critical_path_calls(spans) == 4


def test_critical_path_overlapping_spans_count_once_per_round():
    # Three rounds; each round's calls ran concurrently.
    spans = [
        (0.0, 1.0), (0.1, 1.2), (0.05, 0.9),
        (1.3, 2.0), (1.3, 2.4),
        (2.5, 3.0),
    ]
    assert critical_path_calls(spans) == 3


def test_critical_path_prefers_the_longest_chain():
    # A long call overlapping two short serial ones: the short ones win.
    spans = [(0.0, 10.0), (1.0, 2.0), (3.0, 4.0)]
    assert critical_path_calls(spans) == 2
    assert critical_path_calls([]) == 0

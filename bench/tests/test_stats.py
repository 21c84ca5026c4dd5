"""Order statistics, the tail-percentile rule and compare verdicts."""

import statistics

from bench import stats
from bench.compare import verdict


def test_quartiles_match_the_standard_library():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, median, q3)
    assert stats.summarize(values)["n"] == 6
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_p90_needs_ten_samples_beyond_it():
    assert stats.tail_percentile([float(v) for v in range(1, 101)], 90) == (
        statistics.quantiles(range(1, 101), n=100, method="inclusive")[89]
    )
    assert stats.tail_percentile([float(v) for v in range(1, 91)], 90) is None
    assert stats.tail_percentile([1.0], 90) is None


def test_ties_at_the_percentile_do_not_count_as_beyond():
    values = [1.0] * 95 + [2.0] * 5
    assert stats.tail_percentile(values, 90) is None


def test_verdict_better_needs_nine_tenths_of_pairs_and_the_spread():
    base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    faster = [value * 0.8 for value in base]
    share, decision = verdict(base, faster, "lower", 0.05)
    assert share == 1.0 and decision == "better"
    mixed = faster[:8] + [11.0, 11.0]
    assert verdict(base, mixed, "lower", 0.05)[1] != "better"


def test_verdict_worse_beyond_the_bound():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    slower = [value * 1.2 for value in base]
    assert verdict(base, slower, "lower", 0.05)[1] == "worse"
    assert verdict(base, slower, "higher", 0.05)[1] == "better"


def test_verdict_unchanged_and_unresolved():
    base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    same = list(reversed(base))
    assert verdict(base, same, "lower", 0.05)[1] == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert verdict(base, noisy, "lower", 0.05)[1] == "unresolved"

"""Tests of the harness's statistics and ``--compare`` verdicts."""

import statistics

from run import summarize, verdict


def test_summary_uses_the_quartiles_of_statistics_quantiles():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, median, q3 = statistics.quantiles(samples, n=4)
    assert summarize(samples) == {"median": median, "q1": q1, "q3": q3, "n": 6}
    assert summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}


def test_verdicts_against_the_bound():
    parent = {"median": 10.0, "q1": 9.9, "q3": 10.1}
    assert verdict(parent, {"median": 12.0}, "lower", 0.15) == "worse"
    assert verdict(parent, {"median": 12.0}, "higher", 0.15) == "better"
    assert verdict(parent, {"median": 8.0}, "lower", 0.15) == "better"
    assert verdict(parent, {"median": 10.5}, "lower", 0.15) == "unchanged"


def test_a_spread_wider_than_the_bound_is_unresolved():
    noisy = {"median": 10.0, "q1": 8.0, "q3": 12.0}
    assert verdict(noisy, {"median": 20.0}, "lower", 0.15) == "unresolved"


def test_any_failure_is_worse_when_the_bound_is_zero():
    clean = {"median": 0.0, "q1": 0.0, "q3": 0.0}
    assert verdict(clean, {"median": 0.0}, "lower", 0.0) == "unchanged"
    assert verdict(clean, {"median": 25.0}, "lower", 0.0) == "worse"

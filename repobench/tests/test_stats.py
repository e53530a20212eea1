import pytest

from repobench import stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 201))  # 1..200
    assert stats.percentile(values, 90.0) == 180
    assert stats.median(values) == 100
    assert stats.median([3.0]) == 3.0


def test_percentile_refuses_fewer_than_ten_samples_beyond():
    assert stats.min_samples_for(90.0) == 100
    assert stats.min_samples_for(99.0) == 1000
    stats.percentile(list(range(100)), 90.0)
    with pytest.raises(stats.TooFewSamples, match="9 beyond"):
        stats.percentile(list(range(99)), 90.0)
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(999)), 99.0)
    with pytest.raises(stats.TooFewSamples):
        stats.median([])


def test_backlog_growth_detector():
    assert stats.backlog_grows([0, 0, 1, 1, 2, 3, 4, 5, 6])
    assert not stats.backlog_grows([0, 1, 0, 2, 0, 1, 0, 2, 1])
    assert not stats.backlog_grows([3, 3, 3, 3, 3, 3])
    # A burst that drains again is not growth.
    assert not stats.backlog_grows([0, 0, 5, 9, 5, 2, 0, 0, 0])
    assert not stats.backlog_grows([0, 9])


def test_failed_request_counts_as_over_the_limit():
    assert stats.over_limit_share([0.010, 0.020, None, 0.030], 0.050) == 0.25
    assert stats.over_limit_share([0.010, 0.060], 0.050) == 0.5
    assert stats.over_limit_share([], 0.050) == 1.0

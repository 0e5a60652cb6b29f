"""The percentile helper and the spread the acceptance check takes."""

import statistics

import numpy as np
import pytest

from svcbench.stats import (
    InsufficientSamplesError,
    median,
    min_samples,
    percentile,
    quartile_spread,
)


def test_p90_is_refused_below_100_samples():
    assert min_samples(90) == 100
    with pytest.raises(InsufficientSamplesError):
        percentile(list(range(99)), 90)
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)


def test_p50_needs_ten_samples_beyond_it():
    assert min_samples(50) == 20
    with pytest.raises(InsufficientSamplesError):
        percentile([1.0] * 19, 50)


def test_percentile_matches_numpy_linear_interpolation():
    values = list(np.random.default_rng(3).normal(size=257))
    for pct in (50, 90, 95):
        assert percentile(values, pct) == pytest.approx(np.percentile(values, pct))


def test_median_and_quartile_spread():
    assert median([3.0, 1.0, 2.0]) == 2.0
    with pytest.raises(InsufficientSamplesError):
        median([])
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3, spread = quartile_spread(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert spread == pytest.approx((q3 - q1) / q2)

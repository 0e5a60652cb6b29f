"""A thin percentile tail fails the run with a named check, never a crash."""

import pytest

from svcbench.inputs import Capture
from svcbench.runner import _accuracy, _Tally, _tail_percentiles
from svcbench.workloads import PassResult


class _PanelWorkload:
    def __init__(self, captures):
        self._captures = captures

    def captures(self, data):
        return self._captures


def _panel_pass(rates, truth_bpm=15.0):
    capture = Capture(name="subject", trace=None, truth_bpm=truth_bpm, expected_windows=len(rates))
    estimates = [{"fresh": rate is not None, "rate_bpm": rate} for rate in rates]
    result = PassResult(
        started=0.0,
        ended=1.0,
        setup_s=0.1,
        capture_s_per_s=1.0,
        latencies_s=[],
        estimates={capture.name: estimates},
        expected_windows=len(rates),
    )
    return _PanelWorkload([capture]), result


def test_fewer_than_100_usable_estimates_fail_the_pass():
    # 120 windows, 99 of them with a usable rate: p90 has too thin a tail.
    rates = [15.0 + 0.01 * i for i in range(99)] + [None] * 21
    workload, result = _panel_pass(rates)
    metrics = _accuracy(workload, None, result)
    assert metrics["usable_ratio"] == pytest.approx(99 / 120)
    assert metrics["breathing_err_bpm_p90"] == pytest.approx(0.98)
    assert result.failures == ["panel breathing error: p90 needs at least 100 samples, got 99"]
    tally = _Tally()
    tally.add(result)
    assert (tally.attempted, tally.failed) == (120, 120)


def test_100_usable_estimates_pass():
    workload, result = _panel_pass([15.0 + 0.01 * i for i in range(100)])
    metrics = _accuracy(workload, None, result)
    assert result.failures == []
    assert metrics["breathing_err_bpm_p90"] == pytest.approx(0.891)
    assert metrics["fresh_ratio"] == metrics["usable_ratio"] == 1.0


def test_no_samples_at_all_still_report_a_number():
    p50, p90, failure = _tail_percentiles([], "window latency")
    assert (p50, p90) == (0.0, 0.0)
    assert failure == "window latency: p50 needs at least 20 samples, got 0"


def test_a_check_over_several_passes_fails_windows_once():
    tally = _Tally()
    tally.attempted = 50
    tally.fail(30, "first")
    tally.fail(30, "second")
    assert tally.failed == 50
    assert tally.failures == ["first", "second"]

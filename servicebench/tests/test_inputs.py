"""The expected window count agrees with the monitor it checks."""

import numpy as np
import pytest

from repro.core.streaming import StreamingConfig, StreamingMonitor
from repro.rf import (
    BernoulliLoss,
    TimestampJitter,
    apply_impairments,
    capture_trace,
    laboratory_scenario,
)
from svcbench.inputs import expected_windows, solo_input


@pytest.mark.parametrize(
    "impairments",
    [[], [BernoulliLoss(loss_fraction=0.2)], [TimestampJitter(std_s=4e-3)]],
)
def test_expected_windows_matches_the_monitor(impairments):
    rate = 50.0
    config = StreamingConfig(window_s=6.0, hop_s=2.0, incremental=False)
    trace = capture_trace(laboratory_scenario(), duration_s=20.0, sample_rate_hz=rate, seed=4)
    if impairments:
        trace = apply_impairments(trace, impairments, seed=5)
    monitor = StreamingMonitor(rate, config)
    assert len(monitor.push_trace(trace)) == expected_windows(
        trace.timestamps_s, rate, config
    )


def test_backward_timestamps_are_dropped_like_the_monitor_drops_them():
    rate = 10.0
    times = np.arange(0.0, 12.0, 1.0 / rate)
    times[[17, 45, 46, 80]] -= 0.25  # a few late packets arrive out of order
    config = StreamingConfig(window_s=3.0, hop_s=1.0)
    monitor = StreamingMonitor(rate, config)
    csi = np.exp(1j * np.random.default_rng(0).normal(size=(times.size, 3, 30)))
    emitted = sum(
        monitor.push_packet(packet, t) is not None for packet, t in zip(csi, times)
    )
    assert monitor.counters["dropped_backward_timestamp"] > 0
    assert emitted == expected_windows(times, rate, config)


def test_inputs_are_seeded():
    a = solo_input(7, 3.0)
    b = solo_input(7, 3.0)
    c = solo_input(8, 3.0)
    assert np.array_equal(a.trace.csi, b.trace.csi) and a.truth_bpm == b.truth_bpm
    assert not np.array_equal(a.trace.csi, c.trace.csi)

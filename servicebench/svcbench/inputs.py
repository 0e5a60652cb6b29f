"""Seeded inputs for the three workloads.

Everything here runs before any pass is timed.  The same seed gives the
same traces; the service sees only the traces.  Each workload is made
twice per run: once from the run's seed (timed) and once from
:data:`PANEL_SEED` (accuracy and ratio metrics, identical in every run).

Subjects sit at each scene's reference position with a 5 mm breathing
amplitude; the seed draws the breathing and heart rates, their phases and
the receiver noise.  Those choices keep every window of every seed
stationary (the Eq. 8 V statistic stays well inside its band), so no seed
turns a workload into one where the service legitimately refuses to work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.streaming import StreamingConfig
from repro.io_.trace import CSITrace
from repro.physio.breathing import SinusoidalBreathing
from repro.physio.heartbeat import SinusoidalHeartbeat
from repro.physio.person import Person
from repro.rf import (
    BernoulliLoss,
    ImpulsiveCorruption,
    TimestampJitter,
    apply_impairments,
    capture_trace,
    corridor_scenario,
    laboratory_scenario,
    through_wall_scenario,
)
from repro.rf.impairments import SegmentImpairment

PANEL_SEED = 20170605

# --- solo-400hz ---------------------------------------------------------
SOLO_RATE_HZ = 400.0
SOLO_CONFIG = StreamingConfig(window_s=30.0, hop_s=1.0)
SOLO_TIMED_S = 60.0  # 31 windows; a pass takes a few seconds
SOLO_PANEL_S = 150.0  # 121 windows, so an error p90 survives a few lost ones

# --- fleet-50hz ---------------------------------------------------------
FLEET_RATE_HZ = 50.0
FLEET_CONFIG = StreamingConfig(window_s=8.0, hop_s=4.0, max_gap_s=0.5, holdover_s=20.0)
FLEET_SESSIONS = 32
FLEET_DURATION_S = 24.0

# --- impaired-replay ----------------------------------------------------
IMPAIRED_RATE_HZ = 100.0
IMPAIRED_CONFIG = StreamingConfig(
    window_s=15.0, hop_s=1.0, max_gap_s=0.5, holdover_s=30.0
)
IMPAIRED_TIMED_S = 120.0  # 106 windows
IMPAIRED_PANEL_S = 150.0  # 136 windows
# Two 14 s heavy-loss bursts, each long enough for the ladder to escalate
# to its last rung and recover after it.
IMPAIRED_BURSTS_S = ((30.0, 44.0), (72.0, 86.0))

_LAB_POSITION = (2.2, 3.0, 1.0)
_WALL_POSITION = (2.5, 0.8, 1.0)
_CORRIDOR_POSITION = (1.0, 5.5, 1.0)


@dataclass(frozen=True)
class Capture:
    """One session's input: the trace, its truth, and its window count."""

    name: str
    trace: CSITrace
    truth_bpm: float
    expected_windows: int

    @property
    def start_s(self) -> float:
        return float(self.trace.timestamps_s[0])

    @property
    def end_s(self) -> float:
        return float(self.trace.timestamps_s[-1])


def expected_windows(
    timestamps_s: Sequence[float], sample_rate_hz: float, config: StreamingConfig
) -> int:
    """Windows a monitor must emit for these packet times.

    Restates the monitor's contract from the timestamps alone: a packet
    that is non-finite or earlier than its predecessor is dropped; a window
    closes once the kept packets span ``window_s`` and ``hop_s`` has passed
    since the last close (both within one nominal packet interval).
    """
    eps = 1.0 / float(sample_rate_hz)
    window_s = config.window_s
    hop_s = config.hop_s * 1.0
    times: list[float] = []
    start = 0
    last_emit: float | None = None
    n = 0
    for value in timestamps_s:
        t = float(value)
        if not math.isfinite(t):
            continue
        if times and t < times[-1]:
            if times[-1] - t > window_s:
                raise ValueError("a stream reset is not part of any workload")
            continue
        times.append(t)
        while start < len(times) - 1 and times[-1] - times[start] > window_s + eps:
            start += 1
        if times[-1] - times[start] < window_s - eps:
            continue
        if last_emit is not None and t - last_emit < hop_s - eps:
            continue
        last_emit = t
        n += 1
    return n


def _subject(
    rng: np.random.Generator,
    position: tuple[float, float, float],
    breathing_band_hz: tuple[float, float],
) -> Person:
    return Person(
        position=position,
        breathing=SinusoidalBreathing(
            frequency_hz=float(rng.uniform(*breathing_band_hz)),
            amplitude_m=5.0e-3,
            phase=float(rng.uniform(0.0, 2.0 * np.pi)),
        ),
        heartbeat=SinusoidalHeartbeat(
            frequency_hz=float(rng.uniform(1.0, 1.5)),
            phase=float(rng.uniform(0.0, 2.0 * np.pi)),
        ),
    )


def _capture_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def solo_input(seed: int, duration_s: float) -> Capture:
    """A clean lab capture at the paper's 400 Hz."""
    rng = np.random.default_rng([seed, 1])
    person = _subject(rng, _LAB_POSITION, (0.2, 0.33))
    trace = capture_trace(
        laboratory_scenario([person], clutter_seed=1),
        duration_s=duration_s,
        sample_rate_hz=SOLO_RATE_HZ,
        seed=_capture_seed(rng),
    )
    return Capture(
        name="subject",
        trace=trace,
        truth_bpm=person.breathing_rate_bpm,
        expected_windows=expected_windows(trace.timestamps_s, SOLO_RATE_HZ, SOLO_CONFIG),
    )


def fleet_input(seed: int) -> list[Capture]:
    """Sessions cycling lab, through-wall and corridor, evenly staggered over
    one hop (32 sessions, a 4 s hop and 0.5 s rounds put four window
    closings in every round).  Every session is a capture of its own,
    shifted by its stagger offset."""
    scenes = (
        (laboratory_scenario, _LAB_POSITION),
        (through_wall_scenario, _WALL_POSITION),
        (corridor_scenario, _CORRIDOR_POSITION),
    )
    sessions = []
    for i in range(FLEET_SESSIONS):
        make_scene, position = scenes[i % len(scenes)]
        rng = np.random.default_rng([seed, 2, i])
        person = _subject(rng, position, (0.25, 0.4))
        base = capture_trace(
            make_scene(persons=[person], clutter_seed=1),
            duration_s=FLEET_DURATION_S,
            sample_rate_hz=FLEET_RATE_HZ,
            seed=_capture_seed(rng),
        )
        offset_s = FLEET_CONFIG.hop_s * (i + 0.5) / FLEET_SESSIONS
        trace = CSITrace(
            csi=base.csi,
            timestamps_s=base.timestamps_s + offset_s,
            sample_rate_hz=base.sample_rate_hz,
            subcarrier_indices=base.subcarrier_indices,
            meta=dict(base.meta),
        )
        sessions.append(
            Capture(
                name=f"session-{i:03d}",
                trace=trace,
                truth_bpm=person.breathing_rate_bpm,
                expected_windows=expected_windows(
                    trace.timestamps_s, FLEET_RATE_HZ, FLEET_CONFIG
                ),
            )
        )
    return sessions


def impaired_input(seed: int, duration_s: float) -> Capture:
    """A through-wall capture at 100 Hz with background loss, timestamp
    jitter, impulsive interference and two heavy-loss bursts."""
    rng = np.random.default_rng([seed, 3])
    person = _subject(rng, _WALL_POSITION, (0.25, 0.4))
    trace = capture_trace(
        through_wall_scenario(persons=[person], clutter_seed=1),
        duration_s=duration_s,
        sample_rate_hz=IMPAIRED_RATE_HZ,
        seed=_capture_seed(rng),
    )
    impairments = [
        BernoulliLoss(loss_fraction=0.05),
        TimestampJitter(std_s=1.0e-3),
        ImpulsiveCorruption(hit_fraction=0.01, magnitude=10.0),
    ] + [
        SegmentImpairment(
            inner=BernoulliLoss(loss_fraction=0.6),
            start_s=start_s,
            end_s=end_s,
        )
        for start_s, end_s in IMPAIRED_BURSTS_S
    ]
    trace = apply_impairments(trace, impairments, seed=_capture_seed(rng))
    return Capture(
        name="subject",
        trace=trace,
        truth_bpm=person.breathing_rate_bpm,
        expected_windows=expected_windows(
            trace.timestamps_s, IMPAIRED_RATE_HZ, IMPAIRED_CONFIG
        ),
    )

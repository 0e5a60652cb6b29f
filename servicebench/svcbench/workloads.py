"""One pass of each workload, driven through the service's public API.

A pass starts with generated inputs in hand and ends when the service has
consumed them.  The client is a closed loop on the service's simulated
clock: it calls ``MonitorSupervisor.tick`` (solo, impaired) or
``FleetGateway.run_round`` (fleet) and waits for each call to return.
Latency is measured here, in the client loop, never inside the program.
Output checks run after the pass's clock has stopped.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.learn import LearnedEstimator, TrainingConfig, train
from repro.service import MonitorSupervisor, SimulatedClock, TracePacketSource
from repro.service.fleet import FleetGateway, SessionStatus
from repro.service.supervisor import SupervisorConfig
from repro.store import MemoryBackend, RecordingTap, ReplayPacketSource

from . import inputs
from .inputs import Capture
from .spans import Shims

_ENGINE_WINDOW_TARGET = (
    "repro.dsp.streaming_kernels.calibrator:StreamingCalibrator.unwrapped_window"
)
_STORE_STEM = "impaired"
_FLUSH_EVERY_RECORDS = 64
_TRAINING_WINDOWS = 96


@dataclass
class PassResult:
    """What one pass measured and what its output checks found."""

    started: float  # perf_counter() at the start and end of the pass
    ended: float
    setup_s: float
    capture_s_per_s: float
    latencies_s: list[float]
    # Session name -> its estimates as ``ServiceEstimate.to_dict()``.
    estimates: dict[str, list[dict[str, Any]]]
    expected_windows: int
    failures: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.ended - self.started

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


def _event_counts(events: Any) -> dict[str, float]:
    return {
        "service.supervisor.escalations": float(
            len(events.select(kind="fallback-escalated"))
        ),
        "service.supervisor.restarts": float(len(events.select(kind="monitor-restart"))),
    }


def _drive_subject(
    supervisor: MonitorSupervisor, name: str
) -> tuple[float | None, float, list[float]]:
    """Tick one subject until its source is exhausted.

    Returns ``(first_visible, end, latencies)``: the wall time the first
    estimate became visible, the wall time the pass ended, and per window
    the wall time from handing over its closing packet (the tick's start)
    to the return of the tick after which its estimate is visible.
    """
    tick = supervisor.tick
    done = supervisor.subject_done
    estimates_for = supervisor.estimates_for
    clock = time.perf_counter
    latencies: list[float] = []
    first: float | None = None
    n_seen = 0
    while not done(name):
        started = clock()
        tick(name)
        n = len(estimates_for(name))
        if n != n_seen:
            visible = clock()
            latencies.append(visible - started)
            n_seen = n
            if first is None:
                first = visible
    return first, clock(), latencies


def _check_window_count(result: PassResult, capture: Capture, estimates: list[Any]) -> None:
    result.check(
        len(estimates) == capture.expected_windows,
        f"{capture.name}: {len(estimates)} windows, expected "
        f"{capture.expected_windows}",
    )


class Workload:
    """A workload: how to make its inputs and how to run one pass."""

    name = ""

    def make_input(self, seed: int, *, panel: bool) -> Any:
        raise NotImplementedError

    def captures(self, data: Any) -> list[Capture]:
        raise NotImplementedError

    def run_pass(self, data: Any) -> PassResult:
        raise NotImplementedError


class SoloWorkload(Workload):
    name = "solo-400hz"

    def make_input(self, seed: int, *, panel: bool) -> Capture:
        duration = inputs.SOLO_PANEL_S if panel else inputs.SOLO_TIMED_S
        return inputs.solo_input(seed, duration)

    def captures(self, data: Capture) -> list[Capture]:
        return [data]

    def run_pass(self, data: Capture) -> PassResult:
        trace = data.trace
        engine = Shims()
        engine.add(_ENGINE_WINDOW_TARGET)
        with engine:
            t0 = time.perf_counter()
            clock = SimulatedClock(data.start_s)
            supervisor = MonitorSupervisor(
                clock=clock, streaming_config=inputs.SOLO_CONFIG
            )
            supervisor.add_subject(
                data.name,
                lambda start_at_s: TracePacketSource(
                    trace, clock, start_at_s=start_at_s
                ),
                inputs.SOLO_RATE_HZ,
            )
            first, end, latencies = _drive_subject(supervisor, data.name)
        estimates = supervisor.estimates_for(data.name)
        result = _subject_result(t0, first, end, latencies, data, estimates)
        _check_window_count(result, data, estimates)
        engine_windows = engine.snapshot_calls()[_ENGINE_WINDOW_TARGET]
        result.check(
            engine_windows == len(estimates),
            f"{engine_windows} of {len(estimates)} windows served by the engine",
        )
        result.check(
            all(e.fresh and e.rejected_reason is None for e in estimates),
            "a window was not fresh",
        )
        result.counts.update(_event_counts(supervisor.events))
        return result


def _subject_result(
    t0: float,
    first: float | None,
    end: float,
    latencies: list[float],
    data: Capture,
    estimates: list[Any],
) -> PassResult:
    if first is None or not estimates:
        setup_s, rate = float("nan"), float("nan")
    else:
        setup_s = first - t0
        rate = (data.end_s - estimates[0].time_s) / (end - first)
    return PassResult(
        started=t0,
        ended=end,
        setup_s=setup_s,
        capture_s_per_s=rate,
        latencies_s=latencies,
        estimates={data.name: [e.to_dict() for e in estimates]},
        expected_windows=data.expected_windows,
    )


class FleetWorkload(Workload):
    name = "fleet-50hz"

    def make_input(self, seed: int, *, panel: bool) -> list[Capture]:
        return inputs.fleet_input(seed)

    def captures(self, data: list[Capture]) -> list[Capture]:
        return list(data)

    def run_pass(self, data: list[Capture]) -> PassResult:
        perf = time.perf_counter
        t0 = perf()
        clock = SimulatedClock(min(c.start_s for c in data))
        gateway = FleetGateway(
            clock=clock,
            supervisor_config=SupervisorConfig(checkpoint_interval_s=5.0),
            streaming_config=inputs.FLEET_CONFIG,
        )
        for capture in data:
            trace = capture.trace
            gateway.admit(
                capture.name,
                lambda session_clock, trace=trace: TracePacketSource(
                    trace, session_clock
                ),
                inputs.FLEET_RATE_HZ,
            )
        names = [c.name for c in data]
        interval_s = gateway.config.round_interval_s
        heartbeats: list[float] = []
        round_starts: list[float] = []
        seen = dict.fromkeys(names, 0)
        waiting = set(names)
        latencies: list[float] = []
        setup_at: float | None = None
        setup_heartbeat = 0.0
        status = gateway.status
        active = SessionStatus.ACTIVE
        while any(status(n) is active for n in names):
            # A packet is due in the first round whose heartbeat reaches
            # its timestamp; the round advances the clock by one interval.
            heartbeats.append(clock.now_s + interval_s)
            started = perf()
            round_starts.append(started)
            gateway.run_round()
            ended = perf()
            for name in names:
                estimates = gateway.estimates(name)
                if len(estimates) == seen[name]:
                    continue
                for estimate in estimates[seen[name] :]:
                    due = bisect.bisect_left(heartbeats, estimate.time_s)
                    latencies.append(ended - round_starts[due])
                seen[name] = len(estimates)
                waiting.discard(name)
            if setup_at is None and not waiting:
                setup_at = ended
                setup_heartbeat = heartbeats[-1]
        end = perf()

        results = {name: gateway.estimates(name) for name in names}
        if setup_at is None:
            setup_s, rate = float("nan"), float("nan")
        else:
            setup_s = setup_at - t0
            after = sum(
                c.end_s - min(max(setup_heartbeat, c.start_s), c.end_s) for c in data
            )
            rate = after / (end - setup_at)
        result = PassResult(
            started=t0,
            ended=end,
            setup_s=setup_s,
            capture_s_per_s=rate,
            latencies_s=latencies,
            estimates={n: [e.to_dict() for e in results[n]] for n in names},
            expected_windows=sum(c.expected_windows for c in data),
        )
        for capture in data:
            _check_window_count(result, capture, results[capture.name])
        summary = gateway.fleet_summary()
        result.check(
            summary["by_status"]["finished"] == len(data),
            f"sessions finished: {summary['by_status']}",
        )
        result.check(summary["n_shed"] == 0, f"{summary['n_shed']} sessions shed")
        result.check(
            summary["n_queue_dropped"] == 0,
            f"{summary['n_queue_dropped']} packets dropped from ingest queues",
        )
        result.counts.update(_event_counts(gateway.events))
        result.counts.update(
            {
                "service.fleet.gateway.rounds": float(summary["rounds"]),
                "service.fleet.gateway.queue_dropped": float(summary["n_queue_dropped"]),
                "service.fleet.gateway.shed": float(summary["n_shed"]),
            }
        )
        return result


class ImpairedReplayWorkload(Workload):
    name = "impaired-replay"

    def make_input(self, seed: int, *, panel: bool) -> tuple[Capture, int]:
        duration = inputs.IMPAIRED_PANEL_S if panel else inputs.IMPAIRED_TIMED_S
        return inputs.impaired_input(seed, duration), seed % (2**31)

    def captures(self, data: tuple[Capture, int]) -> list[Capture]:
        return [data[0]]

    def run_pass(self, data: tuple[Capture, int]) -> PassResult:
        capture, train_seed = data
        trace = capture.trace
        t0 = time.perf_counter()
        # Writes: record the capture through a tap into an in-memory store.
        backend = MemoryBackend()
        tap = RecordingTap(
            TracePacketSource(trace, SimulatedClock(capture.start_s)),
            backend,
            _STORE_STEM,
            sample_rate_hz=inputs.IMPAIRED_RATE_HZ,
            session_id=capture.name,
            flush_every_records=_FLUSH_EVERY_RECORDS,
        )
        while tap.next_packet() is not None:
            pass
        tap.close()
        # The learned rung, trained from its seeded synthetic corpus.
        bundle = train(
            TrainingConfig(
                mode="synthetic",
                n_windows=_TRAINING_WINDOWS,
                seed=train_seed,
                with_mlp=False,
            )
        )
        # Reads: salvage the store and replay it through the 4-rung ladder.
        clock = SimulatedClock(capture.start_s)
        replay = ReplayPacketSource(backend, _STORE_STEM, clock)
        supervisor = MonitorSupervisor(
            clock=clock,
            streaming_config=inputs.IMPAIRED_CONFIG,
            learned_estimator=LearnedEstimator(bundle),
        )
        supervisor.add_subject(
            capture.name, lambda _start_at_s: replay, inputs.IMPAIRED_RATE_HZ
        )
        first, end, latencies = _drive_subject(supervisor, capture.name)

        estimates = supervisor.estimates_for(capture.name)
        result = _subject_result(t0, first, end, latencies, capture, estimates)
        _check_window_count(result, capture, estimates)
        result.check(replay.salvage_report.clean, "salvage report is not clean")
        result.check(
            _replays_recording(backend, capture),
            "replayed packets differ from the recorded packets",
        )
        served = {e.method for e in estimates if e.fresh}
        missing = [m for m in supervisor.fallback_methods if m not in served]
        result.check(not missing, f"ladder rungs that served no window: {missing}")
        n_bytes = sum(len(backend.read_bytes(n)) for n in backend.list_names())
        result.counts.update(_event_counts(supervisor.events))
        result.counts.update(
            {
                "store.writer.bytes_per_packet": n_bytes / max(tap.n_recorded, 1),
                "store.reader.salvage_issues": float(
                    len(replay.salvage_report.issues)
                ),
            }
        )
        return result


def _replays_recording(backend: MemoryBackend, capture: Capture) -> bool:
    """Whether a fresh replay of the store yields exactly the recorded
    packets (CSI at the store's complex64 precision)."""
    source = ReplayPacketSource(backend, _STORE_STEM, SimulatedClock(capture.start_s))
    packets = []
    while (packet := source.next_packet()) is not None:
        packets.append(packet)
    trace = capture.trace
    if len(packets) != trace.n_packets:
        return False
    times = np.asarray([p.timestamp_s for p in packets])
    csi = np.stack([p.csi for p in packets])
    return bool(
        np.array_equal(times, trace.timestamps_s)
        and np.array_equal(csi, trace.csi.astype(csi.dtype))
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (SoloWorkload(), FleetWorkload(), ImpairedReplayWorkload())
}

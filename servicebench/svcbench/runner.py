"""One benchmark run: inputs, passes, output checks, metrics.

``--trace 0`` times untraced passes over the seeded input for the requested
seconds, half before and half after one pass over the panel input under
tracemalloc (accuracy, ratios, peak memory).  ``--trace 1`` alternates
untraced and traced passes over the seeded input and reports per-layer
metrics only; no traced or tracemalloc pass feeds a timing metric.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import platform
import time
import tracemalloc
from pathlib import Path
from typing import Any

import numpy as np
import scipy

from . import catalogue, stats
from .inputs import PANEL_SEED
from .spans import Shims, SpanRecorder, self_times
from .workloads import WORKLOADS, PassResult, Workload

MIN_TIMED_PASSES = 3
LATENCY_SAMPLES = stats.min_samples(90)
# Past this, a run stops adding passes even if it lacks samples (and then
# fails its latency check) so that it always ends well inside 180 s.
MAX_EXTRA_S = 60.0
SPAN_DIR = Path(__file__).resolve().parent.parent / "out"

_MEDIAN_FILTER = "scipy.ndimage:median_filter"
_EXTEND = "repro.dsp.streaming_kernels.calibrator:StreamingCalibrator.extend"
_BUILD = "repro.dsp.streaming_kernels.calibrator:StreamingCalibrator.__init__"
_ENGINE_WINDOW = "repro.dsp.streaming_kernels.calibrator:StreamingCalibrator.unwrapped_window"
_V_STATISTIC = "repro.core.environment:v_statistic"
_PUSH = "repro.core.streaming:StreamingMonitor.push_packet"


def machine_block() -> dict[str, Any]:
    """Interpreter, library and core facts a reader needs to compare runs."""
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "affinity": affinity,
        "cores_used": 1,
        "threads": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def _settle() -> None:
    """Collect garbage, then freeze what survives (inputs, earlier results)
    so that collections during the pass scan only the service's objects."""
    gc.collect()
    gc.freeze()


def _one_pass(workload: Workload, data: Any) -> PassResult:
    _settle()
    return workload.run_pass(data)


class _Tally:
    """Windows attempted and failed over a run's passes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, result: PassResult, reference: PassResult | None = None) -> None:
        if reference is not None and result.estimates != reference.estimates:
            result.failures.append("estimates differ from the run's first pass")
        self.attempted += result.expected_windows
        if result.failures:
            self.failed += result.expected_windows
            self.failures.extend(result.failures)

    def fail(self, windows: int, what: str) -> None:
        """Fail ``windows`` already attempted, for a check over several passes."""
        self.failed = min(self.failed + windows, self.attempted)
        self.failures.append(what)


def _tail_percentiles(values: list[float], what: str) -> tuple[float, float, str | None]:
    """``(p50, p90, failure)`` of ``values``.  Too few samples for them is a
    failed output check, named by ``failure``; both then read the worst
    value seen (0 with none), so the run still reports every metric."""
    try:
        return stats.percentile(values, 50), stats.percentile(values, 90), None
    except stats.InsufficientSamplesError as exc:
        worst = max(values, default=0.0)
        return worst, worst, f"{what}: {exc}"


def _accuracy(workload: Workload, data: Any, result: PassResult) -> dict[str, float]:
    """Accuracy and ratio metrics of the panel pass; a thin error tail is
    added to the pass's failures."""
    errors: list[float] = []
    fresh = usable = 0
    for capture in workload.captures(data):
        for estimate in result.estimates[capture.name]:
            fresh += bool(estimate["fresh"])
            if estimate["rate_bpm"] is not None:
                usable += 1
                errors.append(abs(estimate["rate_bpm"] - capture.truth_bpm))
    expected = result.expected_windows
    p50, p90, failure = _tail_percentiles(errors, "panel breathing error")
    if failure:
        result.failures.append(failure)
    return {
        "breathing_err_bpm_p50": p50,
        "breathing_err_bpm_p90": p90,
        "fresh_ratio": fresh / expected,
        "usable_ratio": usable / expected,
    }


def run_untraced(workload: Workload, seed: int, seconds: float) -> tuple[dict, dict, _Tally]:
    """End-to-end metrics: timed passes over the seeded input, in two halves
    around one panel pass under tracemalloc (accuracy, ratios, peak memory).

    The host's speed drifts over tens of seconds; splitting the timed
    passes spreads them over a longer span of it at no extra cost.
    """
    panel = workload.make_input(PANEL_SEED, panel=True)
    timed = workload.make_input(seed, panel=False)
    tally = _Tally()
    passes: list[PassResult] = []
    timed_s = 0.0

    def time_passes(until_s: float, final: bool) -> None:
        nonlocal timed_s
        while True:
            began = time.perf_counter()
            result = _one_pass(workload, timed)
            timed_s += time.perf_counter() - began
            tally.add(result, passes[0] if passes else None)
            passes.append(result)
            if timed_s >= seconds + MAX_EXTRA_S:
                return
            if timed_s >= until_s and (
                not final
                or (
                    len(passes) >= MIN_TIMED_PASSES
                    and sum(len(p.latencies_s) for p in passes) >= LATENCY_SAMPLES
                )
            ):
                return

    time_passes(seconds / 2, final=False)

    _settle()
    tracemalloc.start()
    try:
        panel_result = workload.run_pass(panel)
        peak_bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    metrics = _accuracy(workload, panel, panel_result)
    metrics["peak_mem_mb"] = peak_bytes / 1e6
    tally.add(panel_result)

    time_passes(seconds, final=True)
    latencies_ms = [1e3 * x for p in passes for x in p.latencies_s]
    metrics["setup_s"] = stats.median([p.setup_s for p in passes])
    metrics["capture_s_per_s"] = stats.median([p.capture_s_per_s for p in passes])
    p50, p90, failure = _tail_percentiles(latencies_ms, "window latency")
    metrics["window_latency_ms_p50"] = p50
    metrics["window_latency_ms_p90"] = p90
    if failure:
        tally.fail(sum(p.expected_windows for p in passes), failure)
    detail = {
        "timed_passes": len(passes),
        "timed_s": timed_s,
        "latency_samples": len(latencies_ms),
        "setup_s_per_pass": [p.setup_s for p in passes],
        "capture_s_per_s_per_pass": [p.capture_s_per_s for p in passes],
        "panel_windows": panel_result.expected_windows,
    }
    return metrics, detail, tally


def _trace_shims(recorder: SpanRecorder, counts: dict[str, float]) -> Shims:
    shims = Shims(recorder)
    for layer_index, (_, targets) in enumerate(catalogue.SPAN_LAYERS):
        for target in targets:
            hook = None
            if target == _EXTEND:
                hook = _count_rows(counts, "extend_rows", "wrapped_block")
            elif target == _V_STATISTIC:
                hook = _count_rows(counts, "v_rows", "phase_diff")
            shims.add(target, layer=layer_index, hook=hook)

    def count_median(args: tuple, kwargs: dict) -> None:
        counts["median_elements"] += np.size(args[0] if args else kwargs["input"])

    shims.add(_MEDIAN_FILTER, hook=count_median, repro_only=True)
    return shims


def _count_rows(counts: dict[str, float], key: str, keyword: str):
    def hook(args: tuple, kwargs: dict) -> None:
        # Methods receive ``self`` first; functions do not.
        value = kwargs.get(keyword)
        if value is None:
            value = next(a for a in args if isinstance(a, np.ndarray))
        counts[key] += np.shape(value)[0] if np.ndim(value) else 1

    return hook


def run_traced(workload: Workload, seed: int, seconds: float) -> tuple[dict, dict, _Tally]:
    """Per-layer metrics: a warm-up pass, then untraced and traced passes in
    turn until ``seconds`` have passed."""
    data = workload.make_input(seed, panel=False)
    tally = _Tally()
    reference = _one_pass(workload, data)
    tally.add(reference)
    layer_names = [name for name, _ in catalogue.SPAN_LAYERS]
    recorder = SpanRecorder(layer_names)
    untraced: list[PassResult] = []
    traced: list[tuple[PassResult, dict[str, int], dict[str, float]]] = []
    began = time.perf_counter()
    while not traced or time.perf_counter() - began < seconds:
        result = _one_pass(workload, data)
        tally.add(result, reference)
        untraced.append(result)
        counts = {"extend_rows": 0.0, "v_rows": 0.0, "median_elements": 0.0}
        recorder.current_pass = len(traced)
        shims = _trace_shims(recorder, counts)
        _settle()
        with shims:
            result = workload.run_pass(data)
        tally.add(result, reference)
        traced.append((result, shims.snapshot_calls(), counts))

    metrics: dict[str, float] = {}
    n = len(traced)
    self_total = [0.0] * len(layer_names)
    calls_total = [0] * len(layer_names)
    for index in range(n):
        offset, rows = recorder.pass_spans(index)
        # Spans are recorded in start order; output checks run after the
        # pass has ended and are not part of it.
        ended = traced[index][0].ended
        rows = rows[: bisect.bisect_right([start for _, _, start, _ in rows], ended)]
        self_s, calls = self_times(rows, offset=offset)
        for layer, value in self_s.items():
            self_total[layer] += value
        for layer, value in calls.items():
            calls_total[layer] += value
    wall = sum(r.wall_s for r, _, _ in traced) / n
    for i, name in enumerate(layer_names):
        metrics[f"{name}.calls"] = calls_total[i] / n
        metrics[f"{name}.self_s"] = self_total[i] / n
        metrics[f"{name}.share"] = self_total[i] / n / wall

    def mean_call(target: str) -> float:
        return sum(c.get(target, 0) for _, c, _ in traced) / n

    def mean_count(key: str) -> float:
        return sum(c[key] for _, _, c in traced) / n

    def mean_result_count(key: str) -> float:
        return sum(r.counts.get(key, 0.0) for r, _, _ in traced) / n

    windows = sum(
        len(v) for r, _, _ in traced for v in r.estimates.values()
    ) / n
    packets = mean_call(_PUSH)
    metrics["core.streaming.engine_window_ratio"] = mean_call(_ENGINE_WINDOW) / windows
    metrics["dsp.streaming_kernels.builds"] = mean_call(_BUILD)
    metrics["dsp.streaming_kernels.rows_per_packet"] = mean_count("extend_rows") / packets
    metrics["dsp.median_filter.calls_per_window"] = mean_call(_MEDIAN_FILTER) / windows
    metrics["dsp.median_filter.elements_per_packet"] = (
        mean_count("median_elements") / packets
    )
    metrics["core.environment.samples_per_packet"] = mean_count("v_rows") / packets
    for key in (
        "service.supervisor.escalations",
        "service.supervisor.restarts",
        "service.fleet.gateway.rounds",
        "service.fleet.gateway.queue_dropped",
        "service.fleet.gateway.shed",
        "store.writer.bytes_per_packet",
        "store.reader.salvage_issues",
    ):
        metrics[key] = mean_result_count(key)
    metrics["trace.coverage"] = sum(self_total) / n / wall
    if metrics["trace.coverage"] < catalogue.MIN_TRACE_COVERAGE:
        tally.fail(
            sum(r.expected_windows for r, _, _ in traced),
            f"trace.coverage {metrics['trace.coverage']:.3f} is below "
            f"{catalogue.MIN_TRACE_COVERAGE}",
        )
    traced_rate = stats.median([r.capture_s_per_s for r, _, _ in traced])
    untraced_rate = stats.median([r.capture_s_per_s for r in untraced])
    metrics["trace.overhead"] = 1.0 - traced_rate / untraced_rate

    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{workload.name}.npz"
    recorder.save(
        str(span_file),
        {"workload": workload.name, "seed": seed, "machine": machine_block()},
    )
    detail = {
        "traced_passes": n,
        "untraced_passes": len(untraced),
        "spans": len(recorder),
        "span_file": str(span_file.relative_to(SPAN_DIR.parent.parent)),
        "traced_wall_s": wall,
    }
    return metrics, detail, tally


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """Run one workload; returns the result object the command prints last."""
    workload = WORKLOADS[workload_name]
    if trace:
        values, detail, tally = run_traced(workload, seed, seconds)
        units = catalogue.per_layer_units()
    else:
        values, detail, tally = run_untraced(workload, seed, seconds)
        units = catalogue.end_to_end_units()
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    detail["failures"] = tally.failures[:20]
    print(json.dumps({"machine": machine_block(), "detail": detail}, sort_keys=True))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }

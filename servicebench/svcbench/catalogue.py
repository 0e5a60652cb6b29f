"""The benchmark's metric catalogue: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 servicebench/run.py --print-benchmark-json``) and a test checks
that the two agree, so a metric is added or re-bounded here and nowhere
else.
"""

from __future__ import annotations

import re
from typing import Any

RUN_SECONDS = 15

# One line each; the README gives the longer rationale.
WORKLOADS: tuple[tuple[str, str], ...] = (
    (
        "solo-400hz",
        "one clean lab subject at 400 Hz, 30 s window, 1 s hop: every window "
        "is served by the incremental engine, so median-kernel and "
        "V-statistic work shows",
    ),
    (
        "fleet-50hz",
        "staggered lab, through-wall and corridor sessions through the fleet "
        "gateway at 50 Hz: per-packet Python and first-window engine builds "
        "dominate",
    ),
    (
        "impaired-replay",
        "impaired through-wall capture recorded to a store, salvaged and "
        "replayed through the 4-rung ladder: batch path, store and fallback "
        "rungs show",
    ),
)

# name, unit, better, bound (share of the parent's median it may worsen by).
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("capture_s_per_s", "s/s", "higher", 0.25),
    ("window_latency_ms_p50", "ms", "lower", 0.25),
    ("window_latency_ms_p90", "ms", "lower", 0.25),
    ("breathing_err_bpm_p50", "bpm", "lower", 0.05),
    ("breathing_err_bpm_p90", "bpm", "lower", 0.05),
    ("fresh_ratio", "fraction", "higher", 0.05),
    ("usable_ratio", "fraction", "higher", 0.05),
    ("peak_mem_mb", "MB", "lower", 0.1),
)

# Span layers: each is a module under ``repro`` and the public callables
# the traced run wraps for it, as ``module:qualified.name``.
SPAN_LAYERS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("service.sources", ("repro.service.sources:TracePacketSource.next_packet",)),
    (
        "service.fleet.gateway",
        (
            "repro.service.fleet.gateway:FleetGateway.admit",
            "repro.service.fleet.gateway:FleetGateway.run_round",
        ),
    ),
    ("service.supervisor", ("repro.service.supervisor:MonitorSupervisor.tick",)),
    ("core.streaming", ("repro.core.streaming:StreamingMonitor.push_packet",)),
    (
        "dsp.streaming_kernels",
        tuple(
            f"repro.dsp.streaming_kernels.calibrator:StreamingCalibrator.{name}"
            for name in (
                "__init__",
                "extend",
                "evict",
                "unwrapped_window",
                "calibrated_window",
            )
        ),
    ),
    (
        "core.environment",
        (
            "repro.core.environment:v_statistic",
            "repro.core.environment:windowed_v",
            "repro.core.pipeline:PhaseBeat.classify_environment",
        ),
    ),
    (
        "core.pipeline",
        (
            "repro.core.pipeline:PhaseBeat.process",
            "repro.core.pipeline:PhaseBeat.estimate_from_matrix",
        ),
    ),
    (
        "dsp.hampel",
        tuple(
            f"repro.dsp.hampel:{name}"
            for name in (
                "rolling_median",
                "rolling_mad",
                "hampel_filter",
                "hampel_trend",
            )
        ),
    ),
    ("dsp.resample", ("repro.dsp.resample:reclock",)),
    (
        "core.subcarrier_selection",
        tuple(
            f"repro.core.subcarrier_selection:{name}"
            for name in (
                "amplitude_mask_from_mean",
                "amplitude_quality_mask",
                "select_subcarrier",
                "subcarrier_sensitivities",
            )
        ),
    ),
    (
        "core.dwt_stage",
        ("repro.core.dwt_stage:decompose", "repro.core.dwt_stage:decompose_matrix"),
    ),
    (
        "core.breathing",
        tuple(
            f"repro.core.breathing:{cls}.estimate_bpm"
            for cls in (
                "PeakBreathingEstimator",
                "FFTBreathingEstimator",
                "MusicBreathingEstimator",
            )
        ),
    ),
    (
        "learn.estimator",
        (
            "repro.learn.estimator:LearnedEstimator.estimate_breathing_bpm",
            "repro.learn.estimator:LearnedEstimator.apnea_probability",
        ),
    ),
    (
        "extensions.csi_ratio",
        (
            "repro.extensions.csi_ratio:csi_ratio_series",
            "repro.extensions.csi_ratio:CsiRatioEstimator.breathing_series",
            "repro.extensions.csi_ratio:CsiRatioEstimator.estimate_breathing_bpm",
        ),
    ),
    (
        "baselines.amplitude",
        (
            "repro.baselines.amplitude:AmplitudeMethod.estimate_breathing_bpm",
            "repro.baselines.amplitude:AmplitudeMethod.estimate_heart_bpm",
        ),
    ),
    (
        "learn.train",
        (
            "repro.learn.train:generate_corpus",
            "repro.learn.train:train",
        ),
    ),
    (
        "store.writer",
        (
            "repro.store.writer:TraceWriter.append",
            "repro.store.writer:TraceWriter.flush",
            "repro.store.writer:TraceWriter.close",
        ),
    ),
    (
        "store.reader",
        (
            "repro.store.reader:TraceReader.scan",
            "repro.store.reader:TraceReader.read_packets",
            "repro.store.reader:TraceReader.read_trace",
        ),
    ),
    (
        "store.replay",
        (
            "repro.store.replay:ReplayPacketSource.__init__",
            "repro.store.replay:ReplayPacketSource.next_packet",
        ),
    ),
)

# Counts and ratios measured in the traced run: name, unit, better.
COUNT_METRICS: tuple[tuple[str, str, str], ...] = (
    ("core.streaming.engine_window_ratio", "fraction", "higher"),
    ("dsp.streaming_kernels.builds", "count", "lower"),
    ("dsp.streaming_kernels.rows_per_packet", "rows/packet", "lower"),
    ("dsp.median_filter.calls_per_window", "calls/window", "lower"),
    ("dsp.median_filter.elements_per_packet", "elements/packet", "lower"),
    ("core.environment.samples_per_packet", "samples/packet", "lower"),
    ("service.supervisor.escalations", "count", "lower"),
    ("service.supervisor.restarts", "count", "lower"),
    ("service.fleet.gateway.rounds", "count", "lower"),
    ("service.fleet.gateway.queue_dropped", "count", "lower"),
    ("service.fleet.gateway.shed", "count", "lower"),
    ("store.writer.bytes_per_packet", "bytes/packet", "lower"),
    ("store.reader.salvage_issues", "count", "lower"),
    ("trace.coverage", "fraction", "higher"),
    ("trace.overhead", "fraction", "lower"),
)

# A traced run whose layer self times cover less of its wall time than this
# fails: the per-layer breakdown would no longer add up.
MIN_TRACE_COVERAGE = 0.95

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    out: list[tuple[str, str, str]] = []
    for layer, _ in SPAN_LAYERS:
        out.append((f"{layer}.calls", "count", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.share", "fraction", "lower"))
    out.extend(COUNT_METRICS)
    return out


def end_to_end_units() -> dict[str, str]:
    """End-to-end metric name -> unit."""
    return {name: unit for name, unit, _, _ in END_TO_END}


def per_layer_units() -> dict[str, str]:
    """Per-layer metric name -> unit."""
    return {name: unit for name, unit, _ in per_layer_metrics()}


def benchmark_json() -> dict[str, Any]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "servicebench/run.py"],
        "paths": ["servicebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in per_layer_metrics()
        ],
    }

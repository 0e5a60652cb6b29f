"""Run one workload N times and report how much each metric spreads.

    python3 servicebench/repeat.py --workload fleet-50hz --runs 10

Runs ``servicebench/run.py`` once per seed (``--first-seed`` upwards), one
run at a time, each with ``--trace 0`` and ``--seconds`` set to the
benchmark's ``run_seconds``, so the figures are for the configuration the
benchmark is judged by.  Then prints for every end-to-end metric its
median, first and third quartile (``statistics.quantiles(values, n=4)``),
the quartile distance as a share of the median, and that spread against a
third of the metric's bound from ``BENCHMARK.json``.  Exits 1 if a run
fails, reports incorrect output, or any spread exceeds a third of its
bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))

from svcbench import catalogue  # noqa: E402
from svcbench.stats import quartile_spread  # noqa: E402


_TIMINGS = ("setup_s", "capture_s_per_s", "window_latency_ms_p50", "window_latency_ms_p90")


def _run(workload: str, seed: int) -> dict:
    command = [
        sys.executable,
        str(_HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(catalogue.RUN_SECONDS),
        "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=_HERE.parent, capture_output=True, text=True, timeout=600, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    names = [name for name, _ in catalogue.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bounds = {name: bound for name, _, _, bound in catalogue.END_TO_END}
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = _run(args.workload, seed)
        ok &= bool(result["correct"]) and result["failed"] == 0
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(float(metric["value"]))
            units[name] = metric["unit"]
        timings = " ".join(
            f"{name}={result['metrics'][name]['value']:.5g}"
            for name in _TIMINGS
        )
        print(
            f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
            f"failed={result['failed']} {timings}",
            flush=True,
        )

    print(f"{'metric':44} {'unit':>10} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound/3':>8}")
    for name, series in values.items():
        q1, med, q3, spread = quartile_spread(series)
        bound = bounds[name]
        flag = ""
        if spread > bound / 3:
            flag = "  <- too wide"
            ok = False
        print(f"{name:44} {units[name]:>10} {med:12.5g} {q1:12.5g} {q3:12.5g} "
              f"{spread:8.3f} {bound / 3:8.3f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

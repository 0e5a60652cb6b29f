"""Run one workload of the service benchmark and print its metrics.

    python3 servicebench/run.py --workload solo-400hz --seed 1 --seconds 15 --trace 0

Run from the repository root.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` (windows the service was
asked to serve, and those in passes that failed an output check) and
``metrics`` (every end-to-end metric with ``--trace 0``, every per-layer
metric with ``--trace 1``).  The line before it holds the machine block and
run details.  See ``servicebench/README.md``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported: the service runs on one core, and a
# BLAS thread pool would make timings depend on what else the host runs.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_HERE = Path(__file__).resolve().parent
_SRC = _HERE.parent / "src"


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(_HERE))
    from svcbench import catalogue

    names = [name for name, _ in catalogue.WORKLOADS]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--print-benchmark-json",
        action="store_true",
        help="print the BENCHMARK.json this catalogue defines and exit",
    )
    args = parser.parse_args(argv)
    if args.print_benchmark_json:
        print(json.dumps(catalogue.benchmark_json(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (_SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({_SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(_SRC))

    from svcbench.runner import run

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

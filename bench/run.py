"""Benchmark entry point for iesgame.

    python3 bench/run.py --workload run-modes --seed 1 --seconds 15 --trace 0

Runs one workload in this process (no worker pool), checks every op's
output, prints a readable report and, as the last line of standard
output, one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones from the traced run. The package is imported from
the `src/` tree of the checkout this file sits in; outputs go to
`.bench_runs/` at the checkout root and run directories are removed on
exit. See README.md in this directory.
"""
from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("run-modes", "equilibrium-checks", "revalidate")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole rounds until this much timed "
                             "wall time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "iesgame" / "__init__.py").is_file():
        print(f"no iesgame source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (imports numpy, scipy and iesgame)
    workloads.warm_up()
    import_s = time.perf_counter() - _STARTED

    out_root = ROOT / ".bench_runs"
    scratch = out_root / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        result = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch,
            import_s, trace_file=out_root / f"trace-{args.workload}.json")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for line in result.lines:
        print(line)
    print(json.dumps({
        "correct": result.failed == 0 and result.attempted > 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": workloads.unit(k)}
                    for k, v in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

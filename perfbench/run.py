"""End-to-end and per-layer benchmark of the msga fine-tuning engine.

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and measures the program in its `src/`.
Inputs derive from --seed. The run repeats whole rounds of one workload until
--seconds are spent. A round is one training run with every step timed,
every evaluation image timed one by one, and two set-ups of the workload in
fresh interpreters for `setup_s`. Timings are scaled to a reference host
speed by a calibration kernel timed alongside them (calibrate.py). The
outputs are checked against figures computed apart from the program. With
--trace 0 the last stdout line carries the end-to-end metrics. With
--trace 1 rounds alternate untraced and traced, and the line carries the
per-layer metrics and the tracing overhead. Raw figures go to
.perfbench/runs/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import sys

from boot import boot


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    boot()
    import harness  # imports msga, so only after boot()

    if args.workload not in harness.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(harness.WORKLOADS)}")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return harness.main(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())

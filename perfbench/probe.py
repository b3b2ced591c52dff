"""One set-up of a workload in a fresh interpreter, for `setup_s`.

Run by run.py, never by hand:

    python3 perfbench/probe.py --workload NAME --seed N --trace 0|1

It imports the program, builds the workload's dataset (or loads its
manifest), initialises the model (and restores the eval-manifest
checkpoint), then prints one JSON line and exits. The parent times the span
from starting this process to reading that line. With --trace 1 the line also
carries the set-up layers' times.
"""

from __future__ import annotations

import argparse
import json

from boot import WORK, boot


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    import_ms = boot()
    import msga.model
    import msga.train

    from tracer import Tracer, patch_program
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tracer = Tracer()
    if args.trace:
        patch_program(tracer)
    manifest = str(WORK / wl.name / "data" / "manifest.tsv") if wl.manifest else ""
    cfg = wl.config(args.seed, manifest)
    train_ds, test_ds = msga.train.prepare_splits(cfg)
    params = msga.train.init_model(msga.train.model_config(cfg), cfg.seed)
    if wl.manifest:
        msga.model.restore_checkpoint(params, str(WORK / wl.name / "model.msga"))
    tracer.unpatch()
    print(json.dumps({
        "images": len(train_ds) + len(test_ds),
        "import_ms": import_ms,
        "spans": {name: {"count": tracer.count(name), "total_ns": tracer.total_ns(name)}
                  for name in ("data.generate_synthetic", "data.load_manifest",
                               "model.restore_checkpoint")},
    }), flush=True)


if __name__ == "__main__":
    main()

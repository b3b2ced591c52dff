"""Pinned sha256 digests of the files the CLI and `save_dataset` write.

Every case runs at C11's small geometry, in-process, under one working
directory with a fixed relative `--out` (the config echo records `out`). A
change that keeps the program's output bits passes this test unedited. A change
that moves bits on purpose regenerates the table in the same commit, and says
which digests moved and why:

    PYTHONPATH=src python tests/test_output_digests.py

The digests hold for the numpy version and BLAS build stored next to them; a
mismatch names both environments.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import numpy as np
import pytest

from msga.cli import main
from msga.data import generate_synthetic, save_dataset

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "output_digests.json")

GEOMETRY = ("--image-h", "16", "--image-w", "16", "--embed-dim", "8", "--blocks", "1",
            "--decoder-channels", "8", "--synthetic-count", "30", "--batch-size", "2",
            "--warmup-steps", "10", "--total-steps", "40")
TRAIN_FILES = ("train_log.csv", "model.msga", "config_echo.cfg")
EVAL = ("eval", *GEOMETRY, "--checkpoint", "runs/train-full-adamw/model.msga")

# case -> (command line without --out, files it writes under runs/<case>); run in
# this order, since the eval cases read an earlier case's checkpoint
CASES = {
    **{f"train-{mode}": (("train", *GEOMETRY, "--mode", mode, "--refresh-period", "16"),
                         TRAIN_FILES)
       for mode in ("medsaga", "v1", "v2", "full-adamw")},
    "train-v1-moments-kept": (("train", *GEOMETRY, "--mode", "v1", "--refresh-period", "7",
                               "--refresh-resets-moments", "false"), TRAIN_FILES),
    "train-two-sided-every-step": (("train", *GEOMETRY, "--sided", "two",
                                    "--refresh-period", "1"), TRAIN_FILES),
    "eval-boundary": (EVAL, ("metrics.csv",)),
    "eval-full-mask": ((*EVAL, "--hd95-boundary", "false"), ("metrics.csv",)),
    "eval-oracle": (("eval", *GEOMETRY, "--oracle"), ("metrics.csv",)),
    "ablate": (("ablate", *GEOMETRY, "--refresh-period", "16"),
               ("ablation.csv", *(f"{mode}/{name}" for mode in ("medsaga", "v1", "v2")
                                  for name in TRAIN_FILES))),
    "sweep": (("sweep", *GEOMETRY, "--budgets", "5,10"), ("sweep.csv",)),
}
# save_dataset case -> generate_synthetic(seed, count, h, w, classes); a square and
# a wide image
DATASETS = {"dataset-16x16": (3, 4, 16, 16, 3), "dataset-16x32": (4, 4, 16, 32, 4)}


def environment() -> dict[str, str]:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_build": str(blas.get("openblas configuration", ""))}


def _digests(directory: str, names) -> dict[str, str]:
    out = {}
    for name in names:
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def run_cases(workdir: str) -> dict[str, dict[str, str]]:
    """Every case's {file name: sha256}, produced under workdir."""
    here = os.getcwd()
    os.chdir(workdir)
    try:
        produced = {}
        for case, (argv, files) in CASES.items():
            out = os.path.join("runs", case)
            assert main([*argv, "--out", out]) == 0, case
            produced[case] = _digests(out, files)
        for case, spec in DATASETS.items():
            save_dataset(generate_synthetic(*spec), case)
            produced[case] = _digests(case, sorted(os.listdir(case)))
        return produced
    finally:
        os.chdir(here)


@pytest.fixture(scope="module")
def produced(tmp_path_factory) -> dict[str, dict[str, str]]:
    return run_cases(str(tmp_path_factory.mktemp("digests")))


@pytest.mark.parametrize("case", [*CASES, *DATASETS])
def test_output_bytes_match_the_pinned_digests(produced, case) -> None:
    with open(TABLE, "r", encoding="utf-8") as fh:
        table = json.load(fh)
    want, got = table["digests"][case], produced[case]
    moved = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not moved, (f"{case}: {moved} differ from the pinned digests; the table was made "
                       f"on {table['environment']}, this run is on {environment()}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = run_cases(work)
    with open(TABLE, "w", encoding="utf-8") as fh:
        json.dump({"environment": environment(), "digests": digests}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {sum(map(len, digests.values()))} digests of {len(digests)} cases to {TABLE}")

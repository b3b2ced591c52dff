"""The benchmark's workloads: the configuration each one trains with, and why.

Every input derives from the workload seed. The train workloads draw a
400-image synthetic set (40 patients) and split it patient-wise in half, so
200 held-out images are evaluated per round. eval-manifest writes its own
400-image PGM set with a data seed derived from the workload seed, trains on
the manifest's patient-wise 80% split and evaluates on the whole manifest.

Training itself (initialisation, patient split and batch order) always uses
the shipped default seed. On one dataset, train-refresh's subspace iteration
ran 20k to 49k QR sweeps in 200 steps across four training seeds, and 51k to
58k across five datasets at one training seed: a seeded training run would
make the step cost a property of the trajectory drawn, not of the program.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from msga.config import RunConfig

SYNTHETIC_COUNT = 400
MANIFEST_DATA_SEED_OFFSET = 100_000   # eval-manifest's data seed = seed + offset
TRAIN_SEED = RunConfig().seed         # the shipped default, 7

# train-refresh also replays the SVD calls of a fixed-seed reference run; the
# reference never depends on the workload seed, so its misses repeat exactly
SVD_AUDIT_SEED = 0
SVD_AUDIT_STEPS = 10
SVD_AUDIT_TOL = 1e-8

# default medsaga live optimizer state: 18 AdamW groups plus 14 projected
# groups at rank 4, one-sided (see README)
DEFAULT_MEDSAGA_STATE_BYTES = 47_152


@dataclass(frozen=True)
class Workload:
    name: str
    overrides: dict = field(default_factory=dict)
    manifest: bool = False        # train/evaluate through a written PGM manifest
    svd_audit: bool = False       # replay the reference run's SVD calls each round
    expected_state_bytes: int | None = None

    def config(self, seed: int, manifest_path: str = "") -> RunConfig:
        """The run's configuration; `seed` makes the synthetic data, training uses TRAIN_SEED."""
        return RunConfig(seed=TRAIN_SEED, synthetic_seed=seed, manifest=manifest_path,
                         **self.overrides).validate()


# why each workload: see README.md and BENCHMARK.json
WORKLOADS = {
    wl.name: wl
    for wl in (
        # shipped defaults: per-sample tape record and backward dominate the step
        Workload(
            name="train-default",
            overrides=dict(mode="medsaga", synthetic_count=SYNTHETIC_COUNT, test_fraction=0.5),
            expected_state_bytes=DEFAULT_MEDSAGA_STATE_BYTES,
        ),
        # two-sided, refreshing every step: truncated SVD dominates the step
        Workload(
            name="train-refresh",
            overrides=dict(mode="medsaga", sided="two", refresh_period=1, total_steps=200,
                           warmup_steps=100, synthetic_count=SYNTHETIC_COUNT, test_fraction=0.5),
            svd_audit=True,
        ),
        # full-AdamW memory baseline through a PGM manifest, checkpointed and restored
        Workload(
            name="eval-manifest",
            overrides=dict(mode="full-adamw", total_steps=200, warmup_steps=100),
            manifest=True,
        ),
    )
}

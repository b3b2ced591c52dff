"""Training loop and evaluation over the toy segmentation model.

Batches are averaged single-sample gradients; sample order reshuffles every
epoch with a seed derived from (global seed, epoch index) so runs are
reproducible. Fully fine-tuned groups follow the 0.005-peak
warmup schedule with decoupled weight decay; projected groups follow the
same ramp normalized to the 1e-3 projection base lr and take no decay.

Per-step logs carry only deterministic columns (step, both lrs, loss
components); wall-clock timing goes to the console, never the log, so two
runs of one config are byte-identical.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

import numpy as np

from msga.config import ConfigError, RunConfig
from msga.data import Dataset, few_shot_subset, generate_synthetic, load_manifest, split_by_patient
from msga.losses import dice_score, downsample_labels, hd95
from msga.model import (
    ModelConfig,
    ModelParams,
    build_loss_tape,
    clone_params,
    forward,
    init_model,
    postprocess,
)
from msga.optim import (
    AdamWState,
    Frozen,
    FullAdamW,
    GaLore,
    GaLoreState,
    WarmupSchedule,
    adamw_step,
    assign_strategies,
    galore_step,
    lr_at,
)

LOG_COLUMNS = ("step", "lr_full", "lr_galore", "ce", "dice", "loss")


@dataclass
class TrainResult:
    params: ModelParams
    adamw_states: dict[str, AdamWState]
    galore_states: dict[str, GaLoreState]
    log_rows: list[dict]


def model_config(cfg: RunConfig) -> ModelConfig:
    return ModelConfig(**{f.name: getattr(cfg, f.name) for f in fields(ModelConfig)})


@contextmanager
def _config_key(name: str) -> Iterator[None]:
    """Re-raise a data-layer ValueError as a ConfigError naming the key behind it."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(name, str(exc)) from exc


def load_base_dataset(cfg: RunConfig) -> Dataset:
    if cfg.manifest:
        return load_manifest(cfg.manifest, cfg.classes)
    with _config_key("image_h/image_w"):
        return generate_synthetic(cfg.data_seed, cfg.synthetic_count, cfg.image_h, cfg.image_w,
                                  cfg.classes)


def prepare_splits(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    base = load_base_dataset(cfg)
    with _config_key("manifest" if cfg.manifest else "synthetic_count"):
        train, test = split_by_patient(base, cfg.test_fraction, cfg.seed)
    if cfg.budget:
        with _config_key("budget"):
            train = few_shot_subset(train, cfg.budget, cfg.seed)
    return train, test


def _init_states(
    params: ModelParams, cfg: RunConfig
) -> tuple[dict[str, AdamWState], dict[str, GaLoreState]]:
    adamw_states: dict[str, AdamWState] = {}
    galore_states: dict[str, GaLoreState] = {}
    for g in params.groups:
        if isinstance(g.strategy, FullAdamW):
            adamw_states[g.name] = AdamWState.zeros(g.values.shape)
        elif isinstance(g.strategy, GaLore):
            galore_states[g.name] = GaLoreState(
                **asdict(g.strategy), reset_moments_on_refresh=cfg.refresh_resets_moments)
    return adamw_states, galore_states


def train_model(cfg: RunConfig, train_ds: Dataset, params: ModelParams | None = None) -> TrainResult:
    """Run cfg.total_steps of batched training on train_ds."""
    if len(train_ds) == 0:
        raise ValueError("training dataset is empty")
    if params is None:
        params = init_model(model_config(cfg), cfg.seed)
    params = assign_strategies(clone_params(params), cfg.mode, **cfg.galore_settings())
    adamw_states, galore_states = _init_states(params, cfg)

    horizon = max(cfg.total_steps, cfg.warmup_steps)
    full_sched = WarmupSchedule(cfg.full_lr, cfg.warmup_steps, horizon, cfg.decay_exponent)
    galore_sched = WarmupSchedule(cfg.galore_lr, cfg.warmup_steps, horizon, cfg.decay_exponent)

    images = [s.image for s in train_ds.samples]
    labels = [downsample_labels(s.mask, cfg.patch_size) for s in train_ds.samples]

    log_rows: list[dict] = []
    step = 0
    epoch = 0
    n = len(train_ds)
    while step < cfg.total_steps:
        order = np.random.default_rng([cfg.seed, epoch]).permutation(n)
        for start in range(0, n, cfg.batch_size):
            if step >= cfg.total_steps:
                break
            batch = order[start : start + cfg.batch_size]
            grads: dict[str, np.ndarray] = {}
            ce_sum = 0.0
            dice_sum = 0.0
            loss_sum = 0.0
            for idx in batch:
                tape, ids, ce_id, dice_id, loss_id = build_loss_tape(
                    params, images[idx], labels[idx], cfg
                )
                sample_grads = tape.backward(loss_id)
                for name, vid in ids.items():
                    # fresh arrays only: backward may hand one object to two
                    # consumers, so in-place accumulation is off the table
                    grads[name] = grads.get(name, 0.0) + sample_grads[vid]
                ce_sum += float(tape.value(ce_id))
                dice_sum += float(tape.value(dice_id))
                loss_sum += float(tape.value(loss_id))
            inv = 1.0 / len(batch)
            lr_full = lr_at(full_sched, step)
            lr_galore = lr_at(galore_sched, step)
            for g in params.groups:
                if isinstance(g.strategy, Frozen):
                    continue
                grad = grads[g.name] * inv
                if isinstance(g.strategy, FullAdamW):
                    g.values = adamw_step(
                        g.values, grad, adamw_states[g.name], lr_full,
                        cfg.beta1, cfg.beta2, cfg.eps, cfg.weight_decay,
                    )
                else:
                    g.values = galore_step(
                        g.values, grad, galore_states[g.name], lr_galore,
                        cfg.beta1, cfg.beta2, cfg.eps,
                    )
            log_rows.append({
                "step": step,
                "lr_full": lr_full,
                "lr_galore": lr_galore,
                "ce": ce_sum * inv,
                "dice": dice_sum * inv,
                "loss": loss_sum * inv,
            })
            step += 1
        epoch += 1
    return TrainResult(params, adamw_states, galore_states, log_rows)


# ---------------------------------------------------------------------------
# evaluation


@dataclass(frozen=True)
class ClassMetrics:
    class_index: int
    dice: float
    hd95: float


def evaluate(
    params: ModelParams, ds: Dataset, boundary: bool = True, oracle: bool = False
) -> list[ClassMetrics]:
    """Per-foreground-class dice and HD95, averaged over the dataset.

    Predictions and ground truth are both at token-grid resolution (labels
    majority-pooled by the patch size). Background (class 0) enters the
    training loss but is excluded from reported metrics, following clinical
    convention. With oracle=True the downsampled ground truth is used as the
    prediction, which pins dice to 1 and HD95 to 0.
    """
    cfg = params.config
    if ds.classes != cfg.classes:
        raise ValueError(f"dataset has {ds.classes} classes, model expects {cfg.classes}")
    per_class: dict[int, list[tuple[float, float]]] = {c: [] for c in range(1, cfg.classes)}
    for sample in ds.samples:
        gt = downsample_labels(sample.mask, cfg.patch_size)
        pred = gt if oracle else postprocess(forward(params, sample.image))
        for c in range(1, cfg.classes):
            per_class[c].append((dice_score(pred, gt, c), hd95(pred, gt, c, boundary=boundary)))
    out = []
    for c in range(1, cfg.classes):
        pairs = per_class[c]
        out.append(ClassMetrics(
            class_index=c,
            dice=float(np.mean([p[0] for p in pairs])),
            hd95=float(np.mean([p[1] for p in pairs])),
        ))
    return out


def mean_metrics(rows: list[ClassMetrics]) -> tuple[float, float]:
    return (
        float(np.mean([r.dice for r in rows])),
        float(np.mean([r.hd95 for r in rows])),
    )

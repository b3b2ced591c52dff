"""Training loop and evaluation over the toy segmentation model.

Batches are averaged single-sample gradients; sample order reshuffles every
epoch with a seed derived from (global seed, epoch index) so runs are
reproducible. Fully fine-tuned groups follow the 0.005-peak
warmup schedule with decoupled weight decay; projected groups follow the
same ramp normalized to the 1e-3 projection base lr and take no decay.

Every trained group is a view of one flat weight vector, fully tuned groups
first, then the projected groups side by side in shape classes (same shape and
strategy). Each step adds its samples' adjoints into views of one flat gradient in
that layout, then one `adamw_step` steps the leading slice and one `galore_step`
per class its (k, m, n) stack.

Per-step logs carry only deterministic columns (step, both lrs, loss
components); wall-clock timing goes to the console, never the log, so two
runs of one config are byte-identical.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from msga.config import RunConfig
from msga.data import (
    ConfigError, Dataset, few_shot_subset, generate_synthetic, load_manifest, split_by_patient,
)
# dice_score and hd95 stay importable here by name: perfbench/tracer.py wraps them
from msga.losses import dice_score, downsample_labels, hd95, image_metrics  # noqa: F401
from msga.model import (
    ModelConfig,
    ModelParams,
    build_loss_tape,
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
from msga.tape import Plan, lower

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
    """Re-raise a data-layer ValueError as a ConfigError naming the key behind it;
    a ConfigError already names its own."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(name, str(exc)) from exc


def load_base_dataset(cfg: RunConfig) -> Dataset:
    if cfg.manifest:
        with _config_key("manifest"):
            ds = load_manifest(cfg.manifest, cfg.classes)
        for i, s in enumerate(ds.samples, start=1):
            if s.image.shape != (cfg.image_h, cfg.image_w):
                h, w = s.image.shape
                raise ConfigError("image_h/image_w", f"manifest sample {i} is {h}x{w}, "
                                  f"the config expects {cfg.image_h}x{cfg.image_w}")
        return ds
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


def compile_loss_plan(
    params: ModelParams, image: np.ndarray, labels_grid: np.ndarray, cfg: RunConfig
) -> tuple[Plan, dict[str, int]]:
    """One sample's loss tape compiled to replay on any sample. It reads ce, dice
    and loss, and gives adjoints for the groups that are not frozen."""
    tape, ids, ce, dice, loss = build_loss_tape(params, image, labels_grid, cfg)
    trained = [ids[g.name] for g in params.groups if not isinstance(g.strategy, Frozen)]
    lowered = lower(tape, loss, trained, (ce, dice, loss))
    del tape   # its nodes go before the compile
    return Plan(lowered), ids


def _batches(seed: int, n: int, batch_size: int) -> Iterator[np.ndarray]:
    """Each step's sample indices, without end: every epoch one (seed, epoch)
    permutation of the n samples, cut into batches; an epoch's last may be short."""
    for epoch in itertools.count():
        order = np.random.default_rng([seed, epoch]).permutation(n)
        for start in range(0, n, batch_size):
            yield order[start : start + batch_size]


def train_model(cfg: RunConfig, train_ds: Dataset, params: ModelParams | None = None) -> TrainResult:
    """Run cfg.total_steps of batched training on train_ds; `params` is never written.

    Trained groups of the result are views of a fresh flat vector; frozen groups share
    the input's arrays. A non-finite loss, or gradient of a trained group, raises
    FloatingPointError naming the step and the first such group in group order.
    """
    if len(train_ds) == 0:
        raise ValueError("training dataset is empty")
    if params is None:
        params = init_model(model_config(cfg), cfg.seed)
    params = assign_strategies(params, cfg.mode, **cfg.galore_settings())
    trained = [g for g in params.groups if not isinstance(g.strategy, Frozen)]
    full = [g for g in trained if isinstance(g.strategy, FullAdamW)]
    projected = [g for g in trained if isinstance(g.strategy, GaLore)]
    classes: dict[tuple, list] = {}   # (shape, strategy) -> members, in first-appearance order
    for g in projected:
        classes.setdefault((g.values.shape, g.strategy), []).append(g)
    # the fully tuned groups lead, so AdamW steps one slice; each class is one stack
    layout = full + [g for members in classes.values() for g in members]
    ends = itertools.accumulate(g.values.size for g in layout)
    spans = {g.name: slice(end - g.values.size, end) for g, end in zip(layout, ends)}
    flat_w = np.concatenate([g.values.ravel() for g in layout])
    for g in layout:
        g.values = flat_w[spans[g.name]].reshape(g.values.shape)
    lead = slice(sum(g.values.size for g in full))
    flat_state = AdamWState.zeros((lead.stop,))
    stacks = [(slice(spans[ms[0].name].start, spans[ms[-1].name].stop), (len(ms), *shape),
               GaLoreState(**asdict(strategy), reset_moments_on_refresh=cfg.refresh_resets_moments))
              for (shape, strategy), ms in classes.items()]

    horizon = max(cfg.total_steps, cfg.warmup_steps)
    full_sched = WarmupSchedule(cfg.full_lr, cfg.warmup_steps, horizon, cfg.decay_exponent)
    galore_sched = WarmupSchedule(cfg.galore_lr, cfg.warmup_steps, horizon, cfg.decay_exponent)

    images = [s.image for s in train_ds.samples]
    # one (samples, tokens) array, range-checked before the cast could wrap a label
    labels = np.stack([downsample_labels(s.mask, cfg.patch_size).reshape(-1)
                       for s in train_ds.samples])
    bad = np.flatnonzero(((labels < 0) | (labels >= cfg.classes)).any(axis=1))
    if bad.size:
        raise ValueError(f"training sample {bad[0]}: label values outside 0..{cfg.classes - 1}")
    labels = labels.astype(np.min_scalar_type(cfg.classes - 1))
    # one recorded tape per run, replayed over each batch; trained groups are views of
    # flat_w written in place and frozen ones never rebind, so one weights list serves
    plan, ids = compile_loss_plan(params, images[0], labels[0], cfg)
    weights = [g.values for g in params.groups]
    pieces = [(ids[g.name], spans[g.name], g.values.shape) for g in layout]

    log_rows: list[dict] = []
    batches = _batches(cfg.seed, len(train_ds), cfg.batch_size)
    for step, batch in zip(range(cfg.total_steps), batches):
        # each sample's adjoints add into views of one flat gradient, which goes at the
        # step's end: no sum may outlive the step into the next replay
        flat_g = np.zeros(flat_w.size)
        ce, dice, loss = plan.run([([*weights, images[i]], labels[i]) for i in batch],
                                  {nid: flat_g[span].reshape(shape)
                                   for nid, span, shape in pieces})[0]
        if not np.isfinite(loss):
            raise FloatingPointError(f"training diverged at step {step}: loss is {loss}")
        inv = 1.0 / len(batch)
        lr_full, lr_galore = lr_at(full_sched, step), lr_at(galore_sched, step)
        flat_g *= inv
        if not np.isfinite(flat_g).all():
            name = next(g.name for g in trained if not np.isfinite(flat_g[spans[g.name]]).all())
            raise FloatingPointError(
                f"training diverged at step {step}: gradient of {name} is not finite")
        flat_w[lead] = adamw_step(flat_w[lead], flat_g[lead], flat_state, lr_full,
                                  cfg.beta1, cfg.beta2, cfg.eps, cfg.weight_decay)
        for span, shape, state in stacks:
            w = flat_w[span].reshape(shape)
            w[...] = galore_step(w, flat_g[span].reshape(shape), state, lr_galore,
                                 cfg.beta1, cfg.beta2, cfg.eps)
        del flat_g
        log_rows.append({"step": step, "lr_full": lr_full, "lr_galore": lr_galore,
                         "ce": ce * inv, "dice": dice * inv, "loss": loss * inv})
    adamw_states = {g.name: AdamWState(flat_state.m[spans[g.name]].reshape(g.values.shape),
                                       flat_state.v[spans[g.name]].reshape(g.values.shape),
                                       flat_state.step) for g in full}
    # one state per projected group, in group order, of views into its slice of the class
    sliced = {g.name: _slice_state(st, i) for (*_, st), ms in zip(stacks, classes.values())
              for i, g in enumerate(ms)}
    galore_states = {g.name: sliced[g.name] for g in projected}
    return TrainResult(params, adamw_states, galore_states, log_rows)


def _slice_state(state: GaLoreState, i: int) -> GaLoreState:
    """Slice i of a stacked projected state; its arrays are views of the stack's."""
    p, q = (None if a is None else a[i] for a in (state.p, state.q))
    inner = None if state.inner is None else AdamWState(state.inner.m[i], state.inner.v[i],
                                                        state.inner.step)
    return replace(state, p=p, q=q, inner=inner, refresh_steps=list(state.refresh_steps))


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
    if not ds.samples:
        raise ValueError("evaluation dataset is empty")
    scores = []
    for sample in ds.samples:
        gt = downsample_labels(sample.mask, cfg.patch_size)
        pred = gt if oracle else postprocess(forward(params, sample.image))
        scores.append(image_metrics(pred, gt, cfg.classes, boundary=boundary))
    # one mean per (class, metric) over a contiguous row of images: on a transposed
    # view numpy would sum in another order
    means = np.ascontiguousarray(
        np.reshape(scores, (len(scores), cfg.classes - 1, 2)).transpose(1, 2, 0)).mean(axis=-1)
    return [ClassMetrics(class_index=c, dice=float(dice), hd95=float(hd))
            for c, (dice, hd) in enumerate(means.tolist(), start=1)]


def mean_metrics(rows: list[ClassMetrics]) -> tuple[float, float]:
    return (
        float(np.mean([r.dice for r in rows])),
        float(np.mean([r.hd95 for r in rows])),
    )

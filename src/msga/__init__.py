"""msga: memory-efficient fine-tuning of a small segmentation transformer.

The package trains a toy SAM-shaped model (patch-embed transformer encoder,
learned default prompt embedding, per-token mask decoder) with a low-rank
gradient-projection optimizer wrapped around AdamW, and accounts optimizer
memory analytically. Everything runs on float64 numpy at desk scale.
"""

from msga.linalg import softmax_last_dim, truncated_svd
from msga.losses import (
    LossConfig,
    combined_loss,
    cross_entropy,
    dice_loss,
    dice_score,
    downsample_labels,
    hd95,
)
from msga.model import ModelConfig, ModelParams, ParamGroup, forward, init_model, postprocess
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
    refresh_subspace,
)

__all__ = [
    "AdamWState",
    "Frozen",
    "FullAdamW",
    "GaLore",
    "GaLoreState",
    "LossConfig",
    "ModelConfig",
    "ModelParams",
    "ParamGroup",
    "WarmupSchedule",
    "adamw_step",
    "assign_strategies",
    "combined_loss",
    "cross_entropy",
    "dice_loss",
    "dice_score",
    "downsample_labels",
    "forward",
    "galore_step",
    "hd95",
    "init_model",
    "lr_at",
    "postprocess",
    "refresh_subspace",
    "softmax_last_dim",
    "truncated_svd",
]

__version__ = "0.1.0"

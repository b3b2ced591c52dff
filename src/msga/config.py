"""Run configuration: one flat record, mirrored 1:1 between a key=value file
and command-line flags (flag wins when both are given).

`RunConfig` extends `ModelConfig` and `LossConfig`, whose keys keep their
defaults and rules in those two classes. The projection keys are checked by
the `GaLore` strategy they configure, and the optimizer defaults are read
from `msga.optim`. A `RunConfig` is checked when it is constructed: an
invalid value raises `ConfigError` naming its key, and every float key must
be finite.

Defaults follow the reference training recipe: peak lr 0.005 with a 250-step
warmup for fully fine-tuned groups, base lr 1e-3 for projected groups,
betas 0.9/0.999, decoupled weight decay 0.1, loss weights 0.2 (cross-entropy)
and 0.8 (dice), projection rank 4 with a refresh period of 200 steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from msga.data import ConfigError, check_fields
from msga.losses import LossConfig
from msga.model import ModelConfig
from msga.optim import (
    DEFAULT_BETA1,
    DEFAULT_BETA2,
    DEFAULT_EPS,
    DEFAULT_RANK,
    DEFAULT_WEIGHT_DECAY,
    MODES,
    GaLore,
    WarmupSchedule,
)

# RunConfig key -> keyword of GaLore and assign_strategies
_GALORE_KEYS = {"rank": "rank", "refresh_period": "refresh_period",
                "galore_scale": "scale", "sided": "sided"}


@dataclass(frozen=True)
class RunConfig(LossConfig, ModelConfig):   # fields: ModelConfig's, LossConfig's, then these
    mode: str = "medsaga"
    seed: int = 7
    out: str = "out"

    # optimizer
    full_lr: float = 0.005
    galore_lr: float = 0.001
    beta1: float = DEFAULT_BETA1
    beta2: float = DEFAULT_BETA2
    weight_decay: float = DEFAULT_WEIGHT_DECAY
    eps: float = DEFAULT_EPS
    rank: int = DEFAULT_RANK
    refresh_period: int = GaLore.refresh_period
    galore_scale: float = GaLore.scale
    sided: str = GaLore.sided
    refresh_resets_moments: bool = True

    # schedule
    warmup_steps: int = 250
    total_steps: int = 500
    decay_exponent: float = WarmupSchedule.decay_exponent
    batch_size: int = 4

    # data
    manifest: str = ""          # empty: generate synthetic data
    synthetic_count: int = 120
    synthetic_seed: int = -1    # negative: derive from the global seed
    test_fraction: float = 0.2
    budget: int = 0             # images for training; 0 means the whole train split
    budgets: tuple[int, ...] = ()  # few-shot sweep budgets, ascending

    # metrics
    hd95_boundary: bool = True

    def __post_init__(self) -> None:
        ModelConfig.__post_init__(self)
        LossConfig.__post_init__(self)
        try:
            GaLore(**self.galore_settings())
        except ConfigError as exc:
            key = next(k for k, arg in _GALORE_KEYS.items() if arg == exc.field)
            raise ConfigError(key, exc.detail) from None
        check_fields(self, ("mode",), lambda v: v in MODES, f"be {'|'.join(MODES)}")
        check_fields(self, ("seed", "total_steps", "budget"), lambda v: v >= 0, "be non-negative")
        check_fields(self, ("warmup_steps", "batch_size", "synthetic_count"), lambda v: v >= 1,
                     "be a positive integer")
        check_fields(self, ("full_lr", "galore_lr", "weight_decay", "decay_exponent"),
                     lambda v: 0.0 <= v < math.inf, "be non-negative and finite")
        # eps = 0 divides 0 by 0 wherever a gradient is exactly zero
        check_fields(self, ("eps",), lambda v: 0.0 < v < math.inf, "be positive and finite")
        check_fields(self, ("beta1", "beta2"), lambda v: 0.0 <= v < 1.0, "lie in [0, 1)")
        check_fields(self, ("test_fraction",), lambda v: 0.0 < v < 1.0, "lie in (0, 1)")
        check_fields(self, ("budgets",), lambda v: all(b >= 1 for b in v) and list(v) == sorted(v),
                     "be positive and ascending")

    def validate(self) -> "RunConfig":
        """A RunConfig is checked when constructed; kept for callers that chain it."""
        return self

    def galore_settings(self) -> dict[str, object]:
        """Keyword arguments for `GaLore` and `assign_strategies`."""
        return {arg: getattr(self, key) for key, arg in _GALORE_KEYS.items()}

    @property
    def data_seed(self) -> int:
        return self.seed if self.synthetic_seed < 0 else self.synthetic_seed


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _parse_value(name: str, kind, raw: str):
    raw = raw.strip()
    try:
        if kind is bool:
            if raw.lower() not in _BOOL_WORDS:
                raise ValueError(f"expected true/false, got {raw!r}")
            return _BOOL_WORDS[raw.lower()]
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw
        # tuple[int, ...]: comma-separated list, empty string allowed
        if raw == "":
            return ()
        return tuple(int(part) for part in raw.split(","))
    except ValueError as exc:
        raise ConfigError(name, str(exc)) from None


def config_field_types() -> dict[str, type]:
    defaults = RunConfig()
    return {f.name: type(getattr(defaults, f.name)) for f in fields(RunConfig)}


def parse_config_file(path: str) -> dict[str, object]:
    """key=value lines with # comments; unknown keys are rejected by name."""
    types = config_field_types()
    out: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError("<file>", f"{path}:{lineno}: expected key=value, got {text!r}")
            key, raw = text.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in types:
                raise ConfigError(key, f"unknown key at {path}:{lineno}")
            out[key] = _parse_value(key, types[key], raw)
    return out


def build_config(file_values: dict[str, object], overrides: dict[str, object]) -> RunConfig:
    return RunConfig(**{**file_values, **overrides})


def config_as_text(cfg: RunConfig) -> str:
    """Config echo in the same key=value syntax the parser accepts."""
    lines = []
    for f in fields(RunConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"

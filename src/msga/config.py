"""Run configuration: one flat record, mirrored 1:1 between a key=value file
and command-line flags (flag wins when both are given).

Defaults follow the reference training recipe: peak lr 0.005 with a 250-step
warmup for fully fine-tuned groups, base lr 1e-3 for projected groups,
betas 0.9/0.999, decoupled weight decay 0.1, loss weights 0.2 (cross-entropy)
and 0.8 (dice), projection rank 4 with a refresh period of 200 steps.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from msga.optim import MODES


class ConfigError(ValueError):
    """Invalid configuration; `field` names the offending key."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"config field {field_name!r}: {message}")
        self.field = field_name


@dataclass
class RunConfig:
    mode: str = "medsaga"
    seed: int = 7
    out: str = "out"

    # model
    image_h: int = 32
    image_w: int = 32
    patch_size: int = 4
    embed_dim: int = 16
    blocks: int = 2
    classes: int = 3
    decoder_channels: int = 16

    # optimizer
    full_lr: float = 0.005
    galore_lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.1
    eps: float = 1e-8
    ce_weight: float = 0.2
    dice_smooth: float = 1e-5
    rank: int = 4
    refresh_period: int = 200
    galore_scale: float = 1.0
    sided: str = "one"
    refresh_resets_moments: bool = True

    # schedule
    warmup_steps: int = 250
    total_steps: int = 500
    decay_exponent: float = 0.9
    batch_size: int = 4

    # data
    manifest: str = ""          # empty: generate synthetic data
    synthetic_count: int = 120
    synthetic_seed: int = -1    # -1: derive from the global seed
    test_fraction: float = 0.2
    budget: int = 0             # images for training; 0 means the whole train split
    budgets: tuple[int, ...] = ()  # few-shot sweep budgets, ascending

    # metrics
    hd95_boundary: bool = True

    def validate(self) -> "RunConfig":
        if self.mode not in MODES:
            raise ConfigError("mode", f"must be {'|'.join(MODES)}, got {self.mode!r}")
        if self.sided not in ("one", "two"):
            raise ConfigError("sided", f"must be one|two, got {self.sided!r}")
        positives = (
            "patch_size", "embed_dim", "blocks", "decoder_channels",
            "rank", "refresh_period", "warmup_steps", "batch_size", "synthetic_count",
        )
        for name in positives:
            if getattr(self, name) < 1:
                raise ConfigError(name, "must be a positive integer")
        if self.classes < 2:
            raise ConfigError("classes", "need at least 2 (background + 1)")
        if self.total_steps < 0:
            raise ConfigError("total_steps", "must be non-negative")
        if self.image_h % self.patch_size or self.image_w % self.patch_size:
            raise ConfigError("patch_size", "must divide image_h and image_w")
        for name in ("full_lr", "galore_lr", "weight_decay", "eps", "galore_scale"):
            if getattr(self, name) < 0.0:
                raise ConfigError(name, "must be non-negative")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(name, "must lie in [0, 1)")
        if not 0.0 <= self.ce_weight <= 1.0:
            raise ConfigError("ce_weight", "must lie in [0, 1]")
        if self.dice_smooth <= 0.0:
            raise ConfigError("dice_smooth", "must be positive")
        if not 0.0 < self.test_fraction < 1.0:
            raise ConfigError("test_fraction", "must lie in (0, 1)")
        if self.budget < 0:
            raise ConfigError("budget", "must be non-negative")
        if any(b < 1 for b in self.budgets):
            raise ConfigError("budgets", "every budget must be positive")
        if list(self.budgets) != sorted(self.budgets):
            raise ConfigError("budgets", "budgets must be ascending")
        return self

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
    merged = dict(file_values)
    merged.update({k: v for k, v in overrides.items() if v is not None})
    cfg = RunConfig(**merged)
    return cfg.validate()


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

"""AdamW with decoupled weight decay, the low-rank gradient-projection
wrapper around it, the warmup learning-rate schedule, and per-group strategy
assignment.

The projection wrapper keeps a periodically refreshed orthonormal basis for
the gradient, runs the stateful AdamW rule inside the projected space, and
maps the update back to full size before applying it to the weights. It
steps a matrix, or a (k, m, n) stack with each slice as if stepped alone:

    g_tilde = P rho(P^T g Q) Q^T        (two-sided)
    w      <- w - lr * scale * g_tilde

One-sided mode keeps a single projector on the shorter dimension (left
projector P when rows <= cols, right projector Q otherwise), so the moment
buffers live on an r x max(m, n) slab. The basis is recomputed from the
current gradient every `refresh_period` steps, and the projected-space
moments are reset at each refresh because they are expressed in the old
basis (set reset_moments_on_refresh=False to carry them across instead).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from msga.data import check_fields
from msga.linalg import truncated_svd
from msga.model import ModelParams

DEFAULT_BETA1 = 0.9
DEFAULT_BETA2 = 0.999
DEFAULT_EPS = 1e-8
DEFAULT_WEIGHT_DECAY = 0.1
DEFAULT_RANK = 4
DEFAULT_REFRESH_PERIOD = 200

MODES = ("medsaga", "v1", "v2", "full-adamw")


# ---------------------------------------------------------------------------
# strategies


@dataclass(frozen=True)
class FullAdamW:
    pass


@dataclass(frozen=True)
class Frozen:
    pass


@dataclass(frozen=True)
class GaLore:
    rank: int
    refresh_period: int = DEFAULT_REFRESH_PERIOD
    scale: float = 1.0
    sided: str = "one"

    def __post_init__(self) -> None:
        check_fields(self, ("rank", "refresh_period"), lambda v: v >= 1, "be a positive integer")
        check_fields(self, ("scale",), lambda v: 0.0 <= v < math.inf, "be non-negative and finite")
        check_fields(self, ("sided",), lambda v: v in ("one", "two"), "be one|two")


Strategy = FullAdamW | GaLore | Frozen


# ---------------------------------------------------------------------------
# AdamW


@dataclass
class AdamWState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

    @classmethod
    def zeros(cls, shape: tuple[int, ...]) -> "AdamWState":
        return cls(m=np.zeros(shape), v=np.zeros(shape))


def adamw_step(
    w: np.ndarray,
    g: np.ndarray,
    state: AdamWState,
    lr: float,
    beta1: float = DEFAULT_BETA1,
    beta2: float = DEFAULT_BETA2,
    eps: float = DEFAULT_EPS,
    weight_decay: float = 0.0,
) -> np.ndarray:
    """One AdamW update; returns the new weights and advances `state` in place.

    Weight decay is decoupled: it is applied directly to the pre-update
    weights, never mixed into the gradient moments.
    """
    if w.shape != g.shape or w.shape != state.m.shape:
        raise ValueError(f"shape mismatch: w {w.shape}, g {g.shape}, state {state.m.shape}")
    _check_lr(lr)
    # w - lr * m_hat / denom - lr * weight_decay * w, in the two arrays the moments made
    out, denom = _adamw_moments(state, g, beta1, beta2, eps)
    out *= lr
    out /= denom
    np.subtract(w, out, out=out)
    out -= np.multiply(lr * weight_decay, w, out=denom)
    return out


def _check_lr(lr: float) -> None:
    if not 0.0 <= lr < math.inf:   # a NaN fails both comparisons
        raise ValueError(f"lr must be non-negative and finite, got {lr}")


def _adamw_moments(
    state: AdamWState, g: np.ndarray, beta1, beta2, eps
) -> tuple[np.ndarray, np.ndarray]:
    """Advance the moments to fresh arrays, m = beta1 m + (1 - beta1) g and v = beta2 v +
    (1 - beta2) g g; returns (m_hat, sqrt(v_hat) + eps), two arrays only the caller holds."""
    state.step += 1
    t = np.multiply(1.0 - beta1, g)
    state.m = np.multiply(beta1, state.m)
    state.m += t
    np.multiply(1.0 - beta2, g, out=t)
    t *= g
    state.v = np.multiply(beta2, state.v)
    state.v += t
    denom = np.divide(state.v, 1.0 - beta2**state.step)
    np.sqrt(denom, out=denom)
    denom += eps
    return np.divide(state.m, 1.0 - beta1**state.step, out=t), denom


# ---------------------------------------------------------------------------
# gradient low-rank projection


@dataclass
class GaLoreState:
    rank: int
    refresh_period: int
    scale: float = 1.0
    sided: str = "one"
    regularizer: str = "adamw"          # "identity" passes the projection through (test mode)
    reset_moments_on_refresh: bool = True
    p: np.ndarray | None = None         # left projector, (m, r) or (k, m, r) for a stack
    q: np.ndarray | None = None         # right projector, (n, r) or (k, n, r)
    inner: AdamWState | None = None
    step: int = 0
    refresh_steps: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        GaLore(self.rank, self.refresh_period, self.scale, self.sided)  # the strategy's rules
        check_fields(self, ("regularizer",), lambda v: v in ("adamw", "identity"),
                     "be adamw|identity")


def refresh_subspace(
    g: np.ndarray, r: int, sided: str = "one"
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Projection bases from the current gradient's top-r singular vectors.

    Two-sided returns both left and right bases. One-sided returns only the
    basis on the shorter dimension: (p, None) when rows <= cols, (None, q)
    otherwise. A (k, m, n) stack takes one SVD per slice, factors stacked.
    """
    factors = [truncated_svd(s, r) for s in g.reshape(-1, *g.shape[-2:])]
    p, q = (np.stack([f[i] for f in factors]).reshape(*g.shape[:-2], -1, r) for i in (0, 2))
    if sided == "two":
        return p, q
    if g.shape[-2] <= g.shape[-1]:
        return p, None
    return None, q


def galore_step(
    w: np.ndarray,
    g: np.ndarray,
    state: GaLoreState,
    lr: float,
    beta1: float = DEFAULT_BETA1,
    beta2: float = DEFAULT_BETA2,
    eps: float = DEFAULT_EPS,
) -> np.ndarray:
    """One projected update of a matrix or a (k, m, n) stack; returns the new
    weights and advances `state`.

    Every `refresh_period` steps (including the first call) the projectors
    are recomputed from the incoming gradient and, by default, the inner
    moments are reset. The projected gradient is regularized by the AdamW
    rule (or passed through untouched in identity mode), reconstructed to
    full size, and applied as a descent step scaled by lr and state.scale.
    """
    if w.shape != g.shape:
        raise ValueError(f"shape mismatch: w {w.shape}, g {g.shape}")
    _check_lr(lr)
    if state.step % state.refresh_period == 0:
        state.p, state.q = refresh_subspace(g, state.rank, state.sided)
        state.refresh_steps.append(state.step)
        if state.reset_moments_on_refresh:
            state.inner = None
    state.step += 1

    core = g if state.p is None else np.swapaxes(state.p, -1, -2) @ g
    core = core if state.q is None else core @ state.q
    if state.inner is None:
        state.inner = AdamWState.zeros(core.shape)

    if state.regularizer == "identity":
        update = core
    else:
        update, denom = _adamw_moments(state.inner, core, beta1, beta2, eps)
        update /= denom

    g_tilde = update if state.p is None else state.p @ update
    g_tilde = g_tilde if state.q is None else g_tilde @ np.swapaxes(state.q, -1, -2)
    return w - lr * state.scale * g_tilde


# ---------------------------------------------------------------------------
# warmup schedule


@dataclass(frozen=True)
class WarmupSchedule:
    base_lr: float
    warmup_steps: int
    total_steps: int
    decay_exponent: float = 0.9

    def __post_init__(self) -> None:
        if self.base_lr < 0.0:
            raise ValueError(f"base_lr must be non-negative, got {self.base_lr}")
        if self.warmup_steps < 1 or self.total_steps < self.warmup_steps:
            raise ValueError(
                f"need 1 <= warmup_steps <= total_steps, got "
                f"{self.warmup_steps} and {self.total_steps}"
            )


def lr_at(schedule: WarmupSchedule, step: int) -> float:
    """Linear ramp to base_lr over the warmup, then polynomial decay to zero."""
    if step < 0:
        raise ValueError(f"step must be non-negative, got {step}")
    wp = schedule.warmup_steps
    if step < wp:
        return schedule.base_lr * (step + 1) / wp
    span = schedule.total_steps - wp
    if span == 0:
        return 0.0
    frac = min(1.0, (step - wp) / span)
    return schedule.base_lr * (1.0 - frac) ** schedule.decay_exponent


# ---------------------------------------------------------------------------
# strategy assignment


def assign_strategies(params: ModelParams, mode: str, rank: int = DEFAULT_RANK,
                      **galore) -> ModelParams:
    """Tag every parameter group with its fine-tuning strategy for `mode`.

    medsaga    projection on every encoder group, plain AdamW on prompt+decoder
    v1         projection only on the encoder attention q/k/v/o groups
    v2         like medsaga but prompt+decoder are frozen
    full-adamw plain AdamW everywhere (memory baseline)

    1-row / 1-column encoder parameters (biases, layernorm gains) cannot be
    rank-projected and always fall back to plain AdamW; the projection rank
    is clamped to each group's smaller dimension. The other `GaLore` settings
    (refresh_period, scale, sided) pass through as keywords.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}, expected one of {MODES}")

    def galore_for(g) -> Strategy:
        m, n = g.values.shape
        if min(m, n) < 2:
            return FullAdamW()
        return GaLore(min(rank, m, n), **galore)

    groups = []
    for g in params.groups:
        encoder = g.role.startswith("encoder")
        if mode == "full-adamw":
            strategy: Strategy = FullAdamW()
        elif mode == "medsaga":
            strategy = galore_for(g) if encoder else FullAdamW()
        elif mode == "v1":
            strategy = galore_for(g) if g.role == "encoder-attention" else FullAdamW()
        else:  # v2
            strategy = galore_for(g) if encoder else Frozen()
        groups.append(replace(g, strategy=strategy))
    return ModelParams(config=params.config, groups=groups)

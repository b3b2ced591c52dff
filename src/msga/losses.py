"""Training loss (weighted cross-entropy + soft dice over downsampled labels)
and evaluation metrics (dice score, HD95).

Logits come in as an (h', w', k) tensor at token-grid resolution; ground-truth
label maps at full resolution are majority-pooled down to the same grid. The
soft dice averages over all k classes, background included; the reported
dice_score / hd95 metrics are per-class and by convention computed on
foreground classes only by callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from msga.data import check_fields
from msga.tape import _fwd_soft_dice, _fwd_softmax_ce

DEFAULT_CE_WEIGHT = 0.2   # weight on cross-entropy; dice gets the complement
DEFAULT_DICE_SMOOTH = 1e-5


@dataclass(frozen=True)
class LossConfig:
    ce_weight: float = DEFAULT_CE_WEIGHT
    dice_smooth: float = DEFAULT_DICE_SMOOTH

    def __post_init__(self) -> None:
        check_fields(self, ("ce_weight",), lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]")
        check_fields(self, ("dice_smooth",), lambda v: 0.0 < v < math.inf, "be positive and finite")


def downsample_labels(labels: np.ndarray, factor: int) -> np.ndarray:
    """Majority-pool an integer label map by `factor`; ties go to the lowest class."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError(f"label map must be 2-D, got shape {labels.shape}")
    h, w = labels.shape
    if factor < 1 or h % factor or w % factor:
        raise ValueError(f"label map {h}x{w} not divisible by factor {factor}")
    if labels.min(initial=0) < 0:
        raise ValueError("label values must be non-negative")
    gh, gw = h // factor, w // factor
    k = int(labels.max(initial=0)) + 1
    # one count per (cell, class) code; argmax breaks ties toward the lowest class index
    cells = np.arange(gh * gw).reshape(gh, 1, gw, 1)
    codes = cells * k + labels.reshape(gh, factor, gw, factor).astype(np.intp, copy=False)
    counts = np.bincount(codes.ravel(), minlength=gh * gw * k).reshape(gh, gw, k)
    return np.argmax(counts, axis=-1).astype(labels.dtype)


def _check_pair(m: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h, w, k) logits and (h, w) labels flattened to the tape's (pixels, k) and (pixels,)."""
    m = np.asarray(m, dtype=np.float64)
    y = np.asarray(y)
    if m.ndim != 3:
        raise ValueError(f"mask logits must be (h, w, k), got shape {m.shape}")
    if y.shape != m.shape[:2]:
        raise ValueError(f"label map {y.shape} does not match logits grid {m.shape[:2]}")
    return m.reshape(-1, m.shape[2]), y.reshape(-1)


def cross_entropy(m: np.ndarray, y: np.ndarray) -> float:
    """Mean over pixels of -log softmax(m)[y]: the tape's softmax-ce forward."""
    z, labels = _check_pair(m, y)
    return float(_fwd_softmax_ce([z], {"labels": labels}))


def dice_loss(m: np.ndarray, y: np.ndarray, smooth: float = DEFAULT_DICE_SMOOTH) -> float:
    """One minus the mean per-class soft dice: the tape's soft-dice forward."""
    z, labels = _check_pair(m, y)
    return float(_fwd_soft_dice([z], {"labels": labels, "smooth": smooth}))


def combined_loss(m: np.ndarray, y: np.ndarray, config: LossConfig) -> float:
    """ce_weight * CE + (1 - ce_weight) * dice; the endpoints reduce exactly."""
    lam = config.ce_weight
    return lam * cross_entropy(m, y) + (1.0 - lam) * dice_loss(m, y, config.dice_smooth)


# ---------------------------------------------------------------------------
# evaluation metrics


def dice_score(pred: np.ndarray, gt: np.ndarray, c: int) -> float:
    """2|P∩G| / (|P|+|G|) for class c; 1.0 when both masks are empty."""
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"label maps differ in shape: {pred.shape} vs {gt.shape}")
    p = pred == c
    g = gt == c
    total = int(p.sum()) + int(g.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((p & g).sum()) / total


def _boundary_pixels(mask: np.ndarray) -> np.ndarray:
    """Mask pixels with at least one 4-neighbour outside the mask (image border counts)."""
    padded = np.pad(mask, 1, constant_values=False)
    interior = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    return mask & ~interior


def hd95(pred: np.ndarray, gt: np.ndarray, c: int, boundary: bool = True) -> float:
    """95th percentile of pooled directed nearest-neighbour distances for class c.

    Directed distances run from every pred-set pixel to its nearest gt-set
    pixel and vice versa; the two sets are pooled and the percentile is taken
    with linear interpolation between order statistics. With boundary=True
    (default) the sets are boundary pixels, otherwise full masks. Conventions:
    0.0 when both masks are empty, the image diagonal hypot(h, w) when exactly
    one is. Nearest neighbours come from the exact all-pairs distance matrix:
    each set holds at most T = h*w points, so it has at most T^2 entries, one
    attention score matrix's worth for the token-grid maps evaluation passes.
    """
    pred = np.asarray(pred)
    gt = np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"label maps differ in shape: {pred.shape} vs {gt.shape}")
    pm = pred == c
    gm = gt == c
    if not pm.any() and not gm.any():
        return 0.0
    if not pm.any() or not gm.any():
        return float(np.hypot(*pred.shape))
    if boundary:
        pm = _boundary_pixels(pm)
        gm = _boundary_pixels(gm)
    a = np.argwhere(pm).astype(np.float64)
    b = np.argwhere(gm).astype(np.float64)
    d = np.sqrt(((a[:, None] - b[None]) ** 2).sum(-1))
    pooled = np.sort(np.concatenate([d.min(axis=1), d.min(axis=0)]))
    # linear interpolation between order statistics, written out so the exact
    # arithmetic is pinned: value = d[lo] + frac * (d[hi] - d[lo])
    pos = 0.95 * (pooled.size - 1)
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    return float(pooled[lo] + (pos - lo) * (pooled[hi] - pooled[lo]))

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
from msga.tape import Tape

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


def _logits_leaf(m: np.ndarray, y: np.ndarray) -> tuple[Tape, int, np.ndarray]:
    """(h, w, k) logits as the (pixels, k) leaf of a fresh tape, and (h, w) labels flat."""
    m = np.asarray(m, dtype=np.float64)
    y = np.asarray(y)
    if m.ndim != 3:
        raise ValueError(f"mask logits must be (h, w, k), got shape {m.shape}")
    if y.shape != m.shape[:2]:
        raise ValueError(f"label map {y.shape} does not match logits grid {m.shape[:2]}")
    tape = Tape()
    return tape, tape.leaf(m.reshape(-1, m.shape[2])), y.reshape(-1)


def cross_entropy(m: np.ndarray, y: np.ndarray) -> float:
    """Mean over pixels of -log softmax(m)[y]: the tape's softmax-ce forward."""
    tape, z, labels = _logits_leaf(m, y)
    return float(tape.value(tape.softmax_ce(z, labels)))


def dice_loss(m: np.ndarray, y: np.ndarray, smooth: float = DEFAULT_DICE_SMOOTH) -> float:
    """One minus the mean per-class soft dice: the tape's soft-dice forward."""
    tape, z, labels = _logits_leaf(m, y)
    return float(tape.value(tape.soft_dice(z, labels, smooth)))


def combined_loss(m: np.ndarray, y: np.ndarray, config: LossConfig) -> float:
    """ce_weight * CE + (1 - ce_weight) * dice; the endpoints reduce exactly."""
    lam = config.ce_weight
    return lam * cross_entropy(m, y) + (1.0 - lam) * dice_loss(m, y, config.dice_smooth)


# ---------------------------------------------------------------------------
# evaluation metrics


_SQ_DIST: dict[tuple[int, int], np.ndarray] = {}


def _sq_dist_table(h: int, w: int) -> np.ndarray:
    """Read-only integer squared distances between the h*w cells of a grid, memoised per shape."""
    table = _SQ_DIST.get((h, w))
    if table is None:
        r, c = np.divmod(np.arange(h * w), w)
        table = (r[:, None] - r) ** 2 + (c[:, None] - c) ** 2
        table.setflags(write=False)
        _SQ_DIST[(h, w)] = table
    return table


def _class_masks(pred: np.ndarray, gt: np.ndarray, classes) -> np.ndarray:
    """(2n, h, w) stack of the pred and gt masks of each class, pred first in each pair."""
    pred, gt = np.asarray(pred), np.asarray(gt)
    if pred.shape != gt.shape:
        raise ValueError(f"label maps differ in shape: {pred.shape} vs {gt.shape}")
    c = np.asarray(classes).reshape(-1, 1, 1, 1)
    return (np.stack([pred, gt]) == c).reshape(-1, *pred.shape)


def _boundaries(masks: np.ndarray) -> np.ndarray:
    """Mask pixels with at least one 4-neighbour outside the mask; border pixels always count."""
    interior = np.zeros_like(masks)
    interior[:, 1:-1, 1:-1] = (masks[:, :-2, 1:-1] & masks[:, 2:, 1:-1]
                               & masks[:, 1:-1, :-2] & masks[:, 1:-1, 2:])
    return masks & ~interior


def _dices(masks: np.ndarray) -> list[float]:
    """`dice_score` of each (pred, gt) pair of a `_class_masks` stack."""
    sizes = masks.sum(axis=(1, 2)).tolist()
    both = (masks[0::2] & masks[1::2]).sum(axis=(1, 2)).tolist()
    return [2.0 * o / (p + g) if p + g else 1.0 for o, p, g in zip(both, sizes[::2], sizes[1::2])]


def _hd95s(masks: np.ndarray, boundary: bool) -> list[float]:
    """`hd95` of each (pred, gt) pair of a `_class_masks` stack."""
    n, h, w = masks.shape
    present = masks.any(axis=(1, 2)).tolist()
    sets = (_boundaries(masks) if boundary else masks).reshape(n, -1)
    table = _sq_dist_table(h, w)
    out = []
    for i in range(0, n, 2):
        if not (present[i] and present[i + 1]):
            out.append(float(np.hypot(h, w)) if present[i] or present[i + 1] else 0.0)
            continue
        d2 = table[sets[i]][:, sets[i + 1]]
        # sqrt is monotone and correctly rounded, so sqrt(min d2) has the bits of min sqrt(d2)
        pooled = np.sqrt(np.sort(np.concatenate([d2.min(axis=1), d2.min(axis=0)])))
        # linear interpolation between order statistics, written out so the exact
        # arithmetic is pinned: value = d[lo] + frac * (d[hi] - d[lo])
        pos = 0.95 * (pooled.size - 1)
        lo = int(np.floor(pos))
        hi = int(np.ceil(pos))
        out.append(float(pooled[lo] + (pos - lo) * (pooled[hi] - pooled[lo])))
    return out


def image_metrics(pred: np.ndarray, gt: np.ndarray, classes: int,
                  boundary: bool = True) -> list[tuple[float, float]]:
    """(`dice_score`, `hd95`) of each foreground class 1..classes-1, from one mask stack."""
    masks = _class_masks(pred, gt, range(1, classes))
    return list(zip(_dices(masks), _hd95s(masks, boundary)))


def dice_score(pred: np.ndarray, gt: np.ndarray, c: int) -> float:
    """2|P∩G| / (|P|+|G|) for class c; 1.0 when both masks are empty."""
    return _dices(_class_masks(pred, gt, (c,)))[0]


def hd95(pred: np.ndarray, gt: np.ndarray, c: int, boundary: bool = True) -> float:
    """95th percentile of pooled directed nearest-neighbour distances for class c.

    Directed distances run from every pred-set pixel to its nearest gt-set
    pixel and vice versa; the two sets are pooled and the percentile is taken
    with linear interpolation between order statistics. With boundary=True
    (default) the sets are boundary pixels, otherwise full masks. Conventions:
    0.0 when both masks are empty, the image diagonal hypot(h, w) when exactly
    one is. Each directed minimum is exact, read from a memoised integer table of
    squared grid-cell distances indexed by the two sets; only the pooled minima are rooted.
    """
    return _hd95s(_class_masks(pred, gt, (c,)), boundary)[0]

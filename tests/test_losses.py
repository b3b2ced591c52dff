from __future__ import annotations

import math

import numpy as np
import pytest

from msga.losses import (
    LossConfig,
    combined_loss,
    cross_entropy,
    dice_loss,
    dice_score,
    downsample_labels,
    hd95,
)
from msga.tape import Tape, finite_diff_check


# ---------------------------------------------------------------------------
# oracles, written independently of the package internals


def ce_enumeration_oracle(m: np.ndarray, y: np.ndarray) -> float:
    total = 0.0
    h, w, k = m.shape
    for i in range(h):
        for j in range(w):
            exps = [math.exp(m[i, j, c]) for c in range(k)]
            prob = exps[y[i, j]] / sum(exps)
            total += -math.log(prob)
    return total / (h * w)


def dice_enumeration_oracle(m: np.ndarray, y: np.ndarray, smooth: float) -> float:
    h, w, k = m.shape
    probs = np.zeros((h, w, k))
    for i in range(h):
        for j in range(w):
            exps = [math.exp(m[i, j, c]) for c in range(k)]
            z = sum(exps)
            for c in range(k):
                probs[i, j, c] = exps[c] / z
    acc = 0.0
    for c in range(k):
        inter = sum(probs[i, j, c] for i in range(h) for j in range(w) if y[i, j] == c)
        psum = probs[:, :, c].sum()
        gsum = float((y == c).sum())
        acc += (2.0 * inter + smooth) / (psum + gsum + smooth)
    return 1.0 - acc / k


def hd95_all_pairs_oracle(pred: np.ndarray, gt: np.ndarray, c: int,
                          boundary_mode: bool = True) -> float:
    """O(n^2) route: boundary (or full) sets, directed nearest neighbours by
    exhaustive pairing, pooled 95th percentile by manual interpolation."""
    pm = pred == c
    gm = gt == c
    if not pm.any() and not gm.any():
        return 0.0
    if not pm.any() or not gm.any():
        return float(math.hypot(*pred.shape))

    def boundary(mask):
        pts = []
        h, w = mask.shape
        for i in range(h):
            for j in range(w):
                if not mask[i, j]:
                    continue
                if not boundary_mode:
                    pts.append((i, j))
                    continue
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    ni, nj = i + di, j + dj
                    if not (0 <= ni < h and 0 <= nj < w) or not mask[ni, nj]:
                        pts.append((i, j))
                        break
        return pts

    a = boundary(pm)
    b = boundary(gm)
    dists = []
    for src, dst in ((a, b), (b, a)):
        for (i, j) in src:
            dists.append(min(math.sqrt((i - x) ** 2 + (j - y) ** 2) for (x, y) in dst))
    dists.sort()
    pos = 0.95 * (len(dists) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    return dists[lo] + (pos - lo) * (dists[hi] - dists[lo])


# ---------------------------------------------------------------------------
# downsampling


def test_downsample_constant_map() -> None:
    labels = np.full((8, 8), 2)
    assert np.array_equal(downsample_labels(labels, 4), np.full((2, 2), 2))


def test_downsample_factor_one_is_identity() -> None:
    labels = np.random.default_rng(0).integers(0, 3, (6, 6))
    assert np.array_equal(downsample_labels(labels, 1), labels)


def test_downsample_majority_hand_case() -> None:
    labels = np.array([
        [1, 1, 0, 2],
        [1, 0, 2, 2],
        [0, 0, 2, 0],
        [0, 0, 0, 0],
    ])
    # top-left block is 3x label 1 vs 1x label 0; top-right 3x label 2
    out = downsample_labels(labels, 2)
    assert np.array_equal(out, np.array([[1, 2], [0, 0]]))


def test_downsample_tie_breaks_to_lowest_class() -> None:
    labels = np.array([[0, 1], [1, 0]])
    assert downsample_labels(labels, 2)[0, 0] == 0


def test_downsample_commutes_with_label_permutation() -> None:
    rng = np.random.default_rng(17)
    labels = rng.integers(0, 3, (8, 8))
    perm = np.array([2, 0, 1])
    # permutation changes tie-breaks, so only check on a tie-free map
    labels = np.repeat(np.repeat(rng.integers(0, 3, (2, 2)), 4, axis=0), 4, axis=1)
    assert np.array_equal(
        downsample_labels(perm[labels], 4), perm[downsample_labels(labels, 4)]
    )


def test_downsample_rejects_indivisible() -> None:
    with pytest.raises(ValueError, match="not divisible"):
        downsample_labels(np.zeros((5, 4), dtype=int), 2)


def test_downsample_rejects_negative_labels() -> None:
    labels = np.zeros((4, 4), dtype=int)
    labels[1, 2] = -1
    with pytest.raises(ValueError, match="non-negative"):
        downsample_labels(labels, 2)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int32, np.int64, np.uint64])
def test_downsample_keeps_each_integer_dtype(dtype) -> None:
    labels = np.random.default_rng(29).integers(0, 4, (8, 8))
    out = downsample_labels(labels.astype(dtype), 4)
    assert out.dtype == dtype
    assert np.array_equal(out, downsample_labels(labels, 4))


def test_downsample_matches_per_block_bincount_oracle() -> None:
    rng = np.random.default_rng(23)
    for factor, k in ((2, 2), (4, 3), (4, 5), (8, 3)):
        labels = rng.integers(0, k, (16, 16))
        expected = np.array([
            [np.argmax(np.bincount(labels[i:i + factor, j:j + factor].ravel()))
             for j in range(0, 16, factor)]
            for i in range(0, 16, factor)
        ])
        assert np.array_equal(downsample_labels(labels, factor), expected)


# ---------------------------------------------------------------------------
# training losses


def test_cross_entropy_uniform_logits() -> None:
    m = np.zeros((3, 3, 2))
    y = np.zeros((3, 3), dtype=int)
    assert abs(cross_entropy(m, y) - math.log(2.0)) < 1e-12


def test_cross_entropy_confident_correct_is_tiny() -> None:
    m = np.zeros((2, 2, 3))
    y = np.ones((2, 2), dtype=int)
    m[:, :, 1] = 1000.0
    assert cross_entropy(m, y) < 1e-12


def test_cross_entropy_matches_enumeration_oracle() -> None:
    rng = np.random.default_rng(3)
    m = rng.standard_normal((2, 2, 3))
    y = rng.integers(0, 3, (2, 2))
    assert abs(cross_entropy(m, y) - ce_enumeration_oracle(m, y)) < 1e-12


def test_cross_entropy_rejects_shape_mismatch() -> None:
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((2, 2, 3)), np.zeros((3, 2), dtype=int))


def test_losses_reject_out_of_range_labels_and_empty_grid() -> None:
    for loss, op in ((cross_entropy, "softmax-ce"), (dice_loss, "soft-dice")):
        with pytest.raises(ValueError, match=f"{op}: label values outside 0..2"):
            loss(np.zeros((2, 2, 3)), np.full((2, 2), 3))
        with pytest.raises(ValueError, match=f"{op}: label values outside 0..2"):
            loss(np.zeros((2, 2, 3)), np.full((2, 2), -1))
        with pytest.raises(ValueError, match=f"{op}: no rows"):
            loss(np.zeros((0, 2, 3)), np.zeros((0, 2), dtype=int))


def test_dice_loss_perfect_prediction_near_zero() -> None:
    y = np.array([[0, 1], [1, 0]])
    m = np.zeros((2, 2, 2))
    m[y == 1, 1] = 60.0
    m[y == 0, 0] = 60.0
    assert dice_loss(m, y) < 1e-9


def test_dice_loss_disjoint_prediction_near_one_per_class() -> None:
    # all mass on class 1, ground truth all class 0: both class terms collapse
    y = np.zeros((2, 2), dtype=int)
    m = np.zeros((2, 2, 2))
    m[:, :, 1] = 60.0
    assert dice_loss(m, y) > 1.0 - 1e-4


def test_dice_loss_matches_enumeration_oracle() -> None:
    rng = np.random.default_rng(6)
    m = rng.standard_normal((2, 2, 2))
    y = rng.integers(0, 2, (2, 2))
    assert abs(dice_loss(m, y, 1e-5) - dice_enumeration_oracle(m, y, 1e-5)) < 1e-12


def test_combined_loss_endpoints_exact() -> None:
    rng = np.random.default_rng(9)
    m = rng.standard_normal((3, 3, 3))
    y = rng.integers(0, 3, (3, 3))
    assert combined_loss(m, y, LossConfig(ce_weight=1.0)) == cross_entropy(m, y)
    assert combined_loss(m, y, LossConfig(ce_weight=0.0)) == dice_loss(m, y)


def test_combined_loss_default_weights_recomputed() -> None:
    rng = np.random.default_rng(10)
    m = rng.standard_normal((4, 4, 3))
    y = rng.integers(0, 3, (4, 4))
    cfg = LossConfig()
    expected = 0.2 * cross_entropy(m, y) + 0.8 * dice_loss(m, y, cfg.dice_smooth)
    assert combined_loss(m, y, cfg) == expected


def test_combined_loss_is_convex_combination() -> None:
    rng = np.random.default_rng(11)
    m = rng.standard_normal((3, 3, 2))
    y = rng.integers(0, 2, (3, 3))
    ce = cross_entropy(m, y)
    dl = dice_loss(m, y)
    for lam in (0.0, 0.2, 0.5, 0.9, 1.0):
        val = combined_loss(m, y, LossConfig(ce_weight=lam))
        assert min(ce, dl) - 1e-12 <= val <= max(ce, dl) + 1e-12


def test_loss_gradients_pass_finite_differences() -> None:
    rng = np.random.default_rng(14)
    logits = rng.standard_normal((4, 2))
    labels = np.array([0, 1, 1, 0])
    ce_err = finite_diff_check(
        lambda t, ids: t.softmax_ce(ids[0], labels), [logits], epsilon=1e-5
    )
    dice_err = finite_diff_check(
        lambda t, ids: t.soft_dice(ids[0], labels, 1e-5), [logits], epsilon=1e-5
    )
    assert ce_err < 1e-5 and dice_err < 1e-5


def test_tape_losses_agree_with_standalone_functions() -> None:
    rng = np.random.default_rng(15)
    m = rng.standard_normal((2, 3, 4))
    y = rng.integers(0, 4, (2, 3))
    tape = Tape()
    logits = tape.leaf(m.reshape(-1, 4))
    ce_id = tape.softmax_ce(logits, y.reshape(-1))
    dice_id = tape.soft_dice(logits, y.reshape(-1), 1e-5)
    assert abs(float(tape.value(ce_id)) - cross_entropy(m, y)) < 1e-12
    assert abs(float(tape.value(dice_id)) - dice_loss(m, y)) < 1e-12


# ---------------------------------------------------------------------------
# evaluation metrics


def test_dice_score_trivials() -> None:
    gt = np.zeros((4, 4), dtype=int)
    gt[:2, :2] = 1
    assert dice_score(gt, gt, 1) == 1.0
    pred = np.zeros((4, 4), dtype=int)
    pred[2:, 2:] = 1
    assert dice_score(pred, gt, 1) == 0.0


def test_dice_score_hand_arithmetic() -> None:
    gt = np.zeros((4, 4), dtype=int)
    gt[0, :4] = 1
    gt[1, :2] = 1          # |G| = 6
    pred = np.zeros((4, 4), dtype=int)
    pred[0, :3] = 1
    pred[3, 3] = 1         # |P| = 4, overlap 3
    assert dice_score(pred, gt, 1) == pytest.approx(0.6)


def test_dice_score_symmetric_and_empty_convention() -> None:
    rng = np.random.default_rng(19)
    pred = rng.integers(0, 2, (6, 6))
    gt = rng.integers(0, 2, (6, 6))
    assert dice_score(pred, gt, 1) == dice_score(gt, pred, 1)
    assert dice_score(np.zeros((3, 3), int), np.zeros((3, 3), int), 1) == 1.0


def test_hd95_identical_masks() -> None:
    gt = np.zeros((8, 8), dtype=int)
    gt[2:5, 2:6] = 1
    assert hd95(gt, gt, 1) == 0.0


def test_hd95_three_four_five() -> None:
    pred = np.zeros((8, 8), dtype=int)
    gt = np.zeros((8, 8), dtype=int)
    pred[0, 0] = 1
    gt[3, 4] = 1
    assert hd95(pred, gt, 1) == pytest.approx(5.0)


def test_hd95_empty_conventions() -> None:
    empty = np.zeros((8, 8), dtype=int)
    one = empty.copy()
    one[4, 4] = 1
    assert hd95(empty, empty, 1) == 0.0
    assert hd95(one, empty, 1) == pytest.approx(math.hypot(8, 8))
    assert hd95(empty, one, 1) == pytest.approx(math.hypot(8, 8))


def test_hd95_symmetric() -> None:
    rng = np.random.default_rng(23)
    pred = (rng.random((8, 8)) < 0.4).astype(int)
    gt = (rng.random((8, 8)) < 0.4).astype(int)
    assert hd95(pred, gt, 1) == hd95(gt, pred, 1)


def test_hd95_matches_all_pairs_oracle() -> None:
    rng = np.random.default_rng(29)
    cases = []
    for shape in ((8, 8), (5, 13), (24, 9), (16, 16)):
        for _ in range(50):
            pred = (rng.random(shape) < rng.uniform(0.0, 0.6)).astype(int)
            gt = (rng.random(shape) < rng.uniform(0.0, 0.6)).astype(int)
            cases.append((pred, gt))
    for shape in ((1, 1), (8, 8), (5, 13)):  # single-pixel pred and gt sets
        for _ in range(10):
            pred, gt = np.zeros(shape, dtype=int), np.zeros(shape, dtype=int)
            pred[rng.integers(shape[0]), rng.integers(shape[1])] = 1
            gt[rng.integers(shape[0]), rng.integers(shape[1])] = 1
            cases += [(pred, gt), (pred, (rng.random(shape) < 0.5).astype(int))]
    for pred, gt in cases:
        for boundary in (True, False):
            assert hd95(pred, gt, 1, boundary=boundary) == hd95_all_pairs_oracle(
                pred, gt, 1, boundary_mode=boundary
            )


def test_hd95_full_mask_flag() -> None:
    pred = np.zeros((8, 8), dtype=int)
    gt = np.zeros((8, 8), dtype=int)
    pred[2:6, 2:6] = 1
    gt[2:6, 2:6] = 1
    gt[4, 4] = 0  # interior hole changes the boundary set but not the full mask much
    assert hd95(pred, gt, 1, boundary=False) <= hd95(pred, gt, 1, boundary=True) + 1e-12

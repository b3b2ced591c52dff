from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from msga.losses import (
    DEFAULT_DICE_SMOOTH,
    LossConfig,
    combined_loss,
    cross_entropy,
    dice_loss,
    dice_score,
    downsample_labels,
    hd95,
    image_metrics,
)
from msga.model import postprocess
from msga.tape import Tape, finite_diff_check
from test_plan import _watch_compile


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


def test_downsample_rejects_fractional_labels_with_a_value_error() -> None:
    # bincount would raise a TypeError on float codes, which the CLI does not map to exit 2
    with pytest.raises(ValueError, match="^downsample_labels: labels must be integers, "
                                         "got dtype float64"):
        downsample_labels(np.full((4, 4), 1.5), 2)


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


@pytest.mark.parametrize("call, message", [
    (lambda: downsample_labels(np.zeros((2, 2, 2), dtype=int), 1),
     r"label map must be 2-D, got shape \(2, 2, 2\)"),
    (lambda: cross_entropy(np.zeros((4, 3)), np.zeros((2, 2), dtype=int)),
     r"mask logits must be \(h, w, k\), got shape \(4, 3\)"),
    (lambda: postprocess(np.zeros((4, 3))),
     r"mask logits must be \(h, w, k\), got shape \(4, 3\)"),
], ids=["downsample_labels", "cross_entropy", "postprocess"])
def test_label_maps_and_mask_logits_of_another_rank_are_rejected(call, message) -> None:
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_cross_entropy_rejects_shape_mismatch() -> None:
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((2, 2, 3)), np.zeros((3, 2), dtype=int))


def test_losses_reject_out_of_range_labels_and_empty_grid() -> None:
    for loss in (cross_entropy, dice_loss):
        with pytest.raises(ValueError, match="seg-loss: label values outside 0..2"):
            loss(np.zeros((2, 2, 3)), np.full((2, 2), 3))
        with pytest.raises(ValueError, match="seg-loss: label values outside 0..2"):
            loss(np.zeros((2, 2, 3)), np.full((2, 2), -1))
        with pytest.raises(ValueError, match="seg-loss: no rows"):
            loss(np.zeros((0, 2, 3)), np.zeros((0, 2), dtype=int))


def test_losses_reject_fractional_labels_rather_than_truncate_them() -> None:
    # 1.5 would score as label 1 after an int64 cast
    for loss in (cross_entropy, dice_loss, lambda m, y: combined_loss(m, y, LossConfig())):
        with pytest.raises(ValueError, match="^seg-loss: labels must be integers, got dtype float64"):
            loss(np.zeros((2, 2, 3)), np.full((2, 2), 1.5))
    assert cross_entropy(np.zeros((2, 2, 3)), np.full((2, 2), True)) == cross_entropy(
        np.zeros((2, 2, 3)), np.ones((2, 2), dtype=np.uint8))


def _c6_inputs() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(106)   # acceptance check C6's logits and labels
    return rng.standard_normal((4, 4, 3)), rng.integers(0, 3, (4, 4))


def _saturated_inputs() -> tuple[np.ndarray, np.ndarray]:
    """C6's labels; logits of -60 but 60 at the label, at the next class on every third pixel."""
    _, y = _c6_inputs()
    top = np.where(np.arange(16).reshape(4, 4) % 3 == 0, (y + 1) % 3, y)
    m = np.full((4, 4, 3), -60.0)
    np.put_along_axis(m, top[..., None], 60.0, axis=-1)
    return m, y


# inputs -> float.hex of cross_entropy, dice_loss at smooths 1e-5 and 1.0 and combined_loss
# at the default config, then the sha256 prefixes of Tape.softmax_ce's and Tape.soft_dice's
# logits adjoints, as computed when cross-entropy and soft dice were op kinds of their own,
# with rules apart from seg-loss's
PINNED_LOSS_BITS = {
    _c6_inputs: ("0x1.6ba2a9189499ep+0", "0x1.661d6c291d7bep-1", "0x1.4641fb466b93ep-1",
                 "0x1.aff233c453072p-1", "eb48ad27a10bdcea", "78690742b64f41d8"),
    _saturated_inputs: ("0x1.6800000000000p+5", "0x1.c16bf175164b6p-2",
                        "0x1.8f7b88d54cfd4p-2", "0x1.2b3c4c6fba285p+3",
                        "4acb735e7c6757af", "991d840b7a33a8f2"),
}


@pytest.mark.parametrize("inputs", PINNED_LOSS_BITS, ids=["c6", "saturated"])
def test_losses_and_the_seg_loss_ends_keep_the_pinned_bits(inputs) -> None:
    m, y = inputs()
    *bits, ce_grad, dice_grad = PINNED_LOSS_BITS[inputs]
    ce, dice, dice_at_1, combined = map(float.fromhex, bits)
    assert [cross_entropy(m, y), dice_loss(m, y), dice_loss(m, y, 1.0),
            combined_loss(m, y, LossConfig())] == [ce, dice, dice_at_1, combined]
    tape = Tape()
    z = tape.leaf(m.reshape(-1, 3))
    # Tape.softmax_ce is seg-loss at ce_weight 1 and smooth 1.0, Tape.soft_dice at ce_weight 0
    ce_id, dice_id = tape.softmax_ce(z, y.reshape(-1)), tape.soft_dice(z, y.reshape(-1), 1e-5)
    assert [float(tape.value(v)) for v in (ce_id, (ce_id, "ce"), (ce_id, "dice"), dice_id,
                                           (dice_id, "ce"), (dice_id, "dice"))] == [
        ce, ce, dice_at_1, dice, ce, dice]
    assert [hashlib.sha256(tape.backward(loss)[z].tobytes()).hexdigest()[:16]
            for loss in (ce_id, dice_id)] == [ce_grad, dice_grad]


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


def test_dice_loss_stays_finite_where_the_cross_entropy_is_infinite() -> None:
    # each pixel puts all its mass on the class it is not labelled: ce is inf, and ce
    # times a weight of 0 would be NaN
    m = np.array([[[1e308, -1e308], [-1e308, 1e308]]])
    y = np.array([[1, 0]])
    with np.errstate(over="ignore"):
        assert cross_entropy(m, y) == math.inf
        got = dice_loss(m, y)
        z = m.reshape(-1, 2)
        p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    onehot = np.eye(2)[y.reshape(-1)]
    smooth = DEFAULT_DICE_SMOOTH
    ratios = (2.0 * (p * onehot).sum(axis=0) + smooth) / (p.sum(axis=0) + onehot.sum(axis=0)
                                                         + smooth)
    assert math.isfinite(got) and got == 1.0 - ratios.mean()


def test_a_loss_call_compiles_nothing_and_gives_a_recorded_tapes_bits(monkeypatch) -> None:
    # each C6 function runs the seg-loss forward rule on its inputs, as a plan's forward
    # line does: no text is compiled, and each gives what a freshly recorded tape gives
    texts = []
    _watch_compile(monkeypatch, texts.append)
    rng = np.random.default_rng(7)
    config = LossConfig()
    for _ in range(3):
        m, y = rng.standard_normal((4, 4, 3)), rng.integers(0, 3, (4, 4))
        tape = Tape()
        z, labels = tape.leaf(m.reshape(-1, 3)), y.reshape(-1)
        want = [tape.value(tape.softmax_ce(z, labels)),
                tape.value(tape.soft_dice(z, labels, DEFAULT_DICE_SMOOTH)),
                tape.value(tape.seg_loss(z, labels, config.dice_smooth, config.ce_weight))]
        texts.clear()
        got = [cross_entropy(m, y), dice_loss(m, y), combined_loss(m, y, config)]
        assert got == [float(w) for w in want] and texts == []


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


def test_image_metrics_equals_the_per_class_metrics_and_their_oracles() -> None:
    rng = np.random.default_rng(41)
    for shape in ((1, 1), (1, 7), (2, 2), (6, 10), (8, 8)):
        for k in range(2, 6):
            empty, last = np.zeros(shape, dtype=int), np.full(shape, k - 1)
            pairs = [(rng.integers(0, k, shape), rng.integers(0, k, shape)) for _ in range(8)]
            pairs += [
                (empty, empty),                                    # every class empty in both
                (last, empty), (empty, last),                      # class k-1 empty on one side
                (rng.integers(0, k + 2, shape), rng.integers(0, k, shape)),  # pred labels >= k
            ]
            for pred, gt in pairs:
                for b in (True, False):
                    expected = [(dice_score(pred, gt, c), hd95(pred, gt, c, boundary=b))
                                for c in range(1, k)]
                    assert image_metrics(pred, gt, k, boundary=b) == expected
                    oracle = []
                    for c in range(1, k):
                        p, g = int((pred == c).sum()), int((gt == c).sum())
                        both = int(((pred == c) & (gt == c)).sum())
                        oracle.append((1.0 if p + g == 0 else 2.0 * both / (p + g),
                                       hd95_all_pairs_oracle(pred, gt, c, boundary_mode=b)))
                    assert expected == oracle
    with pytest.raises(ValueError, match="differ in shape"):
        image_metrics(np.zeros((2, 3), dtype=int), np.zeros((3, 2), dtype=int), 3)
    with pytest.raises(ValueError, match="differ in shape"):
        hd95(np.zeros((2, 3), dtype=int), np.zeros((3, 2), dtype=int), 1)

from __future__ import annotations

import struct

import numpy as np
import pytest

from msga.cli import main
from msga.losses import LossConfig, downsample_labels
from msga.model import (
    CHECKPOINT_MAGIC,
    ModelConfig,
    build_loss_tape,
    forward,
    init_model,
    load_checkpoint,
    parameter_count,
    postprocess,
    restore_checkpoint,
    save_checkpoint,
)
from msga.tape import finite_diff_check

SMALL = ModelConfig(image_h=8, image_w=8, patch_size=4, embed_dim=6, blocks=1,
                    classes=2, decoder_channels=5)


def test_init_is_bitwise_deterministic() -> None:
    cfg = ModelConfig()
    a = init_model(cfg, seed=5)
    b = init_model(cfg, seed=5)
    for ga, gb in zip(a.groups, b.groups):
        assert ga.name == gb.name
        assert np.array_equal(ga.values, gb.values)


def test_structural_count_of_attention_matrices() -> None:
    cfg = ModelConfig(image_h=32, image_w=32, patch_size=4, embed_dim=16, blocks=2, classes=3)
    params = init_model(cfg, seed=0)
    attn = [g for g in params.groups if g.role.startswith("encoder-attention")]
    assert len(attn) == 2 * 4
    assert all(g.values.shape == (16, 16) for g in attn)
    for b in range(2):
        for suffix in ("q", "k", "v", "o"):
            assert any(g.name == f"encoder/block{b}/attn/{suffix}" for g in attn)


def test_parameter_count_matches_closed_form() -> None:
    cfg = ModelConfig(image_h=32, image_w=32, patch_size=4, embed_dim=16, blocks=2, classes=3,
                      decoder_channels=16)
    params = init_model(cfg, seed=1)
    # p^2 d + d + T d + B (12 d^2 + 9 d) + d + (d c + c + c k + k)
    expected = 16 * 16 + 16 + 64 * 16 + 2 * (12 * 256 + 9 * 16) + 16 + (256 + 16 + 48 + 3)
    assert parameter_count(cfg) == expected
    assert params.total_parameters() == expected


def test_group_names_unique() -> None:
    params = init_model(ModelConfig(), seed=2)
    names = [g.name for g in params.groups]
    assert len(names) == len(set(names))


def test_invalid_config_rejected() -> None:
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(image_h=30, image_w=32, patch_size=4)
    with pytest.raises(ValueError, match="classes"):
        ModelConfig(classes=1)


def test_forward_shape_contract() -> None:
    params = init_model(SMALL, seed=3)
    logits = forward(params, np.random.default_rng(0).uniform(0, 1, (8, 8)))
    assert logits.shape == (2, 2, 2)


def test_forward_zero_image_gives_classwise_equal_logits() -> None:
    # classifier output layer starts at zero, so logits are constant over classes
    params = init_model(SMALL, seed=4)
    logits = forward(params, np.zeros((8, 8)))
    assert np.abs(logits - logits[:, :, :1]).max() == 0.0


def test_forward_deterministic() -> None:
    params = init_model(SMALL, seed=5)
    img = np.random.default_rng(1).uniform(0, 1, (8, 8))
    assert np.array_equal(forward(params, img), forward(params, img))


def test_group_lookup_raises_a_key_error_naming_an_unknown_group() -> None:
    with pytest.raises(KeyError, match="^'decoder/fc3/weight'$"):
        init_model(SMALL, seed=6).group("decoder/fc3/weight")


def test_forward_rejects_wrong_image_shape() -> None:
    params = init_model(SMALL, seed=6)
    with pytest.raises(ValueError, match="image shape"):
        forward(params, np.zeros((8, 12)))


def test_full_model_loss_passes_finite_differences() -> None:
    params = init_model(SMALL, seed=7)
    # give the zero-initialized head nonzero values so its gradients are generic
    rng = np.random.default_rng(8)
    params.group("decoder/fc2/weight").values = rng.standard_normal((5, 2)) * 0.3
    params.group("decoder/fc2/bias").values = rng.standard_normal((1, 2)) * 0.1
    image = rng.uniform(0, 1, (8, 8))
    labels = rng.integers(0, 2, (2, 2))
    names = [g.name for g in params.groups]

    def build(tape, ids):
        from msga.model import build_forward

        id_map = dict(zip(names, ids[:-1]))
        logits = build_forward(tape, SMALL, id_map, ids[-1])
        ce = tape.softmax_ce(logits, labels.reshape(-1))
        dice = tape.soft_dice(logits, labels.reshape(-1), 1e-5)
        return tape.add(tape.scale(ce, 0.2), tape.scale(dice, 0.8))

    arrays = [g.values for g in params.groups] + [image]
    err = finite_diff_check(build, arrays, epsilon=1e-5)
    assert err < 1e-4, f"full-model finite-difference error {err:.3e}"


def test_build_loss_tape_components_combine() -> None:
    params = init_model(SMALL, seed=9)
    rng = np.random.default_rng(10)
    image = rng.uniform(0, 1, (8, 8))
    labels = downsample_labels(rng.integers(0, 2, (8, 8)), 4)
    tape, _, ce_id, dice_id, loss_id = build_loss_tape(params, image, labels, LossConfig())
    ce = float(tape.value(ce_id))
    dice = float(tape.value(dice_id))
    assert abs(float(tape.value(loss_id)) - (0.2 * ce + 0.8 * dice)) < 1e-15


def test_postprocess_dominant_logit() -> None:
    m = np.array([[[0.1, 5.0, -2.0]]])
    assert postprocess(m)[0, 0] == 1


def test_postprocess_softmax_invariance() -> None:
    rng = np.random.default_rng(11)
    m = rng.standard_normal((5, 5, 4)) * 7.0
    assert np.array_equal(postprocess(m), np.argmax(m, axis=-1))


def test_postprocess_tie_breaks_to_class_zero() -> None:
    assert postprocess(np.zeros((2, 2, 3)))[0, 0] == 0


def test_postprocess_class_permutation_equivariance() -> None:
    rng = np.random.default_rng(12)
    m = rng.standard_normal((4, 4, 3))
    perm = np.array([2, 0, 1])
    permuted = m[:, :, perm]
    # label c in the permuted logits corresponds to original class perm[c]
    assert np.array_equal(perm[postprocess(permuted)], postprocess(m))


def test_checkpoint_round_trip_bit_exact(tmp_path) -> None:
    params = init_model(ModelConfig(), seed=13)
    path = str(tmp_path / "model.msga")
    save_checkpoint(params, path)
    with open(path, "rb") as fh:
        assert fh.read(5) == CHECKPOINT_MAGIC
    loaded = dict(load_checkpoint(path))
    for g in params.groups:
        assert loaded[g.name].dtype == np.float64
        assert np.array_equal(loaded[g.name], g.values)


def test_restore_checkpoint_into_fresh_model(tmp_path) -> None:
    params = init_model(SMALL, seed=14)
    params.group("prompt/embedding").values += 1.25
    path = str(tmp_path / "model.msga")
    save_checkpoint(params, path)
    fresh = restore_checkpoint(init_model(SMALL, seed=99), path)
    for a, b in zip(params.groups, fresh.groups):
        assert np.array_equal(a.values, b.values)


def test_restore_rejects_mismatched_model(tmp_path) -> None:
    path = str(tmp_path / "model.msga")
    save_checkpoint(init_model(SMALL, seed=15), path)
    other = ModelConfig(image_h=8, image_w=8, patch_size=4, embed_dim=6, blocks=1,
                        classes=3, decoder_channels=5)
    with pytest.raises(ValueError, match="shape|names"):
        restore_checkpoint(init_model(other, seed=15), path)


def test_load_checkpoint_rejects_bad_magic(tmp_path) -> None:
    path = tmp_path / "bogus.msga"
    path.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(str(path))


def _group_record(name: bytes, values: np.ndarray) -> bytes:
    rows, cols = values.shape
    return struct.pack("<I", len(name)) + name + struct.pack("<II", rows, cols) + values.tobytes()


def test_load_checkpoint_rejects_duplicate_group(tmp_path) -> None:
    path = tmp_path / "model.msga"
    params = init_model(SMALL, seed=17)
    save_checkpoint(params, str(path))
    shape = params.group("encoder/patch_embed/weight").values.shape
    with open(path, "ab") as fh:
        fh.write(_group_record(b"encoder/patch_embed/weight", np.ones(shape)))
    with pytest.raises(ValueError, match="duplicate group 'encoder/patch_embed/weight'"):
        load_checkpoint(str(path))
    with pytest.raises(ValueError, match="duplicate"):
        restore_checkpoint(init_model(SMALL, seed=17), str(path))


def test_load_checkpoint_rejects_oversize_name_length(tmp_path) -> None:
    path = tmp_path / "model.msga"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", 10**6) + b"encoder" + b"\x00" * 8)
    with pytest.raises(ValueError, match="model.msga: truncated at byte 9"):
        load_checkpoint(str(path))


def test_load_checkpoint_reports_bad_utf8_name_with_offset(tmp_path) -> None:
    path = tmp_path / "model.msga"
    path.write_bytes(CHECKPOINT_MAGIC + _group_record(b"\xff\xfe", np.zeros((1, 1))))
    with pytest.raises(ValueError, match="model.msga: group name at byte 9 is not valid UTF-8"):
        load_checkpoint(str(path))


def _u32_field_offsets(blob: bytes) -> list[int]:
    """Byte offsets of every name-length, rows and cols field of a valid checkpoint."""
    offsets, pos = [], len(CHECKPOINT_MAGIC)
    while pos < len(blob):
        (nlen,) = struct.unpack_from("<I", blob, pos)
        rows, cols = struct.unpack_from("<II", blob, pos + 4 + nlen)
        offsets += [pos, pos + 4 + nlen, pos + 8 + nlen]
        pos += 12 + nlen + 8 * rows * cols
    return offsets


def test_corrupt_checkpoints_load_or_raise_value_error(tmp_path) -> None:
    # seeded mutations of a valid checkpoint: each either loads or is a ValueError
    path = tmp_path / "model.msga"
    save_checkpoint(init_model(SMALL, seed=18), str(path))
    blob = path.read_bytes()
    fields = _u32_field_offsets(blob)
    rng = np.random.default_rng(2024)
    outcomes = {}
    for i in range(300):
        bad = bytearray(blob)
        kind = ("truncated", "head bytes", "u32 field", "trailing", "reversed")[i % 5]
        if kind == "truncated":
            bad = bad[: int(rng.integers(0, len(blob)))]
        elif kind == "head bytes":
            for pos in rng.integers(0, 200, size=int(rng.integers(1, 5))):
                bad[pos] = int(rng.integers(0, 256))
        elif kind == "u32 field":
            value = int(rng.integers(0, 2 ** int(rng.integers(1, 33))))
            struct.pack_into("<I", bad, int(rng.choice(fields)), value)
        elif kind == "trailing":
            bad += rng.bytes(int(rng.integers(1, 64)))
        else:
            lo, hi = sorted(int(x) for x in rng.integers(len(CHECKPOINT_MAGIC), len(blob) + 1, 2))
            bad[lo:hi] = bad[lo:hi][::-1]
        path.write_bytes(bytes(bad))
        try:
            restore_checkpoint(init_model(SMALL, seed=18), str(path))
            outcome = "loaded"
        except ValueError:
            outcome = "ValueError"
        except Exception as exc:   # any other exception is the failure
            outcome = f"{kind}: {type(exc).__name__}: {exc}"
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert set(outcomes) == {"loaded", "ValueError"}, outcomes


def test_cli_eval_of_a_truncated_checkpoint_exits_2_with_one_error_line(tmp_path, capsys) -> None:
    geometry = ["--image-h", "16", "--image-w", "16", "--embed-dim", "8", "--blocks", "1",
                "--decoder-channels", "8", "--synthetic-count", "30"]
    config = ModelConfig(image_h=16, image_w=16, embed_dim=8, blocks=1, decoder_channels=8)
    path = tmp_path / "model.msga"
    save_checkpoint(init_model(config, seed=0), str(path))
    path.write_bytes(path.read_bytes()[:-7])
    assert main(["eval", *geometry, "--checkpoint", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "truncated" in err[0], err

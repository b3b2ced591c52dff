from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import msga
from msga.cli import main
from msga.config import (
    _BOOL_WORDS,
    ConfigError,
    RunConfig,
    build_config,
    config_as_text,
    config_field_types,
    parse_config_file,
)
from msga.model import init_model, load_checkpoint, save_checkpoint
from msga.train import model_config
from test_data import BAD_PGM_HEADERS

FAST = [
    "--image-h", "16", "--image-w", "16", "--embed-dim", "8", "--blocks", "1",
    "--decoder-channels", "8", "--synthetic-count", "30", "--batch-size", "2",
    "--warmup-steps", "10", "--total-steps", "20",
]


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _run_cli(*args: str, timeout: float | None = None, **env: str) -> subprocess.CompletedProcess:
    """`msga` in a fresh interpreter, so numpy warnings stay out of this process."""
    src = os.path.dirname(os.path.dirname(msga.__file__))
    return subprocess.run([sys.executable, "-m", "msga.cli", *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src, **env},
                          timeout=timeout)


# ---------------------------------------------------------------------------
# configuration plumbing


def test_config_file_parse_and_flag_override(tmp_path) -> None:
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# comment\nmode=v1\nseed=3\nrank=2   # inline comment\n")
    values = parse_config_file(str(cfg_file))
    assert values == {"mode": "v1", "seed": 3, "rank": 2}
    cfg = build_config(values, {"seed": 9})
    assert cfg.mode == "v1" and cfg.seed == 9 and cfg.rank == 2


def test_config_rejects_unknown_key(tmp_path) -> None:
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("learning_rate=1\n")
    with pytest.raises(ConfigError, match="learning_rate"):
        parse_config_file(str(cfg_file))


def test_config_validation_names_field() -> None:
    with pytest.raises(ConfigError, match="test_fraction"):
        RunConfig(test_fraction=1.5).validate()
    with pytest.raises(ConfigError, match="budgets"):
        RunConfig(budgets=(50, 25)).validate()
    with pytest.raises(ConfigError, match="classes"):
        RunConfig(classes=1).validate()


@pytest.mark.parametrize("key, bad", [
    ("mode", "sgd"), ("seed", -3),
    ("image_h", 0), ("image_w", 0), ("patch_size", 0), ("patch_size", 5), ("embed_dim", 0),
    ("blocks", 0), ("classes", 1), ("decoder_channels", 0),
    ("ce_weight", 1.5), ("dice_smooth", 0.0),
    ("rank", 0), ("refresh_period", 0), ("sided", "three"),
    ("warmup_steps", 0), ("batch_size", 0), ("total_steps", -1),
    ("full_lr", -0.1), ("galore_lr", -0.1), ("weight_decay", -0.1), ("eps", 0.0),
    ("galore_scale", -1.0), ("decay_exponent", -1.0), ("beta1", 1.0), ("beta2", -0.1),
    ("test_fraction", 1.5), ("synthetic_count", 0), ("budget", -1),
    ("budgets", (0, 25)), ("budgets", (50, 25)),
])
def test_config_rule_names_exact_key(key, bad) -> None:
    with pytest.raises(ConfigError) as info:
        RunConfig(**{key: bad})
    assert info.value.field == key


@pytest.mark.parametrize("key", [k for k, kind in config_field_types().items() if kind is float])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_float(key, value) -> None:
    with pytest.raises(ConfigError) as info:
        build_config({}, {key: value})
    assert info.value.field == key


@pytest.mark.parametrize("key", ["out", "manifest"])
@pytest.mark.parametrize("value", ["runs #1", "runs\n1", "runs\r1"])
def test_config_rejects_strings_the_echo_cannot_round_trip(key, value) -> None:
    # '#' starts a comment and a line break ends the key=value line
    with pytest.raises(ConfigError) as info:
        RunConfig(**{key: value})
    assert info.value.field == key


@pytest.mark.parametrize("key", ["out", "manifest"])
@pytest.mark.parametrize("value", [" runs", "runs ", "runs\t", "\truns"])
def test_config_rejects_strings_with_surrounding_whitespace(key, value) -> None:
    # the parser strips each value, so the echo would read back without it
    with pytest.raises(ConfigError) as info:
        RunConfig(**{key: value})
    assert info.value.field == key


def test_config_echo_round_trips_inner_whitespace(tmp_path) -> None:
    cfg = RunConfig(out="my runs/a b")
    echo = tmp_path / "config_echo.cfg"
    echo.write_text(config_as_text(cfg))
    assert build_config(parse_config_file(str(echo)), {}) == cfg


def test_config_rejects_a_key_set_twice(tmp_path) -> None:
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed=3\nmode=v1\n# note\nhd95-boundary=yes\nseed=3\nhd95_boundary=no\n")
    with pytest.raises(ConfigError, match=r"set twice, at .*run\.cfg:1 and .*run\.cfg:5") as info:
        parse_config_file(str(cfg_file))
    assert info.value.field == "seed"
    # dashes and underscores spell one key
    cfg_file.write_text("hd95-boundary=yes\nhd95_boundary=no\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:1 and .*run\.cfg:2") as info:
        parse_config_file(str(cfg_file))
    assert info.value.field == "hd95_boundary"


def _echoed_config(tmp_path, *flags: str) -> RunConfig:
    """The RunConfig a zero-step `train` with these flags echoes."""
    out = str(tmp_path / "echo")
    assert main(["train", *FAST, "--total-steps", "0", *flags, "--out", out]) == 0
    return build_config(parse_config_file(os.path.join(out, "config_echo.cfg")), {})


@pytest.mark.parametrize("word", sorted({w for word in _BOOL_WORDS for w in (word, word.upper())}))
def test_flag_and_file_line_take_the_same_boolean_words(tmp_path, word) -> None:
    line = tmp_path / "line.cfg"
    line.write_text(f"hd95_boundary={word}\n")
    from_flag = _echoed_config(tmp_path, "--hd95-boundary", word)
    from_file = _echoed_config(tmp_path, "--config", str(line))
    assert from_flag == from_file
    assert from_flag.hd95_boundary is _BOOL_WORDS[word.lower()]
    assert build_config(parse_config_file(str(line)), {}).hd95_boundary is from_flag.hd95_boundary


# one text per key type that its parser or its RunConfig rule rejects
_BAD_TEXT = {int: "1.5", float: "one", bool: "maybe", tuple: "5,,10",
             "mode": "sgd", "sided": "three", "out": "runs #1", "manifest": "data #1"}


@pytest.mark.parametrize("key, kind", list(config_field_types().items()))
def test_cli_bad_flag_value_exits_2_with_one_config_error_line(tmp_path, capsys, key, kind) -> None:
    bad = _BAD_TEXT[key] if kind is str else _BAD_TEXT[kind]
    out = str(tmp_path / "run")
    flags = ["--" + key.replace("_", "-"), bad] + ([] if key == "out" else ["--out", out])
    assert main(["train", *flags]) == 2   # returns, never raises SystemExit
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: config field '{key}': "), err
    assert not os.path.exists(out)


@pytest.mark.parametrize("flags", [["--warm", "10"], ["--refresh", "5"], ["--learning-rate", "1"]])
def test_cli_flag_matches_only_a_whole_name(tmp_path, capsys, flags) -> None:
    # a prefix of one flag, a prefix of two, and no flag at all
    out = str(tmp_path / "run")
    assert main(["train", *flags, "--out", out]) == 2   # returns, never raises SystemExit
    err = capsys.readouterr().err
    assert err == f"error: config field '{flags[0]}': not a flag of train\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("source", ["flag", "file"])
def test_a_bad_boolean_names_every_accepted_word(tmp_path, capsys, source) -> None:
    line = tmp_path / "line.cfg"
    line.write_text("hd95_boundary=maybe\n")
    given = ["--hd95-boundary", "maybe"] if source == "flag" else ["--config", str(line)]
    assert main(["train", *given, "--out", str(tmp_path / "run")]) == 2
    words = "/".join(_BOOL_WORDS)
    assert set(words.split("/")) == {"true", "false", "yes", "no", "1", "0"}
    assert capsys.readouterr().err == (f"error: config field 'hd95_boundary': expected {words} "
                                       f"(any case), got 'maybe'\n")


def test_config_echo_lines_read_back_as_flags(tmp_path) -> None:
    first = _echoed_config(tmp_path, "--sided", "two", "--budgets", "5,10",
                           "--hd95-boundary", "false", "--synthetic-seed", "-1")
    echo = os.path.join(first.out, "config_echo.cfg")
    text = _read(echo)
    flags = []
    for line in text.splitlines():
        key, value = line.split("=", 1)
        flags += ["--" + key.replace("_", "-"), value]
    assert main(["train", *flags]) == 0
    assert _read(echo) == text
    assert build_config(parse_config_file(echo), {}) == first


COMMAND_NAMES = ("train", "eval", "sweep", "memreport", "ablate")


@pytest.mark.parametrize("command", [None, *COMMAND_NAMES])
def test_help_exits_0_and_lists_every_config_flag(command) -> None:
    run = _run_cli(*([command] if command else []), "--help")
    assert run.returncode == 0, run.stderr
    if command is None:
        assert all(name in run.stdout for name in COMMAND_NAMES), run.stdout
        return
    listed = set(re.findall(r"(?<![\w-])--([a-z0-9-]+)", run.stdout))
    assert {key.replace("_", "-") for key in config_field_types()} <= listed, run.stdout
    assert "config" in listed


def test_cli_exit_code_2_on_bad_config(tmp_path) -> None:
    assert main(["train", "--mode", "medsaga", "--total-steps", "-4",
                 "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("flags, key", [
    (["--image-h", "8", "--image-w", "8"], "image_h"),
    (["--synthetic-count", "5"], "synthetic_count"),
    (["--budget", "500"], "budget"),
    (["--seed", "-3"], "seed"),
    (["--full-lr", "nan"], "full_lr"),
])
def test_cli_data_layer_errors_name_config_key(tmp_path, capsys, flags, key) -> None:
    assert main(["train", *flags, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"config field '{key}" in err, err


def test_cli_trains_on_tall_synthetic_images(tmp_path) -> None:
    assert main(["train", "--image-h", "32", "--image-w", "16", "--total-steps", "2",
                 "--warmup-steps", "1", "--synthetic-count", "20", "--out", str(tmp_path)]) == 0


def test_cli_classes_that_find_no_room_exit_2_instead_of_looping(tmp_path) -> None:
    # eleven disjoint shapes never fit a 16x16 image; generation gives up in seconds
    run = _run_cli("train", "--classes", "12", "--image-h", "16", "--image-w", "16",
                   "--out", str(tmp_path), timeout=60)
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("error: config field 'classes': 11 disjoint shapes"), run.stderr


def test_cli_config_file_line_without_equals_exits_2_naming_its_line(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.cfg"
    bad.write_text("# comment\nseed 3\n")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"error: config field '<file>': {bad}:2: expected "
                                       "key=value, got 'seed 3'\n")


def test_cli_classes_that_find_no_room_exit_2_naming_classes_in_process(tmp_path, capsys) -> None:
    # the generator's give-up branch in this process; the subprocess test above keeps a
    # timeout in case generation loops
    assert main(["train", "--image-h", "16", "--image-w", "16", "--classes", "40",
                 "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config field 'classes': 39 disjoint shapes found no room "
                          "in a 16x16 image in "), err
    assert err.endswith(" layouts (sample 0)\n") and len(err.splitlines()) == 1, err


def test_cli_exit_code_2_on_unknown_config_key(tmp_path) -> None:
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense=1\n")
    assert main(["train", "--config", str(bad), "--out", str(tmp_path)]) == 2


def test_cli_failed_checkpoint_write_exits_3_and_leaves_no_temp_file(tmp_path, capsys) -> None:
    out = tmp_path / "run"
    (out / "model.msga").mkdir(parents=True)   # the rename onto a directory fails
    assert main(["train", "--total-steps", "2", "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("i/o error: "), err
    assert list(out.rglob("*.tmp")) == []


def test_cli_exit_code_3_on_unreadable_config(tmp_path) -> None:
    assert main(["train", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path)]) == 3


# ---------------------------------------------------------------------------
# train


def test_train_zero_steps_checkpoint_equals_init(tmp_path) -> None:
    out = str(tmp_path / "run")
    assert main(["train", *FAST, "--total-steps", "0", "--out", out]) == 0
    stored = dict(load_checkpoint(os.path.join(out, "model.msga")))
    cfg = RunConfig(image_h=16, image_w=16, embed_dim=8, blocks=1, decoder_channels=8)
    reference = init_model(model_config(cfg), cfg.seed)
    for g in reference.groups:
        assert np.array_equal(stored[g.name], g.values), g.name


def test_train_log_is_deterministic_and_consistent(tmp_path) -> None:
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["train", *FAST, "--out", out_a]) == 0
    assert main(["train", *FAST, "--out", out_b]) == 0
    log_a = _read(os.path.join(out_a, "train_log.csv"))
    assert log_a == _read(os.path.join(out_b, "train_log.csv"))
    # logged combined loss equals 0.2*CE + 0.8*Dice at every step
    lines = log_a.strip().splitlines()
    assert lines[0] == "step,lr_full,lr_galore,ce,dice,loss"
    assert len(lines) == 21
    for line in lines[1:]:
        _, _, _, ce, dice, loss = line.split(",")
        assert abs(float(loss) - (0.2 * float(ce) + 0.8 * float(dice))) < 1e-12


def test_train_writes_resumable_config_echo(tmp_path) -> None:
    out = str(tmp_path / "run")
    assert main(["train", *FAST, "--sided", "two", "--budgets", "5,10", "--out", out]) == 0
    echo = parse_config_file(os.path.join(out, "config_echo.cfg"))
    restored = build_config(echo, {})
    expected = build_config({}, {
        "image_h": 16, "image_w": 16, "embed_dim": 8, "blocks": 1,
        "decoder_channels": 8, "synthetic_count": 30, "batch_size": 2,
        "warmup_steps": 10, "total_steps": 20, "sided": "two",
        "budgets": (5, 10), "out": out,
    })
    assert restored == expected  # every field round-trips through the echo


def test_train_divergence_exits_4_naming_step_and_writes_no_checkpoint(tmp_path) -> None:
    out = str(tmp_path / "run")
    run = _run_cli("train", "--full-lr", "1e6", "--galore-lr", "1e6", "--total-steps", "30",
                   "--warmup-steps", "5", "--synthetic-count", "20", "--out", out)
    assert run.returncode == 4, run.stderr
    errors = [line for line in run.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "training diverged at step " in errors[0]
    assert "Traceback" not in run.stderr
    assert not os.path.exists(os.path.join(out, "model.msga"))
    assert not os.path.exists(os.path.join(out, "train_log.csv"))


def test_train_non_finite_loss_exits_4_naming_the_step(tmp_path, capsys) -> None:
    # a full-model lr of 1e300 overflows the weights at step 0: step 1's loss is nan,
    # caught before its gradient is checked
    out = str(tmp_path / "run")
    assert main(["train", *FAST, "--full-lr", "1e300", "--out", out]) == 4
    assert capsys.readouterr().err == "error: training diverged at step 1: loss is nan\n"
    assert not os.path.exists(os.path.join(out, "model.msga"))


def test_train_divergence_prints_only_its_error_line(tmp_path) -> None:
    # numpy's overflow and invalid-value warnings would come before the guard's line
    run = _run_cli("train", "--full-lr", "1e6", "--galore-lr", "1e6", "--total-steps", "30",
                   "--warmup-steps", "5", "--synthetic-count", "20", "--out", str(tmp_path))
    assert run.returncode == 4, run.stderr
    assert len(run.stderr.splitlines()) == 1, run.stderr
    assert run.stderr.startswith("error: training diverged at step ")


def test_train_bytes_do_not_depend_on_blas_threads(tmp_path) -> None:
    outputs = []
    for threads in ("1", "2"):
        out = str(tmp_path / f"threads{threads}")
        run = _run_cli("train", "--total-steps", "40", "--out", out,
                       OPENBLAS_NUM_THREADS=threads)
        assert run.returncode == 0, run.stderr
        for name in ("train_log.csv", "model.msga"):
            with open(os.path.join(out, name), "rb") as fh:
                outputs.append(fh.read())
    assert outputs[:2] == outputs[2:]


# ---------------------------------------------------------------------------
# eval


def test_eval_oracle_mode_is_perfect(tmp_path) -> None:
    out = str(tmp_path / "run")
    assert main(["eval", *FAST, "--oracle", "--out", out]) == 0
    lines = _read(os.path.join(out, "metrics.csv")).strip().splitlines()
    assert lines[0] == "class,dice,hd95"
    assert lines[-1].startswith("mean,")
    for line in lines[1:]:
        _, dice, hd = line.split(",")
        assert float(dice) == 1.0 and float(hd) == 0.0


def test_eval_untrained_model_far_below_trained(tmp_path) -> None:
    # at the default 32x32 geometry every foreground class survives the
    # majority pooling, so the zero head's all-background prediction scores
    # exactly zero foreground dice (recorded smoke behaviour at seed 7)
    geo = ["--embed-dim", "8", "--blocks", "1", "--decoder-channels", "8",
           "--synthetic-count", "30", "--total-steps", "0"]
    out = str(tmp_path / "run")
    assert main(["train", *geo, "--out", out]) == 0
    assert main(["eval", *geo, "--checkpoint", os.path.join(out, "model.msga"),
                 "--out", out]) == 0
    rows = _read(os.path.join(out, "metrics.csv")).strip().splitlines()[1:]
    mean_dice = float(rows[-1].split(",")[1])
    assert mean_dice == 0.0


def test_eval_of_non_finite_checkpoint_exits_4(tmp_path) -> None:
    cfg = RunConfig(image_h=16, image_w=16, embed_dim=8, blocks=1, decoder_channels=8)
    params = init_model(model_config(cfg), cfg.seed)
    params.groups[0].values = np.full_like(params.groups[0].values, np.nan)
    checkpoint = str(tmp_path / "nan.msga")
    save_checkpoint(params, checkpoint)
    out = str(tmp_path / "run")
    run = _run_cli("eval", *FAST, "--checkpoint", checkpoint, "--out", out)
    assert run.returncode == 4, run.stderr
    assert run.stderr.splitlines()[-1] == "error: forward produced non-finite logits"
    assert "Traceback" not in run.stderr
    assert not os.path.exists(os.path.join(out, "metrics.csv"))


def test_eval_requires_checkpoint_or_oracle(tmp_path) -> None:
    assert main(["eval", *FAST, "--out", str(tmp_path)]) == 2


def test_eval_rejects_class_mismatch(tmp_path, capsys) -> None:
    # the checkpoint's 3-class head fails its restore before evaluate compares the class
    # counts, whose own error test_optim's direct evaluate test pins
    out = str(tmp_path / "run")
    assert main(["train", *FAST, "--total-steps", "0", "--out", out]) == 0
    capsys.readouterr()
    checkpoint = os.path.join(out, "model.msga")
    code = main(["eval", *FAST, "--classes", "4", "--checkpoint", checkpoint, "--out", out])
    assert code == 2
    assert capsys.readouterr().err == (f"error: {checkpoint}: decoder/fc2/weight has shape "
                                       "(8, 3), expected (8, 4)\n")


def test_train_from_manifest_and_eval_via_echo(tmp_path) -> None:
    from msga.data import generate_synthetic, save_dataset

    ds = generate_synthetic(3, 30, 16, 16, 3)
    manifest = save_dataset(ds, str(tmp_path / "data"))
    out = str(tmp_path / "run")
    assert main(["train", *FAST, "--manifest", manifest, "--out", out]) == 0
    # the echo records the manifest source, so eval needs nothing beyond it
    assert main(["eval", "--config", os.path.join(out, "config_echo.cfg"),
                 "--checkpoint", os.path.join(out, "model.msga"), "--out", out]) == 0
    lines = _read(os.path.join(out, "metrics.csv")).strip().splitlines()
    assert lines[0] == "class,dice,hd95" and lines[-1].startswith("mean,")


def test_manifest_errors_name_config_key(tmp_path, capsys) -> None:
    from msga.data import generate_synthetic, save_dataset

    # 32x32 images against FAST's 16x16 config
    wide = save_dataset(generate_synthetic(3, 30, 32, 32, 3), str(tmp_path / "wide"))
    for command in (["train"], ["eval", "--oracle"]):
        assert main([*command, *FAST, "--manifest", wide, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "config field 'image_h/image_w'" in err and "32x32" in err, err
    # masks labelled 0..3 against the default 3 classes
    four = save_dataset(generate_synthetic(3, 30, 16, 16, 4), str(tmp_path / "four"))
    assert main(["train", *FAST, "--manifest", four, "--out", str(tmp_path / "run")]) == 2
    assert "config field 'manifest'" in capsys.readouterr().err


def _break_manifest(directory, case: str | bytes) -> str:
    """A two-sample manifest in `directory`, broken as `case` names or with the PGM
    header `case` as its first image; returns its path."""
    from msga.data import generate_synthetic, save_dataset, save_labels_pgm

    manifest = save_dataset(generate_synthetic(3, 2, 16, 16, 3), str(directory))
    lines = _read(manifest).splitlines()
    if case == "two fields":
        lines[1] = lines[1].rsplit("\t", 1)[0]
    elif case == "mask shape":
        save_labels_pgm(np.zeros((16, 32), np.uint8), os.path.join(directory, "mask_0001.pgm"))
    elif case == "no samples":
        lines = ["", "  "]
    else:
        with open(os.path.join(directory, "image_0000.pgm"), "wb") as fh:
            fh.write(case)
    with open(manifest, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest


@pytest.mark.parametrize("case, message", [
    ("two fields", "manifest line needs 3 tab-separated fields: 'image_0001.pgm\\tmask_0001.pgm'"),
    ("mask shape", "image/mask shape mismatch for image_0001.pgm"),
    ("no samples", "manifest {manifest} lists no samples"),
    *((data, f"{message} (byte offset {offset})") for data, message, offset in BAD_PGM_HEADERS),
])
def test_a_bad_manifest_exits_2_naming_the_manifest(tmp_path, capsys, case, message) -> None:
    manifest = _break_manifest(tmp_path / "data", case)
    assert main(["train", *FAST, "--manifest", manifest, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == (f"error: config field 'manifest': "
                                       f"{message.format(manifest=manifest)}\n")


# ---------------------------------------------------------------------------
# memreport


def test_memreport_outputs_and_totals(tmp_path) -> None:
    out = str(tmp_path / "mem")
    assert main(["memreport", "--out", out]) == 0
    doc = json.loads(_read(os.path.join(out, "memory.json")))
    modes = {rep["mode"]: rep for rep in doc["reports"]}
    assert set(modes) == {"medsaga", "v1", "v2", "full-adamw"}
    med = modes["medsaga"]["totals"]["encoder"]["state_bytes"]
    full = modes["full-adamw"]["totals"]["encoder"]["state_bytes"]
    assert med < full
    for rep in doc["reports"]:
        assert rep["grand_total_bytes"] == sum(
            g["weight_bytes"] + g["grad_bytes"] + g["state_bytes"] for g in rep["groups"]
        )
    assert "8 bytes per element" in _read(os.path.join(out, "memory.txt"))


# ---------------------------------------------------------------------------
# sweep


def test_sweep_single_budget_matches_eval(tmp_path) -> None:
    out = str(tmp_path / "sweep")
    assert main(["sweep", *FAST, "--budgets", "10", "--out", out]) == 0
    lines = _read(os.path.join(out, "sweep.csv")).strip().splitlines()
    assert lines[0] == "n_images,mean_dice,mean_hd95"
    assert len(lines) == 2
    n, dice, hd = lines[1].split(",")
    assert n == "10"
    # re-run the same budget through train+eval and compare
    out2 = str(tmp_path / "single")
    assert main(["train", *FAST, "--budget", "10", "--out", out2]) == 0
    assert main(["eval", *FAST, "--checkpoint", os.path.join(out2, "model.msga"),
                 "--out", out2]) == 0
    metrics = _read(os.path.join(out2, "metrics.csv")).strip().splitlines()
    mean_row = metrics[-1].split(",")
    assert float(mean_row[1]) == float(dice)
    assert float(mean_row[2]) == float(hd)


def test_sweep_without_budgets_exits_2(tmp_path, capsys) -> None:
    assert main(["sweep", *FAST, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("error: config field 'budgets': sweep needs --budgets, "
                                       "e.g. 25,50,100\n")


def test_sweep_rejects_oversized_budget(tmp_path) -> None:
    assert main(["sweep", *FAST, "--budgets", "10,4000", "--out", str(tmp_path)]) == 2


def test_sweep_rejects_unordered_budgets(tmp_path) -> None:
    assert main(["sweep", *FAST, "--budgets", "20,10", "--out", str(tmp_path)]) == 2


def test_sweep_dice_non_decreasing_on_default_task(tmp_path) -> None:
    # tolerance 0.03 frozen after three seeded calibration runs (seeds 7/11/23,
    # worst observed adjacent drop -0.0025)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--synthetic-count", "260", "--budgets", "25,50,100,200",
                 "--out", out]) == 0
    lines = _read(os.path.join(out, "sweep.csv")).strip().splitlines()[1:]
    dices = [float(line.split(",")[1]) for line in lines]
    assert len(dices) == 4
    for small, large in zip(dices, dices[1:]):
        assert large >= small - 0.03


# ---------------------------------------------------------------------------
# ablate


def test_ablate_outputs_and_mode_properties(tmp_path) -> None:
    out = str(tmp_path / "ablate")
    assert main(["ablate", *FAST, "--total-steps", "40", "--out", out]) == 0
    lines = _read(os.path.join(out, "ablation.csv")).strip().splitlines()
    assert lines[0] == "mode,mean_dice,mean_hd95,state_bytes,grand_total_bytes"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert set(rows) == {"medsaga", "v1", "v2"}
    assert float(rows["medsaga"][1]) >= float(rows["v2"][1])
    # v2 keeps its init checkpoint for the frozen groups
    init_ck = dict(load_checkpoint(os.path.join(out, "v2", "model.msga")))
    cfg = RunConfig(image_h=16, image_w=16, embed_dim=8, blocks=1, decoder_channels=8)
    reference = init_model(model_config(cfg), cfg.seed)
    for g in reference.groups:
        if g.role in ("prompt", "decoder"):
            assert np.array_equal(init_ck[g.name], g.values), g.name

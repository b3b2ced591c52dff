"""Command-line front end: train, eval, sweep, memreport, ablate.

Every RunConfig key is mirrored by a flag of the same name (dashes for
underscores) that takes exactly a config file's spellings: true/false/yes/no/1/0
for booleans, comma-separated integers for lists. A flag matches only by its
whole name. A --config file supplies defaults and flags override it. Output
files are written atomically (temp then rename). Exit codes: 0 on success, 2
for configuration/validation problems (a bad value or an unknown flag gives
one `error: config field ...` line), 3 for I/O failures, 4 when training
diverges or a model produces non-finite outputs.
Commands run with numpy's overflow, invalid-value and divide warnings off: the
non-finite guards in training and `forward` report divergence as one `error:`
line instead.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from dataclasses import replace

import numpy as np

from msga.config import (
    RunConfig, build_config, config_as_text, config_field_types, parse_config_file, parse_values,
)
from msga.data import ConfigError, Dataset, atomic_write, few_shot_subset
from msga.memory import (
    adapter_baseline, compare_strategies, render_json, render_text, report_for_mode,
)
from msga.model import ModelParams, init_model, restore_checkpoint, save_checkpoint
from msga.optim import MODES
from msga.train import (
    LOG_COLUMNS,
    TrainResult,
    evaluate,
    mean_metrics,
    model_config,
    prepare_splits,
    train_model,
)


def _format_cell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _write_csv(path: str, header: tuple[str, ...], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_format_cell(cell) for cell in row) for row in rows]
    atomic_write(path, "\n".join(lines) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="msga", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("--config", default=None, help="key=value config file")
        for key, kind in config_field_types().items():   # text, parsed like a file line
            p.add_argument("--" + key.replace("_", "-"), default=None,
                           help="comma-separated integers" if kind is tuple else None)
        if name == "eval":
            p.add_argument("--checkpoint", default=None, help="model.msga to evaluate")
            p.add_argument("--oracle", action="store_true",
                           help="score ground truth against itself instead of the model")
    return parser


# ---------------------------------------------------------------------------
# commands: each gets the checked config and the parsed flags; cfg.out exists


def cmd_train(cfg: RunConfig, args: argparse.Namespace) -> int:
    train_ds, _ = prepare_splits(cfg)
    started = time.perf_counter()
    result = train_model(cfg, train_ds)
    elapsed = time.perf_counter() - started
    _write_train_outputs(cfg, result, cfg.out)
    print(f"trained {cfg.total_steps} steps on {len(train_ds)} images "
          f"in {elapsed:.1f}s -> {cfg.out}/model.msga")
    return 0


def _write_train_outputs(cfg: RunConfig, result: TrainResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    save_checkpoint(result.params, os.path.join(out_dir, "model.msga"))
    atomic_write(os.path.join(out_dir, "config_echo.cfg"), config_as_text(cfg))
    rows = [tuple(row[c] for c in LOG_COLUMNS) for row in result.log_rows]
    _write_csv(os.path.join(out_dir, "train_log.csv"), LOG_COLUMNS, rows)


def cmd_eval(cfg: RunConfig, args: argparse.Namespace) -> int:
    _, test_ds = prepare_splits(cfg)
    params = init_model(model_config(cfg), cfg.seed)
    if not args.oracle:
        if not args.checkpoint:
            raise ConfigError("checkpoint", "eval needs --checkpoint (or --oracle)")
        params = restore_checkpoint(params, args.checkpoint)
    per_class = evaluate(params, test_ds, boundary=cfg.hd95_boundary, oracle=args.oracle)
    mean_dice, mean_hd = mean_metrics(per_class)
    rows = [(str(m.class_index), m.dice, m.hd95) for m in per_class]
    _write_csv(os.path.join(cfg.out, "metrics.csv"), ("class", "dice", "hd95"),
               rows + [("mean", mean_dice, mean_hd)])
    hd_mode = "boundary" if cfg.hd95_boundary else "full-mask"
    print(f"eval on {len(test_ds)} images: mean dice {mean_dice:.4f}, "
          f"mean hd95 {mean_hd:.4f} ({hd_mode} hd95)")
    return 0


def _train_and_score(
    cfg: RunConfig, train_ds: Dataset, test_ds: Dataset, params: ModelParams | None = None
) -> tuple[TrainResult, float, float]:
    """Train on train_ds, then the mean dice and HD95 of the result on test_ds."""
    result = train_model(cfg, train_ds, params=params)
    return (result, *mean_metrics(evaluate(result.params, test_ds, boundary=cfg.hd95_boundary)))


def cmd_sweep(cfg: RunConfig, args: argparse.Namespace) -> int:
    if not cfg.budgets:
        raise ConfigError("budgets", "sweep needs --budgets, e.g. 25,50,100")
    train_ds, test_ds = prepare_splits(cfg)
    if cfg.budgets[-1] > len(train_ds):
        raise ConfigError(
            "budgets", f"largest budget {cfg.budgets[-1]} exceeds train size {len(train_ds)}"
        )
    rows = []
    for budget in cfg.budgets:
        subset = few_shot_subset(train_ds, budget, cfg.seed)
        _, mean_dice, mean_hd = _train_and_score(cfg, subset, test_ds)
        rows.append((budget, mean_dice, mean_hd))
        print(f"budget {budget}: mean dice {mean_dice:.4f}, mean hd95 {mean_hd:.4f}")
    _write_csv(os.path.join(cfg.out, "sweep.csv"), ("n_images", "mean_dice", "mean_hd95"), rows)
    return 0


def cmd_memreport(cfg: RunConfig, args: argparse.Namespace) -> int:
    params = init_model(model_config(cfg), cfg.seed)
    reports, deltas = compare_strategies(params, list(MODES), **cfg.galore_settings())
    adapter = adapter_baseline(params, cfg.rank)
    for name, render in (("memory.json", render_json), ("memory.txt", render_text)):
        atomic_write(os.path.join(cfg.out, name), render(reports, deltas, adapter, cfg.rank))
    print(f"memory reports -> {cfg.out}/memory.json, {cfg.out}/memory.txt")
    return 0


def cmd_ablate(cfg: RunConfig, args: argparse.Namespace) -> int:
    train_ds, test_ds = prepare_splits(cfg)
    params0 = init_model(model_config(cfg), cfg.seed)
    rows = []
    # full-adamw is the memory baseline, not an ablation arm
    for mode in (m for m in MODES if m != "full-adamw"):
        mode_cfg = replace(cfg, mode=mode)
        result, mean_dice, mean_hd = _train_and_score(mode_cfg, train_ds, test_ds, params=params0)
        report = report_for_mode(params0, mode, **cfg.galore_settings())
        rows.append((mode, mean_dice, mean_hd, report.state_bytes(), report.grand_total_bytes()))
        _write_train_outputs(mode_cfg, result, os.path.join(cfg.out, mode))
        print(f"{mode}: mean dice {mean_dice:.4f}, mean hd95 {mean_hd:.4f}, "
              f"state bytes {report.state_bytes()}")
    _write_csv(
        os.path.join(cfg.out, "ablation.csv"),
        ("mode", "mean_dice", "mean_hd95", "state_bytes", "grand_total_bytes"),
        rows,
    )
    return 0


# command name -> (function, help text)
COMMANDS = {
    "train": (cmd_train, "train a model and write checkpoint + log"),
    "eval": (cmd_eval, "evaluate a checkpoint on the held-out split"),
    "sweep": (cmd_sweep, "train one model per few-shot budget and tabulate dice vs N"),
    "memreport": (cmd_memreport, "emit the analytic memory comparison across modes"),
    "ablate": (cmd_ablate, "train medsaga/v1/v2 under one seed and join metrics with memory"),
}


def main(argv: list[str] | None = None) -> int:
    args, unknown = _build_parser().parse_known_args(argv)
    try:
        if unknown:
            raise ConfigError(unknown[0], f"not a flag of {args.command}")
        file_values = parse_config_file(args.config) if args.config else {}
        flags = {key: getattr(args, key) for key in config_field_types()
                 if getattr(args, key) is not None}
        cfg = build_config(file_values, parse_values(flags))
        os.makedirs(cfg.out, exist_ok=True)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return COMMANDS[args.command][0](cfg, args)
    except (ValueError, FloatingPointError) as exc:   # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 4 if isinstance(exc, FloatingPointError) else 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

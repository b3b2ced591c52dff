"""Command-line front end: train, eval, sweep, memreport, ablate.

Every RunConfig key is mirrored by a flag of the same name (dashes for
underscores); a --config file supplies defaults and flags override it.
Output files are written atomically (temp then rename). Exit codes: 0 on
success, 2 for configuration/validation problems, 3 for I/O failures, 4 when
training diverges or a model produces non-finite outputs. Commands run with
numpy's overflow, invalid-value and divide warnings off: the non-finite guards
in training and `forward` report divergence as one `error:` line instead.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from dataclasses import replace

import numpy as np

from msga.config import ConfigError, RunConfig, build_config, config_as_text, config_field_types, parse_config_file
from msga.data import _atomic_write
from msga.memory import (
    adapter_baseline, compare_strategies, render_json, render_text, report_for_mode,
)
from msga.model import init_model, restore_checkpoint, save_checkpoint
from msga.optim import MODES
from msga.train import (
    LOG_COLUMNS,
    TrainResult,
    evaluate,
    few_shot_subset,
    mean_metrics,
    model_config,
    prepare_splits,
    train_model,
)


def _atomic_write_text(path: str, text: str) -> None:
    _atomic_write(path, text.encode("utf-8"))


def _format_cell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _write_csv(path: str, header: tuple[str, ...], rows: list[tuple]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_format_cell(cell) for cell in row) for row in rows]
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="msga", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "train": "train a model and write checkpoint + log",
        "eval": "evaluate a checkpoint on the held-out split",
        "sweep": "train one model per few-shot budget and tabulate dice vs N",
        "memreport": "emit the analytic memory comparison across modes",
        "ablate": "train medsaga/v1/v2 under one seed and join metrics with memory",
    }
    types = config_field_types()
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="key=value config file")
        for field_name, kind in types.items():
            flag = "--" + field_name.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, default=None, choices=("true", "false"))
            elif kind is tuple:
                p.add_argument(flag, default=None, help="comma-separated integers")
            elif field_name == "mode":
                p.add_argument(flag, default=None, choices=MODES)
            else:
                p.add_argument(flag, default=None)
        if name == "eval":
            p.add_argument("--checkpoint", default=None, help="model.msga to evaluate")
            p.add_argument("--oracle", action="store_true",
                           help="score ground truth against itself instead of the model")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    from msga.config import _parse_value  # same coercion rules as the file parser

    file_values = parse_config_file(args.config) if args.config else {}
    overrides = {}
    for field_name, kind in config_field_types().items():
        raw = getattr(args, field_name, None)
        if raw is None:
            continue
        overrides[field_name] = _parse_value(field_name, kind, str(raw))
    return build_config(file_values, overrides)


# ---------------------------------------------------------------------------
# commands


def cmd_train(cfg: RunConfig) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    train_ds, _ = prepare_splits(cfg)
    started = time.perf_counter()
    result = train_model(cfg, train_ds)
    elapsed = time.perf_counter() - started
    _write_train_outputs(cfg, result, cfg.out)
    print(f"trained {cfg.total_steps} steps on {len(train_ds)} images "
          f"in {elapsed:.1f}s -> {cfg.out}/model.msga")
    return 0


def _write_train_outputs(cfg: RunConfig, result: TrainResult, out_dir: str) -> None:
    save_checkpoint(result.params, os.path.join(out_dir, "model.msga"))
    _atomic_write_text(os.path.join(out_dir, "config_echo.cfg"), config_as_text(cfg))
    rows = [tuple(row[c] for c in LOG_COLUMNS) for row in result.log_rows]
    _write_csv(os.path.join(out_dir, "train_log.csv"), LOG_COLUMNS, rows)


def _metrics_rows(per_class) -> list[tuple]:
    rows: list[tuple] = [(str(m.class_index), m.dice, m.hd95) for m in per_class]
    mean_dice, mean_hd = mean_metrics(per_class)
    rows.append(("mean", mean_dice, mean_hd))
    return rows


def cmd_eval(cfg: RunConfig, checkpoint: str | None, oracle: bool) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    _, test_ds = prepare_splits(cfg)
    params = init_model(model_config(cfg), cfg.seed)
    if not oracle:
        if not checkpoint:
            raise ConfigError("checkpoint", "eval needs --checkpoint (or --oracle)")
        params = restore_checkpoint(params, checkpoint)
    per_class = evaluate(params, test_ds, boundary=cfg.hd95_boundary, oracle=oracle)
    _write_csv(os.path.join(cfg.out, "metrics.csv"), ("class", "dice", "hd95"),
               _metrics_rows(per_class))
    mean_dice, mean_hd = mean_metrics(per_class)
    hd_mode = "boundary" if cfg.hd95_boundary else "full-mask"
    print(f"eval on {len(test_ds)} images: mean dice {mean_dice:.4f}, "
          f"mean hd95 {mean_hd:.4f} ({hd_mode} hd95)")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    if not cfg.budgets:
        raise ConfigError("budgets", "sweep needs --budgets, e.g. 25,50,100")
    os.makedirs(cfg.out, exist_ok=True)
    train_ds, test_ds = prepare_splits(cfg)
    if cfg.budgets[-1] > len(train_ds):
        raise ConfigError(
            "budgets", f"largest budget {cfg.budgets[-1]} exceeds train size {len(train_ds)}"
        )
    rows = []
    for budget in cfg.budgets:
        subset = few_shot_subset(train_ds, budget, cfg.seed)
        result = train_model(cfg, subset)
        mean_dice, mean_hd = mean_metrics(
            evaluate(result.params, test_ds, boundary=cfg.hd95_boundary)
        )
        rows.append((budget, mean_dice, mean_hd))
        print(f"budget {budget}: mean dice {mean_dice:.4f}, mean hd95 {mean_hd:.4f}")
    _write_csv(os.path.join(cfg.out, "sweep.csv"), ("n_images", "mean_dice", "mean_hd95"), rows)
    return 0


def cmd_memreport(cfg: RunConfig) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    params = init_model(model_config(cfg), cfg.seed)
    reports, deltas = compare_strategies(params, list(MODES), **cfg.galore_settings())
    adapter = adapter_baseline(params, cfg.rank)
    _atomic_write_text(os.path.join(cfg.out, "memory.json"),
                       render_json(reports, deltas, adapter, cfg.rank))
    _atomic_write_text(os.path.join(cfg.out, "memory.txt"),
                       render_text(reports, deltas, adapter, cfg.rank))
    print(f"memory reports -> {cfg.out}/memory.json, {cfg.out}/memory.txt")
    return 0


def cmd_ablate(cfg: RunConfig) -> int:
    os.makedirs(cfg.out, exist_ok=True)
    train_ds, test_ds = prepare_splits(cfg)
    params0 = init_model(model_config(cfg), cfg.seed)
    rows = []
    # full-adamw is the memory baseline, not an ablation arm
    for mode in (m for m in MODES if m != "full-adamw"):
        mode_cfg = replace(cfg, mode=mode)
        result = train_model(mode_cfg, train_ds, params=params0)
        mean_dice, mean_hd = mean_metrics(
            evaluate(result.params, test_ds, boundary=cfg.hd95_boundary)
        )
        report = report_for_mode(params0, mode, **cfg.galore_settings())
        rows.append((mode, mean_dice, mean_hd, report.state_bytes(), report.grand_total_bytes()))
        out_mode = os.path.join(cfg.out, mode)
        os.makedirs(out_mode, exist_ok=True)
        _write_train_outputs(mode_cfg, result, out_mode)
        print(f"{mode}: mean dice {mean_dice:.4f}, mean hd95 {mean_hd:.4f}, "
              f"state bytes {report.state_bytes()}")
    _write_csv(
        os.path.join(cfg.out, "ablation.csv"),
        ("mode", "mean_dice", "mean_hd95", "state_bytes", "grand_total_bytes"),
        rows,
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            if args.command == "train":
                return cmd_train(cfg)
            if args.command == "eval":
                return cmd_eval(cfg, args.checkpoint, args.oracle)
            if args.command == "sweep":
                return cmd_sweep(cfg)
            if args.command == "memreport":
                return cmd_memreport(cfg)
            return cmd_ablate(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

"""Rounds, checks and metrics of one benchmark run; imported by run.py after boot()."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy

import msga.data
import msga.linalg
import msga.memory
import msga.model
import msga.optim
import msga.train
import calibrate
from boot import BLAS_THREAD_VARS, ROOT, WORK
from msga.data import Dataset
from tracer import StepClock, SvdObserver, Tracer, patch_program, svd_errors
from workloads import (
    MANIFEST_DATA_SEED_OFFSET,
    SVD_AUDIT_SEED,
    SVD_AUDIT_STEPS,
    SVD_AUDIT_TOL,
    SYNTHETIC_COUNT,
    WORKLOADS,
)

PROBES_PER_ROUND = 2    # fresh-interpreter set-ups; setup_s is the median over all rounds
PROBE_TIMEOUT_S = 120
PROBE_CALIBRATION = 5   # kernel passes before and after each probe
EVAL_CHUNK = 4          # images evaluated back to back between two training steps
PEAK_WARM_STEP = 2      # tracemalloc peak restarts once this step's gradients exist
PEAK_STEPS = 5          # whole steps after it that the peak covers

HERE = Path(__file__).resolve().parent


@dataclass
class Round:
    log_rows: list
    step_ms: list
    image_ms: list
    dice: float
    result: object              # the TrainResult
    params: object              # the evaluated weights (restored from disk in eval-manifest)
    audit_calls: int = 0
    audit_failures: list = field(default_factory=list)
    probes: list = field(default_factory=list)   # (seconds to ready, probe report)
    # calibration kernel times (ms) taken alongside the steps, images and probes
    cal_step: list = field(default_factory=list)
    cal_image: list = field(default_factory=list)
    cal_setup: list = field(default_factory=list)
    svd: dict | None = None     # traced rounds: truncated_svd counts of the training run


@dataclass
class Context:
    wl: object
    seed: int                       # the workload seed, which makes the data
    cfg: object
    train_ds: Dataset
    eval_ds: Dataset
    eval_singles: list
    ckpt: str
    audit_set: list
    observer: SvdObserver | None = None
    tracer: Tracer | None = None    # set while a round runs traced


# ---------------------------------------------------------------------------
# inputs


def prepare(wl, seed: int) -> tuple[Context, list[str]]:
    out_dir = WORK / wl.name
    out_dir.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    if wl.manifest:
        data_dir = out_dir / "data"
        shutil.rmtree(data_dir, ignore_errors=True)
        base = wl.config(seed)
        written = msga.data.generate_synthetic(seed + MANIFEST_DATA_SEED_OFFSET, SYNTHETIC_COUNT,
                                               base.image_h, base.image_w, base.classes)
        manifest = msga.data.save_dataset(written, str(data_dir))
        cfg = wl.config(seed, manifest)
        eval_ds = msga.data.load_manifest(manifest, cfg.classes)
        failures += check_readback(written, eval_ds)
        train_ds, _ = msga.train.prepare_splits(cfg)
    else:
        cfg = wl.config(seed)
        train_ds, eval_ds = msga.train.prepare_splits(cfg)
    singles = [Dataset((s,), eval_ds.classes, eval_ds.provenance) for s in eval_ds.samples]
    audit_set = capture_svd_audit(wl) if wl.svd_audit else []
    ctx = Context(wl, seed, cfg, train_ds, eval_ds, singles, str(out_dir / "model.msga"), audit_set)
    return ctx, failures


def capture_svd_audit(wl) -> list:
    """Gradients handed to truncated_svd by a fixed-seed reference run of the workload."""
    cfg = replace(wl.config(SVD_AUDIT_SEED), total_steps=SVD_AUDIT_STEPS)
    train_ds, _ = msga.train.prepare_splits(cfg)
    original = msga.optim.truncated_svd
    captured = []

    def capture(g, r):
        captured.append((g.copy(), r))
        return original(g, r)

    msga.optim.truncated_svd = capture
    try:
        msga.train.train_model(cfg, train_ds)
    finally:
        msga.optim.truncated_svd = original
    return captured


# ---------------------------------------------------------------------------
# rounds


def run_round(ctx: Context, clock: StepClock, eval_params=None) -> Round:
    """One training run and one timed evaluation of every evaluation image.

    Given `eval_params` (the first round's weights, which every round
    reproduces), the images are evaluated in chunks between training steps,
    spread evenly over the run, so eval times sample the same stretch of time
    as step times. The first round evaluates its own weights after training.
    """
    cfg = ctx.cfg
    n_images = len(ctx.eval_singles)
    image_ms: list[float] = []
    cal_step: list[float] = []
    cal_image: list[float] = []
    per_class: list[list[float]] = [[] for _ in range(cfg.classes - 1)]

    def evaluate_next(params) -> None:
        single = ctx.eval_singles[len(image_ms)]
        t0 = time.perf_counter()
        rows = msga.train.evaluate(params, single)
        image_ms.append((time.perf_counter() - t0) * 1000.0)
        calibrate.sample(cal_image)
        for acc, row in zip(per_class, rows):
            acc.append(row.dice)

    def between_steps(step: int) -> None:
        calibrate.sample(cal_step)
        if eval_params is None:
            return
        # chunks keep each image in a warm evaluation loop, as in the first
        # round; chunk c is due at step boundary c * EVAL_CHUNK * steps // images
        while len(image_ms) < n_images:
            chunk_start = len(image_ms)
            if chunk_start * cfg.total_steps // n_images > step:
                return
            for _ in range(min(EVAL_CHUNK, n_images - chunk_start)):
                evaluate_next(eval_params)

    clock.reset()
    # traced, the hook is a span of its own, so its calibration passes and
    # evaluations stay out of train_model's self time
    clock.on_step = (between_steps if ctx.tracer is None
                     else ctx.tracer.wrap("bench.between_steps", between_steps))
    try:
        result = msga.train.train_model(cfg, ctx.train_ds)
    finally:
        clock.on_step = None
    step_ms = clock.step_ms()
    params = result.params
    if ctx.wl.manifest:
        msga.model.save_checkpoint(params, ctx.ckpt)
        fresh = msga.train.init_model(msga.train.model_config(cfg), cfg.seed)
        params = msga.model.restore_checkpoint(fresh, ctx.ckpt)
    while len(image_ms) < n_images:
        evaluate_next(params if eval_params is None else eval_params)
    # same reduction as evaluate() over the whole set: mean over images, then classes
    dice = float(np.mean([float(np.mean(acc)) for acc in per_class]))

    rnd = Round(result.log_rows, step_ms, image_ms, dice, result, params,
                cal_step=cal_step, cal_image=cal_image)
    for i, (g, r) in enumerate(ctx.audit_set):
        errors = svd_errors(g, r, msga.linalg.truncated_svd(g, r), SVD_AUDIT_TOL)
        if errors:
            rnd.audit_failures.append(f"audit call {i} ({g.shape[0]}x{g.shape[1]}): "
                                      + ", ".join(errors))
    rnd.audit_calls = len(ctx.audit_set)
    rnd.probes = run_probes(ctx, ctx.observer is not None, rnd.cal_setup)
    if ctx.observer is not None:
        rnd.svd = ctx.observer.take_counts(SVD_AUDIT_TOL)
    return rnd


def run_rounds(ctx: Context, clock: StepClock, budget_s: float, tracing=None) -> list[Round]:
    """Whole rounds until the budget is spent, ending as near to it as whole rounds allow.

    A next round starts while at least half of it still fits, and there are
    at least two: only rounds after the first evaluate between training
    steps. Given `tracing` (an install and an uninstall function), odd rounds
    run traced, so the traced and the untraced rounds sample the same stretch
    of time.
    """
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        traced = tracing is not None and len(rounds) % 2 == 1
        if traced:
            tracing[0]()
        try:
            rounds.append(run_round(ctx, clock, rounds[0].params if rounds else None))
        finally:
            if traced:
                tracing[1]()
        took = time.perf_counter() - t0
        if len(rounds) >= 2 and time.perf_counter() - start + took / 2 > budget_s:
            return rounds


def run_probes(ctx: Context, traced: bool, cal: list[float]) -> list[tuple[float, dict]]:
    out = []
    for _ in range(PROBES_PER_ROUND):
        for _ in range(PROBE_CALIBRATION):
            calibrate.sample(cal)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), "--workload", ctx.wl.name,
             "--seed", str(ctx.seed), "--trace", str(int(traced))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            ready_s = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        out.append((ready_s, json.loads(line)))
        for _ in range(PROBE_CALIBRATION):
            calibrate.sample(cal)
    return out


def train_peak_bytes(ctx: Context, clock: StepClock) -> int:
    """tracemalloc peak over PEAK_STEPS whole steps once PEAK_WARM_STEP's gradients exist."""
    cfg = replace(ctx.cfg, total_steps=PEAK_WARM_STEP + 1 + PEAK_STEPS)
    clock.reset()
    clock.on_step = lambda step: tracemalloc.reset_peak() if step == PEAK_WARM_STEP else None
    tracemalloc.start()
    try:
        msga.train.train_model(cfg, ctx.train_ds)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        clock.on_step = None


# ---------------------------------------------------------------------------
# correctness checks: each returns a list of failure messages


def check_readback(written: Dataset, loaded: Dataset) -> list[str]:
    """Every PGM read back equals the 8-bit-quantised image and the exact mask written."""
    if len(loaded) != len(written):
        return [f"manifest holds {len(loaded)} samples, {len(written)} were written"]
    out = []
    for i, (w, r) in enumerate(zip(written.samples, loaded.samples)):
        quantised = np.rint(np.clip(w.image, 0.0, 1.0) * 255.0) / 255.0
        if not np.array_equal(r.image, quantised):
            out.append(f"image {i} differs from its 8-bit quantisation")
        if not np.array_equal(r.mask, w.mask) or r.patient_id != w.patient_id:
            out.append(f"mask or patient id {i} differs from what was written")
    return out


def check_log(rows: list[dict], cfg) -> list[str]:
    out = []
    if [r["step"] for r in rows] != list(range(cfg.total_steps)):
        out.append(f"log has {len(rows)} rows, expected steps 0..{cfg.total_steps - 1}")
    # zero-initialised head: uniform logits, so the first cross-entropy is ln(classes)
    if rows and abs(rows[0]["ce"] - math.log(cfg.classes)) > 1e-12:
        out.append(f"step-0 ce {rows[0]['ce']!r} != ln({cfg.classes})")
    lam = cfg.ce_weight
    for r in rows:
        if not all(math.isfinite(r[k]) for k in ("lr_full", "lr_galore", "ce", "dice", "loss")):
            out.append(f"non-finite value in log row {r}")
            break
        if abs(r["loss"] - (lam * r["ce"] + (1.0 - lam) * r["dice"])) > 1e-12 * max(1.0, abs(r["loss"])):
            out.append(f"step {r['step']}: loss != ce_weight*ce + (1-ce_weight)*dice")
            break
    return out


def projected(cfg, group) -> bool:
    """Whether the workload's mode projects `group`: medsaga projects every 2-D encoder matrix."""
    return (cfg.mode == "medsaga" and group.role.startswith("encoder")
            and min(group.values.shape) >= 2)


def expected_refreshes(cfg, shapes) -> int:
    groups = sum(1 for g in shapes.groups if projected(cfg, g))
    return groups * math.ceil(cfg.total_steps / cfg.refresh_period)


def own_state_bytes(cfg, shapes) -> int:
    """Optimizer-state bytes from parameter shapes and the stated per-strategy formulas."""
    total = 0
    for g in shapes.groups:
        m, n = g.values.shape
        if not projected(cfg, g):
            total += 2 * m * n
            continue
        r = min(cfg.rank, m, n)
        total += (m * r + n * r + 2 * r * r) if cfg.sided == "two" else (r * min(m, n) + 2 * r * max(m, n))
    return 8 * total


def live_state_bytes(result) -> int:
    total = sum(st.m.nbytes + st.v.nbytes for st in result.adamw_states.values())
    for st in result.galore_states.values():
        total += sum(a.nbytes for a in (st.p, st.q) if a is not None)
        total += st.inner.m.nbytes + st.inner.v.nbytes
    return total


def own_dice(params, ds: Dataset) -> float:
    """Mean foreground dice from forward() argmax labels, pooled and scored here."""
    k, f = params.config.classes, params.config.patch_size
    per_class: list[list[float]] = [[] for _ in range(1, k)]
    for s in ds.samples:
        pred = np.argmax(msga.train.forward(params, s.image), axis=-1)
        gh, gw = s.mask.shape[0] // f, s.mask.shape[1] // f
        blocks = s.mask.reshape(gh, f, gw, f)
        counts = np.stack([(blocks == c).sum(axis=(1, 3)) for c in range(k)], axis=-1)
        gt = np.argmax(counts, axis=-1)   # majority, ties to the lowest class
        for c in range(1, k):
            p, g = pred == c, gt == c
            total = int(p.sum()) + int(g.sum())
            per_class[c - 1].append(1.0 if total == 0 else 2.0 * int((p & g).sum()) / total)
    return float(np.mean([float(np.mean(acc)) for acc in per_class]))


def check_round(ctx: Context, rnd: Round) -> tuple[list[str], dict]:
    """Checks on one round; also returns the live and analytic optimizer-state bytes."""
    cfg, result = ctx.cfg, rnd.result
    shapes = msga.train.init_model(msga.train.model_config(cfg), cfg.seed)
    out = check_log(rnd.log_rows, cfg)

    expected = expected_refreshes(cfg, shapes)
    seen = sum(len(st.refresh_steps) for st in result.galore_states.values())
    if seen != expected:
        out.append(f"{seen} subspace refreshes, expected {expected} "
                   f"(projected groups x ceil(steps/period))")

    live, own = live_state_bytes(result), own_state_bytes(cfg, shapes)
    analytic = msga.memory.report_for_mode(
        shapes, cfg.mode, rank=cfg.rank, refresh_period=cfg.refresh_period,
        scale=cfg.galore_scale, sided=cfg.sided,
    ).state_bytes()
    if not live == analytic == own:
        out.append(f"live optimizer state {live} B, msga.memory {analytic} B, shape formula {own} B")
    if ctx.wl.expected_state_bytes is not None and live != ctx.wl.expected_state_bytes:
        out.append(f"live optimizer state {live} B, expected {ctx.wl.expected_state_bytes} B")

    whole = msga.train.mean_metrics(msga.train.evaluate(rnd.params, ctx.eval_ds))[0]
    mine = own_dice(rnd.params, ctx.eval_ds)
    if not (whole == rnd.dice and abs(mine - rnd.dice) <= 1e-12):
        out.append(f"held-out dice {rnd.dice!r}: evaluate() over the set {whole!r}, "
                   f"own recomputation {mine!r}")

    if ctx.wl.manifest:
        for g in result.params.groups:
            if not np.array_equal(rnd.params.group(g.name).values, g.values):
                out.append(f"restored {g.name} differs from the trained weights")
        oracle = msga.train.evaluate(rnd.params, ctx.eval_ds, oracle=True)
        if any(row.dice != 1.0 or row.hd95 != 0.0 for row in oracle):
            out.append(f"oracle evaluation is not dice 1 / HD95 0: {oracle}")
    return out, {"optim.state_bytes": live, "memory.analytic_state_bytes": analytic}


def check_repeats(rounds: list[Round], cfg) -> list[str]:
    """Every round of one seed reruns the same computation, so its outputs are identical."""
    first = rounds[0]
    out = []
    for i, rnd in enumerate(rounds[1:], start=1):
        if rnd.log_rows != first.log_rows or rnd.dice != first.dice:
            out.append(f"round {i} differs from round 0 (log rows or dice)")
        if rnd.audit_failures != first.audit_failures:
            out.append(f"round {i} SVD audit misses differ from round 0")
    traced = [r.svd for r in rounds if r.svd is not None]
    if any(s != traced[0] for s in traced[1:]):
        out.append(f"traced rounds disagree on truncated_svd counts: {traced}")
    if traced:
        expected = expected_refreshes(cfg, msga.train.init_model(msga.train.model_config(cfg), cfg.seed))
        if traced[0]["calls"] != expected:
            out.append(f"{traced[0]['calls']} truncated_svd calls per run, expected {expected}")
    return out


# ---------------------------------------------------------------------------
# metrics


def raw_timings(rounds: list[Round]) -> dict:
    """Median set-up, step and image times as measured, each with its calibration scale.

    The first round evaluates in one burst after training; the rest spread
    their images over the run, which a burst of half a second cannot.
    """
    return {
        "setup_s": (statistics.median(t for r in rounds for t, _ in r.probes),
                    calibrate.scale([x for r in rounds for x in r.cal_setup])),
        "step_ms": (statistics.median(x for r in rounds for x in r.step_ms),
                    calibrate.scale([x for r in rounds for x in r.cal_step])),
        "image_ms": (statistics.median(x for r in rounds[1:] for x in r.image_ms),
                     calibrate.scale([x for r in rounds[1:] for x in r.cal_image])),
    }


def end_to_end(rounds: list[Round], peak_bytes: int, rss_mib: float) -> dict:
    """Timings scaled to the calibration kernel's reference speed (see calibrate.py)."""
    t = raw_timings(rounds)
    return {
        "setup_s": (t["setup_s"][0] * t["setup_s"][1], "s"),
        "train_ms_per_step": (t["step_ms"][0] * t["step_ms"][1], "ms"),
        "eval_images_per_s": (1000.0 / (t["image_ms"][0] * t["image_ms"][1]), "images/s"),
        "test_dice": (rounds[0].dice, "fraction"),
        "train_peak_kib": (peak_bytes / 1024.0, "KiB"),
        "peak_rss_mib": (rss_mib, "MiB"),
    }


def per_layer(tracer: Tracer, untraced: list[Round], traced: list[Round], state: dict) -> dict:
    probes = [p for r in traced for _, p in r.probes]

    def per_call_us(name: str) -> float:
        n = tracer.count(name)
        return tracer.total_ns(name) / n / 1000.0 if n else 0.0

    def probe_median(fn) -> float:
        return statistics.median(fn(p) for p in probes)

    def probe_span(p: dict, name: str) -> dict:
        return p["spans"][name]

    steps = sum(len(r.log_rows) for r in traced)
    galore_calls = tracer.count("optim.galore_step")
    svd = traced[0].svd
    # each side scaled by the calibration kernel timed alongside it
    untraced_ms = (statistics.median(x for r in untraced for x in r.step_ms)
                   * calibrate.scale([x for r in untraced for x in r.cal_step]))
    traced_ms = (statistics.median(x for r in traced for x in r.step_ms)
                 * calibrate.scale([x for r in traced for x in r.cal_step]))
    return {
        "model.build_loss_tape_us": (per_call_us("model.build_loss_tape"), "us"),
        "tape.backward_us": (per_call_us("tape.backward"), "us"),
        "train.step_self_us": (tracer.self_ns("train.train_model") / steps / 1000.0, "us"),
        "optim.adamw_step_us": (per_call_us("optim.adamw_step"), "us"),
        "linalg.truncated_svd_us": (per_call_us("linalg.truncated_svd"), "us"),
        "linalg.truncated_svd_calls": (svd["calls"], "count"),
        "linalg.svd_cap_hits": (svd["cap_hits"], "count"),
        "linalg.svd_misses": (svd["misses"], "count"),
        "optim.galore_step_self_us": (
            tracer.self_ns("optim.galore_step") / galore_calls / 1000.0 if galore_calls else 0.0,
            "us"),
        "optim.zero_grad_refreshes": (svd["zero_grad"], "count"),
        "optim.state_bytes": (state["optim.state_bytes"], "B"),
        "memory.analytic_state_bytes": (state["memory.analytic_state_bytes"], "B"),
        "model.forward_us": (per_call_us("model.forward"), "us"),
        "model.postprocess_us": (per_call_us("model.postprocess"), "us"),
        "losses.downsample_labels_us": (per_call_us("losses.downsample_labels"), "us"),
        "losses.hd95_us": (per_call_us("losses.hd95"), "us"),
        "losses.dice_score_us": (per_call_us("losses.dice_score"), "us"),
        "data.generate_synthetic_ms": (
            probe_median(lambda p: probe_span(p, "data.generate_synthetic")["total_ns"] / 1e6), "ms"),
        "data.load_manifest_us": (
            probe_median(lambda p: probe_span(p, "data.load_manifest")["total_ns"] / 1e3 / p["images"]
                         if probe_span(p, "data.load_manifest")["count"] else 0.0), "us"),
        "model.restore_checkpoint_ms": (
            probe_median(lambda p: probe_span(p, "model.restore_checkpoint")["total_ns"] / 1e6), "ms"),
        "setup.import_ms": (probe_median(lambda p: p["import_ms"]), "ms"),
        "trace.overhead_pct": ((traced_ms / untraced_ms - 1.0) * 100.0, "%"),
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }


# ---------------------------------------------------------------------------


def main(workload: str, seed: int, seconds: float, trace: int) -> int:
    wl = WORKLOADS[workload]
    # cap hits are counted in traced runs; untraced runs keep stderr quiet
    warnings.filterwarnings("ignore", message="truncated_svd: subspace iteration hit",
                            category=RuntimeWarning)

    ctx, failures = prepare(wl, seed)
    clock = StepClock()
    clock.install()
    tracer = Tracer()
    original_svd = msga.optim.truncated_svd

    def start_tracing() -> None:
        ctx.observer = msga.optim.truncated_svd = SvdObserver(original_svd)
        ctx.tracer = tracer
        patch_program(tracer)

    def stop_tracing() -> None:
        tracer.unpatch()
        msga.optim.truncated_svd = original_svd
        ctx.observer = ctx.tracer = None

    rounds = run_rounds(ctx, clock, seconds, (start_tracing, stop_tracing) if trace else None)

    round_failures, state = check_round(ctx, rounds[0])
    failures += round_failures + check_repeats(rounds, ctx.cfg)
    if trace:
        metrics = per_layer(tracer, rounds[0::2], rounds[1::2], state)
    else:
        # read before the tracemalloc pass, whose bookkeeping would inflate it
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end(rounds, train_peak_bytes(ctx, clock), rss_mib)

    attempted = sum(len(r.log_rows) + len(r.image_ms) + r.audit_calls for r in rounds)
    failed = sum(len(r.audit_failures) for r in rounds)
    env = environment()
    raw = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env,
        "rounds": [{"step_ms": r.step_ms, "image_ms": r.image_ms,
                    "probes_s": [t for t, _ in r.probes], "cal_step_ms": r.cal_step,
                    "cal_image_ms": r.cal_image, "cal_setup_ms": r.cal_setup} for r in rounds],
        "unscaled": raw_timings(rounds),
        "failed_operations": rounds[0].audit_failures,
        "check_failures": failures,
        "spans": tracer.as_rows(),
        "metrics": {name: value for name, (value, _) in metrics.items()},
    }
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{wl.name}-seed{seed}-trace{trace}.json").write_text(json.dumps(raw))

    print(f"environment: {json.dumps(env)}")
    print(f"rounds: {len(rounds)} of {wl.name}; checks: {'FAILED' if failures else 'all passed'}")
    print("as measured (median, calibration scale): "
          + ", ".join(f"{name} {value:.6g} x{factor:.4f}"
                      for name, (value, factor) in raw["unscaled"].items()))
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    if rounds[0].audit_failures:
        print(f"failed operations: {len(rounds[0].audit_failures)} of {rounds[0].audit_calls} "
              f"truncated_svd audit calls per round miss np.linalg.svd at {SVD_AUDIT_TOL:g}:")
        for msg in rounds[0].audit_failures:
            print(f"  {msg}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0

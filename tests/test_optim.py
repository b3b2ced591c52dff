from __future__ import annotations

import weakref
from dataclasses import replace

import numpy as np
import pytest

from msga.config import ConfigError, RunConfig
from msga.data import Dataset, generate_synthetic
from msga.model import ModelConfig, init_model
from msga.optim import (
    AdamWState,
    Frozen,
    FullAdamW,
    GaLore,
    GaLoreState,
    MODES,
    WarmupSchedule,
    adamw_step,
    assign_strategies,
    galore_step,
    lr_at,
    refresh_subspace,
)
import msga.optim
import msga.tape
import msga.train
from msga.tape import Plan
from msga.losses import _SQ_DIST, dice_score, downsample_labels, hd95
from msga.model import forward, postprocess
from msga.train import ClassMetrics, evaluate, load_base_dataset, prepare_splits, train_model


# ---------------------------------------------------------------------------
# AdamW


def test_adamw_zero_grad_no_decay_is_fixed_point() -> None:
    w = np.array([[1.0, -2.0]])
    state = AdamWState.zeros(w.shape)
    out = adamw_step(w, np.zeros_like(w), state, lr=0.1, weight_decay=0.0)
    assert np.array_equal(out, w)


def test_adamw_first_step_closed_form() -> None:
    # beta-corrected m_hat = v_hat = 1 on the first unit-gradient step
    w = np.array([[0.0]])
    state = AdamWState.zeros(w.shape)
    out = adamw_step(w, np.array([[1.0]]), state, lr=0.01,
                     beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0)
    assert out[0, 0] == pytest.approx(-0.01 / (1.0 + 1e-8), abs=1e-15)


def test_adamw_pure_decay() -> None:
    w = np.array([[1.0]])
    state = AdamWState.zeros(w.shape)
    out = adamw_step(w, np.zeros_like(w), state, lr=0.01, weight_decay=0.1)
    assert out[0, 0] == pytest.approx(0.999, abs=1e-15)


def test_adamw_decay_uses_pre_update_weights() -> None:
    rng = np.random.default_rng(0)
    w = rng.standard_normal((3, 3))
    g = rng.standard_normal((3, 3))
    sa = AdamWState.zeros(w.shape)
    sb = AdamWState.zeros(w.shape)
    with_decay = adamw_step(w, g, sa, lr=0.05, weight_decay=0.1)
    without = adamw_step(w, g, sb, lr=0.05, weight_decay=0.0)
    assert np.abs((without - with_decay) - 0.05 * 0.1 * w).max() < 1e-15


def test_adamw_second_moment_nonnegative() -> None:
    rng = np.random.default_rng(1)
    w = rng.standard_normal((4, 4))
    state = AdamWState.zeros(w.shape)
    for _ in range(5):
        w = adamw_step(w, rng.standard_normal((4, 4)), state, lr=0.01)
    assert (state.v >= 0.0).all()
    assert state.step == 5


def test_adamw_step_keeps_the_bits_of_its_expressions() -> None:
    # the update runs in place in two fresh arrays; each step rounds like the expression.
    # Weights far below lr, so a last-bit change in the update shows in the new weights
    rng = np.random.default_rng(2)
    w = rng.standard_normal((7, 5)) * 1e-4
    state = AdamWState.zeros(w.shape)
    m = v = np.zeros(w.shape)
    for step in range(1, 6):
        g = rng.standard_normal(w.shape) * 10.0 ** rng.integers(-6, 3)
        lr = 0.003 * step
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        m_hat, denom = m / (1.0 - 0.9**step), np.sqrt(v / (1.0 - 0.999**step)) + 1e-8
        moments = state.m, state.v
        w_new = adamw_step(w, g, state, lr, 0.9, 0.999, 1e-8, 0.1)
        assert w_new.tobytes() == (w - lr * m_hat / denom - lr * 0.1 * w).tobytes()
        assert state.m.tobytes() == m.tobytes() and state.v.tobytes() == v.tobytes()
        assert state.m is not moments[0] and state.v is not moments[1]   # fresh, not overwritten
        w = w_new


def test_adamw_rejects_shape_mismatch() -> None:
    with pytest.raises(ValueError, match="shape"):
        adamw_step(np.zeros((2, 2)), np.zeros((2, 3)), AdamWState.zeros((2, 2)), lr=0.1)


def test_galore_step_rejects_shape_mismatch_before_it_steps() -> None:
    state = GaLoreState(rank=1, refresh_period=5)
    with pytest.raises(ValueError, match=r"^shape mismatch: w \(2, 2\), g \(2, 3\)$"):
        galore_step(np.zeros((2, 2)), np.zeros((2, 3)), state, lr=0.1)
    assert state.step == 0 and state.p is None


@pytest.mark.parametrize("lr", [-0.1, float("nan"), float("inf")])
def test_both_steps_reject_a_negative_or_non_finite_lr(lr: float) -> None:
    # a negative lr steps uphill; NaN fails `lr < 0.0` too, and both give non-finite weights
    w, g = np.ones((4, 4)), np.eye(4)
    adam, galore = AdamWState.zeros(w.shape), GaLoreState(rank=2, refresh_period=5)
    for step, state in ((adamw_step, adam), (galore_step, galore)):
        with pytest.raises(ValueError, match=f"^lr must be non-negative and finite, got {lr}$"):
            step(w, g, state, lr)
    assert adam.step == 0 and galore.step == 0 and galore.p is None


# ---------------------------------------------------------------------------
# subspace refresh


def test_refresh_rank_one_spans_column_space() -> None:
    rng = np.random.default_rng(2)
    u = rng.standard_normal((5, 1))
    v = rng.standard_normal((7, 1))
    p, q = refresh_subspace(u @ v.T, 1, sided="one")
    assert q is None  # 5 <= 7: left projector
    u_hat = u / np.linalg.norm(u)
    assert abs(abs((u_hat.T @ p).item()) - 1.0) < 1e-10


def test_refresh_diagonal_two_sided() -> None:
    p, q = refresh_subspace(np.diag([3.0, 2.0, 1.0]), 2, sided="two")
    assert np.allclose(np.abs(p), np.eye(3)[:, :2], atol=1e-8)
    assert np.allclose(np.abs(q), np.eye(3)[:, :2], atol=1e-8)


def test_refresh_one_sided_picks_shorter_dimension() -> None:
    g = np.random.default_rng(3).standard_normal((4, 9))
    p, q = refresh_subspace(g, 2, sided="one")
    assert p is not None and p.shape == (4, 2) and q is None
    p, q = refresh_subspace(g.T, 2, sided="one")
    assert p is None and q is not None and q.shape == (4, 2)


def test_refresh_rejects_excess_rank() -> None:
    with pytest.raises(ValueError, match="rank"):
        refresh_subspace(np.zeros((3, 5)), 4)


def test_refresh_cadence_in_galore_state() -> None:
    rng = np.random.default_rng(4)
    w = rng.standard_normal((6, 6))
    state = GaLoreState(rank=2, refresh_period=200)
    for _ in range(1000):
        w = galore_step(w, rng.standard_normal((6, 6)), state, lr=1e-3)
    assert state.refresh_steps == [0, 200, 400, 600, 800]


@pytest.mark.parametrize("n_steps,period", [(450, 200), (1, 200), (200, 200), (201, 200), (7, 3)])
def test_refresh_count_is_ceil_steps_over_period(n_steps: int, period: int) -> None:
    rng = np.random.default_rng(5)
    w = rng.standard_normal((4, 4))
    state = GaLoreState(rank=2, refresh_period=period)
    for _ in range(n_steps):
        w = galore_step(w, rng.standard_normal((4, 4)), state, lr=1e-3)
    assert len(state.refresh_steps) == -(-n_steps // period)


def test_projectors_orthonormal_after_every_refresh() -> None:
    rng = np.random.default_rng(5)
    w = rng.standard_normal((5, 8))
    state = GaLoreState(rank=3, refresh_period=2, sided="two")
    for _ in range(6):
        w = galore_step(w, rng.standard_normal((5, 8)), state, lr=1e-3)
        for basis in (state.p, state.q):
            assert np.abs(basis.T @ basis - np.eye(3)).max() < 1e-8


# ---------------------------------------------------------------------------
# projected update


def test_identity_regularizer_full_rank_equals_plain_step() -> None:
    rng = np.random.default_rng(6)
    for sided in ("one", "two"):
        for _ in range(25):
            m, n = rng.integers(2, 11, size=2)
            w = rng.standard_normal((m, n))
            g = rng.standard_normal((m, n))
            state = GaLoreState(rank=min(m, n), refresh_period=10,
                                sided=sided, regularizer="identity")
            stepped = galore_step(w, g, state, lr=0.05)
            assert np.abs(stepped - (w - 0.05 * g)).max() < 1e-10


def test_identity_regularizer_rank_one_gradient() -> None:
    rng = np.random.default_rng(7)
    u = rng.standard_normal((6, 1))
    v = rng.standard_normal((4, 1))
    g = u @ v.T
    w = rng.standard_normal((6, 4))
    state = GaLoreState(rank=1, refresh_period=10, regularizer="identity")
    stepped = galore_step(w, g, state, lr=0.1)
    assert np.abs(stepped - (w - 0.1 * g)).max() < 1e-10


def test_galore_step_matches_scalar_enumeration_oracle() -> None:
    """2x2 case cross-checked against a hand-scripted update.

    The oracle fixes the projector to the gradient's left singular basis,
    then walks the projected AdamW arithmetic entry by entry.
    """
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    g = np.array([[0.5, -0.25], [1.5, 0.75]])  # rank 1: rows proportional
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8

    state = GaLoreState(rank=1, refresh_period=100, sided="one")
    stepped = galore_step(w, g, state, lr, b1, b2, eps)

    # left singular vector of g, sign fixed to a non-negative dominant entry
    col = g @ g.T
    lam = 0.5 * (col[0, 0] + col[1, 1] + np.sqrt((col[0, 0] - col[1, 1]) ** 2
                                                 + 4 * col[0, 1] ** 2))
    p = np.array([col[0, 1], lam - col[0, 0]])
    p = p / np.linalg.norm(p)
    if p[np.argmax(np.abs(p))] < 0:
        p = -p
    core = np.array([p @ g[:, 0], p @ g[:, 1]])  # P^T g, shape (1, 2) flattened
    m = (1 - b1) * core
    v = (1 - b2) * core**2
    direction = (m / (1 - b1)) / (np.sqrt(v / (1 - b2)) + eps)
    expected = w - lr * np.outer(p, direction)
    assert np.abs(stepped - expected).max() < 1e-12


def test_moments_reset_on_refresh_by_default() -> None:
    rng = np.random.default_rng(8)
    w = rng.standard_normal((4, 4))
    state = GaLoreState(rank=2, refresh_period=3)
    for _ in range(3):
        w = galore_step(w, rng.standard_normal((4, 4)), state, lr=1e-3)
    assert state.inner.step == 3
    w = galore_step(w, rng.standard_normal((4, 4)), state, lr=1e-3)  # step 3: refresh
    assert state.inner.step == 1
    assert len(state.refresh_steps) == 2


def test_moments_can_persist_across_refresh() -> None:
    rng = np.random.default_rng(9)
    w = rng.standard_normal((4, 4))
    state = GaLoreState(rank=2, refresh_period=3, reset_moments_on_refresh=False)
    for _ in range(4):
        w = galore_step(w, rng.standard_normal((4, 4)), state, lr=1e-3)
    assert state.inner.step == 4
    assert len(state.refresh_steps) == 2


def test_galore_state_rejects_rank_over_dims() -> None:
    state = GaLoreState(rank=4, refresh_period=10)
    with pytest.raises(ValueError, match="rank 4 out of range for a 1x8 matrix"):
        galore_step(np.zeros((1, 8)), np.ones((1, 8)), state, lr=1e-3)


@pytest.mark.parametrize("setting, key", [
    ({"refresh_period": 0}, "refresh_period"),
    ({"sided": "three"}, "sided"),
    ({"regularizer": "sgd"}, "regularizer"),
    ({"rank": 0}, "rank"),
    ({"scale": float("nan")}, "scale"),
])
def test_galore_state_applies_strategy_rules(setting, key) -> None:
    with pytest.raises(ConfigError) as info:
        GaLoreState(**{"rank": 2, "refresh_period": 10, **setting})
    assert info.value.field == key


def test_scale_multiplier_scales_identity_update() -> None:
    rng = np.random.default_rng(10)
    w = rng.standard_normal((5, 5))
    g = rng.standard_normal((5, 5))
    state = GaLoreState(rank=5, refresh_period=4, scale=0.25, regularizer="identity")
    stepped = galore_step(w, g, state, lr=0.1)
    assert np.abs(stepped - (w - 0.1 * 0.25 * g)).max() < 1e-10


@pytest.mark.parametrize("shape, sided, regularizer, reset", [
    ((4, 6), "one", "adamw", True),       # left projector: rows <= cols
    ((6, 4), "one", "adamw", False),      # right projector: rows > cols
    ((5, 7), "two", "adamw", True),
    ((7, 5), "two", "adamw", False),
    ((6, 4), "one", "identity", True),
])
def test_a_stack_steps_as_its_slices_do_bitwise(shape, sided, regularizer, reset) -> None:
    # one galore_step on a (k, m, n) stack against k single-matrix calls, compared bit for
    # bit after every step over three refreshes; slice 1's gradient is exactly zero at the
    # second refresh, so its basis takes the coordinate axes
    rng = np.random.default_rng(11)
    k, period, steps = 3, 3, 8
    settings = dict(rank=2, refresh_period=period, scale=0.5, sided=sided,
                    regularizer=regularizer, reset_moments_on_refresh=reset)
    stack, singles = GaLoreState(**settings), [GaLoreState(**settings) for _ in range(k)]
    w = rng.standard_normal((k, *shape))
    ws = [w[i].copy() for i in range(k)]
    for step in range(steps):
        g = rng.standard_normal((k, *shape))
        if step == period:
            g[1] = 0.0
        w = galore_step(w, g, stack, lr=1e-2)
        ws = [galore_step(wi, gi, st, lr=1e-2) for wi, gi, st in zip(ws, g, singles)]
        assert w.tobytes() == np.stack(ws).tobytes(), step
        for i, st in enumerate(singles):
            assert (stack.step, stack.refresh_steps) == (st.step, st.refresh_steps), (step, i)
            assert stack.inner.step == st.inner.step, (step, i)
            for a, b in ((stack.p, st.p), (stack.q, st.q), (stack.inner.m, st.inner.m),
                         (stack.inner.v, st.inner.v)):
                assert (a is None and b is None) or a[i].tobytes() == b.tobytes(), (step, i)
        if step == period:
            for basis in (a for a in (stack.p, stack.q) if a is not None):
                assert np.array_equal(basis[1], np.eye(*basis.shape[1:])), step
    assert stack.refresh_steps == [0, 3, 6] and stack.step == steps


def test_two_sided_training_keeps_both_projectors() -> None:
    cfg = RunConfig(mode="medsaga", sided="two", total_steps=12, synthetic_count=20,
                    image_h=16, image_w=16, embed_dim=8, blocks=1,
                    decoder_channels=8, batch_size=2).validate()
    train_ds, _ = prepare_splits(cfg)
    result = train_model(cfg, train_ds)
    assert result.galore_states
    for state in result.galore_states.values():
        assert state.p is not None and state.q is not None
        assert state.p.shape[1] == state.rank and state.q.shape[1] == state.rank


# ---------------------------------------------------------------------------
# schedule


@pytest.mark.parametrize("args, message", [
    ((-0.1, 1, 2), "base_lr must be non-negative, got -0.1"),
    ((0.1, 0, 2), "need 1 <= warmup_steps <= total_steps, got 0 and 2"),
    ((0.1, 3, 2), "need 1 <= warmup_steps <= total_steps, got 3 and 2"),
], ids=["negative-rate", "no-warmup", "warmup-past-total"])
def test_warmup_schedule_rejects_a_bad_rate_or_step_counts(args, message) -> None:
    with pytest.raises(ValueError, match=f"^{message}$"):
        WarmupSchedule(*args)


def test_lr_at_rejects_a_negative_step() -> None:
    with pytest.raises(ValueError, match="^step must be non-negative, got -1$"):
        lr_at(WarmupSchedule(0.1, 1, 2), -1)


def test_lr_midpoint_of_ramp() -> None:
    sched = WarmupSchedule(base_lr=0.005, warmup_steps=250, total_steps=1000)
    assert lr_at(sched, 124) == pytest.approx(0.0025, abs=1e-15)


def test_lr_continuous_at_warmup_end() -> None:
    sched = WarmupSchedule(base_lr=0.005, warmup_steps=250, total_steps=1000)
    assert lr_at(sched, 250) == pytest.approx(0.005, abs=1e-15)
    assert lr_at(sched, 249) == pytest.approx(0.005, abs=1e-15)


def test_lr_final_step_is_zero() -> None:
    sched = WarmupSchedule(base_lr=0.005, warmup_steps=250, total_steps=1000)
    assert lr_at(sched, 1000) <= 1e-12


def test_lr_monotone_ramp_then_decay() -> None:
    sched = WarmupSchedule(base_lr=0.005, warmup_steps=50, total_steps=300)
    ramp = [lr_at(sched, s) for s in range(50)]
    decay = [lr_at(sched, s) for s in range(50, 301)]
    assert all(a <= b for a, b in zip(ramp, ramp[1:]))
    assert all(a >= b for a, b in zip(decay, decay[1:]))
    assert all(lr >= 0.0 for lr in ramp + decay)


# ---------------------------------------------------------------------------
# strategy assignment


def _toy_params():
    return init_model(ModelConfig(), seed=0)


def test_medsaga_projects_every_projectable_encoder_group() -> None:
    tagged = assign_strategies(_toy_params(), "medsaga")
    for g in tagged.groups:
        if g.role.startswith("encoder"):
            if min(g.values.shape) >= 2:
                assert isinstance(g.strategy, GaLore), g.name
            else:
                assert isinstance(g.strategy, FullAdamW), g.name
        else:
            assert isinstance(g.strategy, FullAdamW), g.name


def test_v1_projects_exactly_the_attention_set() -> None:
    tagged = assign_strategies(_toy_params(), "v1")
    galore_names = {g.name for g in tagged.groups if isinstance(g.strategy, GaLore)}
    expected = {
        f"encoder/block{b}/attn/{s}" for b in range(2) for s in ("q", "k", "v", "o")
    }
    assert galore_names == expected
    mlp = [g for g in tagged.groups if g.role == "encoder-mlp"]
    assert all(isinstance(g.strategy, FullAdamW) for g in mlp)


def test_v2_freezes_prompt_and_decoder() -> None:
    tagged = assign_strategies(_toy_params(), "v2")
    for g in tagged.groups:
        if g.role in ("prompt", "decoder"):
            assert isinstance(g.strategy, Frozen), g.name
        elif g.role.startswith("encoder") and min(g.values.shape) >= 2:
            assert isinstance(g.strategy, GaLore), g.name


def test_v1_galore_set_is_subset_of_medsaga() -> None:
    v1 = {g.name for g in assign_strategies(_toy_params(), "v1").groups
          if isinstance(g.strategy, GaLore)}
    med = {g.name for g in assign_strategies(_toy_params(), "medsaga").groups
           if isinstance(g.strategy, GaLore)}
    assert v1 < med


def test_unknown_mode_rejected() -> None:
    with pytest.raises(ValueError, match="unknown mode"):
        assign_strategies(_toy_params(), "lora")


def test_galore_rank_clamped_to_group_dims() -> None:
    tagged = assign_strategies(_toy_params(), "medsaga", rank=64)
    for g in tagged.groups:
        if isinstance(g.strategy, GaLore):
            assert g.strategy.rank <= min(g.values.shape)


def test_frozen_groups_bitwise_unchanged_after_training() -> None:
    cfg = RunConfig(mode="v2", total_steps=100, synthetic_count=20,
                    image_h=16, image_w=16, embed_dim=8, blocks=1,
                    decoder_channels=8, batch_size=2).validate()
    train_ds, _ = prepare_splits(cfg)
    before = init_model(ModelConfig(image_h=16, image_w=16, patch_size=4, embed_dim=8,
                                    blocks=1, classes=3, decoder_channels=8), cfg.seed)
    result = train_model(cfg, train_ds, params=before)
    for b, a in zip(before.groups, result.params.groups):
        if b.role in ("prompt", "decoder"):
            assert np.array_equal(b.values, a.values), b.name
        elif b.role.startswith("encoder") and min(b.values.shape) >= 2:
            # the frozen classifier head starts at zero, so it blocks every
            # gradient path: projected encoder groups see exactly-zero
            # gradients and stay put (1-row groups still shrink under the
            # decoupled weight decay of their plain AdamW updates)
            assert np.array_equal(b.values, a.values), b.name


def test_medsaga_training_actually_moves_encoder_weights() -> None:
    cfg = RunConfig(mode="medsaga", total_steps=30, synthetic_count=20,
                    image_h=16, image_w=16, embed_dim=8, blocks=1,
                    decoder_channels=8, batch_size=2).validate()
    train_ds, _ = prepare_splits(cfg)
    before = init_model(ModelConfig(image_h=16, image_w=16, patch_size=4, embed_dim=8,
                                    blocks=1, classes=3, decoder_channels=8), cfg.seed)
    result = train_model(cfg, train_ds, params=before)
    moved = [a.name for b, a in zip(before.groups, result.params.groups)
             if b.role.startswith("encoder-attention") and not np.array_equal(b.values, a.values)]
    assert moved, "attention weights never moved under medsaga training"


def test_full_adamw_runs_are_bitwise_reproducible() -> None:
    cfg = RunConfig(mode="full-adamw", total_steps=30, synthetic_count=20,
                    image_h=16, image_w=16, embed_dim=8, blocks=1,
                    decoder_channels=8, batch_size=2).validate()
    train_ds, _ = prepare_splits(cfg)
    r1 = train_model(cfg, train_ds)
    r2 = train_model(cfg, train_ds)
    for a, b in zip(r1.params.groups, r2.params.groups):
        assert np.array_equal(a.values, b.values), a.name


def _aux_arrays(aux: dict) -> list[np.ndarray]:
    """The arrays a forward rule kept in its aux, not the labels it was given."""
    return [a for key, kept in aux.items() if key != "labels"
            for a in (kept if isinstance(kept, tuple) else (kept,)) if isinstance(a, np.ndarray)]


def test_training_records_one_tape_and_frees_each_sample_replay_before_the_next(
        monkeypatch) -> None:
    # one recorded tape per run; a sample's replayed values, kept intermediates
    # and adjoints are all gone when the next sample starts, and a step's
    # gradient sums, flat gradient, projected gradients and optimizer
    # temporaries are gone when the next step's replay starts
    cfg = RunConfig(mode="medsaga", total_steps=3, synthetic_count=20,
                    image_h=16, image_w=16, embed_dim=8, blocks=1,
                    decoder_channels=8, batch_size=2).validate()
    train_ds, _ = prepare_splits(cfg)
    tapes: list[int] = []
    runs: list[int] = []
    replays: list[int] = []
    live: list[weakref.ref] = []    # every array an op or a backward made so far
    sums: list[weakref.ref] = []    # the gradient sums of every finished step
    temps: list[weakref.ref] = []   # what the optimizer was given or made, moments excepted
    adamw_calls: list[int] = []
    original_build, original_run, original_backward = (
        msga.train.build_loss_tape, Plan.run, Plan.backward)
    original_adamw, original_galore, original_moments = (
        msga.train.adamw_step, msga.train.galore_step, msga.optim._adamw_moments)

    def recording(*args, **kwargs):
        tapes.append(1)
        return original_build(*args, **kwargs)

    def watched_forward(rule):
        def forward_rule_watched(*args):
            out = rule(*args)
            # every op output is an ndarray, 0-d loss terms included, so each takes a weak reference
            live.extend(weakref.ref(a) for a in (out, *_aux_arrays(args[-1]))
                        if isinstance(a, np.ndarray))
            return out
        return forward_rule_watched

    def watched_run(self, samples, owned=None):
        def checked():
            for sample in samples:
                alive = sum(ref() is not None for ref in live)
                assert not alive, f"{alive} arrays of an earlier sample alive at {len(replays)}"
                alive = sum(ref() is not None for ref in sums)
                assert not alive, f"{alive} gradient sums of an earlier step alive at {len(runs)}"
                alive = sum(ref() is not None for ref in temps)
                assert not alive, f"{alive} optimizer arrays of step {len(runs) - 1} alive"
                replays.append(1)
                yield sample
        reads, grads = original_run(self, checked(), owned)
        runs.append(1)
        sums.extend(weakref.ref(g) for g in grads.values())
        return reads, grads

    def watched_backward(self, kept):
        grads = original_backward(self, kept)
        live.extend(weakref.ref(g) for g in grads.values())
        return grads

    def watched_adamw(w, g, state, *args):
        # the flat gradient, the moments it replaces, and the new weights copied into place
        adamw_calls.append(1)
        temps.extend(weakref.ref(a) for a in (g, state.m, state.v))
        out = original_adamw(w, g, state, *args)
        temps.append(weakref.ref(out))
        return out

    def watched_galore(w, g, *args):
        temps.append(weakref.ref(g))
        return original_galore(w, g, *args)

    def watched_moments(*args):
        out = original_moments(*args)
        temps.extend(weakref.ref(a) for a in out)
        return out

    for op, rules in list(msga.tape._OPS.items()):
        monkeypatch.setitem(msga.tape._OPS, op, replace(rules, fwd=watched_forward(rules.fwd)))
    monkeypatch.setattr(msga.train, "adamw_step", watched_adamw)
    monkeypatch.setattr(msga.train, "galore_step", watched_galore)
    monkeypatch.setattr(msga.optim, "_adamw_moments", watched_moments)
    monkeypatch.setattr(msga.train, "build_loss_tape", recording)
    monkeypatch.setattr(Plan, "run", watched_run)
    monkeypatch.setattr(Plan, "backward", watched_backward)
    result = train_model(cfg, train_ds)
    assert len(tapes) == 1
    assert len(runs) == cfg.total_steps
    assert len(replays) == cfg.total_steps * cfg.batch_size
    assert len(live) > len(replays) * 30   # values, intermediates and adjoints were all watched
    trained = [g for g in result.params.groups if not isinstance(g.strategy, Frozen)]
    assert len(sums) == cfg.total_steps * len(trained)
    # one flat AdamW update per step; each shape class of projected groups steps as one stack
    classes = {(g.values.shape, g.strategy) for g in trained if isinstance(g.strategy, GaLore)}
    assert len(adamw_calls) == cfg.total_steps
    assert len(temps) == cfg.total_steps * (6 + 3 * len(classes))


def _small_cfg(**overrides) -> RunConfig:
    return RunConfig(**{**dict(total_steps=4, warmup_steps=2, synthetic_count=20, image_h=16,
                               image_w=16, embed_dim=8, blocks=1, decoder_channels=8,
                               batch_size=2), **overrides}).validate()


@pytest.mark.parametrize("poisoned, named, mode", [
    (("decoder/fc1/weight",), "decoder/fc1/weight", "medsaga"),         # in the AdamW slice
    (("encoder/block0/attn/q",), "encoder/block0/attn/q", "medsaga"),   # projected
    # both kinds at once: the first of them in group order is named
    (("encoder/pos_embed", "encoder/patch_embed/bias"), "encoder/patch_embed/bias", "medsaga"),
    (("decoder/fc2/bias", "encoder/pos_embed"), "encoder/pos_embed", "medsaga"),
    # no projected slice: every trained group is in the AdamW slice
    (("decoder/fc1/weight", "encoder/block0/attn/q"), "encoder/block0/attn/q", "full-adamw"),
    # the projected group comes first in group order but after the AdamW slice in the vector
    (("encoder/block0/mlp/b2", "encoder/block0/attn/q"), "encoder/block0/attn/q", "v2"),
])
def test_divergence_names_the_first_non_finite_group_in_group_order(
        monkeypatch, poisoned: tuple[str, ...], named: str, mode: str) -> None:
    cfg = _small_cfg(mode=mode)
    train_ds, _ = prepare_splits(cfg)
    strategies = {g.name: type(g.strategy) for g in assign_strategies(
        init_model(msga.train.model_config(cfg), cfg.seed), cfg.mode).groups}
    assert {strategies[name] for name in poisoned} <= {FullAdamW, GaLore}
    original_run = Plan.run
    runs: list[int] = []

    def poisoning_run(self, samples, sums=None):
        reads, grads = original_run(self, samples, sums)
        runs.append(1)
        if len(runs) == 2:
            nids = {name: nid for nid, _, name in self.leaves}
            for name in poisoned:
                grads[nids[name]][0, -1] = np.nan
        return reads, grads

    monkeypatch.setattr(Plan, "run", poisoning_run)
    with pytest.raises(FloatingPointError) as err:
        train_model(cfg, train_ds)
    assert str(err.value) == f"training diverged at step 1: gradient of {named} is not finite"


@pytest.mark.parametrize("mode", ["medsaga", "v2", "full-adamw"])
def test_each_step_sums_its_adjoints_into_views_of_one_flat_gradient(
        monkeypatch, mode: str) -> None:
    # the sums Plan.run returns inside train_model are the arrays it was handed: views of
    # one fresh flat array per step, each group's at its weights' offset in the flat
    # weight vector, together covering the whole array
    cfg = _small_cfg(mode=mode)
    train_ds, _ = prepare_splits(cfg)
    original_run = Plan.run
    steps: list[tuple[np.ndarray, dict[str, int]]] = []

    def viewing_run(self, samples, sums=None):
        reads, grads = original_run(self, samples, sums)
        assert grads is sums
        names = {nid: name for nid, _, name in self.leaves}
        flat = next(iter(grads.values())).base
        assert flat.ndim == 1 and flat.size == sum(g.size for g in grads.values())
        assert all(g.base is flat and np.shares_memory(g, flat) for g in grads.values())
        steps.append((flat, {names[nid]: _offset(g, flat) for nid, g in grads.items()}))
        return reads, grads

    monkeypatch.setattr(Plan, "run", viewing_run)
    result = train_model(cfg, train_ds)
    trained = [g for g in result.params.groups if not isinstance(g.strategy, Frozen)]
    flat_w = trained[0].values.base
    layout = {g.name: _offset(g.values, flat_w) for g in trained}
    assert len(steps) == cfg.total_steps
    assert all(offsets == layout for _, offsets in steps)
    assert not any(np.shares_memory(a, b) for (a, _), (b, _) in zip(steps, steps[1:]))


def _offset(view: np.ndarray, base: np.ndarray) -> int:
    """Where a view starts in its base, in elements."""
    return (view.ctypes.data - base.ctypes.data) // base.itemsize


def _train_group_by_group(cfg: RunConfig, train_ds) -> msga.train.TrainResult:
    """`train_model` with one `adamw_step` or `galore_step` call per trained group on the
    same `Plan.run` sums: the reference the flat AdamW update must match bit for bit."""
    params = assign_strategies(init_model(msga.train.model_config(cfg), cfg.seed), cfg.mode,
                               **cfg.galore_settings())
    adamw_states, galore_states = {}, {}
    for g in params.groups:
        if isinstance(g.strategy, FullAdamW):
            adamw_states[g.name] = AdamWState.zeros(g.values.shape)
        elif isinstance(g.strategy, GaLore):
            galore_states[g.name] = GaLoreState(
                **vars(g.strategy), reset_moments_on_refresh=cfg.refresh_resets_moments)
    horizon = max(cfg.total_steps, cfg.warmup_steps)
    full_sched = WarmupSchedule(cfg.full_lr, cfg.warmup_steps, horizon, cfg.decay_exponent)
    galore_sched = WarmupSchedule(cfg.galore_lr, cfg.warmup_steps, horizon, cfg.decay_exponent)
    images = [s.image for s in train_ds.samples]
    labels = [downsample_labels(s.mask, cfg.patch_size).reshape(-1) for s in train_ds.samples]
    plan, ids = msga.train.compile_loss_plan(params, images[0], labels[0], cfg)
    log_rows = []
    batches = msga.train._batches(cfg.seed, len(train_ds), cfg.batch_size)
    for step, batch in zip(range(cfg.total_steps), batches):
        (ce, dice, loss), grads = plan.run(
            [([*(g.values for g in params.groups), images[i]], labels[i]) for i in batch])
        inv = 1.0 / len(batch)
        lr_full, lr_galore = lr_at(full_sched, step), lr_at(galore_sched, step)
        for g in params.groups:
            if isinstance(g.strategy, FullAdamW):
                g.values = adamw_step(g.values, grads[ids[g.name]] * inv, adamw_states[g.name],
                                      lr_full, cfg.beta1, cfg.beta2, cfg.eps, cfg.weight_decay)
            elif isinstance(g.strategy, GaLore):
                g.values = galore_step(g.values, grads[ids[g.name]] * inv, galore_states[g.name],
                                       lr_galore, cfg.beta1, cfg.beta2, cfg.eps)
        log_rows.append({"step": step, "lr_full": lr_full, "lr_galore": lr_galore,
                         "ce": ce * inv, "dice": dice * inv, "loss": loss * inv})
    return msga.train.TrainResult(params, adamw_states, galore_states, log_rows)


@pytest.mark.parametrize("overrides", [
    dict(mode="medsaga"), dict(mode="v1"), dict(mode="v2"), dict(mode="full-adamw"),
    dict(mode="medsaga", sided="two", refresh_period=1),
    dict(mode="v1", refresh_period=2, refresh_resets_moments=False),
    # two blocks: every shape class of projected groups stacks two or more of them
    dict(mode="medsaga", blocks=2),
    dict(mode="medsaga", blocks=2, sided="two", refresh_period=1),
    dict(mode="v1", blocks=2, refresh_period=2),
])
def test_flat_adamw_update_equals_one_step_per_group_bitwise(overrides: dict) -> None:
    cfg = _small_cfg(**overrides)
    train_ds, _ = prepare_splits(cfg)
    got, ref = train_model(cfg, train_ds), _train_group_by_group(cfg, train_ds)
    assert got.log_rows == ref.log_rows
    for g, r in zip(got.params.groups, ref.params.groups, strict=True):
        assert g.name == r.name and np.array_equal(g.values, r.values), g.name
    assert list(got.adamw_states) == list(ref.adamw_states)
    for name, st in got.adamw_states.items():
        want = ref.adamw_states[name]
        assert st.m.shape == st.v.shape == want.m.shape, name
        assert np.array_equal(st.m, want.m) and np.array_equal(st.v, want.v), name
        assert st.step == want.step == cfg.total_steps, name
    assert list(got.galore_states) == list(ref.galore_states)
    for name, st in got.galore_states.items():
        want = ref.galore_states[name]
        assert (st.step, st.refresh_steps) == (want.step, want.refresh_steps), name
        for a, b in ((st.p, want.p), (st.q, want.q), (st.inner.m, want.inner.m),
                     (st.inner.v, want.inner.v)):
            assert (a is None and b is None) or np.array_equal(a, b), name


@pytest.mark.parametrize("mode", MODES)
def test_train_model_never_writes_its_input(mode: str) -> None:
    cfg = _small_cfg(mode=mode)
    train_ds, _ = prepare_splits(cfg)
    params = init_model(msga.train.model_config(cfg), cfg.seed)
    before = [(g, g.values, g.values.tobytes(), g.strategy) for g in params.groups]
    result = train_model(cfg, train_ds, params=params)
    for g, (group, values, data, strategy) in zip(params.groups, before, strict=True):
        assert g is group and g.values is values and g.strategy is strategy, g.name
        assert g.values.tobytes() == data, g.name
    # a trained group is the result's own; a frozen group keeps the input's array
    for g, r in zip(params.groups, result.params.groups, strict=True):
        frozen = isinstance(r.strategy, Frozen)
        assert (r.values is g.values) if frozen else not np.shares_memory(r.values, g.values), \
            g.name


def test_galore_state_strictly_smaller_than_full_adamw_for_default_config() -> None:
    tagged = assign_strategies(_toy_params(), "medsaga")
    for g in tagged.groups:
        if isinstance(g.strategy, GaLore):
            m, n = g.values.shape
            r = g.strategy.rank
            one_sided = r * min(m, n) + 2 * r * max(m, n)
            assert one_sided < 2 * m * n, g.name
            assert r * (min(m, n) + 2 * max(m, n)) < 2 * m * n  # the rank condition


def _per_class_evaluate(params, ds, boundary: bool, oracle: bool) -> list[ClassMetrics]:
    """`evaluate` as one dice_score and one hd95 call per image and foreground class."""
    cfg = params.config
    per_class: dict[int, list[tuple[float, float]]] = {c: [] for c in range(1, cfg.classes)}
    for sample in ds.samples:
        gt = downsample_labels(sample.mask, cfg.patch_size)
        pred = gt if oracle else postprocess(forward(params, sample.image))
        for c in range(1, cfg.classes):
            per_class[c].append((dice_score(pred, gt, c), hd95(pred, gt, c, boundary=boundary)))
    return [ClassMetrics(class_index=c,
                         dice=float(np.mean([p[0] for p in per_class[c]])),
                         hd95=float(np.mean([p[1] for p in per_class[c]])))
            for c in range(1, cfg.classes)]


def test_evaluate_rejects_an_empty_dataset() -> None:
    # a mean over no images is nan for every class; the run stops with an error instead
    with pytest.raises(ValueError, match="^evaluation dataset is empty$"):
        evaluate(init_model(ModelConfig(), 0), Dataset((), 3, "x"))


def test_evaluate_rejects_a_dataset_of_another_class_count() -> None:
    params = init_model(ModelConfig(image_h=16, image_w=16, classes=3), 0)
    with pytest.raises(ValueError, match="^dataset has 4 classes, model expects 3$"):
        evaluate(params, generate_synthetic(0, 2, 16, 16, 4))


def test_training_rejects_an_empty_dataset() -> None:
    with pytest.raises(ValueError, match="^training dataset is empty$"):
        train_model(RunConfig(), Dataset((), 3, "x"))


def test_evaluate_equals_the_per_class_loop_and_memoises_only_distance_tables() -> None:
    cfg = RunConfig(mode="medsaga", total_steps=20, synthetic_count=20).validate()
    train_ds, test_ds = prepare_splits(cfg)
    params = train_model(cfg, train_ds).params
    grid = (params.config.grid_h, params.config.grid_w)
    before = set(_SQ_DIST)
    # all 20 images as well: from 8 up, a mean over a strided row sums in another
    # order than np.mean over a list, and here two of the four means differ by it
    for ds in (test_ds, load_base_dataset(cfg)):
        for boundary in (True, False):
            got = evaluate(params, ds, boundary=boundary)
            assert got == _per_class_evaluate(params, ds, boundary, oracle=False)
            assert len(got) == params.config.classes - 1
    oracle = evaluate(params, test_ds, oracle=True)
    assert oracle == _per_class_evaluate(params, test_ds, True, oracle=True)
    assert all(m.dice == 1.0 and m.hd95 == 0.0 for m in oracle)
    # the memo holds one squared-distance table per grid shape, nothing per image
    assert set(_SQ_DIST) - before <= {grid} and grid in _SQ_DIST
    tokens = grid[0] * grid[1]
    for shape, table in _SQ_DIST.items():
        assert table.shape == (shape[0] * shape[1],) * 2
    table = _SQ_DIST[grid]
    assert table.shape == (tokens, tokens) and not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1

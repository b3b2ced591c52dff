from __future__ import annotations

import json

import numpy as np
import pytest

from msga.memory import (
    BYTES_PER_ELEMENT,
    account_group,
    adapter_baseline,
    compare_strategies,
    galore_state_elements,
    hypothetical_adapter_footprint,
    render_json,
    render_text,
    report_for_mode,
)
from msga.model import ModelConfig, ParamGroup, init_model
from msga.optim import Frozen, FullAdamW, GaLore


def _group(shape, strategy, role="encoder-mlp", name="g"):
    return ParamGroup(name=name, values=np.zeros(shape), role=role, strategy=strategy)


def test_frozen_group_has_no_grad_or_state_bytes() -> None:
    rec = account_group(_group((64, 64), Frozen()))
    assert rec.state_bytes == 0
    assert rec.grad_bytes == 0
    assert rec.weight_bytes == 64 * 64 * 8


def test_full_adamw_state_bytes_64x64() -> None:
    rec = account_group(_group((64, 64), FullAdamW()))
    assert rec.state_bytes == 2 * 4096 * 8 == 65536


def test_galore_one_sided_64x64_rank4() -> None:
    rec = account_group(_group((64, 64), GaLore(rank=4)))
    assert rec.state_bytes == (64 * 4 + 2 * 4 * 64) * 8 == 6144
    full = account_group(_group((64, 64), FullAdamW())).state_bytes
    assert 1.0 - rec.state_bytes / full == pytest.approx(0.90625)


def test_galore_two_sided_formula() -> None:
    rec = account_group(_group((10, 6), GaLore(rank=3, sided="two")))
    assert rec.state_bytes == (10 * 3 + 6 * 3 + 2 * 9) * 8


def test_galore_one_sided_projector_sits_on_shorter_dim() -> None:
    # 16x64 and 64x16 hold the same buffers: r*min projector + 2*r*max moments
    wide = account_group(_group((16, 64), GaLore(rank=4)))
    tall = account_group(_group((64, 16), GaLore(rank=4)))
    assert wide.state_bytes == tall.state_bytes == (4 * 16 + 2 * 4 * 64) * 8
    assert galore_state_elements(16, 64, 4, "one") == 4 * 16 + 2 * 4 * 64


def test_account_group_requires_strategy() -> None:
    with pytest.raises(ValueError, match="strategy"):
        account_group(_group((4, 4), None))


def test_rank_condition_holds_for_every_projected_default_group() -> None:
    params = init_model(ModelConfig(), seed=0)
    report = report_for_mode(params, "medsaga")
    tagged = {g.name: g for g in report.groups}
    for g in report.groups:
        if g.strategy.startswith("galore"):
            full = account_group(_group(
                next(p.values.shape for p in params.groups if p.name == g.name), FullAdamW()
            )).state_bytes
            assert g.state_bytes < full, g.name


def test_totals_equal_sum_of_groups() -> None:
    params = init_model(ModelConfig(), seed=1)
    report = report_for_mode(params, "medsaga")
    totals = report.component_totals()
    assert sum(t["state_bytes"] for t in totals.values()) == report.state_bytes()
    assert report.grand_total_bytes() == sum(g.total_bytes for g in report.groups)


def test_report_invariant_under_group_order() -> None:
    params = init_model(ModelConfig(), seed=2)
    report_a = report_for_mode(params, "medsaga")
    params.groups.reverse()
    report_b = report_for_mode(params, "medsaga")
    assert report_a.grand_total_bytes() == report_b.grand_total_bytes()
    assert report_a.component_totals() == report_b.component_totals()


def test_v2_total_not_above_medsaga_total() -> None:
    params = init_model(ModelConfig(), seed=3)
    reports, _ = compare_strategies(params, ["medsaga", "v2"])
    by_mode = {r.mode: r for r in reports}
    assert by_mode["v2"].grand_total_bytes() <= by_mode["medsaga"].grand_total_bytes()


def test_single_mode_comparison_is_single_report() -> None:
    params = init_model(ModelConfig(), seed=4)
    reports, deltas = compare_strategies(params, ["medsaga"])
    assert len(reports) == 1 and deltas == {}


def test_medsaga_encoder_state_below_full_adamw() -> None:
    params = init_model(ModelConfig(), seed=5)
    reports, deltas = compare_strategies(params, ["medsaga", "full-adamw"])
    by_mode = {r.mode: r for r in reports}
    med = by_mode["medsaga"].state_bytes("encoder")
    full = by_mode["full-adamw"].state_bytes("encoder")
    assert med < full
    assert deltas["medsaga_vs_full-adamw_state_reduction_pct"] > 0.0


def test_adapter_footprint_arithmetic() -> None:
    fp = hypothetical_adapter_footprint(64, 64, 1)
    assert fp.weight_bytes == 128 * 8
    assert fp.grad_bytes == fp.weight_bytes
    assert fp.state_bytes == 2 * fp.weight_bytes
    assert fp.total_bytes == 4 * 128 * 8


def test_adapter_footprint_monotone_in_rank() -> None:
    totals = [hypothetical_adapter_footprint(32, 48, r).total_bytes for r in (1, 2, 4, 8)]
    assert totals == sorted(totals) and len(set(totals)) == len(totals)


def test_adapter_rank_zero_disallowed() -> None:
    with pytest.raises(ValueError, match="rank"):
        hypothetical_adapter_footprint(8, 8, 0)


def test_adapter_baseline_is_one_encoder_row_summing_its_layers() -> None:
    params = init_model(ModelConfig(), seed=6)
    row = adapter_baseline(params, 4)
    assert (row.name, row.component, row.strategy) == ("adapter", "encoder", "adapter(r=4)")
    layers = [hypothetical_adapter_footprint(*g.values.shape, 4) for g in params.groups
              if g.role.startswith("encoder") and min(g.values.shape) >= 2]
    assert row.total_bytes == sum(fp.total_bytes for fp in layers)
    assert row.state_bytes == 2 * row.weight_bytes == 2 * row.grad_bytes


def test_adapter_baseline_covers_projectable_encoder_groups() -> None:
    params = init_model(ModelConfig(), seed=6)
    fp = adapter_baseline(params, 4)
    expected = 0
    for g in params.groups:
        m, n = g.values.shape
        if g.role.startswith("encoder") and min(m, n) >= 2:
            expected += (m * 4 + 4 * n) * BYTES_PER_ELEMENT
    assert fp.weight_bytes == expected


def test_accounting_matches_buffers_allocated_by_training() -> None:
    from msga.config import RunConfig
    from msga.train import prepare_splits, train_model

    for sided in ("one", "two"):
        cfg = RunConfig(mode="medsaga", sided=sided, total_steps=3, synthetic_count=20,
                        image_h=16, image_w=16, embed_dim=8, blocks=1,
                        decoder_channels=8, batch_size=2).validate()
        train_ds, _ = prepare_splits(cfg)
        result = train_model(cfg, train_ds)
        accounted = {g.name: account_group(g) for g in result.params.groups}
        for name, state in result.galore_states.items():
            held = state.inner.m.size + state.inner.v.size
            held += state.p.size if state.p is not None else 0
            held += state.q.size if state.q is not None else 0
            assert held * BYTES_PER_ELEMENT == accounted[name].state_bytes, (name, sided)
        for name, state in result.adamw_states.items():
            held = state.m.size + state.v.size
            assert held * BYTES_PER_ELEMENT == accounted[name].state_bytes, (name, sided)

    # shipped default geometry, one-sided: the figure the benchmark also pins
    cfg = RunConfig(total_steps=1, synthetic_count=20).validate()
    result = train_model(cfg, prepare_splits(cfg)[0])
    live = sum(st.m.nbytes + st.v.nbytes for st in result.adamw_states.values())
    for state in result.galore_states.values():
        live += sum(a.nbytes for a in (state.p, state.q) if a is not None)
        live += state.inner.m.nbytes + state.inner.v.nbytes
    assert live == 47_152


def test_json_rendering_has_fixed_keys() -> None:
    params = init_model(ModelConfig(), seed=7)
    reports, deltas = compare_strategies(params, ["medsaga", "full-adamw"])
    doc = json.loads(render_json(reports, deltas, adapter_baseline(params, 4), 4))
    assert doc["bytes_per_element"] == 8
    for rep in doc["reports"]:
        assert set(rep) == {"mode", "bytes_per_element", "groups", "totals", "grand_total_bytes"}
        assert rep["grand_total_bytes"] == sum(
            g["weight_bytes"] + g["grad_bytes"] + g["state_bytes"] for g in rep["groups"]
        )
    assert "adapter_baseline" in doc


def test_text_rendering_declares_element_width() -> None:
    params = init_model(ModelConfig(), seed=8)
    reports, deltas = compare_strategies(params, ["medsaga"])
    text = render_text(reports, deltas, adapter_baseline(params, 4), 4)
    assert "8 bytes per element" in text
    assert "grand total" in text

"""Compiled plans, training and forward-only, against the recorded tapes they
were compiled from."""

from __future__ import annotations

import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import msga.model
import msga.train
from msga.config import RunConfig
from msga.losses import downsample_labels
from msga.model import ModelConfig, _record_forward, build_loss_tape, forward, init_model
from msga.optim import Frozen, assign_strategies
from msga.tape import OP_KINDS, Plan, Tape, _kept
from msga.train import compile_loss_plan, model_config, prepare_splits, train_model
from test_tape import OP_GRAPHS, op_graph_params

SMALL = dict(synthetic_count=20, image_h=16, image_w=16, embed_dim=8, blocks=1,
             decoder_channels=8)


def _setup(cfg: RunConfig):
    """Strategy-tagged params with a non-zero head, and (image, flat labels) samples."""
    train_ds, _ = prepare_splits(cfg)
    params = assign_strategies(init_model(model_config(cfg), cfg.seed), cfg.mode,
                               **cfg.galore_settings())
    head = params.group("decoder/fc2/weight")
    head.values = np.random.default_rng(3).normal(size=head.values.shape)
    samples = [(s.image, downsample_labels(s.mask, cfg.patch_size).reshape(-1))
               for s in train_ds.samples[:3]]
    return params, samples


def _leaves(params, image) -> list[np.ndarray]:
    return [*(g.values for g in params.groups), image]


CONFIGS = {
    "medsaga": RunConfig(mode="medsaga", **SMALL),
    "v1": RunConfig(mode="v1", **SMALL),
    "v2": RunConfig(mode="v2", **SMALL),
    "full-adamw": RunConfig(mode="full-adamw", **SMALL),
    "two-sided-refresh-every-step": RunConfig(mode="medsaga", sided="two", refresh_period=1,
                                              **SMALL),
}


@pytest.mark.parametrize("name", list(CONFIGS))
def test_plan_replay_equals_tape_backward(name) -> None:
    cfg = CONFIGS[name]
    params, samples = _setup(cfg)
    plan, ids = compile_loss_plan(params, *samples[0], cfg)
    trained = [g for g in params.groups if not isinstance(g.strategy, Frozen)]
    for image, labels in samples:
        tape, tape_ids, ce, dice, loss = build_loss_tape(params, image, labels, cfg)
        assert tape_ids == ids
        want = tape.backward(loss)
        scalars, got = plan.run([(_leaves(params, image), labels)])
        assert scalars == [float(tape.value(i)) for i in (ce, dice, loss)]
        assert sorted(got) == sorted(ids[g.name] for g in trained)
        for g in trained:
            assert np.array_equal(got[ids[g.name]], want[ids[g.name]]), g.name
        assert any(np.any(got[ids[g.name]]) for g in trained if g.role.startswith("encoder"))


def test_training_plan_never_runs_the_patchify_adjoint() -> None:
    cfg = CONFIGS["medsaga"]
    params, samples = _setup(cfg)
    plan, _ = compile_loss_plan(params, *samples[0], cfg)
    tape = build_loss_tape(params, *samples[0], cfg)[0]
    ops = [tape.nodes[step[0]].op for step in plan.steps]
    assert "patchify" in {n.op for n in tape.nodes}
    assert "patchify" not in ops and "linear" in ops


def test_v2_plan_gives_frozen_leaves_no_adjoint() -> None:
    cfg = CONFIGS["v2"]
    params, samples = _setup(cfg)
    plan, ids = compile_loss_plan(params, *samples[0], cfg)
    frozen = {ids[g.name] for g in params.groups if isinstance(g.strategy, Frozen)}
    assert frozen
    _, grads = plan.run([(_leaves(params, samples[0][0]), samples[0][1])])
    assert not frozen & set(grads)
    assert not any(i in frozen for step in plan.steps for i in step[3])


@pytest.mark.parametrize("bad", ["shape", "float32", "list"])
def test_replay_rejects_a_leaf_unlike_the_compiled_one(bad) -> None:
    cfg = CONFIGS["medsaga"]
    params, samples = _setup(cfg)
    plan, _ = compile_loss_plan(params, *samples[0], cfg)
    leaves = _leaves(params, samples[0][0])
    w = params.group("encoder/block0/attn/q").values
    i = [g.name for g in params.groups].index("encoder/block0/attn/q")
    leaves[i] = {"shape": w[:, :-1], "float32": w.astype(np.float32), "list": w.tolist()}[bad]
    with pytest.raises(ValueError, match="encoder/block0/attn/q"):
        plan.run([(leaves, samples[0][1])])


def test_replay_rejects_an_image_of_another_shape() -> None:
    cfg = CONFIGS["medsaga"]
    params, samples = _setup(cfg)
    plan, _ = compile_loss_plan(params, *samples[0], cfg)
    with pytest.raises(ValueError, match="image"):
        plan.run([(_leaves(params, np.zeros((8, 8))), samples[0][1])])


def test_the_memoised_forward_plan_names_a_bad_group() -> None:
    params = init_model(ModelConfig(), 0)
    image = np.zeros((32, 32))
    forward(params, image)
    (plan,) = msga.model._forward_plan.values()
    leaves = [*(g.values for g in params.groups), image]
    i = [g.name for g in params.groups].index("decoder/fc1/weight")
    leaves[i] = leaves[i].astype(np.float32)
    with pytest.raises(ValueError, match="replay leaf 'decoder/fc1/weight': expected float64"):
        plan.replay(leaves, ())


def test_a_plan_over_unnamed_leaves_names_a_bad_leaf_by_its_id() -> None:
    # the plan Tape.backward compiles: every leaf wanted, none of them named
    tape = Tape()
    a, b = tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((3, 2)))
    plan = Plan(tape, tape.mean(tape.matmul(a, b)))
    with pytest.raises(ValueError, match=r"replay leaf 1: expected float64 \(3, 2\)"):
        plan.run([([np.ones((2, 3)), np.ones((2, 3))], ())])


def test_replay_runs_the_label_range_check() -> None:
    cfg = CONFIGS["medsaga"]
    params, samples = _setup(cfg)
    plan, _ = compile_loss_plan(params, *samples[0], cfg)
    labels = samples[0][1].copy()
    labels[5] = cfg.classes
    with pytest.raises(ValueError, match="softmax-ce: label values outside"):
        plan.run([(_leaves(params, samples[0][0]), labels)])


def test_tape_backward_leaves_the_tape_intact() -> None:
    # backward frees values in its own copy of the lists, not on the tape
    cfg = CONFIGS["medsaga"]
    params, samples = _setup(cfg)
    tape, _, _, _, loss = build_loss_tape(params, *samples[0], cfg)
    first = tape.backward(loss)
    assert all(v is not None for v in tape.values)
    second = tape.backward(loss)
    assert all(np.array_equal(first[i], second[i]) for i in first)


def _tape_kept(plan: Plan, tape: Tape) -> dict[int, tuple]:
    """Kept entries from the tape's recorded values, as Tape.backward builds them."""
    return {nid: _kept(slots, tape.values, tape.nodes[nid].aux) for nid, _, slots, _ in plan.steps}


def test_backward_frees_each_value_and_its_aux_after_the_last_reader() -> None:
    # a value lives while a later rule's kept entry holds it; an aux until its own rule
    cfg = CONFIGS["medsaga"]
    params, samples = _setup(cfg)
    tape, _, _, _, loss = build_loss_tape(params, *samples[0], cfg)
    plan = Plan(tape, loss)
    kept = _tape_kept(plan, tape)
    slot_of = {id(v): i for i, v in enumerate(tape.values)}
    seen: list[tuple[set[int], list, set[int]]] = []

    def watched(rule):
        def rule_seeing_what_is_kept(g, args, aux):
            held = {slot_of[id(v)] for a, _ in kept.values() for v in a if v is not None}
            seen.append((set(kept), [slot_of.get(id(v)) for v in args], held))
            return rule(g, args, aux)
        return rule_seeing_what_is_kept

    plan.steps = [(nid, watched(rule), *rest) for nid, rule, *rest in plan.steps]
    plan.backward(kept)
    assert len(seen) == len(plan.steps) and kept == {}
    for k, (entries, handed, held) in enumerate(seen):
        later = plan.steps[k + 1:]
        assert entries == {nid for nid, *_ in later}, k
        assert handed == list(plan.steps[k][2]), k
        assert held == {s for _, _, slots, *_ in later for s in slots if s is not None}, k
    # the training graph's residual adds and layernorm inputs are read by shape only
    read = {s for _, _, slots, *_ in plan.steps for s in slots}
    assert any(n.op == "add" and nid not in read for nid, n in enumerate(tape.nodes))


def test_replay_forward_keeps_only_what_the_backward_and_the_scalars_read(monkeypatch) -> None:
    # when the backward starts, a replayed value is alive only if a backward rule
    # reads it and an aux only if its node is on the backward path; the scalars
    # are floats by then, and nothing of a replay outlives the run
    cfg = CONFIGS["medsaga"]
    params, samples = _setup(cfg)
    plan, _ = compile_loss_plan(params, *samples[0], cfg)
    values: dict[int, weakref.ref] = {}
    auxes: dict[int, list[weakref.ref]] = {}

    def watched(nid, rule):
        def forward_rule_watched(args, aux):
            out = rule(args, aux)
            if isinstance(out, np.ndarray):
                values[nid] = weakref.ref(out)
            arrays = [a for key, v in aux.items() if key != "labels"
                      for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]
            auxes[nid] = [weakref.ref(a) for a in arrays]
            return out
        return forward_rule_watched

    plan.forward = [(nid, watched(nid, rule), *rest) for nid, rule, *rest in plan.forward]
    alive: list[tuple[set[int], set[int]]] = []
    original = Plan.backward

    def watched_backward(self, kept):
        alive.append(({nid for nid, ref in values.items() if ref() is not None},
                      {nid for nid, refs in auxes.items() if any(r() is not None for r in refs)}))
        return original(self, kept)

    monkeypatch.setattr(Plan, "backward", watched_backward)
    plan.run([(_leaves(params, image), labels) for image, labels in samples[:2]])
    read = {s for _, _, slots, *_ in plan.steps for s in slots if s in values}
    on_path = {nid for nid, *_ in plan.steps if auxes[nid]}
    assert read and on_path
    assert alive == [(read, on_path)] * 2
    assert not any(ref() is not None for refs in (values.values(), *auxes.values())
                   for ref in refs)


def test_run_sums_a_batch_in_sample_order_into_fresh_arrays() -> None:
    # reads sum from 0.0; adjoints enter as 0.0 + g, as a fresh sum would, then add
    cfg = CONFIGS["medsaga"]
    params, samples = _setup(cfg)
    plan, _ = compile_loss_plan(params, *samples[0], cfg)
    batch = [(_leaves(params, image), labels) for image, labels in samples]
    want_reads, want = [0.0] * 3, {}
    for sample in batch:
        reads, grads = plan.run([sample])
        want_reads = [w + r for w, r in zip(want_reads, reads)]
        want = {nid: want.get(nid, 0.0) + g for nid, g in grads.items()}
    reads, got = plan.run(batch)
    assert reads == want_reads and all(type(r) is float for r in reads)
    assert sorted(got) == sorted(want)
    assert all(got[nid].tobytes() == want[nid].tobytes() for nid in want)
    arrays = list(got.values())
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1:])


def test_a_rule_handed_none_for_a_slot_it_reads_raises() -> None:
    # a backward rule reads its declared inputs and its aux, nothing else: the declared
    # inputs give the bits every input gives, and each of them is needed, as is each
    # aux entry its forward kept; over the training graph and one graph per op kind
    cfg = CONFIGS["medsaga"]
    params, samples = _setup(cfg)
    tape, _, _, _, loss = build_loss_tape(params, *samples[0], cfg)
    graphs = [(tape, loss)]
    for op, build in OP_GRAPHS.items():
        tape = Tape()
        graphs.append((tape, build(tape, [tape.leaf(p) for p in op_graph_params(op)])))
    rng = np.random.default_rng(8)
    checked, dropped = set(), set()
    for tape, loss in graphs:
        plan = Plan(tape, loss)
        plan.backward(_tape_kept(plan, tape))   # whole entries go through
        for nid, rule, slots, _ in plan.steps:
            n = tape.nodes[nid]
            g = rng.standard_normal(tape.values[nid].shape)
            args, aux = _kept(slots, tape.values, n.aux)
            every = rule(g, [tape.values[i] for i in n.inputs], aux)
            assert [a.tobytes() for a in rule(g, args, aux)] == [a.tobytes() for a in every]
            for j in (j for j, s in enumerate(slots) if s is not None):
                with pytest.raises((TypeError, AttributeError, ValueError, IndexError)):
                    rule(g, [*args[:j], None, *args[j + 1:]], aux)
            for key in aux.keys() - set(n.args):
                with pytest.raises(KeyError, match=key):
                    rule(g, args, {k: v for k, v in aux.items() if k != key})
                dropped.add((n.op, key))
            checked.add(n.op)
    assert checked == set(OP_KINDS)
    assert ("softmax-rows", "probs") in dropped and ("attention", "probs") in dropped


@pytest.mark.parametrize("label", [3, 256])
def test_training_rejects_a_label_outside_the_classes_before_packing(label) -> None:
    # packed labels are uint8 for three classes: 256 would wrap to 0 if cast first
    cfg = RunConfig(mode="medsaga", classes=3, total_steps=1, **SMALL)
    train_ds, _ = prepare_splits(cfg)
    mask = train_ds.samples[1].mask.astype(np.int64)
    mask[:, :] = label
    samples = list(train_ds.samples)
    samples[1] = replace(samples[1], mask=mask)
    with pytest.raises(ValueError, match="training sample 1: label values outside 0..2"):
        train_model(cfg, replace(train_ds, samples=tuple(samples)))


def test_every_recorded_and_replayed_value_of_the_loss_tape_is_an_ndarray() -> None:
    # the 0-d loss terms included: scale and add of 0-d values are arrays, not numpy scalars
    cfg = CONFIGS["medsaga"]
    params, samples = _setup(cfg)
    tape, *_ = build_loss_tape(params, *samples[0], cfg)
    assert all(type(v) is np.ndarray for v in tape.values)
    assert {v.shape for n, v in zip(tape.nodes, tape.values) if n.op in ("scale", "add")} >= {()}
    plan, _ = compile_loss_plan(params, *samples[0], cfg)
    outputs = []

    def watched(rule):
        def forward_rule_watched(args, aux):
            out = rule(args, aux)
            outputs.append(type(out))
            return out
        return forward_rule_watched

    plan.forward = [(nid, watched(rule), *rest) for nid, rule, *rest in plan.forward]
    plan.run([(_leaves(params, image), labels) for image, labels in samples])
    assert outputs == [np.ndarray] * len(plan.forward) * len(samples)


def test_a_plan_that_wants_nothing_has_no_backward_and_reads_its_output_as_an_array() -> None:
    params = init_model(ModelConfig(), 0)
    image = np.random.default_rng(1).normal(size=(32, 32))
    tape, _, out = _record_forward(params, image)
    plan = Plan(tape, out, (), (out,))
    assert plan.steps == [] and plan.wanted == []
    (logits,), kept = plan.replay([*(g.values for g in params.groups), image], ())
    assert kept == {} and np.array_equal(logits, tape.value(out))
    with pytest.raises(ValueError, match="scalar loss"):
        tape.backward(out)


FORWARD_CONFIGS = {"defaults": ModelConfig(),
                   "patch2-blocks1-classes4": ModelConfig(patch_size=2, blocks=1, classes=4)}


@pytest.mark.parametrize("case", [*FORWARD_CONFIGS, "trained"])
def test_forward_equals_the_recorded_tape(case) -> None:
    if case == "trained":
        run = RunConfig(mode="medsaga", total_steps=20, **SMALL).validate()
        cfg, params = model_config(run), train_model(run, prepare_splits(run)[0]).params
    else:
        cfg = FORWARD_CONFIGS[case]
        params = init_model(cfg, 4)
        rng = np.random.default_rng(5)
        for g in params.groups:   # a non-zero head, so the logits differ per class
            g.values = g.values + 0.1 * rng.normal(size=g.values.shape)
    rng = np.random.default_rng(6)
    for _ in range(3):
        image = rng.normal(size=(cfg.image_h, cfg.image_w))
        tape, _, out = _record_forward(params, image)
        want = tape.value(out).reshape(cfg.grid_h, cfg.grid_w, cfg.classes)
        assert np.array_equal(forward(params, image), want)
        assert np.unique(want).size > cfg.classes


def _contains_array(obj, seen=None) -> bool:
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        return True
    if id(obj) in seen:
        return False
    seen.add(id(obj))
    if isinstance(obj, dict):
        return any(_contains_array(v, seen) for kv in obj.items() for v in kv)
    if isinstance(obj, (list, tuple, set)):
        return any(_contains_array(v, seen) for v in obj)
    if isinstance(obj, Plan):
        return _contains_array(vars(obj), seen)
    return False


def test_forward_records_once_per_config_and_group_layout(monkeypatch) -> None:
    calls = []

    def counted(*args):
        calls.append(1)
        return _record_forward(*args)

    monkeypatch.setattr(msga.model, "_record_forward", counted)
    monkeypatch.setattr(msga.model, "_forward_plan", {})
    params = init_model(ModelConfig(), 0)
    image = np.random.default_rng(2).normal(size=(32, 32))
    first = forward(params, image)
    for _ in range(49):
        assert np.array_equal(forward(params, image), first)
    assert len(calls) == 1
    (plan,) = msga.model._forward_plan.values()
    assert not _contains_array(plan)

    other = init_model(ModelConfig(blocks=1), 0)
    forward(other, image)
    forward(other, image)
    assert len(calls) == 2 and len(msga.model._forward_plan) == 1

    params.groups.reverse()
    assert np.array_equal(forward(params, image), first)
    assert len(calls) == 3
    params.groups.reverse()

    params.groups[0].name = "encoder/patch_embed/renamed"
    with pytest.raises(KeyError):   # the forward reads every group by its name
        forward(params, image)
    assert len(calls) == 4
    params.groups[0].name = "encoder/patch_embed/weight"
    assert np.array_equal(forward(params, image), first)
    assert len(calls) == 5 and len(msga.model._forward_plan) == 1


def test_forward_keeps_no_weights_or_image_alive() -> None:
    params = init_model(ModelConfig(), 0)
    image = np.random.default_rng(3).normal(size=(32, 32))
    forward(params, image)
    refs = [weakref.ref(params.group("encoder/block0/attn/q").values), weakref.ref(image)]
    logits = forward(params, image)
    del params, image
    assert [r() for r in refs] == [None, None]
    assert logits.shape == (8, 8, 3)


def test_forward_peak_stays_under_half_of_the_recorded_tape() -> None:
    # the recorded tape kept every value to the end: 538 KiB at the default geometry
    params = init_model(ModelConfig(), 0)
    image = np.random.default_rng(4).normal(size=(32, 32))
    forward(params, image)
    tracemalloc.start()
    try:
        forward(params, image)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 260 * 1024


def test_forward_plan_keeps_its_checks() -> None:
    params = init_model(ModelConfig(), 0)
    forward(params, np.zeros((32, 32)))
    with pytest.raises(ValueError, match="does not match config"):
        forward(params, np.zeros((16, 32)))
    params.group("decoder/fc1/weight").values[0, 0] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite logits"):
        forward(params, np.ones((32, 32)))


# tracemalloc peak of default medsaga over steps 3-7 when the bound was set
# (x86_64, numpy 2.4, Python 3.11); 740,497 B inside the whole suite
TRAIN_PEAK_BYTES = 742_721


def test_default_training_peak_after_step_2_stays_within_its_bound(monkeypatch) -> None:
    # perfbench's train_peak_kib measure on default medsaga: tracemalloc counts from
    # before train_model, its peak restarts at step 2's first lr_at call (once that
    # step's adjoints exist) and then covers steps 3-7. A value kept alive past its
    # last reader raises it; the bound is 2% over the rise measured when it was set
    cfg = replace(RunConfig(), total_steps=8)
    train_ds, _ = prepare_splits(cfg)
    train_model(replace(cfg, total_steps=1), train_ds)   # first-call allocations stay out
    original, seen = msga.train.lr_at, set()

    def lr_at(schedule, step):
        if step not in seen:
            seen.add(step)
            if step == 2:
                tracemalloc.reset_peak()
        return original(schedule, step)

    monkeypatch.setattr(msga.train, "lr_at", lr_at)
    tracemalloc.start()
    try:
        train_model(cfg, train_ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seen == set(range(8))
    assert peak <= TRAIN_PEAK_BYTES * 1.02, peak

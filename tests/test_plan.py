"""Compiled plans, training and forward-only, against the recorded tapes they
were compiled from."""

from __future__ import annotations

import ast
import gc
import inspect
import itertools
import re
import sys
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import msga.model
import msga.tape
import msga.train
from msga.config import RunConfig
from msga.losses import downsample_labels
from msga.model import ModelConfig, _record_forward, build_loss_tape, forward, init_model
from msga.optim import Frozen, assign_strategies
from msga.tape import OP_KINDS, Plan, Tape, plan_source
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


def _wrap_rules(monkeypatch, forward=None, backward=None, rebuild=None) -> None:
    """Wrap each op kind's forward rules, value-only ones too, in `forward(kind, rule)`,
    its backward rule in `backward(kind, rule)` and its rebuild in `rebuild(kind, rule)`;
    a plan compiled after this calls the wrappers."""
    wrappers = {"fwd": forward, "value": forward, "bwd": backward, "rebuild": rebuild}
    for kind, rules in list(msga.tape._OPS.items()):
        monkeypatch.setitem(msga.tape._OPS, kind, replace(rules, **{
            field: wrap(kind, getattr(rules, field)) for field, wrap in wrappers.items()
            if wrap and getattr(rules, field)}))


def _record_sources(monkeypatch) -> list[str]:
    """The text of every plan compiled from here on, in order."""
    sources, original = [], msga.tape.plan_source

    def recording(*args):
        source, *rest = original(*args)
        sources.append(source)
        return source, *rest

    monkeypatch.setattr(msga.tape, "plan_source", recording)
    return sources


def _declared(tape: Tape, nid: int) -> list[int | None]:
    """A node's input ids where its backward rule reads them by value, None elsewhere."""
    n = tape.nodes[nid]
    return [i if k in msga.tape._OPS[n.op].reads else None for k, i in enumerate(n.inputs)]


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


def test_training_plan_never_runs_the_patchify_adjoint(monkeypatch) -> None:
    cfg = CONFIGS["medsaga"]
    params, samples = _setup(cfg)
    ops: list[str] = []   # the op kind of every backward rule a replay runs

    def watched(kind, rule):
        def backward_rule_watched(g, *inputs):
            ops.append(kind)
            return rule(g, *inputs)
        return backward_rule_watched

    _wrap_rules(monkeypatch, backward=watched)
    plan, _ = compile_loss_plan(params, *samples[0], cfg)
    plan.run([(_leaves(params, samples[0][0]), samples[0][1])])
    tape = build_loss_tape(params, *samples[0], cfg)[0]
    assert "patchify" in {n.op for n in tape.nodes}
    assert "patchify" not in ops and "linear" in ops


def test_v2_plan_gives_frozen_leaves_no_adjoint(monkeypatch) -> None:
    cfg = CONFIGS["v2"]
    params, samples = _setup(cfg)
    sources = _record_sources(monkeypatch)
    plan, ids = compile_loss_plan(params, *samples[0], cfg)
    frozen = {ids[g.name] for g in params.groups if isinstance(g.strategy, Frozen)}
    assert frozen
    _, grads = plan.run([(_leaves(params, samples[0][0]), samples[0][1])])
    assert not frozen & set(grads)
    # the emitted text names no adjoint, `g<id>` or `G[<id>]`, for a frozen leaf: no
    # backward step computes or accumulates one
    (source,) = sources
    adjoints = {int(a or b) for a, b in re.findall(r"\bg(\d+)\b|\bG\[(\d+)\]", source)}
    assert adjoints and not frozen & adjoints


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


def test_backward_frees_each_value_and_its_aux_after_the_last_reader(monkeypatch) -> None:
    # at each backward rule a replayed value, leaves included, is alive only while this
    # or a later rule reads it, and an aux only until its own rule has run
    cfg = CONFIGS["medsaga"]
    params, samples = _setup(cfg)
    tape, _, _, _, loss = build_loss_tape(params, *samples[0], cfg)
    leaves = [nid for nid, n in enumerate(tape.nodes) if n.op == "leaf"]
    op_ids = iter([nid for nid, n in enumerate(tape.nodes) if n.op != "leaf"])
    copies = [tape.values[i].copy() for i in leaves]   # the replay's leaves, held by it alone
    values = {i: weakref.ref(v) for i, v in zip(leaves, copies)}   # slot -> its replayed value
    markers: dict[int, weakref.ref] = {}  # op id -> an array only its aux holds
    seen: list[tuple[int, set[int], list, set[int]]] = []

    def alive(refs: dict[int, weakref.ref]) -> set[int]:
        return {nid for nid, ref in refs.items() if ref() is not None}

    def watched_forward(kind, rule):
        def forward_rule_watched(*args):
            nid, aux = next(op_ids), args[-1]
            out = rule(*args)
            values[nid] = weakref.ref(out)
            aux["nid"], aux["marker"] = nid, np.empty(0)
            markers[nid] = weakref.ref(aux["marker"])
            return out
        return forward_rule_watched

    def watched_backward(kind, rule):
        def rule_seeing_what_is_kept(g, *inputs):
            *args, aux = inputs
            slot_of = {id(values[nid]()): nid for nid in alive(values)}
            seen.append((aux["nid"], alive(markers), [None if v is None else slot_of[id(v)]
                                                      for v in args], alive(values)))
            return rule(g, *inputs)
        return rule_seeing_what_is_kept

    def watched_rebuild(kind, rule):
        def rebuild_watched(*args):
            out = rule(*args)
            assert out is not tape.values[args[-1]["nid"]]   # a fresh array, in its slot
            values[args[-1]["nid"]] = weakref.ref(out)
            return out
        return rebuild_watched

    _wrap_rules(monkeypatch, watched_forward, watched_backward, watched_rebuild)
    plan = Plan(tape, loss)
    kept = plan.replay(copies, samples[0][1])[1]
    del copies   # the forward dropped each leaf no backward rule reads
    plan.backward(kept)
    # one rule per node the loss depends on, in reverse node order
    ancestors = {loss}
    for nid in range(loss, -1, -1):
        if nid in ancestors:
            ancestors.update(tape.nodes[nid].inputs)
    steps = [nid for nid, *_ in seen]
    assert steps == sorted(ancestors - set(leaves), reverse=True)
    assert kept == [] and not alive(values) and not alive(markers)
    # a value the backward rebuilds is not kept: its rebuild's inputs are, kept or
    # rebuilt, until the value's first reader, a rule or a rebuild, and it is alive from
    # the step of that reader on
    declared = {s for m in steps for s in _declared(tape, m) if s is not None}
    kept_values = {i for i, aux in plan_source(tape, loss)[1] if not aux}
    rebuilt = {i: [tape.nodes[i].inputs[k]
                   for k in msga.tape._OPS[tape.nodes[i].op].rebuild_reads]
               for i in sorted(declared - kept_values)}   # each with its rebuild's inputs
    assert {tape.nodes[i].op for i in rebuilt} == {"layernorm", "patchify", "matmul",
                                                   "attention"}
    assert any(set(ins) & set(rebuilt) for ins in rebuilt.values())   # a chained rebuild
    first: dict[int, int] = {}
    for i in reversed(rebuilt):
        first[i] = min([*(k for k, m in enumerate(steps) if i in _declared(tape, m)),
                        *(first[d] for d in first if i in rebuilt[d])])
    for k, (nid, auxes, handed, held) in enumerate(seen):
        now = steps[k:]
        assert auxes == set(now), k
        assert handed == _declared(tape, nid), k
        assert held == ({s for m in now for s in _declared(tape, m) if s is not None}
                        | {j for i in rebuilt if first[i] >= k for j in rebuilt[i]}
                        ) - {i for i in rebuilt if first[i] > k}, k
    # the training graph's residual adds and layernorm inputs are read by shape only
    read = {s for _, _, handed, _ in seen for s in handed}
    assert any(n.op == "add" and nid not in read for nid, n in enumerate(tape.nodes))


def test_replay_forward_keeps_only_what_the_backward_and_the_scalars_read(monkeypatch) -> None:
    # when the backward starts, a replayed value is alive only if a backward rule
    # reads it and an aux only if its node is on the backward path; the scalars
    # are floats by then, and nothing of a replay outlives the run
    cfg = CONFIGS["medsaga"]
    params, samples = _setup(cfg)
    tape = build_loss_tape(params, *samples[0], cfg)[0]
    op_ids = itertools.cycle([nid for nid, n in enumerate(tape.nodes) if n.op != "leaf"])
    values: dict[int, weakref.ref] = {}
    auxes: dict[int, list[weakref.ref]] = {}
    read: set[int] = set()      # the replayed values a backward rule was handed
    on_path: set[int] = set()   # the nodes whose backward rule ran

    def watched(kind, rule):
        def forward_rule_watched(*args):
            nid, aux = next(op_ids), args[-1]
            out = rule(*args)
            if isinstance(out, np.ndarray):
                values[nid] = weakref.ref(out)
            arrays = [a for key, v in aux.items() if key != "labels"
                      for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]
            auxes[nid] = [weakref.ref(a) for a in arrays]
            aux["nid"] = nid
            return out
        return forward_rule_watched

    def watched_bwd(kind, rule):
        def backward_rule_watched(g, *inputs):
            *args, aux = inputs
            nid_of = {id(ref()): nid for nid, ref in values.items() if ref() is not None}
            read.update(nid_of[id(a)] for a in args if id(a) in nid_of)
            on_path.add(aux["nid"])
            return rule(g, *inputs)
        return backward_rule_watched

    _wrap_rules(monkeypatch, watched, watched_bwd)
    plan, _ = compile_loss_plan(params, *samples[0], cfg)
    alive: list[tuple[set[int], set[int]]] = []
    original = Plan.backward

    def watched_backward(self, kept):
        alive.append(({nid for nid, ref in values.items() if ref() is not None},
                      {nid for nid, refs in auxes.items() if any(r() is not None for r in refs)}))
        return original(self, kept)

    monkeypatch.setattr(Plan, "backward", watched_backward)
    plan.run([(_leaves(params, image), labels) for image, labels in samples[:2]])
    on_path = {nid for nid in on_path if auxes[nid]}
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


def test_a_rule_handed_none_for_a_slot_it_reads_raises(monkeypatch) -> None:
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
    calls: list[tuple] = []   # each backward rule call: the rule, its inputs and its aux

    def watched(kind, rule):
        def backward_rule_watched(g, *inputs):
            *args, aux = inputs
            calls.append((rule, args, aux))
            return rule(g, *inputs)
        return backward_rule_watched

    _wrap_rules(monkeypatch, backward=watched)
    rng = np.random.default_rng(8)
    checked, dropped = set(), set()
    for tape, loss in graphs:
        calls.clear()
        tape.backward(loss)   # whole entries go through, the tape's own aux included
        kept = {i for i, aux in plan_source(tape, loss)[1] if not aux}
        node_of = {id(n.aux): nid for nid, n in enumerate(tape.nodes)}
        for rule, args, aux in calls:
            nid = node_of[id(aux)]
            n = tape.nodes[nid]
            slots = _declared(tape, nid)   # the plan hands these values, None elsewhere
            for i, a in zip(slots, args, strict=True):   # a rebuilt value: fresh, same bytes
                assert a is (None if i is None else tape.values[i]) or i not in kept and (
                    a.tobytes() == tape.values[i].tobytes()), nid
            g = rng.standard_normal(tape.values[nid].shape)
            every = rule(g, *(tape.values[i] for i in n.inputs), aux)
            assert [a.tobytes() for a in rule(g, *args, aux)] == [a.tobytes() for a in every]
            for j in (j for j, s in enumerate(slots) if s is not None):
                with pytest.raises((TypeError, AttributeError, ValueError, IndexError)):
                    rule(g, *args[:j], None, *args[j + 1:], aux)
            for key in aux.keys() - set(n.args):
                with pytest.raises(KeyError, match=key):
                    rule(g, *args, {k: v for k, v in aux.items() if k != key})
                dropped.add((n.op, key))
            checked.add(n.op)
    assert checked == set(OP_KINDS)
    assert ("softmax-rows", "probs") in dropped and ("attention", "probs") in dropped
    assert ("gelu", "deriv") in dropped


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


def test_every_recorded_and_replayed_value_of_the_loss_tape_is_an_ndarray(monkeypatch) -> None:
    # the 0-d loss terms included: scale and add of 0-d values are arrays, not numpy scalars
    cfg = CONFIGS["medsaga"]
    params, samples = _setup(cfg)
    tape, *_ = build_loss_tape(params, *samples[0], cfg)
    assert all(type(v) is np.ndarray for v in tape.values)
    assert {v.shape for n, v in zip(tape.nodes, tape.values) if n.op in ("scale", "add")} >= {()}
    outputs = []

    def watched(kind, rule):
        def forward_rule_watched(*args):
            out = rule(*args)
            outputs.append(type(out))
            return out
        return forward_rule_watched

    _wrap_rules(monkeypatch, forward=watched)
    plan, _ = compile_loss_plan(params, *samples[0], cfg)
    outputs.clear()   # the compile recorded its own tape
    plan.run([(_leaves(params, image), labels) for image, labels in samples])
    ops = sum(n.op != "leaf" for n in tape.nodes)
    assert outputs == [np.ndarray] * ops * len(samples)


def test_a_plan_that_wants_nothing_has_no_backward_and_reads_its_output_as_an_array() -> None:
    params = init_model(ModelConfig(), 0)
    image = np.random.default_rng(1).normal(size=(32, 32))
    tape, _, out = _record_forward(params, image)
    plan = Plan(tape, out, (), (out,))
    source = plan_source(tape, out, (), (out,))[0]
    backward = source[source.index("def backward(K):"):]
    assert "bwd_" not in backward and "G = {}" in backward   # no rule call, no adjoint
    (logits,), kept = plan.replay([*(g.values for g in params.groups), image], ())
    assert kept == [] and plan.backward(kept) == {} and np.array_equal(logits, tape.value(out))
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
# (x86_64, numpy 2.4, Python 3.11); 551,090 B inside the whole suite
TRAIN_PEAK_BYTES = 557_010


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


def _bindings_and_dels(lines: list[str]) -> tuple[Counter, Counter]:
    """How often each value local `v<id>` and aux local `x<id>` of one emitted function
    is bound and deleted; raises if one is named after its `del`."""
    bound, deleted = Counter(), Counter()
    for line in lines:
        names = re.findall(r"\b[vx]\d+\b", line)
        gone = [name for name in names if deleted[name]]
        assert not gone, (gone, line)
        if line.lstrip().startswith("del "):
            deleted.update(names)
            continue
        header = re.match(r"\s*def \w+\((.*)\):$", line)
        targets = re.match(r"\s*\[?([\w, ]*?)\]? = ", line)
        for names in (header and header[1], targets and targets[1]):
            bound.update(n for n in (names or "").replace(" ", "").split(",")
                         if re.fullmatch(r"[vx]\d+", n))
        bound.update(re.findall(r"\b(x\d+) :=", line))
    return bound, deleted


def _two_compiles(monkeypatch, kind: str) -> list[str]:
    """The text of two compiles of the medsaga training plan or of the forward-only one."""
    sources = _record_sources(monkeypatch)
    if kind == "training":
        cfg = CONFIGS["medsaga"]
        params, samples = _setup(cfg)
        for _ in range(2):
            compile_loss_plan(params, *samples[0], cfg)
    else:
        monkeypatch.setattr(msga.model, "_forward_plan", {})
        params = init_model(ModelConfig(), 0)
        for _ in range(2):
            msga.model._forward_plan.clear()
            forward(params, np.zeros((32, 32)))
    return sources


@pytest.mark.parametrize("kind", ["training", "forward-only"])
def test_plan_source_is_deterministic_and_shows_liveness(monkeypatch, kind) -> None:
    # two compiles of one config give the same text; in each of its functions every
    # value and aux local is bound once, deleted at most once and never named after
    first, second = _two_compiles(monkeypatch, kind)
    assert first == second
    forward_text, backward_text = first.split("\n\n    def backward(K):\n")
    for lines in (forward_text.splitlines(), backward_text.splitlines()):
        bound, deleted = _bindings_and_dels(lines)
        assert set(bound.values()) <= {1} and set(deleted.values()) <= {1}
        assert deleted.keys() <= bound.keys()
    assert _bindings_and_dels(forward_text.splitlines())[1]   # the forward frees values
    # a forward-only plan emits no backward step; a training plan one per backward node
    assert ("bwd_" in backward_text) == (kind == "training")


@pytest.mark.parametrize("kind", ["training", "forward-only"])
def test_plan_source_hands_each_rule_its_inputs_as_plain_arguments(monkeypatch, kind) -> None:
    # fwd_<op>(v.., aux) and bwd_<op>(g, v or None.., aux): one local or None per input,
    # as many as the forward rule takes, and no list built to carry them
    arity = {f"{way}_{op.replace('-', '_')}": rules.arity
             for op, rules in msga.tape._OPS.items() for way in ("fwd", "bwd")}
    calls = [c for c in ast.walk(ast.parse(_two_compiles(monkeypatch, kind)[0]))
             if isinstance(c, ast.Call) and getattr(c.func, "id", "") in arity]
    assert {c.func.id[:4] for c in calls} == ({"fwd_", "bwd_"} if kind == "training"
                                              else {"fwd_"})
    for call in calls:
        *inputs, aux = call.args[call.func.id.startswith("bwd_"):]
        assert not call.keywords and len(inputs) == arity[call.func.id], ast.unparse(call)
        assert all(isinstance(a, ast.Name) or isinstance(a, ast.Constant) and a.value is None
                   for a in call.args[:-1]), ast.unparse(call)
        assert isinstance(aux, (ast.Name, ast.NamedExpr, ast.Dict)), ast.unparse(call)


def test_a_forward_only_plan_runs_value_only_gelu_and_a_training_plan_rebuilds_late(
        monkeypatch) -> None:
    # forward-only: no gelu derivative is computed and nothing is rebuilt. Training: each
    # rebuilt value is bound by its rebuild, after the rebuilds of its rebuilt inputs and
    # after the backward step before its first reader, a rule or another rebuild; every
    # gelu on the backward path keeps its derivative
    def calls(text: str) -> list[str]:
        return re.findall(r"\b((?:fwd|val|bwd|rb)_\w+)\(", text)

    forward_only = _two_compiles(monkeypatch, "forward-only")[0]
    assert "val_gelu" in calls(forward_only) and "fwd_gelu" not in calls(forward_only)
    assert not [c for c in calls(forward_only) if c.startswith("rb_")]
    training = _two_compiles(monkeypatch, "training")[0]
    forward_text, backward_text = training.split("\n\n    def backward(K):\n")
    assert "fwd_gelu" in calls(forward_text) and "val_gelu" not in calls(forward_text)
    lines = backward_text.splitlines()
    rebuilds = [(k, m[1], m[2]) for k, line in enumerate(lines)
                if (m := re.match(r"\s*(v\d+) = (rb_\w+)\(", line))]
    assert {rule for *_, rule in rebuilds} == {"rb_layernorm", "rb_patchify", "rb_matmul",
                                               "rb_attention"}
    bound_at = {value: k for k, value, _ in rebuilds}
    for k, value, _ in rebuilds:
        readers = [j for j, line in enumerate(lines) if j != k and re.search(
            r"= (bwd|rb)_", line) and re.search(rf"\b{value}\b", line)]
        assert readers and k < readers[0], (value, lines[k])
        assert all(re.match(r"\s*v\d+ = rb_", line) for line in lines[k:readers[0]])
        inputs = re.findall(r"\bv\d+\b", lines[k].split("=", 1)[1])
        assert all(bound_at[i] < k for i in inputs if i in bound_at), lines[k]
    assert any(i in bound_at for _, value, _ in rebuilds   # a rebuild reads a rebuilt value
               for i in re.findall(r"\bv\d+\b", lines[bound_at[value]].split("=", 1)[1]))


def _kept_bytes(tape: Tape, kept: list[tuple[int, bool]]) -> int:
    """Bytes of the non-leaf values and of the arrays their forwards kept in aux that a
    kept list holds; leaves and op arguments are held elsewhere."""
    def size(x) -> int:
        return x.nbytes if isinstance(x, np.ndarray) else sum(map(size, x)) if isinstance(
            x, tuple) else 0

    nodes = tape.nodes
    return sum(size(tuple(v for k, v in nodes[i].aux.items() if k not in nodes[i].args))
               if aux else tape.values[i].nbytes for i, aux in kept if nodes[i].op != "leaf")


# bytes default medsaga keeps per sample for its backward: a value or intermediate kept
# past its last reader, or kept where it could be rebuilt, raises it
KEPT_BYTES = 260_680


def test_default_medsaga_keeps_its_pinned_bytes_per_sample(monkeypatch) -> None:
    cfg = RunConfig()
    params, samples = _setup(cfg)
    seen, original = [], msga.tape.plan_source

    def recording(tape, *args):
        source, kept, consts = original(tape, *args)
        seen.append(_kept_bytes(tape, kept))
        return source, kept, consts

    monkeypatch.setattr(msga.tape, "plan_source", recording)
    compile_loss_plan(params, *samples[0], cfg)
    assert seen == [KEPT_BYTES]


# tracemalloc current bytes that compile_loss_plan's result held at default medsaga
# when a plan kept interpreted op lists (x86_64, numpy 2.4, CPython 3.11, run alone;
# 29,472 B inside the whole suite). Its two compiled functions hold about 25.9 KB alone
# and less in the suite, where other plans have already interned its local names
INTERPRETED_PLAN_BYTES = 29_648


def _held(build) -> tuple[int, object]:
    """The tracemalloc current bytes `build()`'s result holds, and that result."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = build()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, result
    finally:
        tracemalloc.stop()


def test_a_compiled_plan_holds_neither_its_text_nor_more_bytes_than_the_interpreted_one(
        monkeypatch) -> None:
    # the plan keeps its two compiled functions and the leaf specs. Keeping the op lists
    # beside them would pass the interpreted plan's bytes; keeping the text it was
    # compiled from (about 7 KB) would make that text cost nothing more to hold beside it
    cfg = RunConfig()
    params, samples = _setup(cfg)
    sources = _record_sources(monkeypatch)
    compile_loss_plan(params, *samples[0], cfg)   # first-call allocations stay out
    # each result goes before the next build: while a plan lives, a new one finds its
    # local names interned and allocates none
    held = _held(lambda: (compile_loss_plan(params, *samples[0], cfg), sources.clear()))[0]
    with_text, (_, text) = _held(lambda: (compile_loss_plan(params, *samples[0], cfg),
                                          sources.pop()))
    assert held <= INTERPRETED_PLAN_BYTES * 1.02, held
    assert with_text - held > sys.getsizeof(text) * 0.9, (held, with_text, sys.getsizeof(text))

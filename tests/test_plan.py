"""Compiled plans, training and forward-only, against the recorded tapes they
were compiled from."""

from __future__ import annotations

import ast
import gc
import hashlib
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
from msga.tape import OP_KINDS, Plan, Tape, emit, lower, schedule
from msga.train import compile_loss_plan, model_config, prepare_splits, train_model
from test_oracle import SEEDS, naive_forward, naive_read, random_graph
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


def _record_sources(monkeypatch) -> list[tuple[str, str]]:
    """The forward and backward text of every plan compiled from here on, in order: a
    Plan compiles its forward's text and then its backward's."""
    sources, forward_text = [], []

    def pair(text):
        if forward_text:
            sources.append((forward_text.pop(), text))
        else:
            forward_text.append(text)

    _watch_compile(monkeypatch, pair)
    return sources


def _declared(tape: Tape, nid: int) -> list[int | None]:
    """A node's input ids where its backward rule reads them by value when every adjoint
    is wanted, None elsewhere: the inputs some adjoint's reads name."""
    n = tape.nodes[nid]
    read = {k for reads in msga.tape._OPS[n.op].reads for k in reads}
    return [i if k in read else None for k, i in enumerate(n.inputs)]


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
        eager = naive_forward(tape)
        assert scalars == [naive_read(eager, i) for i in (ce, dice, loss)]
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
    ((forward_text, backward_text),) = sources
    adjoints = {int(a or b) for a, b in re.findall(r"\bg(\d+)\b|\bG\[(\d+)\]",
                                                   forward_text + backward_text)}
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
    plan = Plan(lower(tape, tape.mean(tape.matmul(a, b))))
    with pytest.raises(ValueError, match=r"replay leaf 1: expected float64 \(3, 2\)"):
        plan.run([([np.ones((2, 3)), np.ones((2, 3))], ())])


def test_replay_runs_the_label_range_check() -> None:
    cfg = CONFIGS["medsaga"]
    params, samples = _setup(cfg)
    plan, _ = compile_loss_plan(params, *samples[0], cfg)
    labels = samples[0][1].copy()
    labels[5] = cfg.classes
    with pytest.raises(ValueError, match="seg-loss: label values outside"):
        plan.run([(_leaves(params, samples[0][0]), labels)])


def test_a_training_replay_checks_its_labels_once_per_sample(monkeypatch) -> None:
    # the replay checks the labels once per logits shape, before its forward, and no
    # loss rule checks them again; a forward-only replay takes no labels and checks none
    cfg = RunConfig(mode="medsaga", synthetic_count=20)
    params, samples = _setup(cfg)
    plan, _ = compile_loss_plan(params, *samples[0], cfg)
    checked, original = [], msga.tape._check_labels

    def check_labels_watched(z, labels):
        checked.append(z)
        return original(z, labels)

    monkeypatch.setattr(msga.tape, "_check_labels", check_labels_watched)
    plan.run([(_leaves(params, image), labels) for image, labels in samples])
    logits = (cfg.image_h * cfg.image_w // cfg.patch_size**2, cfg.classes)
    assert len(samples) == 3 and checked == [logits] * 3
    checked.clear()
    forward(params, samples[0][0])
    assert checked == []


def test_a_default_training_replay_takes_the_logits_softmax_once_per_sample(monkeypatch) -> None:
    # the loss head is one seg-loss op, whose forward takes the one softmax of the logits
    # that its backward reads; the emitted backward runs its rule and then the logits'
    # linear, with no scale or add rule between them
    cfg = RunConfig(mode="medsaga", synthetic_count=20)
    params, samples = _setup(cfg)
    sources = _record_sources(monkeypatch)
    plan, _ = compile_loss_plan(params, *samples[0], cfg)
    shapes = []   # the shape of every softmax a rule takes
    softmax = msga.tape.softmax_last_dim
    monkeypatch.setattr(msga.tape, "softmax_last_dim", lambda t, *args, **kwargs: (
        shapes.append(t.shape), softmax(t, *args, **kwargs))[1])
    plan.run([(_leaves(params, image), labels) for image, labels in samples])
    logits = (cfg.image_h * cfg.image_w // cfg.patch_size**2, cfg.classes)
    assert len(samples) == 3 and shapes.count(logits) == 3 and len(set(shapes)) == 2
    ((_, backward),) = sources
    calls = re.findall(r"= (bwd_\w+)\(", backward)
    assert calls[:2] == ["bwd_seg_loss", "bwd_linear"] and calls.count("bwd_seg_loss") == 1
    assert "bwd_scale" not in calls


def test_every_check_sees_shapes_and_op_arguments_never_an_array(monkeypatch) -> None:
    # each op kind's shape rule, and the 2-D and label checks they share, take the inputs'
    # shapes as tuples of ints, when an op is recorded and when a replay checks labels
    handed = []   # (check, the arguments that are shapes)

    def watched(name, check, shapes: slice):
        def check_watched(*args):
            handed.append((name, args[shapes]))
            return check(*args)
        return check_watched

    kept_rules = {f"{kind} {key}" for kind, rules in msga.tape._OPS.items() for key in rules.keeps}
    for kind, rules in list(msga.tape._OPS.items()):   # and each kept aux entry's shape rule
        monkeypatch.setitem(msga.tape._OPS, kind, replace(
            rules, shape=watched(kind, rules.shape, slice(-1)), keeps={
                key: watched(f"{kind} {key}", shape, slice(None))
                for key, shape in rules.keeps.items()}))
    for name, shapes in (("_check_2d", slice(1, None)), ("_check_labels", slice(0, 1))):
        monkeypatch.setattr(msga.tape, name, watched(name, getattr(msga.tape, name), shapes))
    for op, graph in OP_GRAPHS.items():   # each scheduled, so its kept bytes are counted
        tape = Tape()
        schedule(tape, graph(tape, [tape.leaf(p) for p in op_graph_params(op)]))
    cfg = RunConfig(mode="medsaga", synthetic_count=20)
    params, samples = _setup(cfg)
    plan, _ = compile_loss_plan(params, *samples[0], cfg)   # records the default loss tape
    plan.run([(_leaves(params, samples[1][0]), samples[1][1])])
    assert {name for name, _ in handed} == {"_check_2d", "_check_labels", *msga.tape._OPS,
                                            *kept_rules}
    for name, shapes in handed:
        assert shapes and all(type(s) is tuple and all(type(d) is int for d in s)
                              for s in shapes), (name, shapes)


def test_tape_backward_leaves_the_tape_intact() -> None:
    # backward replays the tape's own leaves and frees only what its replay made
    cfg = CONFIGS["medsaga"]
    params, samples = _setup(cfg)
    tape, _, _, _, loss = build_loss_tape(params, *samples[0], cfg)
    leaves = list(tape.leaves.items())
    first = tape.backward(loss)
    assert [(i, id(v)) for i, v in tape.leaves.items()] == [(i, id(v)) for i, v in leaves]
    second = tape.backward(loss)
    assert all(np.array_equal(first[i], second[i]) for i in first)


def test_backward_frees_each_value_and_its_aux_after_the_last_reader(monkeypatch) -> None:
    # at each backward rule a replayed value, leaves included, is alive only while this
    # or a later rule reads it, and an aux only until its own rule has run; the schedule's
    # steps and rebuilds are those the replay runs
    cfg = CONFIGS["medsaga"]
    params, samples = _setup(cfg)
    tape, _, _, _, loss = build_loss_tape(params, *samples[0], cfg)
    leaves = [nid for nid, n in enumerate(tape.nodes) if n.op == "leaf"]
    op_ids = iter([nid for nid, n in enumerate(tape.nodes) if n.op != "leaf"])
    copies = [tape.leaves[i].copy() for i in leaves]   # the replay's leaves, held by it alone
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
            assert values[args[-1]["nid"]]() is None   # the forward's value went; a fresh one
            values[args[-1]["nid"]] = weakref.ref(out)
            return out
        return rebuild_watched

    _wrap_rules(monkeypatch, watched_forward, watched_backward, watched_rebuild)
    plan = Plan(lower(tape, loss))
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
    planned = schedule(tape, loss)
    kept_values = {i for i, aux in planned.kept if not aux}
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
    assert [(nid, list(handed)) for nid, _, handed, *_ in planned.steps] == [
        (nid, _declared(tape, nid)) for nid in steps]
    assert {i: ([j for j in ins if j is not None], k) for k, (_, rebuilds, *_) in enumerate(
        planned.steps) for i, ins in rebuilds} == {i: (rebuilt[i], first[i]) for i in rebuilt}
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


# the aux entries a forward keeps for a plan's reads, not for its backward
READ_ONLY_AUX = {("seg-loss", "ce"), ("seg-loss", "dice")}


def test_a_rule_handed_none_for_a_slot_an_adjoint_reads_gives_that_adjoint_no_bytes(
        monkeypatch) -> None:
    # adjoint j of a backward rule reads the inputs its record's reads[j] names and the aux,
    # nothing else: handed only those inputs it has the bits every input gives, and handed
    # None for one of them it is None or the rule raises. Each aux entry its forward kept is
    # needed; over the training graph and one graph per op kind
    cfg = CONFIGS["medsaga"]
    params, samples = _setup(cfg)
    tape, _, _, _, loss = build_loss_tape(params, *samples[0], cfg)
    graphs = [(tape, loss)]
    for op, build in OP_GRAPHS.items():
        tape = Tape()
        graphs.append((tape, build(tape, [tape.leaf(p) for p in op_graph_params(op)])))
    calls: list[tuple] = []   # each backward rule call: the rule, its inputs and its aux
    auxes: list[dict] = []    # each forward rule call's aux, in node order

    def watched_forward(kind, rule):
        def forward_rule_watched(*args):
            auxes.append(args[-1])
            return rule(*args)
        return forward_rule_watched

    def watched(kind, rule):
        def backward_rule_watched(g, *inputs):
            *args, aux = inputs
            calls.append((rule, args, aux))
            return rule(g, *inputs)
        return backward_rule_watched

    _wrap_rules(monkeypatch, forward=watched_forward, backward=watched)
    rng = np.random.default_rng(8)
    checked, dropped, skipped = set(), set(), set()
    for tape, loss in graphs:
        calls.clear()
        auxes.clear()
        tape.backward(loss)   # whole entries go through
        node_of = {id(aux): nid for nid, aux in zip(
            (nid for nid, n in enumerate(tape.nodes) if n.op != "leaf"), auxes, strict=True)}
        values = naive_forward(tape)[0]
        for rule, args, aux in calls:
            nid = node_of[id(aux)]
            n = tape.nodes[nid]
            slots = _declared(tape, nid)   # the plan hands these values, None elsewhere
            for i, a in zip(slots, args, strict=True):   # kept or rebuilt: the same bytes
                assert a is None if i is None else a.tobytes() == values[i].tobytes(), nid
            g = rng.standard_normal(n.shape)
            inputs = [values[i] for i in n.inputs]
            every = rule(g, *inputs, aux)
            assert [a.tobytes() for a in rule(g, *args, aux)] == [a.tobytes() for a in every]
            for j, reads in enumerate(msga.tape._OPS[n.op].reads):
                only = [x if k in reads else None for k, x in enumerate(inputs)]
                assert rule(g, *only, aux)[j].tobytes() == every[j].tobytes(), (n.op, j)
                for k in reads:   # every input but one that adjoint j reads
                    try:
                        without = rule(g, *inputs[:k], None, *inputs[k + 1:], aux)
                    except (TypeError, AttributeError, ValueError, IndexError):
                        continue
                    assert without[j] is None, (n.op, j, k)
                    skipped.add((n.op, j))
            for key in aux.keys() - n.aux.keys():
                without = {k: v for k, v in aux.items() if k != key}
                if (n.op, key) in READ_ONLY_AUX:   # kept for a plan's reads, 0-d
                    assert aux[key].shape == () and all(map(np.array_equal, every, rule(
                        g, *args, without))), (n.op, key)
                    continue
                with pytest.raises(KeyError, match=key):
                    rule(g, *args, without)
                dropped.add((n.op, key))
            checked.add(n.op)
    assert checked == set(OP_KINDS)
    assert skipped == {("matmul", 0), ("matmul", 1), ("linear", 0), ("linear", 1),
                       ("attention", 0), ("attention", 1), ("layernorm", 0)}
    assert ("softmax-rows", "probs") in dropped and ("attention", "probs") in dropped
    assert ("gelu", "deriv") in dropped and ("seg-loss", "pieces") in dropped


def _unwanted_adjoints(monkeypatch, graphs: list[tuple]) -> tuple[set, set]:
    """Each `(tape, loss, wanted, reads)` graph's plan run once on its tape's leaves, each
    backward rule call against its schedule step: the (op kind, input slot) of every
    adjoint no wanted leaf needs that the rule returned as None, and of every one it
    computed anyway, which must read no input."""
    outs: list[tuple] = []   # each backward rule call's adjoints, in call order

    def watched(kind, rule):
        def backward_rule_watched(g, *inputs):
            outs.append(rule(g, *inputs))
            return outs[-1]
        return backward_rule_watched

    _wrap_rules(monkeypatch, backward=watched)
    skipped, computed = set(), set()
    for tape, loss, wanted, reads in graphs:
        outs.clear()
        planned = schedule(tape, loss, wanted, reads)
        Plan(lower(tape, loss, wanted, reads)).run([(list(tape.leaves.values()), tape.labels)])
        for (nid, _, _, adjoints, _), out in zip(planned.steps, outs, strict=True):
            n = tape.nodes[nid]
            for j, (a, read, g) in enumerate(zip(adjoints, msga.tape._OPS[n.op].reads, out,
                                                 strict=True)):
                if a is None:
                    assert g is None or not read, (n.op, nid, j)
                    (skipped if g is None else computed).add((n.op, j))
    return skipped, computed


# each default plan's unwanted adjoints, those its rules skip and those they still compute.
# The patch-embed linear skips the patches' adjoint in every mode, and v2's frozen decoder
# linears skip their weights'. Those linears still give their biases' adjoints, and the
# add of the frozen prompt embedding row its adjoint: each the incoming adjoint's column
# sums, which read no input, and the plan drops them
UNWANTED = {"medsaga": ({("linear", 0)}, set()), "v1": ({("linear", 0)}, set()),
            "v2": ({("linear", 0), ("linear", 1)}, {("linear", 2), ("add", 1)}),
            "full-adamw": ({("linear", 0)}, set())}


@pytest.mark.parametrize("mode", list(UNWANTED))
def test_no_default_plan_computes_an_adjoint_that_reads_an_input_only_to_drop_it(
        monkeypatch, mode) -> None:
    cfg = CONFIGS[mode]
    params, samples = _setup(cfg)
    tape, ids, *reads = build_loss_tape(params, *samples[0], cfg)
    wanted = [ids[g.name] for g in params.groups if not isinstance(g.strategy, Frozen)]
    skipped, computed = _unwanted_adjoints(monkeypatch, [(tape, reads[-1], wanted,
                                                          tuple(reads))])
    assert (skipped, computed) == UNWANTED[mode]


def test_no_random_graph_plan_computes_an_adjoint_that_reads_an_input_only_to_drop_it(
        monkeypatch) -> None:
    # the oracle's seeded random graphs, each wanting a seeded part of its leaves: every
    # adjoint that reads an input is skipped somewhere when unwanted
    graphs = []
    for seed in SEEDS:
        tape, _, loss = random_graph(seed)
        rng = np.random.default_rng([seed, 2])
        wanted = [i for i, n in enumerate(tape.nodes) if n.op == "leaf" and rng.random() < 0.5]
        graphs.append((tape, loss, wanted, (loss,)))
    skipped = _unwanted_adjoints(monkeypatch, graphs)[0]
    assert {s for s in skipped if msga.tape._OPS[s[0]].reads[s[1]]} == {
        (kind, j) for kind, rules in msga.tape._OPS.items()
        for j, read in enumerate(rules.reads) if read and rules.arity > 1}


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
    # the 0-d loss and the terms its op keeps included: they are arrays, not numpy scalars
    cfg = CONFIGS["medsaga"]
    params, samples = _setup(cfg)
    tape, _, ce, dice, loss = build_loss_tape(params, *samples[0], cfg)
    assert all(type(v) is np.ndarray for v in naive_forward(tape)[0])
    assert [type(tape.value(i)) for i in (ce, dice)] == [np.ndarray] * 2
    assert [tape.value(i).shape for i in (ce, dice, loss)] == [()] * 3
    outputs = []

    def watched(kind, rule):
        def forward_rule_watched(*args):
            out = rule(*args)
            outputs.append(type(out))
            return out
        return forward_rule_watched

    _wrap_rules(monkeypatch, forward=watched)
    plan, _ = compile_loss_plan(params, *samples[0], cfg)
    plan.run([(_leaves(params, image), labels) for image, labels in samples])
    ops = sum(n.op != "leaf" for n in tape.nodes)
    assert outputs == [np.ndarray] * ops * len(samples)
    # scale and add of 0-d values, which the default loss tape no longer records
    small = Tape()
    term = small.mean(small.leaf(np.ones((2, 2))))
    head = small.add(small.scale(term, 0.5), term)
    assert [type(v) for v in naive_forward(small)[0][1:]] == [np.ndarray] * 3
    assert small.value(head).shape == ()
    outputs.clear()
    Plan(lower(small, head)).run([([np.ones((2, 2))], ())])
    assert outputs == [np.ndarray] * 3


def test_a_plan_that_wants_nothing_has_no_backward_and_reads_its_output_as_an_array() -> None:
    params = init_model(ModelConfig(), 0)
    image = np.random.default_rng(1).normal(size=(32, 32))
    tape, _, out = _record_forward(params, image)
    plan = Plan(lower(tape, out, (), (out,)))
    source = emit(tape, schedule(tape, out, (), (out,)))[1]
    backward = source[source.index("def backward(K):"):]
    assert "bwd_" not in backward and "G = {}" in backward   # no rule call, no adjoint
    (logits,), kept = plan.replay([*(g.values for g in params.groups), image], ())
    assert kept == [] and plan.backward(kept) == {}
    assert np.array_equal(logits, naive_forward(tape)[0][out])
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
        want = naive_forward(tape)[0][out].reshape(cfg.grid_h, cfg.grid_w, cfg.classes)
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


# tracemalloc peak of one first-call default forward, compile included, after an earlier
# forward for the same key was dropped (x86_64, numpy 2.4, Python 3.11, run alone; 313,385 B
# inside the whole suite; 340,759 B while each text was a factory closing over the rules;
# 561,389 B while the record computed the image eagerly; 887,798 B while that recorded
# tape lived through one compile of both functions)
FIRST_FORWARD_PEAK_BYTES = 312_825


def test_a_first_forward_call_peaks_within_its_bound(monkeypatch) -> None:
    # a first call records shapes, lowers them, lets the tape go and compiles the
    # forward-only plan's two texts one at a time; the bound is 2% over the peak measured
    # when it was set
    params = init_model(ModelConfig(), 0)
    image = np.random.default_rng(4).normal(size=(32, 32))
    forward(params, image)   # first-call allocations stay out
    monkeypatch.setattr(msga.model, "_forward_plan", {})
    tracemalloc.start()
    try:
        forward(params, image)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(msga.model._forward_plan) == 1
    assert peak <= FIRST_FORWARD_PEAK_BYTES * 1.02, peak


def _watch_compile(monkeypatch, watch) -> None:
    """Shadow `compile` in msga.tape: `watch(text)` runs before each call compiles it."""
    def watched_compile(text, *args, **kwargs):
        watch(text)
        return compile(text, *args, **kwargs)

    monkeypatch.setattr(msga.tape, "compile", watched_compile, raising=False)


@pytest.mark.parametrize("kind", ["training", "forward-only"])
def test_no_rule_runs_before_a_plans_first_replay(monkeypatch, kind) -> None:
    # compile_loss_plan and forward's first call record shapes and op arguments, lower
    # and compile: no forward, value-only or rebuild rule runs before the first replay
    ran, at_replay = [], []   # every rule call; how many had run when each replay began

    def counted(kind, rule):
        def rule_counted(*args):
            ran.append(kind)
            return rule(*args)
        return rule_counted

    _wrap_rules(monkeypatch, forward=counted, rebuild=counted)
    replay = Plan.replay
    monkeypatch.setattr(Plan, "replay", lambda self, *args: (
        at_replay.append(len(ran)), replay(self, *args))[1])
    if kind == "training":
        cfg = CONFIGS["medsaga"]
        params, samples = _setup(cfg)
        plan, _ = compile_loss_plan(params, *samples[0], cfg)
        plan.run([(_leaves(params, samples[0][0]), samples[0][1])])
    else:
        monkeypatch.setattr(msga.model, "_forward_plan", {})
        forward(init_model(ModelConfig(), 0), np.ones((32, 32)))
    assert at_replay == [0] and ran


def test_each_compile_makes_one_function_and_a_tape_compiles_each_plan_once(monkeypatch) -> None:
    # a Plan compiles its forward and its backward, each from its own text; a tape
    # compiles the plan of Tape.backward, and of a Tape.value read, once per node count
    cfg = CONFIGS["medsaga"]
    params, samples = _setup(cfg)
    tape, _, _, _, loss = build_loss_tape(params, *samples[0], cfg)
    texts: list[str] = []
    _watch_compile(monkeypatch, texts.append)

    def compiled() -> list[tuple[bool, bool]]:
        kinds = [("def forward(" in t, "def backward(K):" in t) for t in texts]
        texts.clear()
        return kinds

    both = [(True, False), (False, True)]
    for _ in range(2):
        tape.backward(loss)
        tape.value(loss)
    assert compiled() == both * 2
    tape.value(tape.scale(loss, 2.0))   # one more node: a new plan
    assert compiled() == both
    Plan(lower(tape, loss))
    assert compiled() == both


def test_forward_plan_keeps_its_checks() -> None:
    params = init_model(ModelConfig(), 0)
    forward(params, np.zeros((32, 32)))
    with pytest.raises(ValueError, match="does not match config"):
        forward(params, np.zeros((16, 32)))
    params.group("decoder/fc1/weight").values[0, 0] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite logits"):
        forward(params, np.ones((32, 32)))


# tracemalloc peak of default medsaga over steps 3-7 when the bound was set
# (x86_64, numpy 2.4, Python 3.11, run alone); 548,091 B inside the whole suite
TRAIN_PEAK_BYTES = 553_307


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


# tracemalloc peak of a whole default 8-step medsaga train_model, compile included, after
# a 1-step run (x86_64, numpy 2.4, Python 3.11, run alone; 663,825 B inside the whole
# suite; 693,745 B while each text was a factory closing over the rules; 702,540 B while
# the record computed one sample eagerly; 1,685,176 B while that recorded tape lived
# through one compile of both functions)
RUN_PEAK_BYTES = 665_273


def test_a_whole_default_training_run_peaks_within_its_bound() -> None:
    # what a run holds at its high-water mark, the compile included: the plan's texts are
    # compiled after the tape is gone and one at a time. The bound is 2% over the peak
    # measured when it was set
    cfg = replace(RunConfig(), total_steps=8)
    train_ds, _ = prepare_splits(cfg)
    train_model(replace(cfg, total_steps=1), train_ds)   # first-call allocations stay out
    tracemalloc.start()
    try:
        train_model(cfg, train_ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= RUN_PEAK_BYTES * 1.02, peak


# tracemalloc peak of recording the default medsaga loss tape and lowering it, schedule and
# texts, after a warm compile (x86_64, numpy 2.4, Python 3.11, run alone; 57,593 B inside
# the whole suite; 69,243 B while one function worked out the liveness as it wrote the
# texts; 598,251 B, above TRAIN_PEAK_BYTES, while the record computed one sample eagerly)
RECORD_PEAK_BYTES = 57_961


def test_recording_and_lowering_the_loss_tape_peaks_within_its_bound() -> None:
    # the record keeps shapes and op arguments, which is all the lowering reads: no value
    # of the sample is computed. The bound is 2% over the peak measured when it was set
    cfg = RunConfig()
    params, samples = _setup(cfg)
    compile_loss_plan(params, *samples[0], cfg)   # first-call allocations stay out
    tracemalloc.start()
    try:
        tape, ids, ce, dice, loss = build_loss_tape(params, *samples[0], cfg)
        lower(tape, loss, [ids[g.name] for g in params.groups
                           if not isinstance(g.strategy, Frozen)], (ce, dice, loss))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= RECORD_PEAK_BYTES * 1.02, peak


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
    forward_text, backward_text = first
    for lines in (forward_text.splitlines(), backward_text.splitlines()):
        bound, deleted = _bindings_and_dels(lines)
        assert set(bound.values()) <= {1} and set(deleted.values()) <= {1}
        assert deleted.keys() <= bound.keys()
    assert _bindings_and_dels(forward_text.splitlines())[1]   # the forward frees values
    # a forward-only plan emits no backward step; a training plan one per backward node
    assert ("bwd_" in backward_text) == (kind == "training")


# sha256 of the forward and backward texts of the default medsaga training plan and of the
# default forward-only plan, as emitted once each text became one plain function; a
# change to the schedule or the emitter that moves a text restates them here
PLAN_TEXT_SHA256 = {
    "training": ("6d90777d00ec840730bb8690b3330f2d1bce45862d76ec4cb817df4ed2d9943a",
                 "a4bd7b35abf9d9569a9e0115945afd3959c20bb9b120dba0323ab529959de1a3"),
    "forward-only": ("7748640324ce749ae2f762a5e56c2f9114ca1f07a6b1f10387a5b5003e60569d",
                     "5738d9664ca392e23f557904381865965ea48fb35d85df7e4b60a9db2201f3de"),
}


@pytest.mark.parametrize("kind", list(PLAN_TEXT_SHA256))
def test_the_default_plans_compile_their_pinned_texts(monkeypatch, kind) -> None:
    sources = _record_sources(monkeypatch)
    if kind == "training":
        cfg = RunConfig()
        params, samples = _setup(cfg)
        compile_loss_plan(params, *samples[0], cfg)
    else:
        monkeypatch.setattr(msga.model, "_forward_plan", {})
        forward(init_model(ModelConfig(), 0), np.zeros((32, 32)))
    ((forward_text, backward_text),) = sources
    assert tuple(hashlib.sha256(text.encode()).hexdigest()
                 for text in (forward_text, backward_text)) == PLAN_TEXT_SHA256[kind]


@pytest.mark.parametrize("kind", ["training", "forward-only"])
def test_plan_source_hands_each_rule_its_inputs_as_plain_arguments(monkeypatch, kind) -> None:
    # fwd_<op>(v.., aux) and bwd_<op>(g, v or None.., aux): one local or None per input,
    # as many as the forward rule takes, and no list built to carry them
    arity = {f"{way}_{op.replace('-', '_')}": rules.arity
             for op, rules in msga.tape._OPS.items() for way in ("fwd", "bwd")}
    calls = [c for text in _two_compiles(monkeypatch, kind)[0]
             for c in ast.walk(ast.parse(text))
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

    forward_only = "".join(_two_compiles(monkeypatch, "forward-only")[0])
    assert "val_gelu" in calls(forward_only) and "fwd_gelu" not in calls(forward_only)
    assert not [c for c in calls(forward_only) if c.startswith("rb_")]
    forward_text, backward_text = _two_compiles(monkeypatch, "training")[0]
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


def _kept_bytes(tape: Tape, entries: list[tuple[int, bool]], kept: list) -> int:
    """Bytes of the non-leaf values and of the arrays their forwards kept in aux that a
    replay's kept list holds, its entries as the schedule gives them; leaves and op
    arguments are held elsewhere."""
    def size(x) -> int:
        return x.nbytes if isinstance(x, np.ndarray) else sum(map(size, x)) if isinstance(
            x, tuple) else 0

    nodes = tape.nodes
    return sum(size(tuple(x[k] for k in msga.tape._OPS[nodes[i].op].keeps)) if aux else x.nbytes
               for (i, aux), x in zip(entries, kept, strict=True) if nodes[i].op != "leaf")


# bytes each default mode keeps per sample for its backward: a value or intermediate kept
# past its last reader, kept where it could be rebuilt, or kept for an adjoint no wanted
# leaf needs raises it. medsaga, v1 and full-adamw keep the same entries; v2 keeps neither
# of its two frozen decoder linears' 64x16 inputs, which only their weights' adjoints read
KEPT_BYTES = {"medsaga": 259_136, "v1": 259_136, "v2": 242_752, "full-adamw": 259_136}


@pytest.mark.parametrize("mode", list(KEPT_BYTES))
def test_default_medsaga_keeps_its_pinned_bytes_per_sample(mode) -> None:
    # the schedule's kept bytes, from shapes alone, are the bytes a replay's kept list
    # holds, for the schedule of the tape and arguments compile_loss_plan lowers
    cfg = RunConfig(mode=mode)
    params, samples = _setup(cfg)
    tape, ids, *reads = build_loss_tape(params, *samples[0], cfg)
    planned = schedule(tape, reads[-1], [ids[g.name] for g in params.groups
                                         if not isinstance(g.strategy, Frozen)], tuple(reads))
    plan, _ = compile_loss_plan(params, *samples[0], cfg)
    kept = plan.replay(_leaves(params, samples[0][0]), samples[0][1])[1]
    assert _kept_bytes(tape, planned.kept, kept) == planned.kept_bytes == KEPT_BYTES[mode]


def test_a_replays_kept_arrays_have_the_shapes_the_schedule_gives_them() -> None:
    # over seeded random graphs, whose attention and row softmax are not square, and one
    # graph per op kind: each kept value and aux array has its shape rule's shape, so the
    # schedule's kept bytes are the bytes a replay's kept list holds
    def shape(x):   # an array's shape, or a tuple of arrays' shapes (seg-loss's pieces)
        return x.shape if isinstance(x, np.ndarray) else tuple(map(shape, x))

    graphs = [random_graph(seed)[::2] for seed in range(40)]
    for op, build in OP_GRAPHS.items():
        tape = Tape()
        graphs.append((tape, build(tape, [tape.leaf(p) for p in op_graph_params(op)])))
    seen = set()
    for tape, loss in graphs:
        planned, nodes = schedule(tape, loss), tape.nodes
        kept = Plan(lower(tape, loss)).replay(list(tape.leaves.values()), tape.labels)[1]
        for (i, aux), x in zip(planned.kept, kept, strict=True):
            inputs = [nodes[j].shape for j in nodes[i].inputs]
            want = ({key: rule(*inputs) for key, rule in msga.tape._OPS[nodes[i].op].keeps.items()}
                    if aux else nodes[i].shape)
            assert ({key: shape(x[key]) for key in want} if aux else x.shape) == want, nodes[i].op
            seen |= {nodes[i].op} if aux and want else set()
        assert _kept_bytes(tape, planned.kept, kept) == planned.kept_bytes
    assert seen == {op for op, rules in msga.tape._OPS.items() if rules.keeps}


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
    with_text, (_, texts) = _held(lambda: (compile_loss_plan(params, *samples[0], cfg),
                                           sources.pop()))
    text_bytes = sum(map(sys.getsizeof, texts))
    assert held <= INTERPRETED_PLAN_BYTES * 1.02, held
    assert with_text - held > text_bytes * 0.9, (held, with_text, text_bytes)

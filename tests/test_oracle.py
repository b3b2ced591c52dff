"""Compiled plans against an independent reference: a naive eager forward that
calls each record's forward rule in node order and keeps every value and aux,
and a naive reverse-mode interpreter over them that frees, rebuilds and prunes
nothing and calls each node's backward rule with all its inputs. `Plan.run`,
`Tape.backward` and forward-only replays must give their bytes, on seeded
random graphs over every op kind and on the default loss tape."""

from __future__ import annotations

import re
from collections import Counter

import numpy as np
import pytest

import msga.tape
from msga.config import RunConfig
from msga.losses import downsample_labels
from msga.model import build_loss_tape, init_model
from msga.optim import Frozen, assign_strategies
from msga.tape import OP_KINDS, Plan, Tape, emit, lower, schedule
from msga.train import model_config, prepare_splits


def naive_forward(tape: Tape) -> tuple[list[np.ndarray], list[dict]]:
    """Every value and aux of the tape: the leaves' arrays, then each record's forward
    rule called in node order on its inputs' values and a copy of its op arguments.
    Each value has its node's recorded shape, and each forward sets the aux keys its
    record declares, no others."""
    values, auxes = [], []
    for nid, n in enumerate(tape.nodes):
        auxes.append(aux := dict(n.aux))
        if n.op == "leaf":
            values.append(tape.leaves[nid])
        else:
            rules = msga.tape._OPS[n.op]
            values.append(rules.fwd(*(values[i] for i in n.inputs), aux))
            assert aux.keys() - n.aux.keys() == set(rules.keeps), n.op
        assert values[nid].shape == n.shape, (nid, n.op)
    return values, auxes


def naive_read(forward: tuple[list, list], read):
    """A read of a naive forward as a replay returns it, a 0-d one as a float."""
    values, auxes = forward
    v = auxes[read[0]][read[1]] if isinstance(read, tuple) else values[read]
    return float(v) if v.ndim == 0 else v


def naive_adjoints(tape: Tape, forward: tuple[list, list], loss: int, wanted
                   ) -> dict[int, np.ndarray]:
    """Reverse mode over the tape's naive forward: one backward rule call per node the
    loss depends on, in reverse node order, handed all its inputs and the aux its forward
    kept; a first contribution binds and later ones add. Zeros for a leaf the loss misses."""
    values, auxes = forward
    adj = {loss: np.ones(values[loss].shape)}
    for nid in range(loss, -1, -1):
        n = tape.nodes[nid]
        if n.op != "leaf" and nid in adj:
            grads = msga.tape._OPS[n.op].bwd(adj[nid], *(values[i] for i in n.inputs), auxes[nid])
            for i, g in zip(n.inputs, grads, strict=True):
                adj[i] = adj[i] + g if i in adj else g
    return {i: adj[i] if i in adj else np.zeros(values[i].shape) for i in wanted}


# ---------------------------------------------------------------------------
# seeded random graphs

LABELS = "labels"   # stands for the graph's labels among a recorded step's arguments


def _two_d(s: tuple) -> bool:
    return len(s) == 2


def random_graph(seed: int) -> tuple[Tape, list, int]:
    """A seeded random graph over every op kind: its tape, its steps (each a tape method
    with its arguments, a leaf's its shape) and its scalar loss. Ops read earlier values
    or fresh leaves; a `block` step records an encoder block's patchify, layernorm, q,
    k, v and attention read by a linear, the chain whose rebuilds read rebuilt values.
    Every loss op shares the one labels array, as a replay takes one; every value no op
    reads enters the loss but, at random, one."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, int(rng.integers(2, 5)))   # logits have 2 columns or more
    tape, steps = Tape(), []

    def dim() -> int:
        return int(rng.integers(1, 5))

    def leaf(shape: tuple) -> int:
        steps.append(("leaf", (shape,), {}))
        return tape.leaf(rng.standard_normal(shape))

    def take(ok, shape) -> int:   # an earlier value whose shape is ok, or a fresh leaf
        found = [i for i, n in enumerate(tape.nodes) if ok(n.shape)]
        return int(rng.choice(found)) if found and rng.random() < 0.7 else leaf(shape())

    def rec(method: str, *args, **kw) -> int:
        steps.append((method, args, kw))
        return getattr(tape, method)(*(labels if a is LABELS else a for a in args), **kw)

    def shape(i: int) -> tuple:
        return tape.nodes[i].shape

    def pair() -> tuple:
        return dim(), dim()

    def matmul():
        a, tb = take(_two_d, pair), bool(rng.random() < 0.5)
        m = shape(a)[1]
        b = take(lambda s: _two_d(s) and s[tb] == m, lambda: (dim(), m) if tb else (m, dim()))
        return rec("matmul", a, b, transpose_b=tb)

    def add():
        a = take(lambda s: True, pair)
        s = shape(a)
        want = (1, s[1]) if _two_d(s) and rng.random() < 0.4 else s
        b = a if want == s and rng.random() < 0.2 else take(lambda t: t == want, lambda: want)
        return rec("add", a, b)

    def linear():
        x = take(_two_d, pair)
        w = take(lambda s: _two_d(s) and s[0] == shape(x)[1], lambda: (shape(x)[1], dim()))
        bias = (1, shape(w)[1]) if rng.random() < 0.7 else (shape(x)[0], shape(w)[1])
        return rec("linear", x, w, take(lambda s: s == bias, lambda: bias))

    def attention():
        q = take(_two_d, pair)
        k = take(lambda s: _two_d(s) and s[1] == shape(q)[1], lambda: (dim(), shape(q)[1]))
        v = take(lambda s: _two_d(s) and s[0] == shape(k)[0], lambda: (shape(k)[0], dim()))
        return rec("attention", q, k, v, float(rng.uniform(0.2, 1.0)))

    def layernorm():
        x = take(_two_d, pair)
        row = (1, shape(x)[1])
        return rec("layernorm", x, *(take(lambda s: s == row, lambda: row) for _ in "gb"))

    def logits() -> int:
        rows = len(labels)
        return take(lambda s: _two_d(s) and s[0] == rows and s[1] >= 2,
                    lambda: (rows, int(rng.integers(2, 5))))

    def reshape():
        a = take(lambda s: True, pair)
        s, size = shape(a), int(np.prod(shape(a)))
        options = [(size,), (1, size), (size, 1), s[::-1], *([()] if size == 1 else [])]
        return rec("reshape", a, options[int(rng.integers(len(options)))])

    def patchify():
        img = take(_two_d, lambda: (2 * dim(), 2 * dim()))
        h, w = shape(img)
        return rec("patchify", img, int(rng.choice([p for p in (1, 2, 3, 4)
                                                    if h % p == 0 and w % p == 0])))

    def embed_lookup():
        table = take(_two_d, pair)
        return rec("embed_lookup", table, rng.integers(0, shape(table)[0], dim()))

    def block():
        tokens = rec("patchify", leaf((2 * dim(), 2 * dim())), 2)
        h = rec("layernorm", tokens, leaf((1, 4)), leaf((1, 4)))
        q, k, v = (rec("matmul", h, leaf((4, 4))) for _ in "qkv")
        return rec("linear", rec("attention", q, k, v, 0.5), leaf((4, 4)), leaf((1, 4)))

    builders = {
        "matmul": matmul, "add": add, "linear": linear, "attention": attention,
        "scale": lambda: rec("scale", take(lambda s: True, pair), float(rng.uniform(-2, 2))),
        "gelu": lambda: rec("gelu", take(_two_d, pair)),
        "layernorm": layernorm,
        "softmax-rows": lambda: rec("softmax_rows", take(_two_d, pair)),
        "softmax-ce": lambda: rec("softmax_ce", logits(), LABELS),
        "soft-dice": lambda: rec("soft_dice", logits(), LABELS, float(rng.uniform(0.5, 1.5))),
        "seg-loss": lambda: rec("seg_loss", logits(), LABELS, float(rng.uniform(0.5, 1.5)),
                                float(rng.uniform(0.0, 1.0))),
        "reshape": reshape, "patchify": patchify,
        "mean": lambda: rec("mean", take(lambda s: True, pair)),
        "embed-lookup": embed_lookup, "block": block,
    }
    kinds = sorted(builders)
    for _ in range(int(rng.integers(6, 16))):
        builders[kinds[int(rng.integers(len(kinds)))]]()
    read = {i for n in tape.nodes for i in n.inputs}
    sinks = [i for i, n in enumerate(tape.nodes) if n.op != "leaf" and i not in read]
    if len(sinks) > 1 and rng.random() < 0.5:   # a branch the loss does not read
        sinks.pop(int(rng.integers(len(sinks))))
    terms = [i if shape(i) == () else rec("mean", i) for i in sinks]
    loss = terms[0]
    for t in terms[1:]:
        loss = rec("add", loss, rec("scale", t, float(rng.uniform(0.5, 1.5))))
    return tape, steps, loss


def record_graph(steps: list, rng: np.random.Generator, labels: np.ndarray) -> Tape:
    """The graph's steps recorded again on new random leaf values and these labels."""
    tape = Tape()
    for method, args, kw in steps:
        if method == "leaf":
            tape.leaf(rng.standard_normal(args[0]))
        else:
            getattr(tape, method)(*(labels if a is LABELS else a for a in args), **kw)
    return tape


# ---------------------------------------------------------------------------
# the comparison


def _bytes(x) -> tuple:
    a = np.asarray(x)
    return a.dtype, a.shape, a.tobytes()


def _is_0d(tape: Tape, read) -> bool:   # a term read, or a read of a 0-d value
    return isinstance(read, tuple) or tape.nodes[read].shape == ()


def _assert_freed_at_last_use(texts: tuple[str, str]) -> None:
    """In each emitted function, every binding of a local not returned is deleted by
    the first `del` after the last line that names it."""
    for text in texts:
        lines = text.splitlines()
        dels = [k for k, line in enumerate(lines) if line.lstrip().startswith("del ")]
        version, last, freed = Counter(), {}, {}
        for k, line in enumerate(lines):
            for name in re.findall(r"\b[vxgt]\d+\b", line):
                if k in dels:
                    freed[name, version[name]] = k
                    version[name] += 1
                else:
                    last[name, version[name]] = k
        returned = next(k for k, line in enumerate(lines) if line.lstrip().startswith("return"))
        for key, k in last.items():
            want = None if k == returned else min((d for d in dels if d > k), default=-1)
            assert freed.get(key) == want, (key, lines[k])


def assert_matches_the_oracle(tapes: list[Tape], loss: int, wanted, reads: tuple) -> dict:
    """`tapes` record one graph on each sample of a batch. Checks `Tape.backward` on each,
    and `Plan.run` over the batch and a forward-only replay of each against the naive
    forward and interpreter, byte for byte, and both plans' liveness.
    Returns each plan's forward and backward text."""
    tape = tapes[0]
    leaves = [i for i, n in enumerate(tape.nodes) if n.op == "leaf"]
    wanted = leaves if wanted is None else list(wanted)
    samples = [([t.leaves[i] for i in leaves], t.labels) for t in tapes]
    forwards = [naive_forward(t) for t in tapes]
    for t, forward in zip(tapes, forwards):
        want = naive_adjoints(t, forward, loss, leaves)
        got = t.backward(loss)
        assert sorted(got) == leaves
        assert [i for i in leaves if _bytes(got[i]) != _bytes(want[i])] == []
    sums, totals = {}, [0.0] * len(reads)
    for t, forward in zip(tapes, forwards):   # what a batch gives: sums in sample order
        sums = {i: sums[i] + g if i in sums else 0.0 + g
                for i, g in naive_adjoints(t, forward, loss, wanted).items()}
        totals = [r + naive_read(forward, i) for r, i in zip(totals, reads)]
    plan = Plan(lower(tape, loss, wanted, reads))
    got_reads, got = plan.run(samples)
    assert sorted(got) == sorted(sums)
    assert [i for i in sums if _bytes(got[i]) != _bytes(sums[i])] == []
    assert [_bytes(r) for r in got_reads] == [_bytes(r) for r in totals]
    assert all(type(r) is float for r, i in zip(got_reads, reads) if _is_0d(tape, i))
    # sums the caller owns: the same arrays come back, written in place to the same bytes
    owned = {i: np.zeros(tape.nodes[i].shape) for i in wanted}
    got_reads, got = plan.run(samples, dict(owned))
    assert sorted(got) == sorted(owned) and all(got[i] is owned[i] for i in owned)
    assert [i for i in sums if _bytes(owned[i]) != _bytes(sums[i])] == []
    assert [_bytes(r) for r in got_reads] == [_bytes(r) for r in totals]
    forward_only = Plan(lower(tape, loss, (), reads))
    for forward, (values, labels) in zip(forwards, samples):
        got_reads, kept = forward_only.replay(values, labels)
        assert kept == []
        assert [_bytes(r) for r in got_reads] == [_bytes(naive_read(forward, i)) for i in reads]
    sources = {kind: emit(tape, schedule(tape, loss, w, reads))[:2]
               for kind, w in (("training", wanted), ("forward-only", ()))}
    for source in sources.values():
        _assert_freed_at_last_use(source)
    return sources


SEEDS = range(120)


def test_random_graphs_match_the_naive_oracle_bitwise() -> None:
    # over the seeds, the graphs record every op kind; the training plans run every
    # rebuild, a rebuild of a rebuilt value, value-only gelu, and adjoints with a later
    # contribution; wanted sets are empty, partial and whole; some reads are 0-d and some
    # name a seg-loss aux
    seen: set[str] = set()
    for seed in SEEDS:
        first, steps, loss = random_graph(seed)
        rng = np.random.default_rng([seed, 1])
        second = record_graph(steps, rng, rng.integers(0, 2, len(first.labels)))
        leaves = [i for i, n in enumerate(first.nodes) if n.op == "leaf"]
        pick = rng.random()
        wanted = (None if pick < 0.2 else () if pick < 0.3
                  else [i for i in leaves if rng.random() < 0.6])
        reads = tuple(i for i in range(len(first.nodes)) if rng.random() < 0.2) + tuple(
            (i, key) for i, n in enumerate(first.nodes) if n.op == "seg-loss"
            for key in ("ce", "dice") if rng.random() < 0.5)
        source = "".join(assert_matches_the_oracle([first, second], loss, wanted,
                                                   reads)["training"])
        rebuilt = set(re.findall(r"\b(v\d+) = rb_", source))
        seen |= {n.op for n in first.nodes} | {f"rb_{kind}" for kind in re.findall(
            r"= rb_(\w+)\(", source)} | {"wanted " + ("all" if wanted is None else
                                                     "some" if wanted else "none")}
        seen |= {label for label, hit in [
            ("rebuild of a rebuild", any(set(re.findall(r"\bv\d+\b", call)) & rebuilt
                                         for call in re.findall(r"= rb_\w+\((.*)\)", source))),
            ("val_gelu", "= val_gelu(" in source and "] = bwd_" in source),
            ("later contribution", re.search(r"(\S+) = \1 \+ t\d", source)),
            ("0-d read", any(_is_0d(first, i) for i in reads)),
            ("aux read", any(isinstance(i, tuple) for i in reads))] if hit}
    rebuilds = {f"rb_{kind.replace('-', '_')}" for kind, r in msga.tape._OPS.items() if r.rebuild}
    assert seen >= {*OP_KINDS, *rebuilds, "rebuild of a rebuild", "val_gelu",
                    "later contribution", "wanted all", "wanted some", "wanted none",
                    "0-d read", "aux read"}, seen


@pytest.mark.parametrize("mode", ["medsaga", "v2", "full-adamw"])
def test_the_default_loss_tape_matches_the_naive_oracle_bitwise(mode: str) -> None:
    # the training plan's wanted leaves and reads, as compile_loss_plan gives them, at the
    # default geometry with a non-zero head, over a batch of two samples
    cfg = RunConfig(mode=mode, synthetic_count=20)
    params = assign_strategies(init_model(model_config(cfg), cfg.seed), cfg.mode,
                               **cfg.galore_settings())
    head = params.group("decoder/fc2/weight")
    head.values = np.random.default_rng(3).normal(size=head.values.shape)
    tapes = []
    for s in prepare_splits(cfg)[0].samples[:2]:
        labels = downsample_labels(s.mask, cfg.patch_size).reshape(-1)
        tape, ids, *reads = build_loss_tape(params, s.image, labels, cfg)
        tapes.append(tape)
    wanted = [ids[g.name] for g in params.groups if not isinstance(g.strategy, Frozen)]
    assert_matches_the_oracle(tapes, reads[-1], wanted, tuple(reads))


def test_sums_from_zeros_turn_a_negative_zero_adjoint_positive_and_keep_unreached_leaves_zero(
        ) -> None:
    # a loss scaled by -0.0 hands x an adjoint of -0.0 everywhere, which a sum started at
    # zeros makes +0.0, as `0.0 + g` does; the wanted leaf u feeds only a branch the loss
    # does not read, and stays +0.0
    tapes = []
    for seed in range(2):
        tape = Tape()
        x = tape.leaf(np.random.default_rng(seed).normal(size=(2, 3)))
        u = tape.leaf(np.ones((2, 2)))
        tape.mean(u)
        loss = tape.scale(tape.mean(x), -0.0)
        tapes.append(tape)
    assert all(np.signbit(naive_adjoints(t, naive_forward(t), loss, [x])[x]).all() for t in tapes)
    assert_matches_the_oracle(tapes, loss, [x, u], (loss,))
    plan = Plan(lower(tapes[0], loss, [x, u]))
    samples = [([t.leaves[x], t.leaves[u]], t.labels) for t in tapes]
    owned = {x: np.zeros((2, 3)), u: np.zeros((2, 2))}
    zeros = [_bytes(np.zeros((2, 3))), _bytes(np.zeros((2, 2)))]
    for got in plan.run(samples)[1], plan.run(samples, owned)[1]:
        assert [_bytes(got[x]), _bytes(got[u])] == zeros

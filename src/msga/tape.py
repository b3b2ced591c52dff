"""Tape-based reverse-mode differentiation over a fixed op set.

A Tape records a program: each op's kind, inputs, arguments and output shape,
and each leaf's array. Recording computes no value; every value comes from
replaying a plan compiled from the tape, whose backward runs the chain rule
from a scalar loss; Tape.value and Tape.backward compile one per node count
and reads. The model and its training loss record matmul, add (same shape or a
broadcast row), linear (`x @ w + b`), single-head attention (`softmax(q k^T c)
v`), tanh-gelu, layernorm, patchify and seg-loss (`w ce + (1 - w) dice` from one
softmax), which share the code of the elementary rules and give their chains'
bytes; every 2-D product is np.dot's. Row softmax, scale, reshape, mean,
embedding lookup and matmul's transpose_b flag remain because acceptance checks
(C3, C6) pin them; their softmax_ce and soft_dice record seg-loss at ce_weight 1
and 0, which give each term's bits. Values are float64 ndarrays; losses are 0-d.
Each op kind has one `OpRules` record in `_OPS`. Tape.record runs only the
kind's shape rule, which raises a ValueError naming the op, returns the output's
shape and may add an op argument (add's and linear's `row`; seg-loss's integer
labels become int64). A tape's seg-loss nodes take one labels array, as a replay
does, which checks its leaves' shapes (they fix every value's) and the labels
per logits shape.

A forward rule `fwd(*inputs, aux)` gets a fresh dict of the node's op arguments
and keeps in it what its backward `bwd(g, *inputs, aux)` reads, under the keys
its record's `keeps` maps to their shapes; a backward rule gets the node's inputs in order,
None where no wanted adjoint reads one, and gives None for an adjoint whose read inputs
are None. No rule writes into its inputs, adjoint or aux.

`schedule` works out a tape's plan as data, from its shapes, op arguments and
records, before anything runs; `emit` writes that `Schedule` as two texts, each one
function of straight-line Python, which a Plan, built from `lower`'s output with no
array of the tape, compiles once each into one scope of numpy, the op arguments and
the rules. A read is a value id or a `(node id, term)` pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from msga.linalg import softmax_last_dim

GELU_COEF = 0.044715
LAYERNORM_EPS = 1e-5
_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
_F64 = np.dtype(np.float64)


@dataclass
class TapeNode:
    op: str
    inputs: tuple[int, ...]
    aux: dict                # the op's arguments, a shape rule's included; a leaf's name
    shape: tuple[int, ...]   # the output's shape, from the kind's shape rule


class Tape:
    """Append-only op recorder; node indices double as value identifiers."""

    def __init__(self) -> None:
        self.nodes: list[TapeNode] = []
        self.leaves: dict[int, np.ndarray] = {}   # each leaf's array by its id, in tape order
        self.labels = np.zeros(0, np.int64)        # the labels every labelled op takes
        self._plans: dict[tuple, Plan] = {}

    # -- construction ------------------------------------------------------

    def leaf(self, value: np.ndarray, name: str | None = None) -> int:
        """Register an input (parameter or data) and return its value id; a plan's
        errors name the leaf by `name`, or by that id when it has none."""
        nid = len(self.nodes)
        self.leaves[nid] = value = np.asarray(value, dtype=np.float64)
        self.nodes.append(TapeNode("leaf", (), {"name": nid if name is None else name},
                                   value.shape))
        return nid

    def record(self, op: str, inputs: tuple[int, ...] | list[int], **aux) -> int:
        """Append `op` on already-recorded values after its shape rule; computes nothing."""
        if (rules := _OPS.get(op)) is None:
            raise ValueError(f"unknown op kind {op!r}")
        ids = tuple(int(i) for i in inputs)
        if len(ids) != rules.arity:
            raise ValueError(f"{op}: expected {rules.arity} inputs, got {len(ids)}")
        if off := [i for i in ids if not 0 <= i < len(self.nodes)]:
            raise ValueError(f"{op}: input id {off[0]} not on this tape")
        shape = rules.shape(*(self.nodes[i].shape for i in ids), aux)
        if "labels" in aux and self.labels.size and not np.array_equal(self.labels, aux["labels"]):
            raise ValueError(f"{op}: labels differ from the tape's first labelled op's")
        self.labels = aux.get("labels", self.labels)   # a shape rule let them: not empty
        self.nodes.append(TapeNode(op, ids, aux, shape))
        return len(self.nodes) - 1

    # typed wrappers, one per op kind

    def matmul(self, a: int, b: int, transpose_b: bool = False) -> int:
        return self.record("matmul", (a, b), transpose_b=transpose_b)

    def add(self, a: int, b: int) -> int:
        return self.record("add", (a, b))

    def scale(self, a: int, c: float) -> int:
        return self.record("scale", (a,), c=float(c))

    def linear(self, x: int, w: int, b: int) -> int:
        return self.record("linear", (x, w, b))

    def attention(self, q: int, k: int, v: int, c: float) -> int:
        return self.record("attention", (q, k, v), c=float(c))

    def gelu(self, a: int) -> int:
        return self.record("gelu", (a,))

    def layernorm(self, x: int, gain: int, bias: int) -> int:
        return self.record("layernorm", (x, gain, bias))

    def softmax_rows(self, a: int) -> int:
        return self.record("softmax-rows", (a,))

    def softmax_ce(self, logits: int, labels: np.ndarray) -> int:
        return self.seg_loss(logits, labels, 1.0, 1.0)   # ce 1 + dice 0: ce's bits

    def soft_dice(self, logits: int, labels: np.ndarray, smooth: float) -> int:
        return self.seg_loss(logits, labels, smooth, 0.0)   # ce 0 + dice 1: dice's bits

    def seg_loss(self, logits: int, labels: np.ndarray, smooth: float, ce_weight: float) -> int:
        return self.record("seg-loss", (logits,), labels=labels, smooth=float(smooth),
                           ce_weight=float(ce_weight))

    def reshape(self, a: int, shape: tuple[int, ...]) -> int:
        return self.record("reshape", (a,), shape=tuple(int(d) for d in shape))

    def patchify(self, image: int, patch: int) -> int:
        return self.record("patchify", (image,), patch=int(patch))

    def mean(self, a: int) -> int:
        return self.record("mean", (a,))

    def embed_lookup(self, table: int, indices: np.ndarray) -> int:
        return self.record("embed-lookup", (table,), indices=np.asarray(indices, dtype=np.int64))

    # -- evaluation --------------------------------------------------------

    def value(self, vid: int | tuple[int, str]) -> np.ndarray:
        """A value by its id, or by `(node id, term)` a 0-d term its node's forward keeps."""
        _, (out,), _ = self._replay(vid[0] if isinstance(vid, tuple) else vid, (), (vid,))
        return np.asarray(out)

    def backward(self, loss_id: int) -> dict[int, np.ndarray]:
        """Adjoints of a scalar loss with respect to every leaf.

        Leaves with no path to the loss get exactly-zero gradients of their
        own shape. Identical tapes produce bitwise-identical results: the
        traversal order and accumulation order are fixed by node order."""
        plan, _, kept = self._replay(loss_id, None, ())
        return plan.backward(kept)

    def _replay(self, loss_id: int, wanted, reads: tuple) -> tuple[Plan, list, list]:
        """The tape's plan, compiled once per node count, loss, wanted leaves and reads,
        with the reads and kept list of its replay on the tape's leaves and labels."""
        key = (len(self.nodes), loss_id, wanted, reads)
        if key not in self._plans:
            self._plans[key] = Plan(lower(self, loss_id, wanted, reads))
        return self._plans[key], *self._plans[key].replay(list(self.leaves.values()), self.labels)


def lower(tape: Tape, loss_id: int, wanted=None, reads=()) -> tuple[str, str, tuple, list, tuple]:
    """What a Plan is built from, holding no array of the tape: the texts and op arguments
    `emit` writes from the tape's `schedule`, each leaf's id, shape and name, and the logits
    shapes seg-loss nodes take."""
    forward, backward, consts = emit(tape, schedule(tape, loss_id, wanted, reads))
    shapes = {}   # one tuple per distinct leaf shape
    return forward, backward, consts, [
        (nid, shapes.setdefault(n.shape, n.shape), n.aux["name"])
        for nid, n in enumerate(tape.nodes) if n.op == "leaf"
    ], tuple(dict.fromkeys(tape.nodes[n.inputs[0]].shape
                           for n in tape.nodes if n.op == "seg-loss"))


class Plan:
    """`lower`'s output compiled once, each function from the text `emit` wrote: a forward
    that replays every op on new leaves and labels, and a backward over the schedule's
    steps, the nodes on a path from a wanted leaf to the loss, accumulating adjoints in
    reverse node order as the whole tape would. It keeps the two functions, each leaf's
    id, shape and name and the label checks, not the texts."""

    def __init__(self, lowered: tuple):
        forward, backward, consts, self.leaves, self.labelled = lowered
        scope = {"np": np, "A": consts, **{   # every rule, by the name a text calls it
            f"{way}_{_name(kind)}": rule for kind, r in _OPS.items() for way, rule in (
                ("fwd", r.fwd), ("bwd", r.bwd), ("val", r.value), ("rb", r.rebuild)) if rule}}
        for text in (forward, backward):   # one at a time, into the functions' globals
            exec(compile(text, "<plan>", "exec"), scope)
        self._forward, self._backward = scope["forward"], scope["backward"]

    def run(self, samples: Iterable[tuple], sums: dict[int, np.ndarray] | None = None
            ) -> tuple[list[float], dict[int, np.ndarray]]:
        """Replay each `(leaves, labels)` sample in order (`leaves` float64 in tape order,
        `labels` flat); returns the `reads` and `sums`, a float64 array per wanted leaf
        (zeros to start, which give `0.0 + g`'s bits) into which each sample's adjoints
        add in place; when None, zeros are allocated at the first sample."""
        reads = []
        for leaves, labels in samples:
            scalars, kept = self.replay(leaves, labels)
            reads = [r + x for r, x in zip(reads or [0.0] * len(scalars), scalars)]
            grads = self.backward(kept)
            sums = {nid: np.zeros(g.shape) for nid, g in grads.items()} if sums is None else sums
            for nid in grads:
                np.add(sums[nid], grads[nid], out=sums[nid])
            del grads   # no adjoint of this sample lives into the next replay
        return reads, {} if sums is None else sums

    def replay(self, leaves: list, labels: np.ndarray) -> tuple[list, list]:
        """One forward pass: the `reads` values, 0-d ones (loss terms) as floats, and the
        kept list the backward reads. `labels` may be empty when no op takes them."""
        for (_, shape, name), v in zip(self.leaves, leaves, strict=True):
            if not isinstance(v, np.ndarray) or v.dtype != _F64 or v.shape != shape:
                raise ValueError(f"replay leaf {name!r}: expected float64 {shape}, "
                                 f"got {np.asarray(v).dtype} {np.shape(v)}")
        for shape in self.labelled:   # before the int64 cast, which truncates fractions
            labels = _check_labels(shape, labels)
        return self._forward(np.asarray(labels, dtype=np.int64), *leaves)

    def backward(self, kept: list) -> dict[int, np.ndarray]:
        """Wanted leaves' adjoints from one replay's kept list, which it empties; exact
        zeros for a leaf the loss does not reach."""
        return self._backward(kept)


@dataclass(frozen=True)
class Schedule:
    """A tape's plan as ints and tuples, worked out from its records before anything runs."""

    loss: int
    reads: tuple
    wanted: tuple[int, ...]   # the leaves whose adjoints the backward returns
    zeros: tuple[int, ...]    # those of them no step gives an adjoint: exact zeros
    seeded: bool              # whether the loss reaches a wanted leaf
    # per op in node order: (node, whether it runs its value-only forward, whether it binds
    # its aux, kept or read, the values freed after its line)
    forward: tuple[tuple, ...]
    # per backward node in reverse node order: (node, the rebuilds that run just before its
    # rule, each (value, its rebuild's input ids), the input ids its rule is handed, None where
    # no wanted adjoint reads one, per input None if no wanted leaf needs its adjoint and else
    # whether it adds to an earlier contribution, the values no later step reads)
    steps: tuple[tuple, ...]
    kept: tuple[tuple[int, bool], ...]   # the kept list K: (id, is_aux), a value or its aux
    kept_bytes: int                      # of K's non-leaf entries, from their shapes


def schedule(tape: Tape, loss_id: int, wanted: Iterable[int] | None = None,
             reads: tuple = ()) -> Schedule:
    """The tape's Schedule, the same for the same tape. A backward node keeps the inputs its
    wanted adjoints read and its aux until its step; a value with a rebuild rule is rebuilt
    instead, just before its first reader, a rule or a rebuild, from the rebuild's inputs,
    leaves, kept or rebuilt themselves (a step's rebuilds in node order, so inputs first).
    Any other value is freed after its last forward reader unless a read names it."""
    nodes = tape.nodes
    for r in (r for r in reads if isinstance(r, tuple)):   # a 0-d term the node's forward keeps
        if (n := nodes[r[0]]).op == "leaf" or _aux_shapes(nodes, r[0]).get(r[1], 0) != ():
            raise ValueError(f"read {r}: node {r[0]} ({n.op}) keeps no term {r[1]!r}")
    leaves = [nid for nid, n in enumerate(nodes) if n.op == "leaf"]
    wanted = set(leaves if wanted is None else wanted)
    if wanted and np.prod(nodes[loss_id].shape) != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {nodes[loss_id].shape}")
    reaches: list[bool] = []
    for nid, n in enumerate(nodes):
        reaches.append(nid in wanted if n.op == "leaf" else any(reaches[i] for i in n.inputs))
    live, steps = {loss_id} if reaches[loss_id] else set(), []
    bound = set(live)   # the nodes whose adjoint has its first contribution
    for nid in range(loss_id, -1, -1):   # the backward nodes, each with the inputs it reads
        n = nodes[nid]
        if nid in live and n.op != "leaf":
            live.update(i for i in n.inputs if reaches[i])
            adjoints = []
            for i in n.inputs:   # a first contribution binds; a later one adds
                adjoints.append(i in bound if reaches[i] else None)
                bound.update([i] if reaches[i] else [])
            need = {k for j, i in enumerate(n.inputs) if reaches[i] for k in _OPS[n.op].reads[j]}
            steps.append((nid, tuple(i if k in need else None for k, i in enumerate(n.inputs)),
                          tuple(adjoints)))
    read = {i for _, args, _ in steps for i in args if i is not None}
    rebuilt = {}   # a read value the backward rebuilds -> its rebuild's inputs, None if unread
    for i in sorted(read):   # in node order, so a step runs a rebuild's inputs first
        n, rules = nodes[i], _OPS.get(nodes[i].op)   # a leaf has no rules
        if rules and rules.rebuild and (i in live or not rules.keeps):
            ins = tuple(j if k in rules.rebuild_reads else None for k, j in enumerate(n.inputs))
            if all(j is None or nodes[j].op == "leaf" or j in read for j in ins):
                rebuilt[i] = ins
    first = {}   # the step a rebuild runs at: its first reader's, a rule's or a rebuild's
    for i in sorted(rebuilt, reverse=True):   # each rebuild that reads it is settled first
        first[i] = min([*(k for k, (_, args, _) in enumerate(steps) if i in args),
                        *(first[d] for d in first if i in rebuilt[d])])
    # uses[k]: the values read at backward step k, by its rebuilds and then by its rule
    uses = [[*(j for i in rebuilt if first[i] == k for j in rebuilt[i] if j is not None),
             *(i for i in args if i is not None)] for k, (_, args, _) in enumerate(steps)]
    kept = tuple(dict.fromkeys(e for k, (nid, *_) in enumerate(steps) for e in (
        *((i, False) for i in uses[k] if i not in rebuilt), (nid, True))))
    last = {i: k for k, u in enumerate(uses) for i in u}   # a kept value's last reader
    auxes = {i for i, aux in kept if aux} | {r[0] for r in reads if isinstance(r, tuple)}
    ops = [(nid, n) for nid, n in enumerate(nodes) if n.op != "leaf"]
    ends = {s: nid for nid, n in ops for s in (nid, *n.inputs)}   # a value's last forward reader
    return Schedule(
        loss_id, tuple(reads), tuple(sorted(wanted)), tuple(sorted(wanted - bound)),
        reaches[loss_id],
        tuple((nid, nid not in auxes and bool(_OPS[n.op].value), nid in auxes, tuple(sorted({
            s for s in (*n.inputs, nid) if ends[s] == nid and s not in reads
            and (s, False) not in kept}))) for nid, n in ops),
        tuple((nid, tuple((i, rebuilt[i]) for i in rebuilt if first[i] == k), args, adjoints,
               tuple(sorted({i for i in uses[k] if last[i] == k})))
              for k, (nid, args, adjoints) in enumerate(steps)), kept,
        sum(sum(map(_nbytes, _aux_shapes(nodes, i).values())) if aux else _nbytes(nodes[i].shape)
            for i, aux in kept if nodes[i].op != "leaf"))


def _aux_shapes(nodes: list[TapeNode], nid: int) -> dict:
    """The shape of each aux entry node `nid`'s forward keeps, from its inputs' shapes."""
    return {key: shape(*(nodes[i].shape for i in nodes[nid].inputs))
            for key, shape in _OPS[nodes[nid].op].keeps.items()}


def _nbytes(shape: tuple) -> int:   # of a float64 array, or of a tuple of them (pieces)
    return (sum(map(_nbytes, shape)) if shape and isinstance(shape[0], tuple)
            else _F64.itemsize * math.prod(shape))


def emit(tape: Tape, s: Schedule) -> tuple[str, str, tuple]:
    """A schedule as two Python texts and the op arguments A they read, each one function
    that reads `np`, A and the rules by name: `forward(labels, *leaves)`, one line per op
    and a `del` of what it frees, returning the `reads` and K; `backward(K)`, one rule
    call per step after its rebuilds, returning the dict G of wanted adjoints."""
    nodes, fwd, consts, auxes = tape.nodes, [], [], {}
    for nid, value_only, binds, frees in s.forward:
        n, items = nodes[nid], []
        for key in n.aux:   # labels are passed in; every other op argument is an item of A
            consts += [] if key == "labels" else [n.aux[key]]
            items.append(f"{key!r}: " + ("labels" if key == "labels" else f"A[{len(consts) - 1}]"))
        auxes[nid] = f"{{{', '.join(items)}}}"
        fwd.append(f"v{nid} = {'val' if value_only else 'fwd'}_{_name(n.op)}("
                   f"{''.join(f'v{i}, ' for i in n.inputs)}{f'x{nid} := ' * binds}{auxes[nid]})")
        fwd += [f"del {', '.join(sorted(f'v{i}' for i in frees))}"] if frees else []
    returned = ", ".join(f"float(x{r[0]}[{r[1]!r}])" if isinstance(r, tuple) else
                         f"float(v{r})" if nodes[r].shape == () else f"v{r}" for r in s.reads)
    kept, wanted = set(s.kept), set(s.wanted)
    adj = [f"G[{i}]" if i in wanted else f"g{i}" for i in range(len(nodes))]   # G: returned
    bwd = [f"{adj[s.loss]} = np.ones({nodes[s.loss].shape!r})"] if s.seeded else []
    for nid, rebuilds, args, adjoints, frees in s.steps:
        for i, ins in rebuilds:
            handed = "".join("None, " if j is None else f"v{j}, " for j in ins)
            bwd.append(f"v{i} = rb_{_name(nodes[i].op)}({handed}"
                       f"{f'x{i}' if (i, True) in kept else auxes[i]})")
        n = nodes[nid]
        outs = ["_" if a is None else f"t{j}" if a else adj[i]
                for j, (i, a) in enumerate(zip(n.inputs, adjoints))]
        gone = sorted({f"g{nid}", f"x{nid}", *(o for o in outs if o[0] in "t_"),
                       *(f"v{i}" for i in frees)})
        handed = "".join("None, " if i is None else f"v{i}, " for i in args)
        bwd += [f"[{', '.join(outs)}] = bwd_{_name(n.op)}(g{nid}, {handed}x{nid})",
                *(f"{adj[i]} = {adj[i]} + {o}" for o, i in zip(outs, n.inputs) if o[0] == "t"),
                f"del {', '.join(gone)}"]
    zeros = ", ".join(f"{i}: np.zeros({nodes[i].shape!r})" for i in s.zeros)
    names = ", ".join(f"x{i}" if aux else f"v{i}" for i, aux in s.kept)

    def function(header: str, lines: list[str]) -> str:
        return f"def {header}:\n    " + "\n    ".join(lines) + "\n"
    leaves = ", ".join(["labels", *(f"v{nid}" for nid, n in enumerate(nodes) if n.op == "leaf")])
    return (function(f"forward({leaves})", [*fwd, f"return [{returned}], [{names}]"]),
            function("backward(K)", [f"[{names}] = K", "K.clear()", f"G = {{{zeros}}}", *bwd,
                                    "return G"]), tuple(consts))


def _name(op: str) -> str:
    return op.replace("-", "_")


# ---------------------------------------------------------------------------
# shape rules, run once, when an op is recorded: a replay's leaves have the recorded
# shapes, and those fix every value's


def _check_2d(op: str, *shapes: tuple) -> None:
    for shape in shapes:
        if len(shape) != 2:
            raise ValueError(f"{op}: expected 2-D value, got shape {shape}")


def _shape_matmul(a, b, aux):
    _check_2d("matmul", a, b)
    b_eff = b[::-1] if aux["transpose_b"] else b
    if a[1] != b_eff[0]:
        raise ValueError(f"matmul: inner dimensions disagree, {a} @ {b_eff} "
                         f"(transpose_b={aux['transpose_b']})")
    return a[0], b_eff[1]


def _shape_add(a, b, aux):
    aux["row"] = a != b   # whether b is a broadcast row; the backward reads no shape
    if not (a == b or len(a) == 2 and b == (1, a[1])):
        raise ValueError(f"add: shapes {a} and {b} are neither equal nor row-broadcast")
    return a


def _shape_linear(x, w, b, aux):
    return _shape_add(_shape_matmul(x, w, _NN), b, aux)


def _shape_attention(q, k, v, aux):
    return _shape_matmul(_shape_matmul(q, k, _NT), v, _NN)   # the scores; then probs v


def _shape_layernorm(x, gain, bias, aux):
    _check_2d("layernorm", x, gain, bias)
    if gain != (1, x[1]) or bias != (1, x[1]):
        raise ValueError(f"layernorm: gain/bias must be (1, {x[1]}), got {gain} and {bias}")
    return x


def _shape_softmax_rows(x, aux):
    _check_2d("softmax-rows", x)
    return x


def _check_labels(z: tuple, labels) -> np.ndarray:
    """Integer or bool labels, one per row of the (rows, classes) logits z, as int64."""
    _check_2d("seg-loss", z)
    if (labels := np.asarray(labels)).dtype.kind not in "biu":
        raise ValueError(f"seg-loss: labels must be integers, got dtype {labels.dtype}")
    if labels.shape != (z[0],):
        raise ValueError(f"seg-loss: labels shape {labels.shape} does not match {z[0]} rows")
    if z[0] == 0:
        raise ValueError("seg-loss: no rows to average over")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= z[1]:
        raise ValueError(f"seg-loss: label values outside 0..{z[1] - 1}")
    return labels.astype(np.int64, copy=False)


def _shape_seg_loss(z, aux):
    aux["labels"] = _check_labels(z, aux["labels"])
    return ()


def _shape_reshape(a, aux):
    if any(d < 0 for d in aux["shape"]) or np.prod(aux["shape"]) != np.prod(a):
        raise ValueError(f"reshape: cannot view {a} as {aux['shape']}")
    return aux["shape"]


def _shape_patchify(img, aux):
    p = aux["patch"]
    _check_2d("patchify", img)
    h, w = img
    if p < 1 or h % p or w % p:
        raise ValueError(f"patchify: image {h}x{w} not divisible by patch {p}")
    return h // p * (w // p), p * p


def _shape_embed_lookup(table, aux):
    idx = aux["indices"]
    _check_2d("embed-lookup", table)
    if idx.ndim != 1:
        raise ValueError(f"embed-lookup: indices must be 1-D, got {idx.shape}")
    if idx.min(initial=0) < 0 or idx.max(initial=0) >= table[0]:
        raise ValueError(f"embed-lookup: index outside 0..{table[0] - 1}")
    return len(idx), table[1]


# ---------------------------------------------------------------------------
# forward rules


def _dot(a, b):   # np.dot skips @'s dispatch, but keeps a -0.0 of 1x1 by 1x1 that @ drops
    return np.dot(a, b) if a.size > 1 or b.size > 1 else np.matmul(a, b)


def _fwd_matmul(a, b, aux):
    return _dot(a, b.T if aux["transpose_b"] else b)


_NN = {"transpose_b": False}
_NT = {"transpose_b": True}


def _fwd_add(a, b, aux):
    return np.asarray(a + b)   # a 0-d sum is a numpy scalar otherwise


def _fwd_linear(x, w, b, aux):
    xw = _fwd_matmul(x, w, _NN)
    xw += b
    return xw


def _fwd_scale(a, aux):
    return np.asarray(a * aux["c"])


def _fwd_attention(q, k, v, aux):
    scores = _fwd_matmul(q, k, _NT)
    scores *= aux["c"]
    _fwd_softmax_rows(scores, aux)
    return _attention_output(q, k, v, aux)


def _attention_output(q, k, v, aux):
    """probs v from the kept probabilities: the attention forward's output and its rebuild."""
    return _fwd_matmul(aux["probs"], v, _NN)


def _gelu_inner(x):
    a = x * x
    a *= x
    a *= GELU_COEF
    a += x
    a *= _SQRT_2_OVER_PI
    return a


def _gelu_tanh(x):
    t = _gelu_inner(x)
    return np.tanh(t, out=t)


def _gelu_value(x, aux):
    # 0.5 x (1 + t) in two buffers: the forward of a node whose derivative nothing reads
    t = _gelu_tanh(x)
    t += 1.0
    out = np.multiply(0.5, x)
    out *= t
    return out


def _fwd_gelu(x, aux):
    # keeps the derivative 0.5 (1 + t) + 0.5 x (1 - t t) dinner, dinner = sqrt(2/pi)
    # (1 + 3 c x x), in that operation order but in three buffers, derivative first
    t = _gelu_tanh(x)
    h = x * 0.5
    d = t * t
    h *= np.subtract(1.0, d, out=d)   # 0.5 x (1 - t t)
    np.multiply(x, x, out=d)
    d *= 3.0 * GELU_COEF
    d += 1.0
    d *= _SQRT_2_OVER_PI              # dinner
    h *= d
    t += 1.0
    out = np.multiply(0.5, x, out=d)
    out *= t
    t *= 0.5
    t += h
    aux["deriv"] = t
    return out


def _fwd_layernorm(x, gain, bias, aux):
    aux["xhat"], aux["std"] = _normalize_rows(x)
    return _layernorm_affine(x, gain, bias, aux)


def _layernorm_affine(x, gain, bias, aux):
    """xhat gain + bias from the kept xhat: the layernorm forward's output and its rebuild."""
    out = aux["xhat"] * gain
    out += bias
    return out


def _normalize_rows(x):
    """Each row shifted to zero mean and divided by its std; returns (xhat, std).

    Row means are `sum / n`, which is bitwise what np.mean and np.var compute,
    without their per-call dispatch.
    """
    n = x.shape[1]
    centered = x - x.sum(axis=1, keepdims=True) / n
    std = np.sqrt((centered * centered).sum(axis=1, keepdims=True) / n + LAYERNORM_EPS)
    centered /= std
    return centered, std


def _fwd_softmax_rows(x, aux):
    aux["probs"] = p = softmax_last_dim(x)
    return p


def _fwd_seg_loss(z, aux):
    # w ce + (1 - w) dice from one softmax, the sum with the bits of add(scale(ce, w),
    # scale(dice, 1 - w)); at w = 1 and w = 0 the term itself, which has the sum's bits
    # when the other term is finite and stays finite when it is not
    p, top, row_sums = softmax_last_dim(z, pieces=True)
    y, smooth, w = aux["labels"], aux["smooth"], aux["ce_weight"]
    rows = np.arange(len(y))
    # ce: the mean over rows of logsumexp(z) - z[y], from the softmax's row max and sum
    aux["ce"] = np.asarray(((top + np.log(row_sums)).ravel() - z[rows, y]).mean())
    onehot = np.zeros(p.shape)
    onehot[rows, y] = 1.0
    inter = (p * onehot).sum(axis=0)   # dice: one minus the mean per-class soft dice
    sums = p.sum(axis=0) + onehot.sum(axis=0)
    aux["pieces"] = p, onehot, inter, sums
    aux["dice"] = np.asarray(1.0 - ((2.0 * inter + smooth) / (sums + smooth)).mean())
    return np.array(aux["ce"] if w == 1.0 else aux["dice"] if w == 0.0
                    else aux["ce"] * w + aux["dice"] * (1.0 - w))


def _fwd_reshape(a, aux):
    return a.reshape(aux["shape"])


def _fwd_patchify(img, aux):
    p = aux["patch"]
    h, w = img.shape
    gh, gw = h // p, w // p
    return img.reshape(gh, p, gw, p).transpose(0, 2, 1, 3).reshape(gh * gw, p * p)


def _fwd_mean(a, aux):
    return np.asarray(a.mean())


def _fwd_embed_lookup(table, aux):
    return table[aux["indices"]]


# ---------------------------------------------------------------------------
# backward rules; each returns one adjoint per input, matching input shapes


def _bwd_matmul(g, a, b, aux):   # a's adjoint reads b, b's reads a: None without it
    nt = aux["transpose_b"]
    return (None if b is None else _dot(g, b if nt else b.T),
            None if a is None else _dot(g.T, a) if nt else _dot(a.T, g))


def _bwd_add(g, a, b, aux):
    return g, g.sum(axis=0, keepdims=True) if aux["row"] else g


def _bwd_linear(g, x, w, b, aux):
    g_xw, gb = _bwd_add(g, None, None, aux)
    return (*_bwd_matmul(g_xw, x, w, _NN), gb)


def _bwd_scale(g, a, aux):
    return (np.asarray(g * aux["c"]),)


def _bwd_attention(g, q, k, v, aux):
    gp, gv = _bwd_matmul(g, aux["probs"], v, _NN)
    if gp is None:   # v not handed: neither q's adjoint nor k's is wanted
        return None, None, gv
    gs = _softmax_rows_adjoint(gp, aux["probs"], gp)   # gp is this rule's own
    gs *= aux["c"]
    gq, gk = _bwd_matmul(gs, q, k, _NT)
    return gq, gk, gv


def _bwd_gelu(g, x, aux):
    return (aux["deriv"] * g,)


def _bwd_layernorm(g, x, gain, bias, aux):
    # dx = (dxhat - mean(dxhat) - xhat mean(dxhat xhat)) / std with dxhat = g gain, in two arrays
    xhat, std = aux["xhat"], aux["std"]
    n = xhat.shape[1]
    t = g * xhat
    dgain = t.sum(axis=0, keepdims=True)
    dbias = g.sum(axis=0, keepdims=True)
    if gain is None:   # x's adjoint is not wanted
        return None, dgain, dbias
    dx = g * gain
    proj = np.multiply(dx, xhat, out=t).sum(axis=1, keepdims=True) / n
    dx -= dx.sum(axis=1, keepdims=True) / n
    dx -= np.multiply(xhat, proj, out=t)
    dx /= std
    return dx, dgain, dbias


def _softmax_rows_adjoint(g, p, out=None):
    # (g - rowsum(g p)) p, written into out when given, which may be g itself
    out = np.subtract(g, (g * p).sum(axis=1, keepdims=True), out=out)
    out *= p
    return out


def _bwd_softmax_rows(g, x, aux):
    return (_softmax_rows_adjoint(g, aux["probs"]),)


def _bwd_seg_loss(g, z, aux):
    # the two terms' adjoints scaled as scale's backward scales them, added dice first
    (p, onehot, inter, sums), smooth, w = aux["pieces"], aux["smooth"], aux["ce_weight"]
    denom = sums + smooth
    # d(dice)/d(p_jc) for the mean-over-classes soft dice, then through the softmax
    dp = -(2.0 * onehot * denom - (2.0 * inter + smooth)) / (p.shape[1] * denom**2)
    dz = np.multiply(_softmax_rows_adjoint(dp, p, dp), float(g * (1.0 - w)), out=dp)
    dce = p - onehot   # the mean ce's adjoint, times g w / rows
    return (np.add(dz, np.multiply(dce, float(g * w) / len(p), out=dce), out=dz),)


def _bwd_reshape(g, a, aux):
    return (g.reshape(a.shape),)


def _bwd_patchify(g, img, aux):
    p = aux["patch"]
    h, w = img.shape
    gh, gw = h // p, w // p
    return (g.reshape(gh, gw, p, p).transpose(0, 2, 1, 3).reshape(h, w),)


def _bwd_mean(g, a, aux):
    return (np.full_like(a, float(g) / a.size),)


def _bwd_embed_lookup(g, table, aux):
    dtable = np.zeros_like(table)
    np.add.at(dtable, aux["indices"], g)
    return (dtable,)


@dataclass(frozen=True)
class OpRules:
    """All the rules of one op kind: the forward `fwd(*inputs, aux)`; the backward
    `bwd(g, *inputs, aux)`, one adjoint per input, the j-th None when an input `reads[j]`
    names is None; `arity`, the input count, fixed here so a wrapped rule keeps it; the
    shape rule `shape`, on the inputs' shapes and the aux, which only Tape.record runs;
    `keeps`, each aux key the forward sets and its shape from the inputs' shapes, a 0-d
    one a term a plan may read; `value`, a forward keeping nothing, for a node no
    backward step reads; `rebuild`, the forward's own code path for the output from the
    inputs at `rebuild_reads` and the aux."""

    fwd: Callable
    bwd: Callable
    reads: tuple[int, ...]
    arity: int
    shape: Callable
    keeps: dict[str, Callable] = field(default_factory=dict)
    value: Callable | None = None
    rebuild: Callable | None = None
    rebuild_reads: tuple[int, ...] = ()


_OPS: dict[str, OpRules] = {
    "matmul": OpRules(_fwd_matmul, _bwd_matmul, ((1,), (0,)), 2, _shape_matmul,
                      rebuild=_fwd_matmul, rebuild_reads=(0, 1)),
    "add": OpRules(_fwd_add, _bwd_add, ((), ()), 2, _shape_add),
    "linear": OpRules(_fwd_linear, _bwd_linear, ((1,), (0,), ()), 3, _shape_linear),
    "scale": OpRules(_fwd_scale, _bwd_scale, ((),), 1, lambda a, aux: a),
    "attention": OpRules(_fwd_attention, _bwd_attention, ((1, 2), (0, 2), ()), 3, _shape_attention,
                         {"probs": lambda q, k, v: (q[0], k[0])}, rebuild=_attention_output,
                         rebuild_reads=(2,)),
    "gelu": OpRules(_fwd_gelu, _bwd_gelu, ((),), 1, lambda x, aux: x, {"deriv": lambda x: x},
                    value=_gelu_value),
    "layernorm": OpRules(_fwd_layernorm, _bwd_layernorm, ((1,), (), ()), 3, _shape_layernorm,
                         {"xhat": lambda x, gain, bias: x, "std": lambda x, gain, bias: (x[0], 1)},
                         rebuild=_layernorm_affine, rebuild_reads=(1, 2)),
    "softmax-rows": OpRules(_fwd_softmax_rows, _bwd_softmax_rows, ((),), 1, _shape_softmax_rows,
                            {"probs": lambda x: x}),
    "seg-loss": OpRules(_fwd_seg_loss, _bwd_seg_loss, ((),), 1, _shape_seg_loss,
                        {"ce": lambda z: (), "dice": lambda z: (),
                         "pieces": lambda z: (z, z, z[1:], z[1:])}),   # p, onehot, inter, sums
    "reshape": OpRules(_fwd_reshape, _bwd_reshape, ((0,),), 1, _shape_reshape),
    "patchify": OpRules(_fwd_patchify, _bwd_patchify, ((0,),), 1, _shape_patchify,
                        rebuild=_fwd_patchify, rebuild_reads=(0,)),
    "mean": OpRules(_fwd_mean, _bwd_mean, ((0,),), 1, lambda a, aux: ()),
    "embed-lookup": OpRules(_fwd_embed_lookup, _bwd_embed_lookup, ((0,),), 1, _shape_embed_lookup),
}

OP_KINDS = tuple(_OPS)


def seg_loss_value(z: np.ndarray, labels, smooth: float, ce_weight: float) -> float:
    """The seg-loss of float64 (rows, classes) logits z: the forward rule a plan's seg-loss
    line runs, on the labels a replay checks and hands it."""
    return float(_fwd_seg_loss(z, {"labels": _check_labels(z.shape, labels),
                                   "smooth": float(smooth), "ce_weight": float(ce_weight)}))


def finite_diff_check(
    build: Callable[[Tape, list[int]], int],
    params: list[np.ndarray],
    epsilon: float = 1e-5,
) -> float:
    """Max relative error between tape gradients and central finite differences.

    `build` receives a fresh tape plus the leaf ids of `params` and must return the
    id of a scalar loss; its plan is compiled once and replayed per perturbation. The
    error at each parameter entry is |analytic - numeric| / max(1, |numeric|); a
    non-finite analytic or numeric entry raises FloatingPointError.
    """
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    tape = Tape()
    ids = [tape.leaf(p) for p in params]
    loss = build(tape, ids)
    plan, leaves = Plan(lower(tape, loss, ids, (loss,))), tape.leaves
    grads = plan.backward(plan.replay(list(leaves.values()), tape.labels)[1])
    worst = 0.0
    for i, nid in enumerate(ids):
        bumped = dict(leaves)
        p = bumped[nid] = leaves[nid].copy()
        for idx in np.ndindex(p.shape):
            ends = []   # the loss at +epsilon, then at -epsilon
            for step in (epsilon, -2.0 * epsilon):
                p[idx] += step
                ends.append(float(plan.replay(list(bumped.values()), tape.labels)[0][0]))
            p[idx] = leaves[nid][idx]
            numeric, analytic = (ends[0] - ends[1]) / (2.0 * epsilon), grads[nid][idx]
            if not (np.isfinite(analytic) and np.isfinite(numeric)):
                raise FloatingPointError(f"parameter {i} entry {idx}: analytic gradient "
                                         f"{analytic}, central difference {numeric}")
            worst = max(worst, abs(analytic - numeric) / max(1.0, abs(numeric)))
    return worst

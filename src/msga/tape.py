"""Tape-based reverse-mode differentiation over a fixed op set.

A Tape records forward values as ops are applied and replays the chain rule
backwards from a scalar loss. The segmentation model and its training loss
record matmul, add (same shape or a broadcast row), linear (`x @ w + b`),
single-head attention (`softmax(q k^T c) v`), tanh-gelu, layernorm, fused
softmax cross-entropy, fused soft dice, scalar scale and patchify. The fused
linear and attention rules are compositions of the matmul, add, scale and
row-softmax rules, so they share those rules' shape checks and derivatives
and give the same bytes as the elementary chain. Row softmax, reshape, mean,
embedding lookup and matmul's transpose_b flag remain only because the
gradient-correctness acceptance check (C3) pins them. Values are float64
ndarrays; losses are 0-d.

A forward rule may keep intermediates for its backward in the node's `aux`:
attention keeps its probabilities, layernorm its normalized rows and row
std, gelu its tanh, and soft dice its softmax, one-hot and class sums.
Their backward rules read these instead of recomputing them.

A Plan compiles a recorded tape to replay it on a batch of new leaves and
labels, with a backward pruned to the nodes between the wanted leaves and the
loss. Each op kind declares the values its backward reads (others reach it as
None). A node on the backward path keeps those values and its aux from its
forward op until its own backward step; the replay drops every other value
after its last forward reader. Training records one tape per run and replays
its plan once per step; Tape.backward runs a plan that wants every leaf on
the tape's recorded values, so there is one backward loop. Gradients it
returns are fresh arrays and safe to hand elsewhere. A plan that wants nothing
has no backward: evaluation replays one that reads the logits, so an image
keeps only the values a later op still reads.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    aux: dict                # the op's arguments, then what its forward rule kept
    shape: tuple[int, ...]
    args: tuple[str, ...]    # the keys of aux that are the op's arguments


class Tape:
    """Append-only op recorder; node indices double as value identifiers."""

    def __init__(self) -> None:
        self.nodes: list[TapeNode] = []
        self.values: list[np.ndarray] = []

    # -- construction ------------------------------------------------------

    def leaf(self, value: np.ndarray) -> int:
        """Register an input (parameter or data) and return its value id."""
        arr = np.asarray(value, dtype=np.float64)
        self.nodes.append(TapeNode("leaf", (), {}, arr.shape, ()))
        self.values.append(arr)
        return len(self.nodes) - 1

    def record(self, op: str, inputs: tuple[int, ...] | list[int], **aux) -> int:
        """Apply `op` to already-recorded values, store the result, return its id."""
        if op not in _OPS:
            raise ValueError(f"unknown op kind {op!r}")
        ids = tuple(int(i) for i in inputs)
        for i in ids:
            if not 0 <= i < len(self.nodes):
                raise ValueError(f"{op}: input id {i} not on this tape")
        args = [self.values[i] for i in ids]
        keys = tuple(aux)
        out = _OPS[op][0](args, aux)
        self.nodes.append(TapeNode(op, ids, aux, out.shape, keys))
        self.values.append(out)
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
        return self.record("softmax-ce", (logits,), labels=np.asarray(labels, dtype=np.int64))

    def soft_dice(self, logits: int, labels: np.ndarray, smooth: float) -> int:
        return self.record(
            "soft-dice", (logits,), labels=np.asarray(labels, dtype=np.int64), smooth=float(smooth)
        )

    def reshape(self, a: int, shape: tuple[int, ...]) -> int:
        return self.record("reshape", (a,), shape=tuple(int(d) for d in shape))

    def patchify(self, image: int, patch: int) -> int:
        return self.record("patchify", (image,), patch=int(patch))

    def mean(self, a: int) -> int:
        return self.record("mean", (a,))

    def embed_lookup(self, table: int, indices: np.ndarray) -> int:
        return self.record("embed-lookup", (table,), indices=np.asarray(indices, dtype=np.int64))

    # -- evaluation --------------------------------------------------------

    def value(self, vid: int) -> np.ndarray:
        return self.values[vid]

    def backward(self, loss_id: int) -> dict[int, np.ndarray]:
        """Adjoints of a scalar loss with respect to every leaf.

        Leaves with no path to the loss get exactly-zero gradients of their
        own shape. Identical tapes produce bitwise-identical results: the
        traversal order and accumulation order are fixed by node order.
        """
        plan = Plan(self, loss_id)
        return plan.backward({nid: _kept(slots, self.values, self.nodes[nid].aux)
                              for nid, _, slots, _ in plan.steps})


class Plan:
    """A recorded tape compiled for replay: a forward list of each op's rule,
    input slots, arguments (labels excepted), the values no later op reads and,
    for a node on the backward path, the value slots its backward rule reads;
    and a backward list of those nodes, on a path from a wanted leaf to the
    loss, in reverse node order, so adjoints accumulate as over the whole tape."""

    def __init__(self, tape: Tape, loss_id: int, wanted: Iterable[int] | None = None,
                 reads: tuple[int, ...] = (), names: list[str] | None = None) -> None:
        nodes = tape.nodes
        self.loss_id, self.loss_shape, self.reads = loss_id, nodes[loss_id].shape, tuple(reads)
        leaves = [nid for nid, n in enumerate(nodes) if n.op == "leaf"]
        wanted = set(leaves if wanted is None else wanted)
        if wanted and int(np.prod(self.loss_shape)) != 1:
            raise ValueError(f"backward needs a scalar loss, got shape {self.loss_shape}")
        self.leaves = [(nid, nodes[nid].shape, name)
                       for nid, name in zip(leaves, names or leaves, strict=True)]
        self.wanted = [(nid, nodes[nid].shape) for nid in sorted(wanted)]
        reaches: list[bool] = []
        for nid, n in enumerate(nodes):
            reaches.append(nid in wanted if n.op == "leaf" else any(reaches[i] for i in n.inputs))
        live = {loss_id} if reaches[loss_id] else set()
        self.steps: list[tuple] = []
        for nid in range(loss_id, -1, -1):
            n = nodes[nid]
            if nid in live and n.op != "leaf":
                _, rule, reads_in, reads_out = _OPS[n.op]
                targets = tuple(i if reaches[i] else None for i in n.inputs)
                live.update(i for i in targets if i is not None)
                # the value slots the rule reads, its output last; None: not read
                slots = (*(i if k in reads_in else None for k, i in enumerate(n.inputs)),
                         nid if reads_out else None)
                self.steps.append((nid, rule, slots, targets))
        read_slots = {nid: slots for nid, _, slots, _ in self.steps}
        self.forward = [(nid, _OPS[n.op][0], n.inputs, "labels" in n.args,
                         {k: n.aux[k] for k in n.args if k != "labels"}, [], read_slots.get(nid))
                        for nid, n in enumerate(nodes) if n.op != "leaf"]
        done = {}   # slot -> the last forward op making or reading it
        for k, (nid, _, inputs, *_) in enumerate(self.forward):
            done.update((s, k) for s in (nid, *inputs))
        for s in done.keys() - set(self.reads):
            self.forward[done[s]][5].append(s)

    def run(self, samples: Iterable[tuple]) -> tuple[list[float], dict[int, np.ndarray]]:
        """Replay each `(leaves, labels)` sample in order, `leaves` float64 in tape
        order and `labels` flat; returns the `reads` values as floats and the wanted
        leaves' adjoints, each summed over the samples. One adjoint may serve two
        inputs, so the first sample's enter fresh as `0.0 + g`; later ones add in place."""
        reads, sums = [0.0] * len(self.reads), {}
        for leaves, labels in samples:
            scalars, kept = self._replay(leaves, labels)
            reads = [r + x for r, x in zip(reads, scalars)]
            sums = {nid: np.add(sums[nid], g, out=sums[nid]) if nid in sums else 0.0 + g
                    for nid, g in self.backward(kept).items()}
        return reads, sums

    def _replay(self, leaves: list, labels: np.ndarray) -> tuple[list, dict[int, tuple]]:
        """One forward pass: the `reads` values, a 0-d one (a loss term) as a float and
        any other (the logits) as its array, and each backward node's kept entry,
        which holds what its rule reads; all else goes after its last forward reader.
        `labels` may be empty when no op takes them."""
        values: list = [None] * (len(self.leaves) + len(self.forward))
        for (nid, shape, name), v in zip(self.leaves, leaves, strict=True):
            if not isinstance(v, np.ndarray) or v.dtype != _F64 or v.shape != shape:
                raise ValueError(f"replay leaf {name!r}: expected float64 {shape}, "
                                 f"got {np.asarray(v).dtype} {np.shape(v)}")
            values[nid] = v
        labels = np.asarray(labels, dtype=np.int64)
        kept = {}
        for nid, rule, inputs, takes_labels, static, frees, slots in self.forward:
            aux = dict(static)
            if takes_labels:
                aux["labels"] = labels
            values[nid] = rule([values[i] for i in inputs], aux)
            if slots is not None:
                kept[nid] = _kept(slots, values, aux)
            for s in frees:
                values[s] = None
        return [float(values[i]) if values[i].ndim == 0 else values[i] for i in self.reads], kept

    def backward(self, kept: dict[int, tuple]) -> dict[int, np.ndarray]:
        """Wanted leaves' adjoints from one forward pass's kept entries, each popped
        at its node's step. Leaves the loss does not reach get exact zeros of their shape."""
        adjoints = {self.loss_id: np.ones(self.loss_shape)}
        for nid, rule, _, targets in self.steps:
            grads_in = rule(adjoints.pop(nid), *kept.pop(nid))
            for iid, g in zip(targets, grads_in):
                if iid is not None:
                    adjoints[iid] = adjoints[iid] + g if iid in adjoints else g
        return {nid: adjoints[nid] if nid in adjoints else np.zeros(shape)
                for nid, shape in self.wanted}


def _kept(slots: tuple, values: list, aux: dict) -> tuple[list, np.ndarray | None, dict]:
    """What a node's backward rule takes after its adjoint: the inputs it reads by
    value and its output if read (None elsewhere), then its aux."""
    *args, out = [None if s is None else values[s] for s in slots]
    return args, out, aux


# ---------------------------------------------------------------------------
# forward rules


def _check_2d(op: str, *arrays: np.ndarray) -> None:
    for a in arrays:
        if a.ndim != 2:
            raise ValueError(f"{op}: expected 2-D value, got shape {a.shape}")


def _fwd_matmul(args, aux):
    a, b = args
    _check_2d("matmul", a, b)
    b_eff = b.T if aux["transpose_b"] else b
    if a.shape[1] != b_eff.shape[0]:
        raise ValueError(f"matmul: inner dimensions disagree, {a.shape} @ {b_eff.shape} "
                         f"(transpose_b={aux['transpose_b']})")
    return a @ b_eff


_NN = {"transpose_b": False}
_NT = {"transpose_b": True}


def _fwd_add(args, aux):
    a, b = args
    aux["row"] = a.shape != b.shape   # whether b is a broadcast row; the backward reads no shape
    if a.shape == b.shape or a.ndim == 2 and b.shape == (1, a.shape[1]):
        return np.asarray(a + b)   # a 0-d sum is a numpy scalar otherwise
    raise ValueError(f"add: shapes {a.shape} and {b.shape} are neither equal nor row-broadcast")


def _fwd_linear(args, aux):
    x, w, b = args
    return _fwd_add([_fwd_matmul([x, w], _NN), b], aux)


def _fwd_scale(args, aux):
    return np.asarray(args[0] * aux["c"])


def _fwd_attention(args, aux):
    q, k, v = args
    scores = _fwd_scale([_fwd_matmul([q, k], _NT)], aux)
    aux["probs"] = probs = _fwd_softmax_rows([scores], {})
    return _fwd_matmul([probs, v], _NN)


def _gelu_inner(x):
    return _SQRT_2_OVER_PI * (x + GELU_COEF * (x * x * x))


def _fwd_gelu(args, aux):
    x = args[0]
    aux["tanh"] = t = np.tanh(_gelu_inner(x))
    return 0.5 * x * (1.0 + t)


def _fwd_layernorm(args, aux):
    x, gain, bias = args
    _check_2d("layernorm", x, gain, bias)
    if gain.shape != (1, x.shape[1]) or bias.shape != (1, x.shape[1]):
        raise ValueError(
            f"layernorm: gain/bias must be (1, {x.shape[1]}), got {gain.shape} and {bias.shape}"
        )
    xhat, std = _normalize_rows(x)
    aux["xhat"], aux["std"] = xhat, std
    return xhat * gain + bias


def _normalize_rows(x):
    """Each row shifted to zero mean and divided by its std; returns (xhat, std).

    Row means are `sum / n`, which is bitwise what np.mean and np.var compute,
    without their per-call dispatch.
    """
    n = x.shape[1]
    centered = x - x.sum(axis=1, keepdims=True) / n
    std = np.sqrt((centered * centered).sum(axis=1, keepdims=True) / n + LAYERNORM_EPS)
    return centered / std, std


def _fwd_softmax_rows(args, aux):
    x = args[0]
    _check_2d("softmax-rows", x)
    return softmax_last_dim(x)


def _check_labels(op: str, logits: np.ndarray, labels: np.ndarray) -> None:
    _check_2d(op, logits)
    if labels.shape != (logits.shape[0],):
        raise ValueError(f"{op}: labels shape {labels.shape} does not match {logits.shape[0]} rows")
    if logits.shape[0] == 0:
        raise ValueError(f"{op}: no rows to average over")
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= logits.shape[1]:
        raise ValueError(f"{op}: label values outside 0..{logits.shape[1] - 1}")


def _fwd_softmax_ce(args, aux):
    z = args[0]
    y = aux["labels"]
    _check_labels("softmax-ce", z, y)
    zmax = z.max(axis=1)
    logsumexp = zmax + np.log(np.exp(z - zmax[:, None]).sum(axis=1))
    picked = z[np.arange(z.shape[0]), y]
    return np.asarray((logsumexp - picked).mean())


def _dice_pieces(z, y, smooth):
    n, k = z.shape
    p = _fwd_softmax_rows([z], {})
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0
    inter = (p * onehot).sum(axis=0)          # per-class soft intersection
    sums = p.sum(axis=0) + onehot.sum(axis=0)
    terms = (2.0 * inter + smooth) / (sums + smooth)
    return p, onehot, inter, sums, terms


def _fwd_soft_dice(args, aux):
    z = args[0]
    y = aux["labels"]
    _check_labels("soft-dice", z, y)
    aux["dice"] = pieces = _dice_pieces(z, y, aux["smooth"])
    return np.asarray(1.0 - pieces[-1].mean())


def _fwd_reshape(args, aux):
    a = args[0]
    shape = aux["shape"]
    if int(np.prod(shape)) != a.size:
        raise ValueError(f"reshape: cannot view {a.shape} as {shape}")
    return a.reshape(shape)


def _fwd_patchify(args, aux):
    img = args[0]
    p = aux["patch"]
    _check_2d("patchify", img)
    h, w = img.shape
    if h % p or w % p:
        raise ValueError(f"patchify: image {h}x{w} not divisible by patch {p}")
    gh, gw = h // p, w // p
    return img.reshape(gh, p, gw, p).transpose(0, 2, 1, 3).reshape(gh * gw, p * p)


def _fwd_mean(args, aux):
    return np.asarray(args[0].mean())


def _fwd_embed_lookup(args, aux):
    table = args[0]
    idx = aux["indices"]
    _check_2d("embed-lookup", table)
    if idx.ndim != 1:
        raise ValueError(f"embed-lookup: indices must be 1-D, got {idx.shape}")
    if idx.min(initial=0) < 0 or idx.max(initial=0) >= table.shape[0]:
        raise ValueError(f"embed-lookup: index outside 0..{table.shape[0] - 1}")
    return table[idx]


# ---------------------------------------------------------------------------
# backward rules; each returns one adjoint per input, matching input shapes


def _bwd_matmul(g, args, out, aux):
    a, b = args
    if aux["transpose_b"]:
        return g @ b, g.T @ a
    return g @ b.T, a.T @ g


def _bwd_add(g, args, out, aux):
    return g, g.sum(axis=0, keepdims=True) if aux["row"] else g


def _bwd_linear(g, args, out, aux):
    x, w, _ = args
    g_xw, gb = _bwd_add(g, None, None, aux)
    return (*_bwd_matmul(g_xw, [x, w], None, _NN), gb)


def _bwd_scale(g, args, out, aux):
    return (np.asarray(g * aux["c"]),)


def _bwd_attention(g, args, out, aux):
    q, k, v = args
    probs = aux["probs"]
    gp, gv = _bwd_matmul(g, [probs, v], None, _NN)
    (gs,) = _bwd_softmax_rows(gp, None, probs, {})
    (graw,) = _bwd_scale(gs, None, None, aux)
    gq, gk = _bwd_matmul(graw, [q, k], None, _NT)
    return gq, gk, gv


def _bwd_gelu(g, args, out, aux):
    # g * (0.5 (1 + t) + 0.5 x (1 - t t) dinner), dinner = sqrt(2/pi) (1 + 3 c x x),
    # in that operation order but in two buffers: the same bits, no temporaries
    x, t = args[0], aux["tanh"]
    h = x * 0.5
    d = t * t
    h *= np.subtract(1.0, d, out=d)   # 0.5 x (1 - t t)
    np.multiply(x, x, out=d)
    d *= 3.0 * GELU_COEF
    d += 1.0
    d *= _SQRT_2_OVER_PI              # dinner
    h *= d
    np.add(1.0, t, out=d)
    d *= 0.5
    d += h
    d *= g
    return (d,)


def _bwd_layernorm(g, args, out, aux):
    gain = args[1]
    xhat, std = aux["xhat"], aux["std"]
    n = xhat.shape[1]
    dgain = (g * xhat).sum(axis=0, keepdims=True)
    dbias = g.sum(axis=0, keepdims=True)
    dxhat = g * gain
    dx = (dxhat - dxhat.sum(axis=1, keepdims=True) / n
          - xhat * ((dxhat * xhat).sum(axis=1, keepdims=True) / n)) / std
    return dx, dgain, dbias


def _bwd_softmax_rows(g, args, out, aux):
    p = out
    return (p * (g - (g * p).sum(axis=1, keepdims=True)),)


def _bwd_softmax_ce(g, args, out, aux):
    z = args[0]
    y = aux["labels"]
    n = z.shape[0]
    p = _fwd_softmax_rows([z], {})
    p[np.arange(n), y] -= 1.0
    return (p * (float(g) / n),)


def _bwd_soft_dice(g, args, out, aux):
    smooth = aux["smooth"]
    p, onehot, inter, sums, _ = aux["dice"]
    k = p.shape[1]
    denom = sums + smooth
    # d(loss)/d(p_jc) for the mean-over-classes soft dice
    dp = -(2.0 * onehot * denom - (2.0 * inter + smooth)) / (k * denom**2)
    dz = p * (dp - (dp * p).sum(axis=1, keepdims=True))
    return (dz * float(g),)


def _bwd_reshape(g, args, out, aux):
    return (g.reshape(args[0].shape),)


def _bwd_patchify(g, args, out, aux):
    img = args[0]
    p = aux["patch"]
    h, w = img.shape
    gh, gw = h // p, w // p
    return (g.reshape(gh, gw, p, p).transpose(0, 2, 1, 3).reshape(h, w),)


def _bwd_mean(g, args, out, aux):
    a = args[0]
    return (np.full_like(a, float(g) / a.size),)


def _bwd_embed_lookup(g, args, out, aux):
    table = args[0]
    dtable = np.zeros_like(table)
    np.add.at(dtable, aux["indices"], g)
    return (dtable,)


# op kind -> (forward rule, backward rule, positions of the inputs its backward
# reads by value, whether it reads the op's output); other slots get None
_OPS: dict[str, tuple[Callable, Callable, tuple[int, ...], bool]] = {
    "matmul": (_fwd_matmul, _bwd_matmul, (0, 1), False),
    "add": (_fwd_add, _bwd_add, (), False),
    "linear": (_fwd_linear, _bwd_linear, (0, 1), False),
    "scale": (_fwd_scale, _bwd_scale, (), False),
    "attention": (_fwd_attention, _bwd_attention, (0, 1, 2), False),
    "gelu": (_fwd_gelu, _bwd_gelu, (0,), False),
    "layernorm": (_fwd_layernorm, _bwd_layernorm, (1,), False),
    "softmax-rows": (_fwd_softmax_rows, _bwd_softmax_rows, (), True),
    "softmax-ce": (_fwd_softmax_ce, _bwd_softmax_ce, (0,), False),
    "soft-dice": (_fwd_soft_dice, _bwd_soft_dice, (), False),
    "reshape": (_fwd_reshape, _bwd_reshape, (0,), False),
    "patchify": (_fwd_patchify, _bwd_patchify, (0,), False),
    "mean": (_fwd_mean, _bwd_mean, (0,), False),
    "embed-lookup": (_fwd_embed_lookup, _bwd_embed_lookup, (0,), False),
}

OP_KINDS = tuple(_OPS)


def finite_diff_check(
    build: Callable[[Tape, list[int]], int],
    params: list[np.ndarray],
    epsilon: float = 1e-5,
) -> float:
    """Max relative error between tape gradients and central finite differences.

    `build` receives a fresh tape plus the leaf ids of `params` and must
    return the id of a scalar loss. The error at each parameter entry is
    |analytic - numeric| / max(1, |numeric|).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    tape = Tape()
    ids = [tape.leaf(p) for p in params]
    grads = tape.backward(build(tape, ids))

    def loss_at(arrays: list[np.ndarray]) -> float:
        t = Tape()
        lids = [t.leaf(a) for a in arrays]
        return float(t.value(build(t, lids)))

    worst = 0.0
    for i, p in enumerate(params):
        analytic = grads[ids[i]]
        for idx in np.ndindex(p.shape):
            bumped = [a.copy() for a in params]
            bumped[i][idx] += epsilon
            hi = loss_at(bumped)
            bumped[i][idx] -= 2.0 * epsilon
            lo = loss_at(bumped)
            numeric = (hi - lo) / (2.0 * epsilon)
            err = abs(analytic[idx] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst

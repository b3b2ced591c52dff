"""Tape-based reverse-mode differentiation over a fixed op set.

A Tape records forward values as ops are applied and replays the chain rule
backwards from a scalar loss. Ops cover exactly what the segmentation model
and its training loss need: matmul (with BLAS-style transpose flags), add
(same shape or a broadcast row), scalar scale, tanh-gelu, layernorm, row
softmax, fused softmax cross-entropy, fused soft dice, reshape, patchify,
mean, and embedding lookup. Values are float64 ndarrays; losses are 0-d.

A tape is owned by whoever built it; gradients returned by backward() are
fresh arrays and safe to hand elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from msga.linalg import softmax_last_dim

GELU_COEF = 0.044715
LAYERNORM_EPS = 1e-5
_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)


@dataclass
class TapeNode:
    op: str
    inputs: tuple[int, ...]
    aux: dict
    shape: tuple[int, ...]


class Tape:
    """Append-only op recorder; node indices double as value identifiers."""

    def __init__(self) -> None:
        self.nodes: list[TapeNode] = []
        self.values: list[np.ndarray] = []

    # -- construction ------------------------------------------------------

    def leaf(self, value: np.ndarray) -> int:
        """Register an input (parameter or data) and return its value id."""
        arr = np.asarray(value, dtype=np.float64)
        self.nodes.append(TapeNode("leaf", (), {}, arr.shape))
        self.values.append(arr)
        return len(self.nodes) - 1

    def record(self, op: str, inputs: tuple[int, ...] | list[int], **aux) -> int:
        """Apply `op` to already-recorded values, store the result, return its id."""
        if op not in _FORWARD:
            raise ValueError(f"unknown op kind {op!r}")
        ids = tuple(int(i) for i in inputs)
        for i in ids:
            if not 0 <= i < len(self.nodes):
                raise ValueError(f"{op}: input id {i} not on this tape")
        args = [self.values[i] for i in ids]
        out = _FORWARD[op](args, aux)
        self.nodes.append(TapeNode(op, ids, aux, out.shape))
        self.values.append(out)
        return len(self.nodes) - 1

    # typed wrappers, one per op kind

    def matmul(self, a: int, b: int, transpose_a: bool = False, transpose_b: bool = False) -> int:
        return self.record("matmul", (a, b), transpose_a=transpose_a, transpose_b=transpose_b)

    def add(self, a: int, b: int) -> int:
        return self.record("add", (a, b))

    def scale(self, a: int, c: float) -> int:
        return self.record("scale", (a,), c=float(c))

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
        loss = self.values[loss_id]
        if loss.size != 1:
            raise ValueError(f"backward needs a scalar loss, got shape {loss.shape}")
        adjoints: dict[int, np.ndarray] = {loss_id: np.ones_like(loss)}
        for nid in range(loss_id, -1, -1):
            node = self.nodes[nid]
            if node.op == "leaf" or nid not in adjoints:
                continue
            grad_out = adjoints.pop(nid)
            args = [self.values[i] for i in node.inputs]
            grads_in = _BACKWARD[node.op](grad_out, args, self.values[nid], node.aux)
            for iid, g in zip(node.inputs, grads_in):
                if iid in adjoints:
                    adjoints[iid] = adjoints[iid] + g
                else:
                    adjoints[iid] = g
        out: dict[int, np.ndarray] = {}
        for nid, node in enumerate(self.nodes):
            if node.op == "leaf":
                out[nid] = adjoints.get(nid, np.zeros(node.shape))
        return out


# ---------------------------------------------------------------------------
# forward rules


def _check_2d(op: str, *arrays: np.ndarray) -> None:
    for a in arrays:
        if a.ndim != 2:
            raise ValueError(f"{op}: expected 2-D value, got shape {a.shape}")


def _fwd_matmul(args, aux):
    a, b = args
    _check_2d("matmul", a, b)
    a_eff = a.T if aux["transpose_a"] else a
    b_eff = b.T if aux["transpose_b"] else b
    if a_eff.shape[1] != b_eff.shape[0]:
        raise ValueError(
            f"matmul: inner dimensions disagree, {a_eff.shape} @ {b_eff.shape} "
            f"(transpose_a={aux['transpose_a']}, transpose_b={aux['transpose_b']})"
        )
    return a_eff @ b_eff


def _fwd_add(args, aux):
    a, b = args
    if a.shape == b.shape:
        return a + b
    if a.ndim == 2 and b.shape == (1, a.shape[1]):
        return a + b
    raise ValueError(f"add: shapes {a.shape} and {b.shape} are neither equal nor row-broadcast")


def _fwd_scale(args, aux):
    return args[0] * aux["c"]


def _gelu_inner(x):
    return _SQRT_2_OVER_PI * (x + GELU_COEF * x**3)


def _fwd_gelu(args, aux):
    x = args[0]
    return 0.5 * x * (1.0 + np.tanh(_gelu_inner(x)))


def _fwd_layernorm(args, aux):
    x, gain, bias = args
    _check_2d("layernorm", x, gain, bias)
    if gain.shape != (1, x.shape[1]) or bias.shape != (1, x.shape[1]):
        raise ValueError(
            f"layernorm: gain/bias must be (1, {x.shape[1]}), got {gain.shape} and {bias.shape}"
        )
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    xhat = (x - mu) / np.sqrt(var + LAYERNORM_EPS)
    return xhat * gain + bias


def _fwd_softmax_rows(args, aux):
    x = args[0]
    _check_2d("softmax-rows", x)
    return softmax_last_dim(x)


def _check_labels(op: str, logits: np.ndarray, labels: np.ndarray) -> None:
    _check_2d(op, logits)
    if labels.shape != (logits.shape[0],):
        raise ValueError(f"{op}: labels shape {labels.shape} does not match {logits.shape[0]} rows")
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
    _, _, _, _, terms = _dice_pieces(z, y, aux["smooth"])
    return np.asarray(1.0 - terms.mean())


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
    ta, tb = aux["transpose_a"], aux["transpose_b"]
    if not ta and not tb:
        return g @ b.T, a.T @ g
    if ta and not tb:
        return b @ g.T, a @ g
    if not ta and tb:
        return g @ b, g.T @ a
    return b.T @ g.T, g.T @ a.T


def _bwd_add(g, args, out, aux):
    a, b = args
    if a.shape == b.shape:
        return g, g
    return g, g.sum(axis=0, keepdims=True)


def _bwd_scale(g, args, out, aux):
    return (g * aux["c"],)


def _bwd_gelu(g, args, out, aux):
    x = args[0]
    t = np.tanh(_gelu_inner(x))
    dinner = _SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_COEF * x**2)
    return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * dinner),)


def _bwd_layernorm(g, args, out, aux):
    x, gain, bias = args
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    std = np.sqrt(var + LAYERNORM_EPS)
    xhat = (x - mu) / std
    dgain = (g * xhat).sum(axis=0, keepdims=True)
    dbias = g.sum(axis=0, keepdims=True)
    dxhat = g * gain
    dx = (dxhat - dxhat.mean(axis=1, keepdims=True)
          - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)) / std
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
    z = args[0]
    y = aux["labels"]
    smooth = aux["smooth"]
    p, onehot, inter, sums, _ = _dice_pieces(z, y, smooth)
    k = z.shape[1]
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


_FORWARD: dict[str, Callable] = {
    "matmul": _fwd_matmul,
    "add": _fwd_add,
    "scale": _fwd_scale,
    "gelu": _fwd_gelu,
    "layernorm": _fwd_layernorm,
    "softmax-rows": _fwd_softmax_rows,
    "softmax-ce": _fwd_softmax_ce,
    "soft-dice": _fwd_soft_dice,
    "reshape": _fwd_reshape,
    "patchify": _fwd_patchify,
    "mean": _fwd_mean,
    "embed-lookup": _fwd_embed_lookup,
}

_BACKWARD: dict[str, Callable] = {
    "matmul": _bwd_matmul,
    "add": _bwd_add,
    "scale": _bwd_scale,
    "gelu": _bwd_gelu,
    "layernorm": _bwd_layernorm,
    "softmax-rows": _bwd_softmax_rows,
    "softmax-ce": _bwd_softmax_ce,
    "soft-dice": _bwd_soft_dice,
    "reshape": _bwd_reshape,
    "patchify": _bwd_patchify,
    "mean": _bwd_mean,
    "embed-lookup": _bwd_embed_lookup,
}

OP_KINDS = tuple(_FORWARD)


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

from __future__ import annotations

import copy
import inspect
import tracemalloc
import zlib
from dataclasses import replace
from typing import Callable

import numpy as np
import pytest

import msga.tape
from msga.config import RunConfig
from msga.linalg import softmax_last_dim
from msga.losses import downsample_labels
from msga.model import build_loss_tape, init_model
from msga.tape import (
    GELU_COEF,
    LAYERNORM_EPS,
    OP_KINDS,
    Plan,
    Tape,
    _bwd_gelu,
    _bwd_layernorm,
    _bwd_matmul,
    _bwd_scale,
    _bwd_seg_loss,
    _bwd_softmax_rows,
    _fwd_gelu,
    _fwd_layernorm,
    _fwd_matmul,
    _fwd_seg_loss,
    _fwd_softmax_rows,
    _gelu_inner,
    _gelu_value,
    _OPS,
    _normalize_rows,
    finite_diff_check,
    lower,
)
from msga.train import model_config, prepare_splits
from test_oracle import naive_forward, random_graph


def test_record_add_identity() -> None:
    tape = Tape()
    x = np.random.default_rng(0).standard_normal((3, 4))
    out = tape.add(tape.leaf(x), tape.leaf(np.zeros((3, 4))))
    assert np.array_equal(tape.value(out), x)


def test_record_gelu_at_zero() -> None:
    tape = Tape()
    out = tape.gelu(tape.leaf(np.zeros((2, 2))))
    assert np.array_equal(tape.value(out), np.zeros((2, 2)))


def test_gelu_matches_pow_reference() -> None:
    # the tape cubes and squares with products; numpy's x**3 goes to libm pow
    rng = np.random.default_rng(5)
    x_val = np.concatenate([rng.normal(0.0, 3.0, 50_000), np.linspace(-40.0, 40.0, 50_001),
                            [0.0]])[:, None]
    tape = Tape()
    x = tape.leaf(x_val)
    h = tape.gelu(x)
    # d(ones^T h)/dh is exactly ones, so the adjoint of x is gelu'(x) itself
    grads = tape.backward(tape.matmul(tape.leaf(np.ones((1, x_val.shape[0]))), h))

    s = np.sqrt(2.0 / np.pi)
    t = np.tanh(s * (x_val + GELU_COEF * np.power(x_val, 3)))
    fwd_ref = 0.5 * x_val * (1.0 + t)
    dinner = s * (1.0 + 3.0 * GELU_COEF * np.power(x_val, 2))
    bwd_ref = 0.5 * (1.0 + t) + 0.5 * x_val * (1.0 - np.power(t, 2)) * dinner
    bound = 4.0 * np.finfo(np.float64).eps * np.maximum(1.0, np.abs(x_val))
    assert np.all(np.abs(tape.value(h) - fwd_ref) <= bound)
    assert np.all(np.abs(grads[x] - bwd_ref) <= bound)


def test_record_matmul_matches_linalg() -> None:
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal((4, 4)), rng.standard_normal((4, 4))
    tape = Tape()
    out = tape.matmul(tape.leaf(a), tape.leaf(b))
    assert np.array_equal(tape.value(out), a @ b)


def test_record_rejects_shape_mismatch_with_op_name() -> None:
    tape = Tape()
    a = tape.leaf(np.zeros((2, 3)))
    b = tape.leaf(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="matmul"):
        tape.matmul(a, b)
    with pytest.raises(ValueError, match="add"):
        tape.add(a, tape.leaf(np.zeros((3, 3))))


def test_backward_of_mean_is_uniform() -> None:
    tape = Tape()
    x = tape.leaf(np.arange(12.0).reshape(3, 4))
    grads = tape.backward(tape.mean(x))
    assert np.array_equal(grads[x], np.full((3, 4), 1.0 / 12.0))


def test_backward_quadratic_closed_form() -> None:
    # loss = sum((W x)^2) / 2  =>  dW = (W x) x^T
    rng = np.random.default_rng(8)
    w_val = rng.standard_normal((3, 3))
    x_val = rng.standard_normal((3, 1))
    tape = Tape()
    w = tape.leaf(w_val)
    x = tape.leaf(x_val)
    y = tape.matmul(w, x)
    loss = tape.scale(tape.matmul(tape.reshape(y, (1, 3)), y), 0.5)   # y is a column: y^T y
    grads = tape.backward(loss)
    expected = (w_val @ x_val) @ x_val.T
    assert np.abs(grads[w] - expected).max() < 1e-12


def test_backward_requires_scalar_loss() -> None:
    tape = Tape()
    x = tape.leaf(np.ones((2, 2)))
    with pytest.raises(ValueError, match="scalar"):
        tape.backward(x)


def test_backward_linearity() -> None:
    rng = np.random.default_rng(12)
    x_val = rng.standard_normal((3, 3))
    a, b = 1.7, -0.4

    def grad_of(build) -> np.ndarray:
        tape = Tape()
        x = tape.leaf(x_val)
        grads = tape.backward(build(tape, x))
        return grads[x]

    g1 = grad_of(lambda t, x: t.mean(t.gelu(x)))
    g2 = grad_of(lambda t, x: t.mean(t.matmul(x, x)))
    combined = grad_of(
        lambda t, x: t.add(t.scale(t.mean(t.gelu(x)), a), t.scale(t.mean(t.matmul(x, x)), b))
    )
    assert np.abs(combined - (a * g1 + b * g2)).max() < 1e-10


def test_backward_bitwise_deterministic() -> None:
    rng = np.random.default_rng(2)
    x_val = rng.standard_normal((4, 4))

    def run() -> np.ndarray:
        tape = Tape()
        x = tape.leaf(x_val)
        h = tape.gelu(tape.matmul(x, x, transpose_b=True))
        return tape.backward(tape.mean(h))[x]

    assert np.array_equal(run(), run())


def test_zero_path_leaves_get_exact_zero() -> None:
    tape = Tape()
    used = tape.leaf(np.ones((2, 2)))
    unused = tape.leaf(np.ones((3, 5)))
    grads = tape.backward(tape.mean(used))
    assert grads[unused].shape == (3, 5)
    assert np.all(grads[unused] == 0.0)


def test_embed_lookup_accumulates_rows() -> None:
    tape = Tape()
    table = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = tape.embed_lookup(table, np.array([0, 0, 1]))
    grads = tape.backward(tape.mean(out))
    # three gathered rows, each entry weighted 1/6; row 0 gathered twice
    assert np.allclose(grads[table], np.array([[2.0, 2.0], [1.0, 1.0]]) / 6.0)


def test_patchify_layout_and_inverse() -> None:
    img = np.arange(16.0).reshape(4, 4)
    tape = Tape()
    out = tape.patchify(tape.leaf(img), 2)
    patches = tape.value(out)
    assert patches.shape == (4, 4)
    assert np.array_equal(patches[0], np.array([0.0, 1.0, 4.0, 5.0]))
    assert np.array_equal(patches[3], np.array([10.0, 11.0, 14.0, 15.0]))


@pytest.mark.parametrize("tb", [False, True])
def test_matmul_transpose_flags_finite_diff(tb: bool) -> None:
    rng = np.random.default_rng(31)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((4, 2) if not tb else (2, 4))
    err = finite_diff_check(
        lambda t, ids: t.mean(t.matmul(ids[0], ids[1], transpose_b=tb)),
        [a, b],
        epsilon=1e-5,
    )
    assert err < 1e-8


def test_softmax_ce_uniform_logits_value() -> None:
    tape = Tape()
    logits = tape.leaf(np.zeros((5, 2)))
    out = tape.softmax_ce(logits, np.array([0, 1, 0, 1, 0]))
    assert abs(float(tape.value(out)) - np.log(2.0)) < 1e-12


_OP_LABELS = np.array([0, 2, 1])

# op kind -> a scalar loss that runs its backward, over the leaves of op_graph_params;
# "softmax-ce" and "soft-dice" are the seg-loss ends Tape.softmax_ce and Tape.soft_dice record
OP_GRAPHS = {
    "matmul": lambda t, ids: t.mean(t.matmul(ids[0], ids[1], transpose_b=True)),
    "add": lambda t, ids: t.mean(t.add(ids[0], ids[2])),
    "linear": lambda t, ids: t.mean(t.gelu(t.linear(ids[0], ids[1], ids[2]))),
    "attention": lambda t, ids: t.mean(t.gelu(t.attention(ids[0], ids[1], ids[0], 0.7))),
    "scale": lambda t, ids: t.mean(t.scale(ids[0], -2.5)),
    "gelu": lambda t, ids: t.mean(t.gelu(ids[0])),
    "layernorm": lambda t, ids: t.mean(t.layernorm(ids[0], ids[3], ids[4])),
    "softmax-rows": lambda t, ids: t.mean(t.softmax_rows(ids[0])),
    "softmax-ce": lambda t, ids: t.softmax_ce(ids[0], _OP_LABELS),
    "soft-dice": lambda t, ids: t.soft_dice(ids[0], _OP_LABELS, 1e-5),
    "seg-loss": lambda t, ids: t.seg_loss(ids[0], _OP_LABELS, 1e-5, 0.3),
    "reshape": lambda t, ids: t.mean(t.gelu(t.reshape(ids[0], (1, 9)))),
    "patchify": lambda t, ids: t.mean(t.gelu(t.patchify(ids[0], 1))),
    "mean": lambda t, ids: t.mean(t.gelu(ids[0])),
    "embed-lookup": lambda t, ids: t.mean(t.embed_lookup(ids[0], np.array([2, 0, 1, 0]))),
}


def op_graph_params(op: str) -> list[np.ndarray]:
    """Two 3x3 matrices, then a row, a positive row (a layernorm gain) and a row."""
    rng = np.random.default_rng(zlib.crc32(op.encode()))
    return [
        rng.standard_normal((3, 3)),
        rng.standard_normal((3, 3)),
        rng.standard_normal((1, 3)),
        rng.uniform(0.5, 1.5, (1, 3)),
        rng.standard_normal((1, 3)),
    ]


@pytest.mark.parametrize("op", sorted(OP_GRAPHS))
def test_finite_differences_per_op(op: str) -> None:
    err = finite_diff_check(OP_GRAPHS[op], op_graph_params(op), epsilon=1e-5)
    assert err < 1e-6, f"{op}: finite-difference error {err:.3e}"


def _same(a, b) -> bool:
    """Equal through tuples, lists and dicts, arrays by dtype, shape and bytes."""
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    if isinstance(a, (tuple, list)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


@pytest.mark.parametrize("op", OP_KINDS)
def test_rules_leave_their_inputs_adjoint_and_aux_unchanged(op: str) -> None:
    # a rule writes only into arrays it allocated: the add backward hands one adjoint
    # to both its inputs, so a rule writing into its adjoint would corrupt a sibling's
    tape = Tape()
    OP_GRAPHS[op](tape, [tape.leaf(p) for p in op_graph_params(op)])
    nodes = [n for n in tape.nodes if n.op == op]
    assert nodes
    forward, backward = _OPS[op].fwd, _OPS[op].bwd
    rng = np.random.default_rng(43)
    values = naive_forward(tape)[0]
    for node in nodes:
        args = [values[i] for i in node.inputs]
        aux = dict(node.aux)
        before = copy.deepcopy((args, aux))
        out = forward(*args, aux)
        assert _same((args, {k: aux[k] for k in node.aux}), before), "forward"
        g = np.asarray(rng.standard_normal(np.shape(out)))
        before = copy.deepcopy((g, args, aux))
        backward(g, *args, aux)
        assert _same((g, args, aux), before), "backward"


def test_every_backward_rule_takes_the_adjoint_then_the_forward_rules_parameters() -> None:
    # a forward rule is fwd(*inputs, aux) and its backward bwd(g, *inputs, aux): one plain
    # positional parameter per node input, the same names in the same order, no list;
    # the record's arity counts them, and a shape rule, a value-only forward and a
    # rebuild take the forward rule's parameters, and each kept aux entry's shape rule
    # its inputs'
    for op, rules in _OPS.items():
        tape = Tape()
        OP_GRAPHS[op](tape, [tape.leaf(p) for p in op_graph_params(op)])
        count = len(next(n for n in tape.nodes if n.op == op).inputs)
        fwd = list(inspect.signature(rules.fwd).parameters.values())
        bwd = list(inspect.signature(rules.bwd).parameters.values())
        assert [p.name for p in bwd] == ["g", *(p.name for p in fwd)], op
        assert len(fwd) == count + 1 == rules.arity + 1 and fwd[-1].name == "aux", op
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in bwd), op
        for rule in (r for r in (rules.shape, rules.value, rules.rebuild) if r):
            assert list(inspect.signature(rule).parameters) == [p.name for p in fwd], op
        for rule in rules.keeps.values():
            assert list(inspect.signature(rule).parameters) == [p.name for p in fwd[:-1]], op


def test_record_runs_no_forward_rule_and_a_replay_hands_each_its_values_positionally(
        monkeypatch) -> None:
    # a replay calls one forward rule per op in node order, handed the values of the
    # node's inputs, a leaf's own array, and a fresh dict of its op arguments
    calls: list[tuple[str, tuple, np.ndarray]] = []

    def watched(op, rule):
        def forward_rule_watched(*args):
            out = rule(*args)
            calls.append((op, args, out))
            return out
        return forward_rule_watched

    for op, rules in list(_OPS.items()):
        monkeypatch.setitem(_OPS, op, replace(rules, fwd=watched(op, rules.fwd),
                                              value=rules.value and watched(op, rules.value)))
    for op in OP_KINDS:
        calls.clear()
        tape = Tape()
        loss = OP_GRAPHS[op](tape, [tape.leaf(p) for p in op_graph_params(op)])
        assert calls == []
        tape.backward(loss)
        nodes = [(nid, n) for nid, n in enumerate(tape.nodes) if n.op != "leaf"]
        assert [kind for kind, *_ in calls] == [n.op for _, n in nodes]
        values = dict(tape.leaves)   # each call's output, by its node's id
        for (nid, n), (_, (*args, aux), out) in zip(nodes, calls):
            assert list(map(id, args)) == [id(values[i]) for i in n.inputs]
            assert aux is not n.aux and _same({k: aux[k] for k in n.aux}, n.aux)
            values[nid] = out


@pytest.mark.parametrize("op, inputs, message", [
    ("conv", (0,), "unknown op kind 'conv'"),
    ("mean", (1,), "mean: input id 1 not on this tape"),
    ("add", (0, -1), "add: input id -1 not on this tape"),
], ids=["unknown-kind", "id-past-the-end", "negative-id"])
def test_record_rejects_an_unknown_kind_and_an_input_not_on_the_tape(op, inputs, message):
    tape = Tape()
    tape.leaf(np.zeros((2, 2)))
    with pytest.raises(ValueError, match=f"^{message}$"):
        tape.record(op, inputs)
    assert len(tape.nodes) == 1


@pytest.mark.parametrize("op", OP_KINDS)
def test_record_rejects_a_wrong_input_count_naming_the_op(op: str) -> None:
    tape = Tape()
    OP_GRAPHS[op](tape, [tape.leaf(p) for p in op_graph_params(op)])
    node = next(n for n in tape.nodes if n.op == op)
    count = len(node.inputs)
    for wrong in (count - 1, count + 1):
        with pytest.raises(ValueError, match=f"^{op}: expected {count} inputs, got {wrong}$"):
            tape.record(op, (0,) * wrong, **node.aux)


def test_softmax_ce_finite_diff_at_uniform_logits() -> None:
    labels = np.array([0, 1, 2])
    err = finite_diff_check(
        lambda t, ids: t.softmax_ce(ids[0], labels), [np.zeros((3, 3))], epsilon=1e-5
    )
    assert err < 1e-7


def test_finite_diff_check_exact_for_linear_loss() -> None:
    rng = np.random.default_rng(21)
    err = finite_diff_check(
        lambda t, ids: t.mean(t.scale(ids[0], 3.0)), [rng.standard_normal((4, 4))], epsilon=1e-5
    )
    assert err < 1e-9


def test_finite_diff_check_rejects_bad_epsilon() -> None:
    with pytest.raises(ValueError, match="epsilon"):
        finite_diff_check(lambda t, ids: t.mean(ids[0]), [np.ones((2, 2))], epsilon=0.0)


@pytest.mark.parametrize("epsilon", [np.nan, np.inf])
def test_finite_diff_check_rejects_a_non_finite_epsilon(epsilon: float) -> None:
    with pytest.raises(ValueError, match="epsilon must be positive and finite"):
        finite_diff_check(lambda t, ids: t.mean(ids[0]), [np.ones((2, 2))], epsilon=epsilon)


def test_finite_diff_check_raises_on_a_non_finite_entry() -> None:
    # a NaN leaf makes every central difference NaN, which max() would pass over as 0.0
    x = np.ones((2, 2))
    x[1, 0] = np.nan
    with pytest.raises(FloatingPointError, match=r"^parameter 0 entry \(0, 0\): analytic "):
        finite_diff_check(lambda t, ids: t.mean(t.gelu(ids[0])), [x])


# ---------------------------------------------------------------------------
# fused ops give the bytes of the elementary chains they replace


def _value_and_adjoints(build, arrays: list[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Value of build's op and the adjoints of every input under a non-uniform upstream."""
    tape = Tape()
    ids = [tape.leaf(a) for a in arrays]
    out = build(tape, ids)
    grads = tape.backward(tape.mean(tape.gelu(out)))
    return tape.value(out), [grads[i] for i in ids]


def _assert_same_bytes(fused, elementary, arrays: list[np.ndarray]) -> None:
    value_f, grads_f = _value_and_adjoints(fused, arrays)
    value_e, grads_e = _value_and_adjoints(elementary, arrays)
    assert np.array_equal(value_f, value_e)
    for gf, ge in zip(grads_f, grads_e):
        assert np.array_equal(gf, ge)


@pytest.mark.parametrize("n,m,p,bias_rows", [
    (64, 16, 64, 1),   # patch embed / mlp w1 / decoder fc1 at default geometry
    (64, 64, 16, 1),   # mlp w2
    (5, 3, 7, 1),
    (1, 9, 2, 1),
    (4, 2, 3, 4),      # full-shape bias
])
def test_linear_matches_matmul_then_add_bitwise(n: int, m: int, p: int, bias_rows: int) -> None:
    rng = np.random.default_rng(n * 1000 + m * 10 + p)
    arrays = [rng.standard_normal((n, m)), rng.standard_normal((m, p)),
              rng.standard_normal((bias_rows, p))]
    _assert_same_bytes(
        lambda t, ids: t.linear(ids[0], ids[1], ids[2]),
        lambda t, ids: t.add(t.matmul(ids[0], ids[1]), ids[2]),
        arrays,
    )


@pytest.mark.parametrize("n,n_kv,d,d_v", [
    (64, 64, 16, 16),  # default geometry
    (64, 64, 64, 64),
    (5, 7, 3, 2),
    (1, 1, 1, 1),
])
def test_attention_matches_elementary_chain_bitwise(n: int, n_kv: int, d: int, d_v: int) -> None:
    rng = np.random.default_rng(n * 1000 + n_kv * 100 + d * 10 + d_v)
    arrays = [rng.standard_normal((n, d)), rng.standard_normal((n_kv, d)),
              rng.standard_normal((n_kv, d_v))]
    c = 1.0 / np.sqrt(d)
    _assert_same_bytes(
        lambda t, ids: t.attention(ids[0], ids[1], ids[2], c),
        lambda t, ids: t.matmul(
            t.softmax_rows(t.scale(t.matmul(ids[0], ids[1], transpose_b=True), c)), ids[2]),
        arrays,
    )


def test_fused_ops_keep_the_elementary_shape_errors() -> None:
    tape = Tape()

    def leaf(rows: int, cols: int) -> int:
        return tape.leaf(np.zeros((rows, cols)))

    with pytest.raises(ValueError, match="^matmul: inner dimensions disagree"):
        tape.linear(leaf(2, 3), leaf(2, 3), leaf(1, 3))
    with pytest.raises(ValueError, match="^add: shapes"):
        tape.linear(leaf(2, 3), leaf(3, 4), leaf(1, 5))
    with pytest.raises(ValueError, match="^matmul: expected 2-D"):
        tape.linear(tape.leaf(np.zeros(3)), leaf(3, 4), leaf(1, 4))
    with pytest.raises(ValueError, match="^matmul: inner dimensions disagree"):
        tape.attention(leaf(2, 3), leaf(2, 4), leaf(2, 4), 1.0)
    with pytest.raises(ValueError, match="^matmul: inner dimensions disagree"):
        tape.attention(leaf(2, 3), leaf(5, 3), leaf(4, 2), 1.0)


def _bad_reshape(shape: tuple) -> tuple:
    return lambda t: t.reshape(t.leaf(np.zeros((2, 3))), shape), "reshape: cannot view"


def _bad_patchify(shape: tuple, patch: int) -> tuple:
    return (lambda t: t.patchify(t.leaf(np.zeros(shape)), patch),
            f"patchify: image {shape[0]}x{shape[1]}")


# the graphs whose Tape method records seg-loss -> its arguments after the labels
_LOSS_ARGS = {"softmax-ce": (), "soft-dice": (1e-5,), "seg-loss": (1e-5, 0.2)}
LOSS_GRAPHS = tuple(_LOSS_ARGS)


def _bad_labels(op: str, rows: int, labels: list, dtype=np.int64) -> Callable:
    def build(t: Tape) -> int:
        z, y = t.leaf(np.zeros((rows, 3))), np.array(labels, dtype=dtype)
        return getattr(t, op.replace("-", "_"))(z, y, *_LOSS_ARGS[op])
    return build


def _other_labels(op: str) -> Callable:
    def build(t: Tape) -> int:
        t.softmax_ce(t.leaf(np.zeros((3, 3))), np.array([0, 1, 2]))
        return _bad_labels(op, 3, [2, 1, 0])(t)
    return build


# op kind -> records its shape rule or Tape.record rejects, each with the error's start
BAD_RECORDS = {
    "matmul": [(lambda t: t.matmul(t.leaf(np.zeros(3)), t.leaf(np.zeros((3, 2)))),
                "matmul: expected 2-D")],
    "add": [(lambda t: t.add(t.leaf(np.zeros((2, 3))), t.leaf(np.zeros((2, 1)))),
             "add: shapes")],
    "linear": [(lambda t: t.linear(t.leaf(np.zeros((2, 3))), t.leaf(np.zeros((3, 4))),
                                   t.leaf(np.zeros((2, 5)))), "add: shapes")],
    "attention": [(lambda t: t.attention(t.leaf(np.zeros((2, 3))), t.leaf(np.zeros((5, 3))),
                                         t.leaf(np.zeros(5)), 1.0), "matmul: expected 2-D")],
    "layernorm": [(lambda t: t.layernorm(t.leaf(np.zeros((2, 3))), t.leaf(np.ones((1, 3))),
                                         t.leaf(np.zeros((1, 2)))), "layernorm: gain/bias")],
    "softmax-rows": [(lambda t: t.softmax_rows(t.leaf(np.zeros((2, 3, 1)))),
                      "softmax-rows: expected 2-D")],
    # a product of dimensions equal to the size does not make negative dimensions valid
    "reshape": [_bad_reshape((4, 2)), _bad_reshape((-2, -3)), _bad_reshape((-1, -6))],
    "patchify": [_bad_patchify((6, 8), 4), _bad_patchify((6, 8), 0),
                 _bad_patchify((8, 8), -4)],
    "embed-lookup": [(lambda t: t.embed_lookup(t.leaf(np.zeros((3, 2))), np.array([0, 3])),
                      "embed-lookup: index outside"),
                     (lambda t: t.embed_lookup(t.leaf(np.zeros((3, 2))), np.zeros((2, 1))),
                      r"embed-lookup: indices must be 1-D, got \(2, 1\)$")],
    # through each method that records seg-loss: a label equal to k, a negative one,
    # fractional ones, which a cast would truncate, one label too few, no rows, and labels
    # unlike those of the tape's first seg-loss, since a replay takes one labels array
    **{op: [(_bad_labels(op, 3, [0, 3, 1]), "seg-loss: label values outside 0..2"),
            (_bad_labels(op, 3, [0, -1, 1]), "seg-loss: label values outside 0..2"),
            (_bad_labels(op, 3, [0.9, 1.9, 0.0], np.float64),
             "seg-loss: labels must be integers, got dtype float64"),
            (_bad_labels(op, 3, [0, 1]), "seg-loss: labels shape"),
            (_bad_labels(op, 0, []), "seg-loss: no rows"),
            (_other_labels(op), "seg-loss: labels differ")] for op in LOSS_GRAPHS},
}


@pytest.mark.parametrize("op", sorted(BAD_RECORDS))
def test_record_runs_each_shape_check_before_the_forward_rule(monkeypatch, op: str) -> None:
    # the shape rules run once, when the op is recorded, and no forward rule runs then:
    # the tape gains no node after the rejected op's input leaves, and the error names
    # the op. Only scale, gelu and mean take any shape
    assert BAD_RECORDS.keys() == set(OP_KINDS) - {"scale", "gelu", "mean"} | {*LOSS_GRAPHS}
    ran, kind = [], "seg-loss" if op in LOSS_GRAPHS else op
    monkeypatch.setitem(_OPS, kind, replace(_OPS[kind], fwd=lambda *args: ran.append(args)))
    for build, message in BAD_RECORDS[op]:
        tape = Tape()
        with pytest.raises(ValueError, match=f"^{message}"):
            build(tape)
        assert not ran and tape.nodes[-1].op == "leaf"


@pytest.mark.parametrize("op", sorted(OP_GRAPHS))
def test_a_replay_runs_no_shape_check_and_rejects_a_leaf_of_another_shape(monkeypatch, op) -> None:
    # the plan's forward calls the unchecked rules: its own leaf check stands for the
    # shape checks, so a leaf of another shape fails there, naming the leaf
    tape = Tape()
    params = op_graph_params(op)
    loss = OP_GRAPHS[op](tape, [tape.leaf(p) for p in params])
    plan = Plan(lower(tape, loss))
    checked = []   # every check function a replay calls, by name

    def watched(name, check):
        def check_watched(*args):
            checked.append(name)
            return check(*args)
        return check_watched

    for name in [name for name in vars(msga.tape) if name.startswith(("_check_", "_shape_"))]:
        monkeypatch.setattr(msga.tape, name, watched(name, getattr(msga.tape, name)))
    for kind, rules in list(_OPS.items()):
        monkeypatch.setitem(_OPS, kind, replace(rules, shape=watched(kind, rules.shape)))
    scalars, grads = plan.run([(params, _OP_LABELS)])
    assert scalars == [] and grads.keys() == set(range(len(params)))
    # only the replay's one label check, which reads each sample's labels; no rule checks
    assert set(checked) == ({"_check_labels", "_check_2d"}
                            if op in LOSS_GRAPHS else set()), checked
    for i in range(len(params)):
        bad = [*params[:i], np.zeros((2, *params[i].shape)), *params[i + 1:]]
        with pytest.raises(ValueError, match=rf"^replay leaf {i}: expected float64 "):
            plan.run([(bad, _OP_LABELS)])


@pytest.mark.parametrize("op", LOSS_GRAPHS)
def test_a_replay_keeps_the_label_checks(op: str) -> None:
    # labels change with every sample, so a replay checks them once, before its forward;
    # fractional labels fail there and are not truncated by its int64 cast
    tape = Tape()
    params = op_graph_params(op)
    plan = Plan(lower(tape, OP_GRAPHS[op](tape, [tape.leaf(p) for p in params])))
    for labels, message in ((np.array([0, 3, 1]), "label values outside 0..2"),
                            (np.array([0.9, 1.9, 2.9]), "labels must be integers"),
                            (np.array([0, 1]), "labels shape")):
        with pytest.raises(ValueError, match=f"^seg-loss: {message}"):
            plan.run([(params, labels)])


def test_a_read_names_an_array_a_forward_kept_or_fails_at_lower_time() -> None:
    # a (node, key) read takes what the node's forward kept in its aux, as a float when
    # 0-d, in a forward-only replay too; an op argument, a leaf's name, a tuple of pieces
    # or a key the forward never set fails when the plan is lowered
    tape = Tape()
    z = tape.leaf(op_graph_params("seg-loss")[0])
    loss = tape.seg_loss(z, _OP_LABELS, 1e-5, 0.3)
    reads = ((loss, "dice"), (loss, "ce"))
    plan = Plan(lower(tape, loss, (), reads))
    assert plan.replay([tape.value(z)], _OP_LABELS)[0] == [float(tape.value(r)) for r in reads]
    for bad in ((loss, "smooth"), (loss, "labels"), (z, "name"), (loss, "pieces"), (loss, "ce2")):
        with pytest.raises(ValueError, match=rf"^read \({bad[0]}, '{bad[1]}'\): node {bad[0]} "):
            lower(tape, loss, None, (loss, bad))


# ---------------------------------------------------------------------------
# layernorm statistics and the intermediates kept on the node


def test_normalize_rows_matches_numpy_mean_and_var_bitwise() -> None:
    rng = np.random.default_rng(17)
    for width in range(1, 65):
        for scale in (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3):
            x = rng.normal(rng.normal(0.0, 3.0 * scale), scale, size=(7, width))
            std_ref = np.sqrt(x.var(axis=1, keepdims=True) + LAYERNORM_EPS)
            xhat_ref = (x - x.mean(axis=1, keepdims=True)) / std_ref
            xhat, std = _normalize_rows(x)
            assert np.array_equal(std, std_ref), (width, scale)
            assert np.array_equal(xhat, xhat_ref), (width, scale)


@pytest.mark.parametrize("rows,width", [(64, 16), (5, 3), (3, 1)])
def test_layernorm_adjoint_from_kept_intermediates_matches_recomputation(rows: int, width: int) -> None:
    rng = np.random.default_rng(rows + width)
    x = rng.normal(0.5, 2.0, (rows, width))
    gain = rng.uniform(0.5, 1.5, (1, width))
    bias = rng.standard_normal((1, width))
    g = rng.standard_normal((rows, width))
    aux: dict = {}
    out = _fwd_layernorm(x, gain, bias, aux)
    assert set(aux) == {"xhat", "std"}
    dx, dgain, dbias = _bwd_layernorm(g, x, gain, bias, aux)

    # the backward as written before the intermediates were kept: all recomputed
    std = np.sqrt(x.var(axis=1, keepdims=True) + LAYERNORM_EPS)
    xhat = (x - x.mean(axis=1, keepdims=True)) / std
    dxhat = g * gain
    dx_ref = (dxhat - dxhat.mean(axis=1, keepdims=True)
              - xhat * (dxhat * xhat).mean(axis=1, keepdims=True)) / std
    assert np.array_equal(out, xhat * gain + bias)
    assert np.array_equal(dx, dx_ref)
    assert np.array_equal(dgain, (g * xhat).sum(axis=0, keepdims=True))
    assert np.array_equal(dbias, g.sum(axis=0, keepdims=True))


def test_gelu_adjoint_from_kept_derivative_matches_recomputation() -> None:
    rng = np.random.default_rng(23)
    x = np.concatenate([rng.normal(0.0, 3.0, 4096), np.linspace(-40.0, 40.0, 801), [0.0]])[None, :]
    g = rng.standard_normal(x.shape)
    aux: dict = {}
    _fwd_gelu(x, aux)
    assert set(aux) == {"deriv"}
    (dx,) = _bwd_gelu(g, None, aux)   # reads no input

    t = np.tanh(_gelu_inner(x))
    dinner = np.sqrt(2.0 / np.pi) * (1.0 + 3.0 * GELU_COEF * (x * x))
    assert np.array_equal(dx, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner))


def test_gelu_adjoint_in_place_keeps_the_nested_expressions_bits() -> None:
    rng = np.random.default_rng(29)
    x = np.concatenate([rng.uniform(-40.0, 40.0, 100_000), [0.0, -0.0]])[None, :]
    g = rng.standard_normal(x.shape)
    aux: dict = {}
    out = _fwd_gelu(x, aux)
    t = np.tanh(np.sqrt(2.0 / np.pi) * (x + GELU_COEF * (x * x * x)))
    dinner = np.sqrt(2.0 / np.pi) * (1.0 + 3.0 * GELU_COEF * (x * x))
    deriv = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
    # both forwards run in place, the training one keeping the derivative too
    assert out.tobytes() == (0.5 * x * (1.0 + t)).tobytes()
    assert _gelu_value(x, {}).tobytes() == out.tobytes()
    assert aux["deriv"].tobytes() == deriv.tobytes()
    (dx,) = _bwd_gelu(g, None, aux)
    assert np.array_equal(dx, g * deriv)


def test_in_place_softmax_adjoints_keep_the_expressions_bits() -> None:
    rng = np.random.default_rng(47)
    z, g = rng.normal(0.0, 5.0, (9, 4)), rng.standard_normal((9, 4))
    y = rng.integers(0, 4, 9)
    aux: dict = {}
    p = _fwd_softmax_rows(z, aux)
    (gs,) = _bwd_softmax_rows(g, None, aux)
    assert gs.tobytes() == (p * (g - (g * p).sum(axis=1, keepdims=True))).tobytes()
    # the cross-entropy's adjoint, through seg-loss's backward at ce_weight 1
    aux = {"labels": y, "smooth": 1.0, "ce_weight": 1.0}
    _fwd_seg_loss(z, aux)
    (dz,) = _bwd_seg_loss(np.asarray(0.7), None, aux)
    q = softmax_last_dim(z)
    q[np.arange(9), y] -= 1.0
    assert dz.tobytes() == (q * (0.7 / 9)).tobytes()


@pytest.mark.parametrize("rows,k,w", [(64, 3, 0.2), (5, 2, 0.0), (7, 4, 1.0), (1, 3, 0.5)])
def test_seg_loss_gives_the_bytes_of_the_elementary_loss_head(rows: int, k: int, w: float) -> None:
    # its value, the ce and dice it keeps and the logits' adjoint, under any loss adjoint,
    # have the bits of add(scale(softmax_ce, w), scale(soft_dice, 1 - w)), a chain of the
    # seg-loss ends at ce_weight 1 and 0
    rng = np.random.default_rng(rows * k)
    z, y = rng.normal(0.0, 4.0, (rows, k)), rng.integers(0, k, rows)
    for c in (1.0, -0.7, 3.1):
        fused, chain = Tape(), Tape()
        loss = fused.seg_loss(fused.leaf(z), y, 1e-5, w)
        ce, dice = chain.softmax_ce(chain.leaf(z), y), chain.soft_dice(0, y, 1e-5)
        head = chain.add(chain.scale(ce, w), chain.scale(dice, 1.0 - w))
        assert _same([fused.value(loss), fused.value((loss, "ce")), fused.value((loss, "dice"))],
                     [chain.value(head), chain.value(ce), chain.value(dice)])
        assert _same(fused.backward(fused.scale(loss, c))[0],
                     chain.backward(chain.scale(head, c))[0]), c


def _signed_zeros(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    a = rng.standard_normal(shape)
    a[rng.random(shape) < 0.25] = 0.0
    a[rng.random(shape) < 0.25] = -0.0
    return a


@pytest.mark.parametrize("n,k,m", [(1, 5, 4), (4, 5, 1), (1, 5, 1), (1, 1, 4), (4, 1, 1),
                                   (1, 1, 1), (3, 1, 4), (2, 3, 2), (64, 16, 16)])
def test_matmul_rules_give_the_bytes_of_the_matmul_operator(n: int, k: int, m: int) -> None:
    # the rules' 2-D products go through np.dot; on row and column vectors, 1x1 operands,
    # an operand with its own transpose and transposed views they keep @'s bytes, signed
    # zeros included
    rng = np.random.default_rng(n * 100 + k * 10 + m)
    a, b = _signed_zeros(rng, (n, k)), _signed_zeros(rng, (k, m))
    a_view, b_view = np.ascontiguousarray(a.T).T, np.ascontiguousarray(b.T).T
    pairs = [(a, b), (a_view, b), (a, b_view), (a_view, b_view), (a, a.T), (a.T, a)]
    for x, y in pairs:
        g = _signed_zeros(rng, (x.shape[0], y.shape[1]))
        got = [_fwd_matmul(x, y, {"transpose_b": False}), _fwd_matmul(x, y.T, {"transpose_b": True}),
               *_bwd_matmul(g, x, y, {"transpose_b": False}),
               *_bwd_matmul(g, x, y.T, {"transpose_b": True})]
        want = [x @ y, x @ y, g @ y.T, x.T @ g, g @ y.T, g.T @ x]
        assert [r.tobytes() for r in got] == [r.tobytes() for r in want], (x.shape, y.shape)


def test_gelu_adjoint_holds_at_most_three_buffers() -> None:
    # on 64x64 the training forward holds t, h and d, returning d and keeping t as the
    # derivative (computing the output first held four); the value-only forward holds t
    # and its output; the backward allocates only its result
    rng = np.random.default_rng(31)
    x, g = rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
    aux: dict = {}
    calls = (lambda: _fwd_gelu(x, aux), lambda: _gelu_value(x, {}), lambda: _bwd_gelu(g, None, aux))
    rises = []
    for call in calls:
        call()   # first-call allocations stay out
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            call()
            rises.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
    buffer = x.nbytes   # each rise is its buffers plus array headers well under one more
    assert [rise // buffer for rise in rises] == [3, 2, 1], rises


def _rebuild_graphs(op: str, rng: np.random.Generator) -> list[tuple]:
    """(build, params) graphs that record `op`: its C3 graph, random shapes and, for
    matmul and attention, the encoder block's chain, where each rebuild's inputs are
    rebuilt values themselves."""
    graphs = [(OP_GRAPHS[op], op_graph_params(op))]
    if op == "layernorm":
        graphs += [(lambda t, ids: t.layernorm(*ids),
                    [rng.normal(0.0, 4.0, (rows, width)), rng.uniform(0.5, 1.5, (1, width)),
                     rng.standard_normal((1, width))]) for rows, width in ((64, 16), (5, 7))]
    elif op == "patchify":
        graphs += [(lambda t, ids, p=p: t.patchify(ids[0], p), [rng.standard_normal(shape)])
                   for shape, p in (((32, 32), 4), ((12, 8), 2), ((3, 3), 1))]
    elif op == "matmul":
        graphs += [(lambda t, ids, tb=tb: t.matmul(ids[0], ids[1], transpose_b=tb),
                    [rng.standard_normal((n, m)), rng.standard_normal((p, m) if tb else (m, p))])
                   for n, m, p, tb in ((64, 16, 16, False), (5, 7, 3, True), (1, 4, 9, False))]
    else:
        graphs += [(lambda t, ids, c=c: t.attention(*ids, c),
                    [rng.standard_normal((n, d)), rng.standard_normal((n_kv, d)),
                     rng.standard_normal((n_kv, d_v))])
                   for n, n_kv, d, d_v, c in ((64, 64, 16, 16, 0.25), (5, 7, 3, 2, 0.6))]
    if op in ("matmul", "attention"):   # q, k and v of a layernorm output, then attention
        block = [rng.normal(0.0, 4.0, (64, 16)), rng.uniform(0.5, 1.5, (1, 16)),
                 rng.standard_normal((1, 16)), *(rng.standard_normal((16, 16)) for _ in range(3))]
        graphs.append((lambda t, ids: t.attention(*(t.matmul(t.layernorm(*ids[:3]), w)
                                                    for w in ids[3:]), 0.25), block))
    return graphs


@pytest.mark.parametrize("op", sorted(kind for kind, rules in _OPS.items() if rules.rebuild))
def test_each_rebuild_returns_its_forwards_output_bytes(op: str) -> None:
    # a rebuild runs the forward's own code path on the inputs it declares (None
    # elsewhere) and the aux its forward kept: on the C3 graph's values, on random ones
    # and on values that are rebuilt themselves, as a plan's chained rebuilds are
    rng = np.random.default_rng(53)
    for build, params in _rebuild_graphs(op, rng):
        tape = Tape()
        build(tape, [tape.leaf(p) for p in params])
        assert any(n.op == op for n in tape.nodes)
        values, auxes = naive_forward(tape)
        rebuilt: dict[int, np.ndarray] = {}   # every rebuildable value, in node order
        for nid, n in enumerate(tape.nodes):
            rules = _OPS.get(n.op)   # a leaf has no rules
            if rules and rules.rebuild:
                args = [rebuilt.get(i, values[i]) if k in rules.rebuild_reads else None
                        for k, i in enumerate(n.inputs)]
                rebuilt[nid] = out = rules.rebuild(*args, auxes[nid])
                want = values[nid]
                assert out is not want and out.dtype == want.dtype and out.shape == want.shape
                assert out.tobytes() == want.tobytes(), (n.op, nid)


def test_scale_adjoint_is_an_ndarray_with_the_products_bits() -> None:
    rng = np.random.default_rng(37)
    for g in (np.asarray(rng.standard_normal()), rng.standard_normal((3, 5))):
        (dg,) = _bwd_scale(g, None, {"c": 0.2})
        assert type(dg) is np.ndarray and dg.shape == g.shape
        assert dg.tobytes() == np.asarray(g * 0.2).tobytes()


def test_each_shape_rule_gives_the_shape_its_forward_replays(monkeypatch) -> None:
    # on the C3 graphs, the default loss tape and the oracle's random graphs, each forward
    # or value-only rule a replay calls returns the shape its op's shape rule recorded
    produced = []

    def watched(rule):
        def forward_rule_watched(*args):
            out = rule(*args)
            produced.append(out.shape)
            return out
        return forward_rule_watched

    for kind, rules in list(_OPS.items()):
        monkeypatch.setitem(_OPS, kind, replace(rules, fwd=watched(rules.fwd),
                                                value=rules.value and watched(rules.value)))
    graphs = []
    for op, build in OP_GRAPHS.items():
        tape = Tape()
        graphs.append((tape, build(tape, [tape.leaf(p) for p in op_graph_params(op)])))
    cfg = RunConfig()
    sample = prepare_splits(cfg)[0].samples[0]
    tape, *_, loss = build_loss_tape(init_model(model_config(cfg), cfg.seed), sample.image,
                                     downsample_labels(sample.mask, cfg.patch_size), cfg)
    graphs.append((tape, loss))
    for seed in range(120):
        tape, _, loss = random_graph(seed)
        graphs.append((tape, loss))
    for tape, loss in graphs:
        produced.clear()
        tape.value(loss)
        assert produced == [n.shape for n in tape.nodes if n.op != "leaf"]

from __future__ import annotations

import copy
import tracemalloc

import numpy as np
import pytest

from msga.linalg import softmax_last_dim
from msga.tape import (
    GELU_COEF,
    LAYERNORM_EPS,
    OP_KINDS,
    Tape,
    _bwd_gelu,
    _bwd_layernorm,
    _bwd_scale,
    _bwd_softmax_ce,
    _bwd_softmax_rows,
    _fwd_gelu,
    _fwd_layernorm,
    _fwd_softmax_rows,
    _gelu_inner,
    _OPS,
    _normalize_rows,
    finite_diff_check,
)


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

# op kind -> a scalar loss that runs its backward, over the leaves of op_graph_params
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
    "reshape": lambda t, ids: t.mean(t.gelu(t.reshape(ids[0], (1, 9)))),
    "patchify": lambda t, ids: t.mean(t.gelu(t.patchify(ids[0], 1))),
    "mean": lambda t, ids: t.mean(t.gelu(ids[0])),
    "embed-lookup": lambda t, ids: t.mean(t.embed_lookup(ids[0], np.array([2, 0, 1, 0]))),
}


def op_graph_params(op: str) -> list[np.ndarray]:
    """Two 3x3 matrices, then a row, a positive row (a layernorm gain) and a row."""
    rng = np.random.default_rng(hash(op) % 2**32)
    return [
        rng.standard_normal((3, 3)),
        rng.standard_normal((3, 3)),
        rng.standard_normal((1, 3)),
        rng.uniform(0.5, 1.5, (1, 3)),
        rng.standard_normal((1, 3)),
    ]


@pytest.mark.parametrize("op", sorted(set(OP_KINDS) - {"leaf"}))
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
    forward, backward, _ = _OPS[op]
    rng = np.random.default_rng(43)
    for node in nodes:
        args = [tape.value(i) for i in node.inputs]
        aux = {k: node.aux[k] for k in node.args}
        before = copy.deepcopy((args, aux))
        out = forward(args, aux)
        assert _same((args, {k: aux[k] for k in node.args}), before), "forward"
        g = np.asarray(rng.standard_normal(np.shape(out)))
        before = copy.deepcopy((g, args, aux))
        backward(g, args, aux)
        assert _same((g, args, aux), before), "backward"


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
    out = _fwd_layernorm([x, gain, bias], aux)
    assert set(aux) == {"xhat", "std"}
    dx, dgain, dbias = _bwd_layernorm(g, [x, gain, bias], aux)

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


def test_gelu_adjoint_from_kept_tanh_matches_recomputation() -> None:
    rng = np.random.default_rng(23)
    x = np.concatenate([rng.normal(0.0, 3.0, 4096), np.linspace(-40.0, 40.0, 801), [0.0]])[None, :]
    g = rng.standard_normal(x.shape)
    aux: dict = {}
    out = _fwd_gelu([x], aux)
    assert set(aux) == {"tanh"}
    (dx,) = _bwd_gelu(g, [x], aux)

    t = np.tanh(_gelu_inner(x))
    dinner = np.sqrt(2.0 / np.pi) * (1.0 + 3.0 * GELU_COEF * (x * x))
    assert np.array_equal(dx, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner))


def test_gelu_adjoint_in_place_keeps_the_nested_expressions_bits() -> None:
    rng = np.random.default_rng(29)
    x = np.concatenate([rng.uniform(-40.0, 40.0, 100_000), [0.0, -0.0]])[None, :]
    g = rng.standard_normal(x.shape)
    aux: dict = {}
    out = _fwd_gelu([x], aux)
    t = aux["tanh"]
    # the forward runs in place too
    assert t.tobytes() == np.tanh(np.sqrt(2.0 / np.pi) * (x + GELU_COEF * (x * x * x))).tobytes()
    assert out.tobytes() == (0.5 * x * (1.0 + t)).tobytes()
    dinner = np.sqrt(2.0 / np.pi) * (1.0 + 3.0 * GELU_COEF * (x * x))
    (dx,) = _bwd_gelu(g, [x], aux)
    assert np.array_equal(dx, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner))


def test_in_place_softmax_adjoints_keep_the_expressions_bits() -> None:
    rng = np.random.default_rng(47)
    z, g = rng.normal(0.0, 5.0, (9, 4)), rng.standard_normal((9, 4))
    y = rng.integers(0, 4, 9)
    aux: dict = {}
    p = _fwd_softmax_rows([z], aux)
    (gs,) = _bwd_softmax_rows(g, [None], aux)
    assert gs.tobytes() == (p * (g - (g * p).sum(axis=1, keepdims=True))).tobytes()
    (dz,) = _bwd_softmax_ce(np.asarray(0.7), [z], {"labels": y})
    q = softmax_last_dim(z)
    q[np.arange(9), y] -= 1.0
    assert dz.tobytes() == (q * (0.7 / 9)).tobytes()


def test_gelu_adjoint_holds_at_most_three_buffers() -> None:
    # the nested expression rose about 160 KiB for a 32 KiB result on 64x64
    rng = np.random.default_rng(31)
    x, g = rng.standard_normal((64, 64)), rng.standard_normal((64, 64))
    aux: dict = {}
    _fwd_gelu([x], aux)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        (dx,) = _bwd_gelu(g, [x], aux)
        rise = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert dx.shape == (64, 64)
    assert rise <= 3 * 32 * 1024, rise


def test_scale_adjoint_is_an_ndarray_with_the_products_bits() -> None:
    rng = np.random.default_rng(37)
    for g in (np.asarray(rng.standard_normal()), rng.standard_normal((3, 5))):
        (dg,) = _bwd_scale(g, None, {"c": 0.2})
        assert type(dg) is np.ndarray and dg.shape == g.shape
        assert dg.tobytes() == np.asarray(g * 0.2).tobytes()

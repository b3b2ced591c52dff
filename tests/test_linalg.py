from __future__ import annotations

import numpy as np
import pytest

from msga.linalg import softmax_last_dim, truncated_svd
from msga.tape import Tape


def triple_loop_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, kk = a.shape
    _, n = b.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for k in range(kk):
                acc += a[i, k] * b[k, j]
            out[i, j] = acc
    return out


def jacobi_svd_oracle(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Independent full SVD route: Jacobi rotations on G^T G.

    Returns singular values (descending) and the right singular vectors.
    Written from scratch here so it shares no code with the package.
    """
    a = g.T @ g
    n = a.shape[0]
    vecs = np.eye(n)
    for _ in range(200):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += a[p, q] ** 2
        if off < 1e-28:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) < 1e-300:
                    continue
                phi = 0.5 * np.arctan2(2.0 * a[p, q], a[p, p] - a[q, q])
                c, s = np.cos(phi), np.sin(phi)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = -s
                rot[q, p] = s
                a = rot.T @ a @ rot
                vecs = vecs @ rot
    eigvals = np.clip(np.diag(a), 0.0, None)
    order = np.argsort(-eigvals)
    return np.sqrt(eigvals[order]), vecs[:, order]


def test_tape_matmul_matches_triple_loop_oracle() -> None:
    rng = np.random.default_rng(42)
    a = rng.standard_normal((5, 7))
    b = rng.standard_normal((7, 3))
    for transpose_b in (False, True):
        tape = Tape()
        stored_b = b.T.copy() if transpose_b else b
        out = tape.matmul(tape.leaf(a), tape.leaf(stored_b), transpose_b)
        assert np.abs(tape.value(out) - triple_loop_matmul(a, b)).max() < 1e-12


def test_truncated_svd_diagonal_case() -> None:
    p, s, q = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
    assert np.allclose(s, [3.0, 2.0], atol=1e-10)
    assert np.allclose(np.abs(p), np.eye(3)[:, :2], atol=1e-8)
    # sign convention: the dominant entry of each left vector is non-negative
    assert p[0, 0] > 0 and p[1, 1] > 0


def test_truncated_svd_exact_rank_one() -> None:
    rng = np.random.default_rng(1)
    u = rng.standard_normal((6, 1))
    v = rng.standard_normal((4, 1))
    g = u @ v.T
    p, s, q = truncated_svd(g, 1)
    assert np.abs(p @ np.diag(s) @ q.T - g).max() < 1e-10


def test_truncated_svd_full_rank_reconstruction_vs_jacobi_oracle() -> None:
    rng = np.random.default_rng(5)
    g = rng.standard_normal((8, 6))
    p, s, q = truncated_svd(g, 6)
    assert np.linalg.norm(g - p @ np.diag(s) @ q.T) < 1e-9
    oracle_s, _ = jacobi_svd_oracle(g)
    assert np.allclose(s, oracle_s, atol=1e-8)


def test_truncated_svd_orthonormal_factors() -> None:
    rng = np.random.default_rng(9)
    for _ in range(20):
        m, n = rng.integers(2, 13, size=2)
        r = int(rng.integers(1, min(m, n) + 1))
        g = rng.standard_normal((m, n))
        p, s, q = truncated_svd(g, r)
        assert np.abs(p.T @ p - np.eye(r)).max() < 1e-8
        assert np.abs(q.T @ q - np.eye(r)).max() < 1e-8
        assert np.all(np.diff(s) <= 1e-12)
        assert np.all(s >= 0.0)


def test_truncated_svd_near_optimal_projection_small_matrices() -> None:
    rng = np.random.default_rng(11)
    inputs = [rng.standard_normal(tuple(rng.integers(2, 17, size=2))) for _ in range(30)]
    # eigenvalues 1e-8 apart: any mix of the near-degenerate directions
    # reconstructs almost equally well, so the bound still holds
    inputs.append(np.diag(1.0 + np.arange(12) * 1e-8))
    for g in inputs:
        m, n = g.shape
        for r in range(1, min(m, n) + 1):
            p, _, q = truncated_svd(g, r)
            projected = p @ (p.T @ g @ q) @ q.T
            sigma = np.linalg.svd(g, compute_uv=False)
            best = np.sqrt(max(0.0, np.sum(sigma[r:] ** 2)))
            assert np.linalg.norm(g - projected) <= best + 1e-8


@pytest.mark.parametrize("scale", [0.0, 1.0])
def test_truncated_svd_projectors_own_their_memory(scale) -> None:
    # a view of an m x m identity or of the full factors would pin them for
    # as long as a projected group keeps its projector
    g = scale * np.random.default_rng(4).standard_normal((9, 6))
    p, _, q = truncated_svd(g, 2)
    assert p.shape == (9, 2) and q.shape == (6, 2)
    assert p.flags.owndata and q.flags.owndata
    assert np.array_equal(p, np.eye(9)[:, :2]) == (scale == 0.0)


def test_truncated_svd_deterministic() -> None:
    g = np.random.default_rng(3).standard_normal((7, 5))
    p1, s1, q1 = truncated_svd(g, 3)
    p2, s2, q2 = truncated_svd(g, 3)
    assert np.array_equal(p1, p2) and np.array_equal(s1, s2) and np.array_equal(q1, q2)


def test_truncated_svd_reports_non_convergence_with_residual() -> None:
    # the factors no longer come from an iteration, so no non-convergence
    # is reported; on eigenvalues 1e-8 apart the rank-2 reconstruction must
    # still be near-optimal, since any mix of near-degenerate directions
    # reconstructs almost equally well
    g = np.diag(1.0 + np.arange(12) * 1e-8)
    p, s, q = truncated_svd(g, 2)
    sigma = np.sort(np.diag(g))[::-1]
    best = np.sqrt(np.sum(sigma[2:] ** 2))
    assert np.linalg.norm(g - p @ np.diag(s) @ q.T) <= best + 1e-8


def test_truncated_svd_steep_spectrum_orthonormal_and_exact() -> None:
    # geometric singular values fall by 1e-2 or 1e-3 per index; the top r
    # factors must stay orthonormal and match the spectrum to rounding
    rng = np.random.default_rng(17)
    r = 4
    for m, n in ((16, 16), (64, 16), (16, 64)):
        k = min(m, n)
        u, _ = np.linalg.qr(rng.standard_normal((m, k)))
        v, _ = np.linalg.qr(rng.standard_normal((n, k)))
        for ratio in (1e-2, 1e-3):
            sigma = ratio ** np.arange(k)
            p, s, q = truncated_svd(u @ np.diag(sigma) @ v.T, r)
            assert np.abs(p.T @ p - np.eye(r)).max() < 1e-12
            assert np.abs(q.T @ q - np.eye(r)).max() < 1e-12
            assert np.abs(s - sigma[:r]).max() < 1e-12


def test_truncated_svd_rank_out_of_range() -> None:
    g = np.zeros((4, 3))
    with pytest.raises(ValueError, match="out of range"):
        truncated_svd(g, 4)
    with pytest.raises(ValueError, match="out of range"):
        truncated_svd(g, 0)


def test_truncated_svd_rejects_a_non_matrix() -> None:
    with pytest.raises(ValueError, match=r"^truncated_svd expects a matrix, got shape \(4,\)$"):
        truncated_svd(np.ones(4), 1)


def test_softmax_symmetric_fiber() -> None:
    t = np.zeros((1, 1, 2))
    assert np.allclose(softmax_last_dim(t), 0.5)


def test_softmax_closed_form_fiber() -> None:
    t = np.array([[[np.log(2.0), 0.0]]])
    out = softmax_last_dim(t)
    assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_softmax_no_overflow_on_huge_logits() -> None:
    out = softmax_last_dim(np.array([[[1000.0, 0.0]]]))
    assert np.isfinite(out).all()
    assert out[0, 0, 0] > 1.0 - 1e-12


def test_softmax_keeps_the_bits_of_its_expression_and_its_input() -> None:
    t = np.random.default_rng(3).normal(0.0, 30.0, (5, 6, 7))
    before = t.copy()
    e = np.exp(t - t.max(axis=-1, keepdims=True))
    assert softmax_last_dim(t).tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()
    assert np.array_equal(t, before)


def test_softmax_fibers_sum_to_one() -> None:
    rng = np.random.default_rng(13)
    t = rng.standard_normal((4, 5, 6)) * 10.0
    out = softmax_last_dim(t)
    assert np.abs(out.sum(axis=-1) - 1.0).max() < 1e-12
    assert ((out > 0.0) & (out < 1.0)).all()

"""Dense float64 matrix kernels: truncated SVD and stable softmax.

Conventions used across the package: a "matrix" is a 2-D float64 ndarray in
row-major order, a "tensor" is a 3-D float64 ndarray with the channel axis
last. All functions here are pure and never mutate their inputs.
"""

from __future__ import annotations

import numpy as np


def softmax_last_dim(t: np.ndarray, pieces: bool = False):
    """Softmax along the last axis, with max-subtraction so large logits cannot overflow;
    with `pieces`, also the max it subtracts and the sum it divides by, keepdims."""
    t = np.asarray(t, dtype=np.float64)
    e = np.subtract(t, top := t.max(axis=-1, keepdims=True))
    np.exp(e, out=e)
    e /= (sums := e.sum(axis=-1, keepdims=True))
    return (e, top, sums) if pieces else e


def truncated_svd(g: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-r SVD factors of g, taken from LAPACK's thin SVD.

    Returns (p, s, q) with p of shape (m, r), s the r largest singular values
    in non-increasing order, q of shape (n, r). Columns of p and q are
    orthonormal; the largest-magnitude entry of each p column is forced
    non-negative, with q flipped alongside, so repeated calls are
    bit-identical. An all-zero g has no singular directions and gets the
    first r coordinate axes on both sides.
    """
    g = np.asarray(g, dtype=np.float64)
    if g.ndim != 2:
        raise ValueError(f"truncated_svd expects a matrix, got shape {g.shape}")
    m, n = g.shape
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank {r} out of range for a {m}x{n} matrix (valid: 1..{min(m, n)})")

    if not np.any(g):
        return np.eye(m, r), np.zeros(r), np.eye(n, r)

    u, sigma, vt = np.linalg.svd(g, full_matrices=False)
    # copies, so projectors kept across steps do not pin the full factors
    p = u[:, :r].copy()
    s = sigma[:r].copy()
    q = vt[:r].T.copy()

    sign = np.where(p[np.argmax(np.abs(p), axis=0), np.arange(r)] < 0.0, -1.0, 1.0)
    p *= sign
    q *= sign
    return p, s, q

"""Host-speed calibration: a fixed reference computation timed next to the program's work.

The host this benchmark runs on changes speed by tens of percent, in levels
that can hold for a whole run, and CPU time tracks wall time through them (the
process is not descheduled; the host runs slower). A median inside one run
cannot remove that. So each timing metric is also measured against a
reference kernel, timed in the same stretch of time as the samples it scales:
after every training step, after every evaluated image, and before and after
every set-up probe. A timing is reported scaled to the host speed at which the
kernel takes `REFERENCE_MS`:

    scaled = median(samples) * REFERENCE_MS / median(kernel times)

The kernel is the same kind of work as the program, written here and not
taken from it, so a change to the program moves the scaled figure and a
change of host speed does not: a two-block attention model of the program's
geometry (64 tokens of width 16, MLP width 64, batch 4), forward and
backward with every activation kept, and a block power iteration with QR on
a 64x16 matrix, as `truncated_svd` does. Its inputs are fixed, never drawn
from the workload seed, so its work is the same in every run.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the kernel's median time on the host the reference figures were taken on;
# a scaled timing reads as if the host always ran at that speed
REFERENCE_MS = 1.5

_TOKENS, _WIDTH, _HIDDEN, _BLOCKS, _BATCH = 64, 16, 64, 2, 4
_SWEEPS, _BLOCK_COLS = 12, 8

_rng = np.random.default_rng(20240721)
_WQ, _WK, _WV = (_rng.standard_normal((_BLOCKS, _WIDTH, _WIDTH)) * 0.2 for _ in range(3))
_W1 = _rng.standard_normal((_BLOCKS, _WIDTH, _HIDDEN)) * 0.2
_W2 = _rng.standard_normal((_BLOCKS, _HIDDEN, _WIDTH)) * 0.2
_X = _rng.standard_normal((_BATCH, _TOKENS, _WIDTH))
_G = _rng.standard_normal((_TOKENS, _WIDTH))
_V0 = np.linalg.qr(_rng.standard_normal((_TOKENS, _BLOCK_COLS)))[0]


def kernel() -> float:
    """One pass of the reference computation; returns a checksum so no work is skipped."""
    acc = 0.0
    for x in _X:
        kept = []
        for b in range(_BLOCKS):
            q, k, v = x @ _WQ[b], x @ _WK[b], x @ _WV[b]
            s = q @ k.T * 0.25
            e = np.exp(s - s.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
            x = x + a @ v
            h = np.maximum(x @ _W1[b], 0.0)
            x = x + h @ _W2[b]
            kept.append((b, k, v, a, h))
        g = np.ones_like(x) / x.size
        for b, k, v, a, h in reversed(kept):
            gh = (g @ _W2[b].T) * (h > 0.0)
            g = g + gh @ _W1[b].T
            ga = g @ v.T
            gs = a * (ga - (ga * a).sum(axis=1, keepdims=True))
            g = g + gs @ k * 0.25 + (a.T @ g) @ _WV[b].T
        acc += float(g.sum())
    gram = _G @ _G.T
    v = _V0
    for _ in range(_SWEEPS):
        v, _ = np.linalg.qr(gram @ v)
    return acc + float(np.linalg.norm(v.T @ _G))


def sample(into: list[float]) -> None:
    """Time one kernel pass, in ms, onto `into`."""
    t0 = time.perf_counter()
    kernel()
    into.append((time.perf_counter() - t0) * 1000.0)


def scale(kernel_ms: list[float]) -> float:
    """The factor that brings timings taken alongside `kernel_ms` to the reference speed."""
    return REFERENCE_MS / statistics.median(kernel_ms)

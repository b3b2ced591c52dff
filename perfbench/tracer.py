"""Span tracing from outside the program.

The program is never edited: each public function is replaced, for the length
of a traced section, by a wrapper at the place where it is looked up
(`msga.train` imports `galore_step`, `forward` and the rest by name, and
`msga.optim` imports `truncated_svd` by name). A wrapper records, per
(span name, parent span name), the call count, the total time and the time
covered by child spans, all in memory. Self time is total minus child time.

`StepClock` is not a tracer: it timestamps the first `lr_at` call of each
training step (one call site, about a microsecond per step), which is how
untraced runs get per-step times out of `train_model`, and it can run work
between steps without counting it in them.
"""

from __future__ import annotations

import time
import warnings

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[tuple[str, str], list[int]] = {}   # -> [count, total_ns, child_ns]
        self._stack: list[list] = []                          # [name, child_ns] per open span
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        stack = self._stack
        stats = self.stats
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1][0] if stack else ""
                rec = stats.get((name, parent))
                if rec is None:
                    rec = stats[(name, parent)] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]
                if stack:
                    stack[-1][1] += dt

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def count(self, name: str) -> int:
        return sum(rec[0] for (n, _), rec in self.stats.items() if n == name)

    def total_ns(self, name: str) -> int:
        return sum(rec[1] for (n, _), rec in self.stats.items() if n == name)

    def self_ns(self, name: str) -> int:
        return sum(rec[1] - rec[2] for (n, _), rec in self.stats.items() if n == name)

    def as_rows(self) -> list[dict]:
        return [
            {"span": n, "parent": p, "count": c, "total_ns": t, "self_ns": t - ch}
            for (n, p), (c, t, ch) in sorted(self.stats.items())
        ]


def patch_program(tracer: Tracer) -> None:
    """Wrap every public function the benchmark attributes time to."""
    import msga.data
    import msga.model
    import msga.optim
    import msga.tape
    import msga.train

    for owner, attr, name in (
        (msga.train, "train_model", "train.train_model"),
        (msga.train, "evaluate", "train.evaluate"),
        (msga.train, "build_loss_tape", "model.build_loss_tape"),
        (msga.tape.Tape, "backward", "tape.backward"),
        (msga.train, "adamw_step", "optim.adamw_step"),
        (msga.train, "galore_step", "optim.galore_step"),
        (msga.optim, "truncated_svd", "linalg.truncated_svd"),
        (msga.train, "forward", "model.forward"),
        (msga.train, "postprocess", "model.postprocess"),
        (msga.train, "downsample_labels", "losses.downsample_labels"),
        (msga.train, "hd95", "losses.hd95"),
        (msga.train, "dice_score", "losses.dice_score"),
        (msga.train, "init_model", "model.init_model"),
        (msga.train, "generate_synthetic", "data.generate_synthetic"),
        (msga.train, "load_manifest", "data.load_manifest"),
        (msga.model, "save_checkpoint", "model.save_checkpoint"),
        (msga.model, "restore_checkpoint", "model.restore_checkpoint"),
    ):
        tracer.patch(owner, attr, name)


class SvdObserver:
    """Counts what each `truncated_svd` call of a training run was given and how it ended.

    Installed under the tracer's span, so its own cost (a warnings context and
    one `np.any`) is inside the SVD span. Keeps each call's input and outputs
    until `take_counts()` checks them, outside any timed section.
    """

    def __init__(self, fn) -> None:
        self.fn = fn
        self.calls = 0
        self.cap_hits = 0
        self.zero_grad = 0
        self.kept: list[tuple[np.ndarray, int, tuple]] = []

    def __call__(self, g, r):
        self.calls += 1
        if not np.any(g):
            self.zero_grad += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = self.fn(g, r)
        self.cap_hits += sum(1 for w in caught if issubclass(w.category, RuntimeWarning))
        self.kept.append((g, r, out))
        return out

    def take_counts(self, tol: float) -> dict:
        """The counts since the last call, with the calls that miss LAPACK at `tol`; then reset."""
        counts = {"calls": self.calls, "cap_hits": self.cap_hits, "zero_grad": self.zero_grad,
                  "misses": sum(1 for g, r, out in self.kept if svd_errors(g, r, out, tol))}
        self.calls = self.cap_hits = self.zero_grad = 0
        self.kept.clear()
        return counts


def svd_errors(g: np.ndarray, r: int, out, tol: float) -> list[str]:
    """How rank-r factors (p, s, q) of g miss LAPACK's SVD at `tol`; empty when they match.

    Singular values are compared relative to max(1, sigma_1); each factor must
    have orthonormal columns to within `tol` entrywise.
    """
    p, s, q = out
    ref = np.linalg.svd(g, compute_uv=False)[:r]
    eye = np.eye(r)
    errors = {
        "singular values": float(np.max(np.abs(s - ref))) / max(1.0, float(ref[0])),
        "p orthonormality": float(np.max(np.abs(p.T @ p - eye))),
        "q orthonormality": float(np.max(np.abs(q.T @ q - eye))),
    }
    return [f"{what} {err:.1e}" for what, err in errors.items() if not err <= tol]


class StepClock:
    """Per-step wall times out of `train_model`, from the first `lr_at` call of each step.

    `on_step(step)` runs at each new step boundary, between two stamps, so its
    own time is left out of the step times.
    """

    def __init__(self) -> None:
        self.stamps: list[tuple[float, float]] = []
        self.on_step = None
        self._last = None

    def install(self) -> None:
        import msga.train

        original = msga.train.lr_at

        def lr_at(schedule, step):
            if step != self._last:
                self._last = step
                arrived = time.perf_counter()
                if self.on_step is not None:
                    self.on_step(step)
                self.stamps.append((arrived, time.perf_counter()))
            return original(schedule, step)

        msga.train.lr_at = lr_at

    def reset(self) -> None:
        self.stamps = []
        self._last = None

    def step_ms(self) -> list[float]:
        """Time from leaving one step boundary to reaching the next: one whole step each."""
        return [(nxt[0] - cur[1]) * 1000.0 for cur, nxt in zip(self.stamps, self.stamps[1:])]

"""Byte-exact analytic accounting of weights, gradients, and optimizer state.

Everything is computed from shapes and strategies alone, never from a live
allocator, so reports are platform-independent and bit-reproducible. All
counts assume 8 bytes per element (64-bit reals), stated in every report
header.

Optimizer-state element counts per strategy for an m x n parameter of rank r:

    full AdamW        2 m n
    frozen            0
    one-sided         r min(m,n) + 2 r max(m,n)   (projector + both moments)
    two-sided         m r + n r + 2 r^2
    rank-r adapter    2(m·r + r·n)                 (both moments of A: m x r, B: r x n)

The one-sided projector sits on the shorter dimension, so for m <= n the
count is the familiar m r + 2 r n. Frozen groups hold no gradient; every
other group holds one gradient element per weight element, and an adapter
holds weights and gradients for its two factors only.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from msga.model import ModelParams, ParamGroup
from msga.optim import Frozen, FullAdamW, GaLore, assign_strategies

BYTES_PER_ELEMENT = 8

# the byte kinds of every record, with their labels in the text report
BYTE_KINDS = {"weight_bytes": "weights", "grad_bytes": "grads", "state_bytes": "state"}


@dataclass(frozen=True)
class GroupMemory:
    name: str
    component: str
    strategy: str
    weight_bytes: int
    grad_bytes: int
    state_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.weight_bytes + self.grad_bytes + self.state_bytes


def _sum_bytes(rows: list[GroupMemory]) -> dict[str, int]:
    return {kind: sum(getattr(r, kind) for r in rows) for kind in BYTE_KINDS}


@dataclass(frozen=True)
class MemoryReport:
    mode: str
    groups: tuple[GroupMemory, ...]

    def component_totals(self) -> dict[str, dict[str, int]]:
        components = dict.fromkeys(g.component for g in self.groups)
        return {c: _sum_bytes([g for g in self.groups if g.component == c]) for c in components}

    def state_bytes(self, component: str | None = None) -> int:
        return sum(g.state_bytes for g in self.groups
                   if component is None or g.component == component)

    def grand_total_bytes(self) -> int:
        return sum(g.total_bytes for g in self.groups)


def galore_state_elements(m: int, n: int, r: int, sided: str) -> int:
    if sided == "two":
        return m * r + n * r + 2 * r * r
    return r * min(m, n) + 2 * r * max(m, n)


def account_group(group: ParamGroup) -> GroupMemory:
    """Memory record for one parameter group; requires an assigned strategy."""
    if group.strategy is None:
        raise ValueError(f"group {group.name!r} has no strategy assigned")
    m, n = group.values.shape
    elements = m * n
    strategy = group.strategy
    if isinstance(strategy, Frozen):
        label, grads, state = "frozen", 0, 0
    elif isinstance(strategy, FullAdamW):
        label, grads, state = "full-adamw", elements, 2 * elements
    elif isinstance(strategy, GaLore):
        label = f"galore(r={strategy.rank},{strategy.sided}-sided)"
        grads = elements
        state = galore_state_elements(m, n, min(strategy.rank, m, n), strategy.sided)
    else:
        raise TypeError(f"unknown strategy {strategy!r}")
    return GroupMemory(group.name, group.role.split("-")[0], label,
                       *(e * BYTES_PER_ELEMENT for e in (elements, grads, state)))


def report_for_mode(params: ModelParams, mode: str, **strategy_kwargs) -> MemoryReport:
    tagged = assign_strategies(params, mode, **strategy_kwargs)
    return MemoryReport(mode=mode, groups=tuple(account_group(g) for g in tagged.groups))


def compare_strategies(
    params: ModelParams, modes: list[str], **strategy_kwargs
) -> tuple[list[MemoryReport], dict[str, float]]:
    """One report per mode plus pairwise grand-total and state deltas.

    Delta keys read "<a>_vs_<b>_state_reduction_pct": the percent by which
    mode a's optimizer-state bytes undercut mode b's.
    """
    reports = [report_for_mode(params, mode, **strategy_kwargs) for mode in modes]
    deltas: dict[str, float] = {}
    for a in reports:
        for b in reports:
            if a.mode == b.mode:
                continue
            key = f"{a.mode}_vs_{b.mode}"
            if b.state_bytes() > 0:
                deltas[f"{key}_state_reduction_pct"] = round(
                    100.0 * (1.0 - a.state_bytes() / b.state_bytes()), 4
                )
            deltas[f"{key}_total_reduction_pct"] = round(
                100.0 * (1.0 - a.grand_total_bytes() / b.grand_total_bytes()), 4
            )
    return reports, deltas


def hypothetical_adapter_footprint(m: int, n: int, r: int) -> GroupMemory:
    """A rank-r additive adapter (A: m x r, B: r x n) on an m x n encoder layer.

    Its weights are the two factors; their gradients match them; AdamW keeps
    two moments per adapter weight.
    """
    if r < 1:
        raise ValueError(f"adapter rank must be positive, got {r}")
    weights = (m * r + r * n) * BYTES_PER_ELEMENT
    return GroupMemory("adapter", "encoder", f"adapter(r={r})", weights, weights, 2 * weights)


def adapter_baseline(params: ModelParams, r: int) -> GroupMemory:
    """Adapter footprints summed over the encoder matrices medsaga projects."""
    parts = [hypothetical_adapter_footprint(*g.values.shape, g.strategy.rank)
             for g in assign_strategies(params, "medsaga", rank=r).groups
             if isinstance(g.strategy, GaLore)]
    return GroupMemory("adapter", "encoder", f"adapter(r={r})", **_sum_bytes(parts))


# ---------------------------------------------------------------------------
# rendering


def render_json(
    reports: list[MemoryReport], deltas: dict[str, float], adapter: GroupMemory, adapter_rank: int
) -> str:
    doc: dict = {
        "bytes_per_element": BYTES_PER_ELEMENT,
        "reports": [
            {
                "mode": r.mode,
                "bytes_per_element": BYTES_PER_ELEMENT,
                "groups": [asdict(g) for g in r.groups],
                "totals": r.component_totals(),
                "grand_total_bytes": r.grand_total_bytes(),
            }
            for r in reports
        ],
        "deltas": deltas,
        "adapter_baseline": {"rank": adapter_rank, "total_bytes": adapter.total_bytes,
                             **{kind: getattr(adapter, kind) for kind in BYTE_KINDS}},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _byte_fields(counts: dict[str, int]) -> str:
    return " ".join(f"{label}={counts[kind]}" for kind, label in BYTE_KINDS.items())


def render_text(
    reports: list[MemoryReport], deltas: dict[str, float], adapter: GroupMemory, adapter_rank: int
) -> str:
    lines = [f"memory accounting ({BYTES_PER_ELEMENT} bytes per element, analytic; "
             "activations excluded)", ""]
    for report in reports:
        lines.append(f"mode: {report.mode}")
        header = f"  {'group':<34} {'strategy':<26} {'weights':>10} {'grads':>10} {'state':>12}"
        lines.append(header)
        for g in report.groups:
            lines.append(
                f"  {g.name:<34} {g.strategy:<26} {g.weight_bytes:>10} "
                f"{g.grad_bytes:>10} {g.state_bytes:>12}"
            )
        for component, t in sorted(report.component_totals().items()):
            lines.append(f"  total[{component:<8}] {_byte_fields(t)}")
        lines.append(f"  grand total: {report.grand_total_bytes()} bytes")
        lines.append("")
    if deltas:
        lines.append("pairwise deltas:")
        for key in sorted(deltas):
            lines.append(f"  {key} = {deltas[key]:.4f}")
        lines.append("")
    lines.append(f"additive low-rank adapter baseline (rank {adapter_rank}): "
                 f"{_byte_fields(asdict(adapter))} total={adapter.total_bytes}")
    lines.append("")
    return "\n".join(lines)

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

The one-sided projector sits on the shorter dimension, so for m <= n the
count is the familiar m r + 2 r n.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from msga.model import ModelParams, ParamGroup
from msga.optim import Frozen, FullAdamW, GaLore, assign_strategies

BYTES_PER_ELEMENT = 8


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


@dataclass(frozen=True)
class MemoryReport:
    mode: str
    groups: tuple[GroupMemory, ...]

    def component_totals(self) -> dict[str, dict[str, int]]:
        totals: dict[str, dict[str, int]] = {}
        for g in self.groups:
            t = totals.setdefault(
                g.component, {"weight_bytes": 0, "grad_bytes": 0, "state_bytes": 0}
            )
            t["weight_bytes"] += g.weight_bytes
            t["grad_bytes"] += g.grad_bytes
            t["state_bytes"] += g.state_bytes
        return totals

    def state_bytes(self, component: str | None = None) -> int:
        return sum(g.state_bytes for g in self.groups
                   if component is None or g.component == component)

    def grand_total_bytes(self) -> int:
        return sum(g.total_bytes for g in self.groups)


def _strategy_label(strategy) -> str:
    if isinstance(strategy, FullAdamW):
        return "full-adamw"
    if isinstance(strategy, Frozen):
        return "frozen"
    return f"galore(r={strategy.rank},{strategy.sided}-sided)"


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
        grad_elements = 0
        state_elements = 0
    elif isinstance(strategy, FullAdamW):
        grad_elements = elements
        state_elements = 2 * elements
    elif isinstance(strategy, GaLore):
        grad_elements = elements
        state_elements = galore_state_elements(m, n, min(strategy.rank, m, n), strategy.sided)
    else:
        raise TypeError(f"unknown strategy {strategy!r}")
    return GroupMemory(
        name=group.name,
        component=group.role.split("-")[0],
        strategy=_strategy_label(strategy),
        weight_bytes=elements * BYTES_PER_ELEMENT,
        grad_bytes=grad_elements * BYTES_PER_ELEMENT,
        state_bytes=state_elements * BYTES_PER_ELEMENT,
    )


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


@dataclass(frozen=True)
class AdapterFootprint:
    """Analytic footprint of a rank-r additive low-rank adapter on an m x n layer.

    Adapter weights are the two factor matrices; their gradients match them;
    AdamW keeps two moments per adapter weight.
    """

    weight_bytes: int
    grad_bytes: int
    state_bytes: int

    @property
    def total_bytes(self) -> int:
        return self.weight_bytes + self.grad_bytes + self.state_bytes


def hypothetical_adapter_footprint(m: int, n: int, r: int) -> AdapterFootprint:
    if r < 1:
        raise ValueError(f"adapter rank must be positive, got {r}")
    weights = (m * r + r * n) * BYTES_PER_ELEMENT
    return AdapterFootprint(weight_bytes=weights, grad_bytes=weights, state_bytes=2 * weights)


def adapter_baseline(params: ModelParams, r: int) -> AdapterFootprint:
    """Adapter footprints summed over the encoder matrices medsaga projects."""
    w = g = s = 0
    for group in assign_strategies(params, "medsaga", rank=r).groups:
        if isinstance(group.strategy, GaLore):
            fp = hypothetical_adapter_footprint(*group.values.shape, group.strategy.rank)
            w += fp.weight_bytes
            g += fp.grad_bytes
            s += fp.state_bytes
    return AdapterFootprint(w, g, s)


# ---------------------------------------------------------------------------
# rendering


def report_as_dict(report: MemoryReport) -> dict:
    return {
        "mode": report.mode,
        "bytes_per_element": BYTES_PER_ELEMENT,
        "groups": [
            {
                "name": g.name,
                "component": g.component,
                "strategy": g.strategy,
                "weight_bytes": g.weight_bytes,
                "grad_bytes": g.grad_bytes,
                "state_bytes": g.state_bytes,
            }
            for g in report.groups
        ],
        "totals": report.component_totals(),
        "grand_total_bytes": report.grand_total_bytes(),
    }


def render_json(
    reports: list[MemoryReport],
    deltas: dict[str, float],
    adapter: AdapterFootprint | None = None,
    adapter_rank: int | None = None,
) -> str:
    doc: dict = {
        "bytes_per_element": BYTES_PER_ELEMENT,
        "reports": [report_as_dict(r) for r in reports],
        "deltas": deltas,
    }
    if adapter is not None:
        doc["adapter_baseline"] = {
            "rank": adapter_rank,
            "weight_bytes": adapter.weight_bytes,
            "grad_bytes": adapter.grad_bytes,
            "state_bytes": adapter.state_bytes,
            "total_bytes": adapter.total_bytes,
        }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_text(
    reports: list[MemoryReport],
    deltas: dict[str, float],
    adapter: AdapterFootprint | None = None,
    adapter_rank: int | None = None,
) -> str:
    lines = [f"memory accounting (8 bytes per element, analytic; activations excluded)", ""]
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
            lines.append(
                f"  total[{component:<8}] weights={t['weight_bytes']} "
                f"grads={t['grad_bytes']} state={t['state_bytes']}"
            )
        lines.append(f"  grand total: {report.grand_total_bytes()} bytes")
        lines.append("")
    if deltas:
        lines.append("pairwise deltas:")
        for key in sorted(deltas):
            lines.append(f"  {key} = {deltas[key]:.4f}")
        lines.append("")
    if adapter is not None:
        lines.append(
            f"additive low-rank adapter baseline (rank {adapter_rank}): "
            f"weights={adapter.weight_bytes} grads={adapter.grad_bytes} "
            f"state={adapter.state_bytes} total={adapter.total_bytes}"
        )
        lines.append("")
    return "\n".join(lines)

"""ASCII rendering of deployment plans.

Turns a plan into the diagram a paper whiteboard would hold: one box
per occupied switch listing its stage layout, joined by the
coordination channels with their byte weights — Figure 1 of the paper,
generated from real decisions.

    +- s0 ---------------+      +- s1 --------------+
    | 1: fc.hash         | =4B=>| 1: fc.count       |
    +--------------------+      +-------------------+
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.coordination import CoordinationAnalysis
from repro.plan import DeploymentPlan


def switch_box(plan: DeploymentPlan, switch: str, width: int = 26) -> List[str]:
    """One switch rendered as a box of stage lines."""
    inner = width - 2
    title = f"- {switch} "
    top = "+" + title + "-" * max(inner - len(title), 0) + "+"
    lines = [top]
    by_stage: Dict[int, List[str]] = {}
    for mat_name in plan.mats_on(switch):
        placement = plan.placements[mat_name]
        label = mat_name if len(mat_name) <= inner - 4 else mat_name[: inner - 5] + "…"
        by_stage.setdefault(placement.first_stage, []).append(label)
    for stage in sorted(by_stage):
        for i, label in enumerate(by_stage[stage]):
            prefix = f"{stage}: " if i == 0 else "   "
            body = f" {prefix}{label}"
            lines.append("|" + body.ljust(inner) + "|")
    lines.append("+" + "-" * inner + "+")
    return lines


def render_plan(plan: DeploymentPlan, width: int = 26) -> str:
    """The whole deployment: switch boxes joined by labeled channels.

    Switches are laid out in coordination order (upstream first); each
    inter-switch channel is printed between/below the boxes with its
    byte count, e.g. ``s0 =4B=> s1``.
    """
    coordination = CoordinationAnalysis(plan)
    order = _chain_order(plan)
    blocks = {switch: switch_box(plan, switch, width) for switch in order}

    out: List[str] = []
    for switch in order:
        out.extend(blocks[switch])
        outgoing = [
            (v, channel)
            for (u, v), channel in sorted(coordination.channels.items())
            if u == switch
        ]
        for v, channel in outgoing:
            fields = ", ".join(channel.field_names)
            out.append(
                f"   ={channel.declared_bytes}B=> {v}"
                + (f"   [{fields}]" if fields else "")
            )
        out.append("")
    summary = (
        f"A_max = {plan.max_metadata_bytes()} B over "
        f"{plan.num_occupied_switches()} switches, "
        f"{len(coordination.channels)} channels"
    )
    out.append(summary)
    return "\n".join(out)


def _chain_order(plan: DeploymentPlan) -> List[str]:
    """Occupied switches, upstream-most first where flow is acyclic."""
    occupied = plan.occupied_switches()
    pairs = plan.pair_metadata_bytes()
    in_deg = {s: 0 for s in occupied}
    succ: Dict[str, List[str]] = {s: [] for s in occupied}
    for (u, v) in pairs:
        succ[u].append(v)
        in_deg[v] += 1
    ready = [s for s in occupied if in_deg[s] == 0]
    order: List[str] = []
    while ready:
        current = ready.pop(0)
        order.append(current)
        for nxt in sorted(succ[current]):
            in_deg[nxt] -= 1
            if in_deg[nxt] == 0:
                ready.append(nxt)
    # Cyclic remainders (recirculating plans) appended in stable order.
    order.extend(s for s in occupied if s not in order)
    return order

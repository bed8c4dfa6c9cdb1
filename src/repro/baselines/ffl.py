"""First fit by level (FFL).

The classic greedy from Jose et al.: compute each MAT's *level* (the
longest dependency chain leading to it) and place MATs level by level
into the first stage with room.  Extended network-wide by running the
first-fit over the concatenated chain pipeline, programs one by one.
Fast — no ILP — but entirely oblivious to metadata sizes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.baselines.base import (
    DeploymentFramework,
    build_switch_chain,
    route_all_pairs,
    schedule_on_chain,
)
from repro.plan import DeploymentPlan
from repro.dataplane.program import Program
from repro.network.paths import PathEnumerator
from repro.network.topology import Network
from repro.tdg.builder import qualified_name
from repro.tdg.graph import Tdg


def mat_levels(segment: Tdg) -> Dict[str, int]:
    """Longest-path level of every MAT (sources are level 0)."""
    levels: Dict[str, int] = {}
    for name in segment.topological_order():
        preds = segment.predecessors(name)
        levels[name] = (
            max(levels[p] for p in preds) + 1 if preds else 0
        )
    return levels


class Ffl(DeploymentFramework):
    """The FFL baseline: first fit by level over the switch chain."""

    name = "FFL"
    merges = False

    def level_order(self, segment: Tdg) -> List[str]:
        """MATs by (level, name) — plain first-fit-by-level order."""
        levels = mat_levels(segment)
        return sorted(segment.node_names, key=lambda a: (levels[a], a))

    def _place(
        self,
        tdg: Tdg,
        programs: Sequence[Program],
        network: Network,
        paths: PathEnumerator,
    ) -> Tuple[DeploymentPlan, bool]:
        chain = build_switch_chain(network, paths)
        order: List[str] = []
        for program in programs:
            node_names = [
                qualified_name(program.name, mat.name)
                for mat in program.mats
            ]
            segment = tdg.subgraph(node_names, name=program.name)
            order.extend(self.level_order(segment))
        placements = schedule_on_chain(tdg, order, network, chain)
        plan = route_all_pairs(DeploymentPlan(tdg, network, placements), paths)
        plan.validate()
        return plan, False

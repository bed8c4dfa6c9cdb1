"""Min-Stage (Jose et al., NSDI'15), extended network-wide.

Min-Stage compiles one program to one switch, minimizing the number of
occupied pipeline stages via ILP.  Following §VI-A it is extended to
deploy programs "one by one": each program's MATs are ordered by the
stage-minimizing ILP layout, then packed onto the chain of programmable
switches, spilling to the next switch when the current one fills up.
Because the objective is stage count — not coordination bytes — the
spill points routinely cut heavy-metadata edges, which is exactly the
overhead Hermes avoids.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

from repro.baselines.base import (
    DeploymentFramework,
    build_switch_chain,
    route_all_pairs,
    schedule_on_chain,
)
from repro.plan import DeploymentPlan
from repro.dataplane.program import Program
from repro.milp.expr import LinExpr
from repro.milp.model import Model
from repro.milp.branch_bound import BranchBoundSolver
from repro.milp.solution import SolveStatus
from repro.network.paths import PathEnumerator
from repro.network.topology import Network
from repro.tdg.builder import qualified_name
from repro.tdg.graph import Tdg


def stage_minimizing_order(
    segment: Tdg,
    stage_capacity: float,
    time_limit_s: float,
) -> Tuple[List[str], bool]:
    """Order ``segment``'s MATs by a stage-count-minimizing ILP layout.

    Builds the classic single-switch model: binary ``x(a, s)`` over a
    pipeline deep enough to always admit a layout, dependency
    constraints ``stage(a) < stage(b)``, per-stage capacity, and the
    makespan objective ``min S`` with ``S >= stage(a)``.  The returned
    order sorts MATs by assigned stage (topological by construction).

    Returns:
        ``(order, timed_out)``; on timeout without an incumbent the
        DFS topological order is returned instead.
    """
    mats = segment.node_names
    # The pipeline only needs to be as deep as the longest dependency
    # chain, or deep enough that per-stage capacity admits the total
    # demand; sizing it tightly keeps the model small.
    levels: Dict[str, int] = {}
    for name in segment.topological_order():
        preds = segment.predecessors(name)
        levels[name] = max((levels[p] for p in preds), default=-1) + 1
    chain_depth = max(levels.values()) + 1 if levels else 1
    demand_depth = math.ceil(
        segment.total_resource_demand() / max(stage_capacity, 1e-9)
    )
    depth = min(len(mats), max(chain_depth, demand_depth) + 2)
    model = Model("min_stage")
    x: Dict[Tuple[str, int], object] = {}
    for a in mats:
        for s in range(1, depth + 1):
            x[(a, s)] = model.add_binary(f"x[{a},{s}]")
        model.add_constr(
            LinExpr.total(x[(a, s)] for s in range(1, depth + 1)) == 1
        )

    def stage_of(a: str) -> LinExpr:
        return LinExpr.total(
            x[(a, s)] * float(s) for s in range(1, depth + 1)
        )

    for edge in segment.edges:
        model.add_constr(
            stage_of(edge.upstream) + 1 <= stage_of(edge.downstream)
        )
    for s in range(1, depth + 1):
        model.add_constr(
            LinExpr.total(
                x[(a, s)] * segment.node(a).resource_demand for a in mats
            )
            <= stage_capacity
        )
    makespan = model.add_var("S", lb=1.0, ub=float(depth))
    for a in mats:
        model.add_constr(makespan >= stage_of(a))
    model.minimize(makespan)

    solution = BranchBoundSolver(time_limit_s=time_limit_s).solve(model)
    timed_out = solution.status in (
        SolveStatus.FEASIBLE,
        SolveStatus.TIME_LIMIT,
    )
    if not solution.status.has_solution:
        return segment.topological_order(strategy="dfs"), timed_out

    assigned = {
        a: next(
            s
            for s in range(1, depth + 1)
            if solution.rounded(x[(a, s)]) == 1
        )
        for a in mats
    }
    order = sorted(mats, key=lambda a: (assigned[a], a))
    return order, timed_out


class MinStage(DeploymentFramework):
    """The MS baseline: per-program stage-minimizing ILP + chain spill."""

    name = "MS"
    merges = False

    def __init__(self, time_limit_s: float = 5.0) -> None:
        self.time_limit_s = time_limit_s

    def program_order(self, programs: Sequence[Program]) -> List[Program]:
        """Deployment order of programs; MS keeps the input order."""
        return list(programs)

    def _place(
        self,
        tdg: Tdg,
        programs: Sequence[Program],
        network: Network,
        paths: PathEnumerator,
    ) -> Tuple[DeploymentPlan, bool]:
        chain = build_switch_chain(network, paths)
        stage_capacity = min(
            network.switch(u).stage_capacity for u in chain
        )
        order: List[str] = []
        timed_out = False
        for program in self.program_order(programs):
            node_names = [
                qualified_name(program.name, mat.name)
                for mat in program.mats
            ]
            segment = tdg.subgraph(node_names, name=program.name)
            program_order, program_timeout = stage_minimizing_order(
                segment, stage_capacity, self.time_limit_s
            )
            timed_out = timed_out or program_timeout
            order.extend(program_order)
        placements = schedule_on_chain(tdg, order, network, chain)
        plan = route_all_pairs(DeploymentPlan(tdg, network, placements), paths)
        plan.validate()
        return plan, timed_out

"""SPEED (Chen et al., ICNP'20).

SPEED pioneered network-wide deployment: it merges input programs into
one TDG (eliminating redundant MATs) and solves an ILP that optimizes
packet-processing performance.  We model its objective as minimizing
the end-to-end transmission latency ``t_e2e`` — the performance term of
its formulation — with no awareness of coordination bytes.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from repro.baselines.base import (
    DeploymentFramework,
    build_switch_chain,
    route_all_pairs,
    schedule_on_chain,
)
from repro.plan import DeploymentError, DeploymentPlan
from repro.core.formulation import OBJECTIVE_LATENCY, MilpFormulation
from repro.dataplane.program import Program
from repro.milp.solution import SolveStatus
from repro.network.paths import PathEnumerator
from repro.network.topology import Network
from repro.tdg.graph import Tdg


class Speed(DeploymentFramework):
    """The SPEED baseline: merged TDG, latency-minimizing ILP."""

    name = "SPEED"
    merges = True
    objective = OBJECTIVE_LATENCY

    def __init__(
        self,
        time_limit_s: float = 30.0,
        max_candidates: Optional[int] = 8,
        epsilon2: Optional[int] = None,
    ) -> None:
        self.time_limit_s = time_limit_s
        self.max_candidates = max_candidates
        self.epsilon2 = epsilon2

    def _formulation(self) -> MilpFormulation:
        return MilpFormulation(
            objective=self.objective,
            epsilon1=math.inf,
            epsilon2=self.epsilon2,
            max_candidates=self.max_candidates,
            time_limit_s=self.time_limit_s,
        )

    def _place(
        self,
        tdg: Tdg,
        programs: Sequence[Program],
        network: Network,
        paths: PathEnumerator,
    ) -> Tuple[DeploymentPlan, bool]:
        formulation = self._formulation()
        try:
            plan = formulation.deploy(tdg, network, paths)
        except DeploymentError:
            # The ILP ran out of budget without even an incumbent — the
            # paper's ">2 hours" regime.  Deploy with an
            # objective-consistent greedy (compact placement on the
            # closest chain of switches) and flag the timeout.
            return self._fallback(tdg, network, paths), True
        solution = formulation.last_solution
        timed_out = bool(
            solution is not None
            and solution.status
            in (SolveStatus.FEASIBLE, SolveStatus.TIME_LIMIT)
        )
        return plan, timed_out

    def _fallback(
        self, tdg: Tdg, network: Network, paths: PathEnumerator
    ) -> DeploymentPlan:
        chain = build_switch_chain(network, paths)
        # Level (Kahn) order packs each pipeline level densely — the
        # compact placement a latency/device-count objective drives —
        # and, like the real frameworks, is blind to which metadata
        # edges the switch boundaries cut.
        order = tdg.topological_order(strategy="kahn")
        placements = schedule_on_chain(tdg, order, network, chain)
        plan = route_all_pairs(DeploymentPlan(tdg, network, placements), paths)
        plan.validate()
        return plan

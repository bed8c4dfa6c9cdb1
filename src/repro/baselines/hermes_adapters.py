"""Hermes under the common framework interface.

``HermesHeuristic`` is the paper's contribution (Algorithm 2);
``HermesOptimal`` is the Gurobi-style exact configuration ("Optimal" in
the figures), solved by the same branch & bound engine as the ILP
baselines.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from repro.baselines.base import DeploymentFramework
from repro.plan import DeploymentError, DeploymentPlan
from repro.core.formulation import HermesMilp
from repro.core.heuristic import GreedyHeuristic
from repro.dataplane.program import Program
from repro.milp.solution import SolveStatus
from repro.network.paths import PathEnumerator
from repro.network.topology import Network
from repro.tdg.graph import Tdg


class HermesHeuristic(DeploymentFramework):
    """Hermes with the greedy heuristic (the paper's default)."""

    name = "Hermes"
    merges = True

    def __init__(
        self,
        epsilon1: float = math.inf,
        epsilon2: Optional[int] = None,
    ) -> None:
        self.epsilon1 = epsilon1
        self.epsilon2 = epsilon2

    def _place(
        self,
        tdg: Tdg,
        programs: Sequence[Program],
        network: Network,
        paths: PathEnumerator,
    ) -> Tuple[DeploymentPlan, bool]:
        heuristic = GreedyHeuristic(
            epsilon1=self.epsilon1, epsilon2=self.epsilon2
        )
        return heuristic.deploy(tdg, network, paths), False


class HermesOptimal(DeploymentFramework):
    """Hermes' objective solved exactly ("Optimal" in the figures)."""

    name = "Optimal"
    merges = True

    def __init__(
        self,
        time_limit_s: float = 60.0,
        max_candidates: Optional[int] = 8,
        epsilon1: float = math.inf,
        epsilon2: Optional[int] = None,
    ) -> None:
        self.time_limit_s = time_limit_s
        self.max_candidates = max_candidates
        self.epsilon1 = epsilon1
        self.epsilon2 = epsilon2

    def _place(
        self,
        tdg: Tdg,
        programs: Sequence[Program],
        network: Network,
        paths: PathEnumerator,
    ) -> Tuple[DeploymentPlan, bool]:
        formulation = HermesMilp(
            epsilon1=self.epsilon1,
            epsilon2=self.epsilon2,
            max_candidates=self.max_candidates,
            time_limit_s=self.time_limit_s,
        )
        heuristic = GreedyHeuristic(
            epsilon1=self.epsilon1, epsilon2=self.epsilon2
        )
        try:
            greedy_plan = heuristic.deploy(tdg, network, paths)
        except DeploymentError:
            greedy_plan = None
        try:
            # Seed the exact search with the heuristic incumbent, the
            # way a practitioner warm-starts Gurobi.
            plan = formulation.deploy(
                tdg, network, paths, warm_start_plan=greedy_plan
            )
        except DeploymentError:
            if greedy_plan is None:
                raise
            # No better incumbent within the budget: the best-known
            # solution is the heuristic's.
            return greedy_plan, True
        solution = formulation.last_solution
        timed_out = bool(
            solution is not None
            and solution.status
            in (SolveStatus.FEASIBLE, SolveStatus.TIME_LIMIT)
        )
        if timed_out and greedy_plan is not None:
            # A time-limited incumbent is not necessarily better than
            # the greedy answer; report whichever has lower overhead.
            if (
                greedy_plan.max_metadata_bytes()
                < plan.max_metadata_bytes()
            ):
                return greedy_plan, timed_out
        return plan, timed_out

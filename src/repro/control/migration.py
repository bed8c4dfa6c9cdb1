"""Incremental re-deployment on network change.

Production networks lose switches (failures, drains, upgrades).  The
deployment must follow: MATs hosted by a vanished switch need a new
home, and the overhead-minimizing structure of the surviving placement
may change entirely.  The :class:`MigrationPlanner` re-runs the Hermes
heuristic on the surviving network and reduces the answer to a
*migration diff* — the minimal set of MAT moves and rule replays an
operator (or an automated controller) must execute.

Re-running the global heuristic instead of locally patching the hole is
deliberate: Algorithm 2's placement is chain-structured, so a local
patch can strand heavy-metadata edges across the patch boundary; the
global re-run keeps the byte-overhead guarantee, and the diff keeps the
disruption measurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, List, Optional

from repro.plan import DeploymentError, DeploymentPlan
from repro.core.heuristic import GreedyHeuristic
from repro.dataplane.rules import Rule
from repro.network.topology import Network
from repro.plan.diff import PlanDiff, diff_plans


@dataclass(frozen=True)
class MatMove:
    """One MAT changing its physical location.

    ``source`` is None when the old hosting switch vanished (failure,
    drain, or loss of programmability) — the move was *forced*, not an
    optimization choice, and disruption accounting treats the two
    differently.
    """

    mat_name: str
    source: Optional[str]  # None = the hosting switch is gone
    destination: str
    rules_to_replay: int

    @property
    def forced(self) -> bool:
        """Whether the old host vanished (vs the optimizer choosing)."""
        return self.source is None


@dataclass
class MigrationDiff:
    """Everything needed to transition between two plans.

    Attributes:
        moves: MATs that change switches (including those whose old
            host failed).
        unchanged: MATs that stay put.
        new_plan: The re-deployed plan on the surviving network.
        plan_diff: The full structural delta between the plans —
            placement changes, per-pair byte deltas, reroutes and the
            overhead totals (see :class:`repro.plan.diff.PlanDiff`).
    """

    moves: List[MatMove] = field(default_factory=list)
    unchanged: List[str] = field(default_factory=list)
    new_plan: Optional[DeploymentPlan] = None
    plan_diff: Optional[PlanDiff] = None

    @property
    def old_overhead_bytes(self) -> int:
        """``A_max`` before the event."""
        return self.plan_diff.old_overhead_bytes if self.plan_diff else 0

    @property
    def new_overhead_bytes(self) -> int:
        """``A_max`` after re-deployment."""
        return self.plan_diff.new_overhead_bytes if self.plan_diff else 0

    @property
    def disruption(self) -> float:
        """Fraction of MATs that must move."""
        total = len(self.moves) + len(self.unchanged)
        return len(self.moves) / total if total else 0.0

    @property
    def rules_to_replay(self) -> int:
        return sum(move.rules_to_replay for move in self.moves)

    @property
    def forced_moves(self) -> List[MatMove]:
        """Moves whose old host vanished — the event *made* them move."""
        return [move for move in self.moves if move.forced]

    @property
    def optimization_moves(self) -> List[MatMove]:
        """Moves the re-run heuristic chose while the old host lived."""
        return [move for move in self.moves if not move.forced]


def surviving_network(network: Network, failed: str) -> Network:
    """The network minus one switch and its incident links."""
    if failed not in network:
        raise DeploymentError(f"unknown switch {failed!r}")
    result = Network(f"{network.name}-minus-{failed}")
    for switch in network.switches:
        if switch.name != failed:
            result.add_switch(switch)
    for link in network.links:
        if failed not in (link.u, link.v):
            result.add_link(link)
    return result


class MigrationPlanner:
    """Plans re-deployments after switch failures or drains.

    Args:
        epsilon1: Latency bound for the re-deployment.
        epsilon2: Occupied-switch bound for the re-deployment.
        replicate_hubs: Hub-replication policy forwarded to the
            heuristic.
    """

    def __init__(
        self,
        epsilon1: float = math.inf,
        epsilon2: Optional[int] = None,
        replicate_hubs=False,
    ) -> None:
        self.epsilon1 = epsilon1
        self.epsilon2 = epsilon2
        self.replicate_hubs = replicate_hubs

    def handle_switch_failure(
        self,
        plan: DeploymentPlan,
        failed_switch: str,
        installed_rules: Optional[Dict[str, List[Rule]]] = None,
    ) -> MigrationDiff:
        """Re-deploy after losing ``failed_switch``.

        Args:
            plan: The currently active plan.
            failed_switch: The switch that vanished.
            installed_rules: Optional runtime table contents (from
                :meth:`repro.control.Controller.rules_to_replay`); used
                to count rule replays per moved MAT.  Defaults to the
                MATs' static rule sets.

        Returns:
            The migration diff, including the new validated plan.

        Raises:
            DeploymentError: If the surviving network cannot host the
                merged TDG at all.
        """
        network = surviving_network(plan.network, failed_switch)
        if not network.programmable_switches():
            raise DeploymentError(
                "no programmable switches survive the failure"
            )
        heuristic = GreedyHeuristic(
            epsilon1=self.epsilon1,
            epsilon2=self.epsilon2,
            replicate_hubs=self.replicate_hubs,
        )
        new_plan = heuristic.deploy(plan.tdg, network)
        return self.diff(plan, new_plan, installed_rules, failed_switch)

    def diff(
        self,
        old_plan: DeploymentPlan,
        new_plan: DeploymentPlan,
        installed_rules: Optional[Dict[str, List[Rule]]] = None,
        failed_switch: Optional[str] = None,
    ) -> MigrationDiff:
        """Compute the move set between two plans over the same TDG."""
        if set(old_plan.placements) != set(new_plan.placements):
            raise DeploymentError(
                "plans deploy different MAT sets; cannot diff"
            )
        vanished = {failed_switch} if failed_switch is not None else set()
        diff = MigrationDiff(
            new_plan=new_plan,
            plan_diff=diff_plans(old_plan, new_plan),
        )
        moves, unchanged = compute_moves(
            old_plan, new_plan, installed_rules, vanished
        )
        diff.moves.extend(moves)
        diff.unchanged.extend(unchanged)
        return diff


def compute_moves(
    old_plan: DeploymentPlan,
    new_plan: DeploymentPlan,
    installed_rules: Optional[Dict[str, List[Rule]]] = None,
    vanished: AbstractSet[str] = frozenset(),
) -> "tuple[List[MatMove], List[str]]":
    """The (moves, unchanged) split over the plans' *common* MATs.

    Unlike :meth:`MigrationPlanner.diff`, this tolerates workload
    changes between the plans (added/removed MATs simply don't appear)
    — the lifecycle reconciler's case, where a ``workload_add`` event
    and a switch failure can land in the same replan batch.

    ``vanished`` names switches that can no longer host MATs; a MAT
    leaving one of them becomes a *forced* move (``source=None``).
    """
    moves: List[MatMove] = []
    unchanged: List[str] = []
    common = set(old_plan.placements) & set(new_plan.placements)
    for mat_name in old_plan.placements:
        if mat_name not in common:
            continue
        old_switch = old_plan.switch_of(mat_name)
        new_switch = new_plan.switch_of(mat_name)
        if old_switch == new_switch and old_switch not in vanished:
            unchanged.append(mat_name)
            continue
        if installed_rules is not None:
            replay = len(installed_rules.get(mat_name, []))
        else:
            replay = len(old_plan.tdg.node(mat_name).rules)
        moves.append(
            MatMove(
                mat_name=mat_name,
                source=None if old_switch in vanished else old_switch,
                destination=new_switch,
                rules_to_replay=replay,
            )
        )
    return moves, unchanged

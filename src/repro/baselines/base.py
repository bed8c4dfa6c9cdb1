"""Framework interface and shared placement machinery.

The single-switch frameworks (Min-Stage, Sonata, FFL, FFLS) were never
designed for networks; following §VI-A they are "extended to deploy
input programs on switches one by one".  We model that extension as a
*virtual pipeline*: the programmable switches are ordered into a chain
(closest-first around an anchor) and their stages concatenated; MATs
are placed into the virtual pipeline in each framework's characteristic
order, spilling onto the next switch whenever the current one is full.
A MAT never straddles two switches, and dependencies are preserved
because placement order is topological and virtual stage numbers only
grow.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.analyzer import ProgramAnalyzer
from repro.plan import (
    DeploymentError,
    DeploymentPlan,
    MatPlacement,
)
from repro.core.stages import earliest_window
from repro.dataplane.program import Program
from repro.network.paths import Path, PathEnumerator
from repro.network.topology import Network
from repro.tdg.graph import Tdg
from repro.telemetry import emit


@dataclass
class FrameworkResult:
    """Outcome of one framework's deployment run.

    Attributes:
        framework: Framework display name.
        plan: The validated deployment plan.
        tdg: The TDG the framework deployed (merged or unmerged,
            depending on the framework).
        solve_time_s: Wall-clock placement time (excludes program
            analysis, matching the paper's execution-time metric).
        timed_out: Whether an ILP solve hit its time limit (rendered as
            the paper's off-scale bars in Exp#3).
    """

    framework: str
    plan: DeploymentPlan
    tdg: Tdg
    solve_time_s: float
    timed_out: bool = False

    @property
    def overhead_bytes(self) -> int:
        return self.plan.max_metadata_bytes()


class DeploymentFramework(abc.ABC):
    """Common interface all compared frameworks implement."""

    #: Display name used in tables and figures.
    name: str = "framework"
    #: Whether the framework merges TDGs (redundancy elimination).
    merges: bool = False

    def deploy(
        self,
        programs: Sequence[Program],
        network: Network,
        paths: Optional[PathEnumerator] = None,
    ) -> FrameworkResult:
        """Analyze programs and place them; timing covers placement.

        Emits ``deploy.start`` / ``deploy.done`` telemetry events (see
        :mod:`repro.telemetry`) bracketing the placement, so journals
        can attribute the solver event stream to a framework.
        """
        paths = paths or PathEnumerator(network)
        emit(
            "deploy.start",
            framework=self.name,
            programs=len(programs),
            network=network.name,
        )
        tdg = ProgramAnalyzer(merge=self.merges).analyze(programs)
        start = time.perf_counter()
        plan, timed_out = self._place(tdg, programs, network, paths)
        elapsed = time.perf_counter() - start
        result = FrameworkResult(
            framework=self.name,
            plan=plan,
            tdg=tdg,
            solve_time_s=elapsed,
            timed_out=timed_out,
        )
        emit(
            "deploy.done",
            framework=self.name,
            solve_time_s=elapsed,
            timed_out=timed_out,
            overhead_bytes=result.overhead_bytes,
            occupied_switches=plan.num_occupied_switches(),
        )
        return result

    @abc.abstractmethod
    def _place(
        self,
        tdg: Tdg,
        programs: Sequence[Program],
        network: Network,
        paths: PathEnumerator,
    ) -> Tuple[DeploymentPlan, bool]:
        """Place the analyzed TDG; returns (plan, timed_out)."""


# ----------------------------------------------------------------------
# Virtual-pipeline chain scheduling
# ----------------------------------------------------------------------
def build_switch_chain(
    network: Network, paths: PathEnumerator
) -> List[str]:
    """Programmable switches ordered as a deployment chain.

    The first programmable switch anchors the chain; the rest follow in
    order of shortest-path latency from the anchor (unreachable ones are
    dropped).
    """
    programmable = network.programmable_names()
    if not programmable:
        raise DeploymentError("network has no programmable switches")
    anchor = programmable[0]
    ranked: List[Tuple[float, str]] = [(0.0, anchor)]
    for name in programmable[1:]:
        path = paths.shortest(anchor, name)
        if path is None:
            continue
        ranked.append((path.latency_us, name))
    ranked.sort()
    return [name for _latency, name in ranked]


def schedule_on_chain(
    tdg: Tdg,
    order: Sequence[str],
    network: Network,
    chain: Sequence[str],
) -> Dict[str, MatPlacement]:
    """Place MATs in ``order`` onto the concatenated chain pipeline.

    ``order`` must be topological w.r.t. ``tdg``.  Each MAT takes the
    earliest stage window at or after all its predecessors' stages in
    the virtual (chain-wide) numbering; windows never straddle switch
    boundaries.

    Raises:
        DeploymentError: If the chain's total capacity is exhausted or
            ``order`` is not topological.
    """
    # Per-switch free capacity per stage (0-indexed).
    free: Dict[str, List[float]] = {}
    stage_base: Dict[str, int] = {}
    base = 0
    for name in chain:
        switch = network.switch(name)
        free[name] = [switch.stage_capacity] * switch.num_stages
        stage_base[name] = base
        base += switch.num_stages

    placements: Dict[str, MatPlacement] = {}
    virtual_end: Dict[str, int] = {}  # mat -> last virtual stage index

    for mat_name in order:
        mat = tdg.node(mat_name)
        earliest_virtual = 0
        for pred in tdg.predecessors(mat_name):
            if pred not in virtual_end:
                raise DeploymentError(
                    f"placement order is not topological: {mat_name!r} "
                    f"before its predecessor {pred!r}"
                )
            earliest_virtual = max(earliest_virtual, virtual_end[pred] + 1)

        placed = False
        for switch_name in chain:
            switch = network.switch(switch_name)
            base_idx = stage_base[switch_name]
            # virtual stage = base_idx + local stage (both 1-based
            # locally), so the local constraint is the difference.
            local_earliest = max(1, earliest_virtual - base_idx)
            if local_earliest > switch.num_stages:
                continue
            window = earliest_window(
                free[switch_name],
                mat.resource_demand,
                local_earliest,
                switch.num_stages,
            )
            if window is None:
                continue
            start, end = window
            share = mat.resource_demand / (end - start + 1)
            for stage in range(start, end + 1):
                free[switch_name][stage - 1] -= share
            placements[mat_name] = MatPlacement(
                mat_name, switch_name, tuple(range(start, end + 1))
            )
            virtual_end[mat_name] = base_idx + end
            placed = True
            break
        if not placed:
            raise DeploymentError(
                f"chain of {len(chain)} switches cannot host MAT "
                f"{mat_name!r} (demand {mat.resource_demand:.3f})"
            )
    return placements


def route_all_pairs(
    plan: DeploymentPlan, paths: PathEnumerator
) -> DeploymentPlan:
    """A plan with shortest-path routing for every communicating pair.

    The input plan is left untouched (it used to be mutated in place,
    which aliased routing state between callers); the returned plan
    shares placements — and their already-computed metric caches — with
    the input.
    """
    routing: Dict[Tuple[str, str], Path] = {}
    for pair in plan.pair_metadata_bytes():
        path = paths.shortest(*pair)
        if path is None:
            raise DeploymentError(
                f"no path between communicating switches {pair}"
            )
        routing[pair] = path
    return plan.with_routing(routing)

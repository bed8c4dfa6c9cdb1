"""The greedy-based heuristic (Algorithm 2).

Key idea (§V-E): keep the TDG edges that carry *large* metadata inside
a single switch, so only small-``A(a, b)`` edges cross switches.  The
heuristic recursively splits the merged TDG at the prefix (in
topological order) whose cut ships the fewest metadata bytes, until
every segment fits on one switch; segments are then laid out on a chain
of nearby programmable switches.

Implementation notes:

* The prefix sweep is computed incrementally (moving node ``a`` from
  the right side to the left changes the cut by ``out_bytes(a) -
  in_bytes(a)``), giving the ``O((|V| + |E|) log |V|)`` split cost of
  Theorem 2.
* Segment feasibility uses the exact stage scheduler
  (:func:`repro.core.stages.segment_fits`), which is sound where the
  paper's aggregate ``sum R(a) <= C_stage * C_res`` test can accept
  segments whose dependency chains exceed the stage count.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.plan import DeploymentError, DeploymentPlan
from repro.core.stages import StageAssignmentError, assign_stages, segment_fits
from repro.network.paths import PathEnumerator
from repro.plan.builder import PlanBuilder
from repro.network.switch import Switch
from repro.network.topology import Network
from repro.tdg.graph import Tdg


#: Lower edge of the fill band: a peeled prefix should occupy at least
#: this fraction of a switch, bounding the segment count by
#: ``demand / (FILL_FLOOR * capacity)``.  0.5 admits every other
#: program boundary of typical workloads as a candidate position, which
#: measurably lowers the realized A_max versus tighter bands.
FILL_FLOOR = 0.5


def split_order(tdg: Tdg) -> List[str]:
    """The node order the prefix sweep runs over.

    Plain DFS order loses program contiguity once merged hub MATs
    (shared hashes) connect many programs into one component — DFS then
    interleaves their consumers, and every in-band split position cuts
    several programs mid-chain.  This order is a grouped Kahn walk:
    nodes are grouped by their originating program (the ``"<program>."``
    prefix of qualified node names) and the walk stays inside the
    current group while it has ready nodes, jumping to the group of the
    earliest-ranked ready node otherwise.  The result is always
    topological, and program boundaries reappear as cheap split
    positions even in hub-connected merged TDGs.
    """
    dfs = tdg.topological_order(strategy="dfs")
    rank = {name: i for i, name in enumerate(dfs)}

    def program_of(name: str) -> str:
        return name.split(".", 1)[0]

    # Merged hub MATs (shared hashes) feed several programs but are
    # owned — by naming accident of the merge — by one of them.  Left
    # in that group they stall every consumer program until their
    # owner's turn, shredding contiguity.  Nodes whose successors span
    # other programs form their own leading group instead.
    hubs = {
        name
        for name in dfs
        if any(
            program_of(s) != program_of(name)
            for s in tdg.successors(name)
        )
    }
    for hub in hubs:
        rank[hub] = -len(dfs) + rank[hub]  # emit hubs first

    def group_of(name: str) -> str:
        return "__hubs__" if name in hubs else program_of(name)

    in_deg = {name: len(tdg.predecessors(name)) for name in dfs}
    ready: Dict[str, List[str]] = {}
    for name in dfs:
        if in_deg[name] == 0:
            ready.setdefault(group_of(name), []).append(name)
    for bucket in ready.values():
        bucket.sort(key=lambda n: rank[n], reverse=True)  # pop() = min

    order: List[str] = []
    current: Optional[str] = None
    while ready:
        if current not in ready:
            # Jump to the group holding the earliest-ranked ready node.
            current = min(
                ready, key=lambda g: rank[ready[g][-1]]
            )
        node = ready[current].pop()
        if not ready[current]:
            del ready[current]
        order.append(node)
        for succ in sorted(tdg.successors(node), key=lambda n: rank[n]):
            in_deg[succ] -= 1
            if in_deg[succ] == 0:
                bucket = ready.setdefault(group_of(succ), [])
                bucket.append(succ)
                bucket.sort(key=lambda n: rank[n], reverse=True)
    return order


def _prefix_candidates(
    tdg: Tdg, topo: List[str]
) -> List[Tuple[int, float, float]]:
    """Sweep all prefixes: (size, cut_bytes, prefix_demand).

    The cut is updated incrementally — moving node ``a`` from the
    suffix to the prefix changes it by ``out_bytes(a) - in_bytes(a)`` —
    so the whole sweep is ``O(|V| + |E|)``.  The final position (empty
    suffix) is excluded.
    """
    out_bytes = {
        name: sum(e.metadata_bytes for e in tdg.out_edges(name))
        for name in topo
    }
    in_bytes = {
        name: sum(e.metadata_bytes for e in tdg.in_edges(name))
        for name in topo
    }
    candidates: List[Tuple[int, float, float]] = []
    cut = 0.0
    demand = 0.0
    for idx, name in enumerate(topo[:-1]):
        cut += out_bytes[name] - in_bytes[name]
        demand += tdg.node(name).resource_demand
        candidates.append((idx + 1, cut, demand))
    return candidates


def _choose_prefix_size(
    candidates: List[Tuple[int, float, float]],
    capacity: float,
    fill_floor: float = None,
) -> int:
    """Pick the split position: min cut within the fill band.

    Preference order:

    1. prefixes whose demand lies in ``[fill_floor * capacity,
       capacity]`` — well-filled and single-switch feasible;
    2. otherwise any prefix with demand ``<= capacity``;
    3. otherwise the first position (always exists).

    Within the chosen set the minimum cut wins; ties go to the largest
    prefix (fewest segments overall).
    """
    if fill_floor is None:
        fill_floor = FILL_FLOOR
    in_band = [
        c
        for c in candidates
        if fill_floor * capacity <= c[2] <= capacity
    ]
    pool = in_band or [c for c in candidates if c[2] <= capacity]
    if not pool:
        return candidates[0][0]
    best_cut = min(c[1] for c in pool)
    at_min = [c for c in pool if c[1] == best_cut]
    return max(at_min, key=lambda c: c[0])[0]


def split_tdg(
    tdg: Tdg, reference: Switch, fill_floor: float = None
) -> List[Tdg]:
    """Split ``tdg`` into single-switch segments (Algorithm 2 lines 1-17).

    Repeatedly peels off the prefix (in grouped topological order, which
    keeps programs contiguous) with the minimum metadata cut among
    well-filled, switch-fitting positions; when a chosen prefix admits
    no stage layout (dependency chains deeper than the pipeline),
    progressively smaller prefixes are tried.

    Args:
        tdg: The merged TDG ``T_m`` (metadata sizes annotated).
        reference: The switch model segments must fit (Algorithm 2's
            uniform ``C_stage``/``C_res``).
        fill_floor: Override of :data:`FILL_FLOOR`; raising it packs
            segments denser, reducing their count when an occupied-
            switch budget binds.

    Returns:
        Segments in chain order: every TDG edge runs within a segment
        or from an earlier segment to a later one.
    """
    segments: List[Tdg] = []
    remaining = tdg
    piece = 0
    while not segment_fits(remaining, reference):
        topo = split_order(remaining)
        if len(topo) < 2:
            raise DeploymentError(
                f"MAT {topo[0]!r} alone does not fit switch "
                f"{reference.name!r}"
            )
        candidates = _prefix_candidates(remaining, topo)
        size = _choose_prefix_size(
            candidates, reference.total_capacity, fill_floor
        )
        prefix = remaining.subgraph(
            topo[:size], name=f"{tdg.name}/{piece}"
        )
        # Aggregate capacity can admit prefixes whose dependency chains
        # exceed the stage count; shrink until a stage layout exists.
        while size > 1 and not segment_fits(prefix, reference):
            size -= 1
            prefix = remaining.subgraph(
                topo[:size], name=f"{tdg.name}/{piece}"
            )
        if size == 1 and not segment_fits(prefix, reference):
            raise DeploymentError(
                f"MAT {topo[0]!r} alone does not fit switch "
                f"{reference.name!r}"
            )
        segments.append(prefix)
        remaining = remaining.subgraph(
            topo[size:], name=f"{tdg.name}/rest"
        )
        piece += 1
    remaining.name = f"{tdg.name}/{piece}" if segments else tdg.name
    segments.append(remaining)
    return segments


def select_switches(
    start: str,
    network: Network,
    paths: PathEnumerator,
    epsilon1: float = math.inf,
    epsilon2: Optional[int] = None,
) -> List[str]:
    """Candidate chain around ``start`` (Algorithm 2 line 23).

    Returns ``start`` plus the closest programmable switches reachable
    from it within latency ``epsilon1``, capped at ``epsilon2`` total,
    ordered by shortest-path latency from ``start``.
    """
    ranked: List[Tuple[float, str]] = [(0.0, start)]
    for name in network.programmable_names():
        if name == start:
            continue
        path = paths.shortest(start, name)
        if path is None:
            continue
        if path.latency_us <= epsilon1:
            ranked.append((path.latency_us, name))
    ranked.sort()
    names = [name for _latency, name in ranked]
    if epsilon2 is not None:
        names = names[:epsilon2]
    return names


class GreedyHeuristic:
    """Algorithm 2: timely, near-optimal deployment.

    Args:
        epsilon1: Latency bound for candidate selection (µs).
        epsilon2: Bound on occupied switches.
        reference_switch: Switch model used by the splitter; defaults
            to the weakest programmable switch in the network so every
            candidate can host every segment.
        splitter: The TDG splitting strategy, ``(tdg, reference) ->
            [segments]``; defaults to the min-cut :func:`split_tdg`.
            Exposed so ablations can swap in alternative criteria.
        replicate_hubs: Clone cheap shared hub MATs per consumer
            program before splitting (the Eq. 6 replication extension;
            see :mod:`repro.core.replication`).  ``False`` (default)
            matches the paper's single-placement behaviour, ``True``
            always replicates, ``"auto"`` deploys both ways and keeps
            the plan with the lower byte overhead.
        refine: Polish the chosen plan with boundary-move local search
            (:mod:`repro.core.refine`); on by default.
    """

    def __init__(
        self,
        epsilon1: float = math.inf,
        epsilon2: Optional[int] = None,
        reference_switch: Optional[Switch] = None,
        splitter=None,
        replicate_hubs=False,
        refine: bool = True,
    ) -> None:
        if epsilon1 <= 0:
            raise ValueError("epsilon1 must be positive")
        if epsilon2 is not None and epsilon2 <= 0:
            raise ValueError("epsilon2 must be positive")
        self.epsilon1 = epsilon1
        self.epsilon2 = epsilon2
        self.reference_switch = reference_switch
        self.splitter = splitter or split_tdg
        if replicate_hubs not in (False, True, "auto"):
            raise ValueError(
                "replicate_hubs must be False, True or 'auto'"
            )
        self.replicate_hubs = replicate_hubs
        self.refine = refine

    def _reference(self, network: Network) -> Switch:
        if self.reference_switch is not None:
            return self.reference_switch
        programmable = network.programmable_switches()
        if not programmable:
            raise DeploymentError("network has no programmable switches")
        return min(programmable, key=lambda s: s.total_capacity)

    def deploy(
        self,
        tdg: Tdg,
        network: Network,
        paths: Optional[PathEnumerator] = None,
    ) -> DeploymentPlan:
        """Run Algorithm 2 and return a validated deployment plan.

        Enumerates programmable switches as chain anchors; the first
        anchor whose candidate set can host every segment wins, exactly
        like the paper's first-feasible enumeration.
        """
        paths = paths or PathEnumerator(network)
        if self.replicate_hubs == "auto":
            return self._deploy_auto(tdg, network, paths)
        plans: List[DeploymentPlan] = []
        try:
            plans.append(self._deploy_min_cut(tdg, network, paths))
        except DeploymentError as exc:
            split_error: Optional[Exception] = exc
        else:
            split_error = None
        chain_plan = self._deploy_chain(tdg, network, paths)
        if chain_plan is not None:
            plans.append(chain_plan)
        if not plans:
            raise DeploymentError(
                "greedy heuristic found no feasible deployment"
                + (f": {split_error}" if split_error else "")
            )
        # Portfolio: the min-cut split minimizes total boundary bytes;
        # the interleaving chain schedule spreads crossings over more
        # switch pairs, which can lower the per-pair *max*.  Keep the
        # cheaper plan, then polish it with boundary-move local search.
        best = min(plans, key=lambda p: p.max_metadata_bytes())
        if self.refine:
            from repro.core.refine import refine_plan

            best = refine_plan(best, paths)
        return best

    def _deploy_min_cut(
        self,
        tdg: Tdg,
        network: Network,
        paths: PathEnumerator,
    ) -> DeploymentPlan:
        """Algorithm 2: min-cut split + candidate-chain placement."""
        reference = self._reference(network)
        if self.replicate_hubs:
            from repro.core.replication import replicate_cheap_hubs

            tdg = replicate_cheap_hubs(tdg)
        segments = self.splitter(tdg, reference)
        if (
            self.epsilon2 is not None
            and len(segments) > self.epsilon2
            and self.splitter is split_tdg
        ):
            # The default fill band produced more segments than the
            # occupied-switch budget allows; re-split with the floor
            # raised to the average fill the budget implies.
            needed = tdg.total_resource_demand() / (
                self.epsilon2 * reference.total_capacity
            )
            if needed <= 1.0:
                segments = split_tdg(
                    tdg,
                    reference,
                    fill_floor=min(0.98, max(needed, FILL_FLOOR)),
                )

        last_error: Optional[Exception] = None
        for anchor in network.programmable_names():
            candidates = select_switches(
                anchor, network, paths, self.epsilon1, self.epsilon2
            )
            if len(segments) > len(candidates):
                continue
            try:
                return self._place(tdg, network, paths, segments, candidates)
            except (StageAssignmentError, DeploymentError) as exc:
                last_error = exc
                continue
        raise DeploymentError(
            "greedy heuristic found no feasible anchor switch"
            + (f": {last_error}" if last_error else "")
        )

    def _deploy_chain(
        self,
        tdg: Tdg,
        network: Network,
        paths: PathEnumerator,
    ) -> Optional[DeploymentPlan]:
        """First-fit chain placement over the candidate switches.

        The complementary portfolio member: MATs in Kahn (level) order
        packed into consecutive switches.  Interleaving programs at the
        boundaries spreads the cut edges across several switch pairs,
        so the per-pair maximum can undercut the min-cut split even
        when the total crossing bytes are higher.
        """
        from repro.baselines.base import route_all_pairs, schedule_on_chain

        order = tdg.topological_order(strategy="kahn")
        for anchor in network.programmable_names():
            chain = select_switches(
                anchor, network, paths, self.epsilon1, self.epsilon2
            )
            if not chain:
                continue
            try:
                placements = schedule_on_chain(tdg, order, network, chain)
                plan = route_all_pairs(
                    DeploymentPlan(tdg, network, placements), paths
                )
                plan.validate()
                return plan
            except (StageAssignmentError, DeploymentError):
                continue
        return None

    def _deploy_auto(
        self,
        tdg: Tdg,
        network: Network,
        paths: PathEnumerator,
    ) -> DeploymentPlan:
        """Deploy with and without hub replication; keep the cheaper.

        Replication removes hub cut bytes but inflates demand, which
        can shift split positions for the worse — so "auto" simply
        measures both.  Replication failures (capacity exhausted by the
        clones) silently fall back to the merged deployment.
        """
        base_solver = GreedyHeuristic(
            self.epsilon1, self.epsilon2, self.reference_switch,
            self.splitter, replicate_hubs=False, refine=self.refine,
        )
        plan = base_solver.deploy(tdg, network, paths)
        replica_solver = GreedyHeuristic(
            self.epsilon1, self.epsilon2, self.reference_switch,
            self.splitter, replicate_hubs=True, refine=self.refine,
        )
        try:
            replicated = replica_solver.deploy(tdg, network, paths)
        except DeploymentError:
            return plan
        if replicated.max_metadata_bytes() < plan.max_metadata_bytes():
            return replicated
        return plan

    def _place(
        self,
        tdg: Tdg,
        network: Network,
        paths: PathEnumerator,
        segments: Sequence[Tdg],
        candidates: Sequence[str],
    ) -> DeploymentPlan:
        builder = PlanBuilder(tdg, network)
        for segment, host in zip(segments, candidates):
            layout = assign_stages(segment, network.switch(host))
            for placement in layout.values():
                builder.place(
                    placement.mat_name, placement.switch, placement.stages
                )
        # Consecutive chain hops (Algorithm 2 lines 26-29) plus any
        # skip-level pairs created by edges spanning non-adjacent
        # segments: every communicating pair gets its shortest path.
        builder.route_shortest(paths)
        return builder.build()

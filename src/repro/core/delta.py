"""Delta formulation: P#1 restricted to a churn event's blast radius.

A churn event rarely invalidates more than a handful of placements, yet
the cold replanning path rebuilds the full P#1 model — every MAT, every
candidate switch, every ``z`` product — and solves it from scratch.
:class:`DeltaFormulation` is the warm path's solver layer: every MAT
outside the blast radius is *fixed* to its old host and falls out of
the decision space entirely, leaving placement variables only for the
free (orphaned) MATs over a small candidate set.  The fixed placements
still price the objective — their pairwise metadata bytes become
constant baselines, and fixed–free edges contribute *linear* terms
instead of ``z`` products — so the restricted model minimizes the very
same ``A_max`` the full model would, just over a far smaller cube.

Sizing: with ``f`` free MATs and ``c`` candidates the model has
``f*c`` placement binaries plus ``z`` products only for free–free
metadata edges (``O(f^2 c^2)`` worst case, but blast radii are small);
the full model pays ``n*c`` binaries and ``O(m c^2)`` products for all
``m`` metadata edges.  Consecutive delta solves over the same blast
radius shape reuse presolve output through a shared
:class:`~repro.milp.presolve.PresolveCache`, and the old assignment is
offered as the solver's first incumbent whenever it is still
expressible.

The solved assignment is *not* decoded into a plan here: the plan
layer splices it into the surviving placements
(:func:`repro.plan.splice.splice_plan`), using
:attr:`DeltaFormulation.last_predicted_amax` as the exact probe cap —
the spliced plan's ``A_max`` must equal the model's objective, because
stage layout never changes pair bytes.  A mismatch means the delta
abstraction leaked and the caller escalates to a full replan.

Latency/occupancy epsilon constraints are deliberately out of scope:
the delta path serves the reconciler, which runs the overhead-primary
configuration with loose bounds (the paper's evaluation setting).  A
workload change, or a blast radius beyond the caller's threshold,
escalates to the full :class:`~repro.core.formulation.MilpFormulation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.plan import DeploymentError, DeploymentPlan
from repro.milp.expr import LinExpr
from repro.milp.model import Model, Var
from repro.milp.branch_bound import BranchBoundSolver
from repro.milp.presolve import PresolveCache
from repro.milp.solution import Solution
from repro.network.paths import PathEnumerator
from repro.network.topology import Network
from repro.tdg.graph import Tdg


def select_delta_candidates(
    tdg: Tdg,
    network: Network,
    paths: PathEnumerator,
    old_plan: DeploymentPlan,
    free: Sequence[str],
    max_candidates: Optional[int] = 8,
) -> List[str]:
    """Candidate hosts for the free MATs of a delta solve.

    Ranked for locality to the surviving deployment: switches already
    hosting a fixed placement first (splicing next to the survivors
    keeps metadata edges intra-switch), then the free MATs' old hosts
    when still hostable, then the remaining programmable switches by
    summed shortest-path latency to the fixed hosts.  The set is grown
    until its residual pipeline capacity (total minus the fixed load)
    covers the free demand, then capped by ``max_candidates`` — but
    never below capacity feasibility.
    """
    hostable = set(network.programmable_names())
    if not hostable:
        raise DeploymentError("delta: network has no programmable switches")
    free_set = set(free)
    fixed_hosts = sorted(
        {
            p.switch
            for name, p in old_plan.placements.items()
            if name not in free_set and p.switch in hostable
        }
    )
    old_hosts = sorted(
        {
            old_plan.placements[name].switch
            for name in free_set
            if name in old_plan.placements
            and old_plan.placements[name].switch in hostable
        }
    )

    def remoteness(u: str) -> float:
        if not fixed_hosts:
            return 0.0
        total = 0.0
        for v in fixed_hosts:
            if v == u:
                continue
            path = paths.shortest(u, v)
            total += path.latency_us if path else math.inf
        return total

    ranked: List[str] = list(fixed_hosts)
    seen = set(ranked)
    for u in old_hosts:
        if u not in seen:
            ranked.append(u)
            seen.add(u)
    for u in sorted(hostable - seen, key=lambda v: (remoteness(v), v)):
        ranked.append(u)

    fixed_load: Dict[str, float] = {}
    for name, p in old_plan.placements.items():
        if name not in free_set:
            fixed_load[p.switch] = (
                fixed_load.get(p.switch, 0.0)
                + tdg.node(name).resource_demand
            )
    demand = sum(tdg.node(name).resource_demand for name in free_set)

    limit = len(ranked)
    if max_candidates is not None:
        limit = min(limit, max_candidates)
    chosen: List[str] = []
    residual = 0.0
    for u in ranked:
        chosen.append(u)
        residual += network.switch(u).total_capacity - fixed_load.get(u, 0.0)
        if len(chosen) >= limit and residual >= demand:
            break
    if residual < demand:
        raise DeploymentError(
            f"delta: candidates leave {residual:.1f} residual stage units "
            f"but the blast radius needs {demand:.1f}"
        )
    return chosen


@dataclass
class _DeltaHandles:
    """Variables and constants the decoder / warm-start encoder need."""

    model: Model
    placement: Dict[Tuple[str, str], Var]  # (free mat, candidate) -> L
    a_max: Var
    candidates: List[str]
    free: List[str]
    fixed_hosts: Dict[str, str]  # fixed mat -> its (unchanged) host
    baselines: Dict[Tuple[str, str], float] = field(default_factory=dict)
    products: Dict[Tuple[str, str, str, str], Var] = field(
        default_factory=dict
    )


class DeltaFormulation:
    """P#1 over the blast radius only, everything else fixed.

    Args:
        max_candidates: Cap on candidate switches for the free MATs
            (grown past the cap only when residual capacity demands).
        time_limit_s: Branch & bound wall-clock budget — deliberately
            short; an expired delta solve escalates, it never blocks
            the reconciler the way a cold solve can.
        node_limit: Branch & bound node budget, same rationale.

    The presolve output is reused across structurally identical delta
    models through the instance's shared :class:`PresolveCache`.
    """

    def __init__(
        self,
        max_candidates: Optional[int] = 8,
        time_limit_s: float = 5.0,
        node_limit: int = 50_000,
    ) -> None:
        self.max_candidates = max_candidates
        self.time_limit_s = time_limit_s
        self.node_limit = node_limit
        #: Shared across solves: consecutive replans of structurally
        #: identical delta models skip presolve entirely.
        self.presolve_cache = PresolveCache()
        #: Solver outcome of the most recent :meth:`solve`.
        self.last_solution: Optional[Solution] = None
        #: The model's predicted ``A_max`` (bytes) for the most recent
        #: :meth:`solve`; :func:`repro.plan.splice.splice_plan` uses it
        #: as the exact probe cap.
        self.last_predicted_amax: Optional[int] = None

    # ------------------------------------------------------------------
    # Model construction
    # ------------------------------------------------------------------
    def build(
        self,
        tdg: Tdg,
        network: Network,
        paths: PathEnumerator,
        old_plan: DeploymentPlan,
        free: Sequence[str],
        candidates: Optional[Sequence[str]] = None,
    ) -> _DeltaHandles:
        free_list = sorted(set(free))
        unknown = [a for a in free_list if a not in tdg]
        if unknown:
            raise DeploymentError(f"delta: free MATs {unknown} not in TDG")
        cand = list(
            candidates
            if candidates is not None
            else select_delta_candidates(
                tdg, network, paths, old_plan, free_list, self.max_candidates
            )
        )
        free_set = set(free_list)
        fixed_hosts = {
            name: p.switch
            for name, p in old_plan.placements.items()
            if name not in free_set
        }

        model = Model("P1-delta")
        placement: Dict[Tuple[str, str], Var] = {}
        for a in free_list:
            for u in cand:
                placement[(a, u)] = model.add_binary(f"L[{a},{u}]")
            model.add_constr(
                LinExpr.total(placement[(a, u)] for u in cand) == 1,
                name=f"place[{a}]",
            )

        # Residual capacity: total minus the load the fixed placements
        # already consume on each candidate.
        for u in cand:
            fixed_load = sum(
                tdg.node(name).resource_demand
                for name, host in fixed_hosts.items()
                if host == u
            )
            load = LinExpr.total(
                placement[(a, u)] * tdg.node(a).resource_demand
                for a in free_list
            )
            model.add_constr(
                load <= network.switch(u).total_capacity - fixed_load,
                name=f"cap[{u}]",
            )

        # Pair terms over (fixed hosts | candidates)^2.  Fixed–fixed
        # edges are constants; fixed–free edges are linear in L;
        # only free–free edges need z products.
        pair_switches = sorted(set(fixed_hosts.values()) | set(cand))
        baselines: Dict[Tuple[str, str], float] = {}
        pair_terms: Dict[Tuple[str, str], List[LinExpr]] = {}
        z_cache: Dict[Tuple[str, str, str, str], Var] = {}

        def product(a: str, b: str, u: str, v: str) -> Var:
            key = (a, b, u, v)
            var = z_cache.get(key)
            if var is None:
                var = model.add_binary(f"z[{a},{b},{u},{v}]")
                model.add_constr(
                    var >= placement[(a, u)] + placement[(b, v)] - 1
                )
                z_cache[key] = var
            return var

        for edge in tdg.edges:
            if edge.metadata_bytes <= 0:
                continue
            a, b = edge.upstream, edge.downstream
            bytes_ = float(edge.metadata_bytes)
            a_free, b_free = a in free_set, b in free_set
            if not a_free and not b_free:
                u, v = fixed_hosts[a], fixed_hosts[b]
                if u != v:
                    baselines[(u, v)] = baselines.get((u, v), 0.0) + bytes_
            elif a_free and b_free:
                for u in cand:
                    for v in cand:
                        if u == v:
                            continue
                        pair_terms.setdefault((u, v), []).append(
                            LinExpr.from_term(product(a, b, u, v), bytes_)
                        )
            elif a_free:
                v = fixed_hosts[b]
                for u in cand:
                    if u == v:
                        continue
                    pair_terms.setdefault((u, v), []).append(
                        LinExpr.from_term(placement[(a, u)], bytes_)
                    )
            else:
                u = fixed_hosts[a]
                for v in cand:
                    if u == v:
                        continue
                    pair_terms.setdefault((u, v), []).append(
                        LinExpr.from_term(placement[(b, v)], bytes_)
                    )

        a_max = model.add_var("A_max", lb=0.0)
        for u in pair_switches:
            for v in pair_switches:
                if u == v:
                    continue
                terms = pair_terms.get((u, v), [])
                base = baselines.get((u, v), 0.0)
                if not terms and base == 0.0:
                    continue
                model.add_constr(
                    a_max >= LinExpr.total(terms) + base,
                    name=f"amax[{(u, v)}]",
                )
        model.minimize(a_max)

        return _DeltaHandles(
            model=model,
            placement=placement,
            a_max=a_max,
            candidates=cand,
            free=free_list,
            fixed_hosts=fixed_hosts,
            baselines=baselines,
            products=z_cache,
        )

    # ------------------------------------------------------------------
    # Warm start
    # ------------------------------------------------------------------
    def encode_assignment(
        self,
        handles: _DeltaHandles,
        tdg: Tdg,
        assignment: Dict[str, str],
    ) -> Optional[Dict[Var, float]]:
        """Encode ``free MAT -> switch`` as the solver's first incumbent.

        Returns None when some free MAT's target is outside the
        candidate set (the old host vanished — nothing to warm from).
        """
        cand = set(handles.candidates)
        if any(a not in assignment for a in handles.free) or any(
            assignment[a] not in cand for a in handles.free
        ):
            return None
        hosts = dict(handles.fixed_hosts)
        hosts.update(assignment)
        values: Dict[Var, float] = {}
        for (a, u), var in handles.placement.items():
            values[var] = 1.0 if hosts[a] == u else 0.0
        for (a, b, u, v), var in handles.products.items():
            values[var] = 1.0 if hosts[a] == u and hosts[b] == v else 0.0
        totals: Dict[Tuple[str, str], float] = {}
        for edge in tdg.edges:
            if edge.metadata_bytes <= 0:
                continue
            u, v = hosts[edge.upstream], hosts[edge.downstream]
            if u != v:
                totals[(u, v)] = totals.get((u, v), 0.0) + float(
                    edge.metadata_bytes
                )
        values[handles.a_max] = max(totals.values(), default=0.0)
        return values

    # ------------------------------------------------------------------
    # Solve + decode
    # ------------------------------------------------------------------
    def solve(
        self,
        tdg: Tdg,
        network: Network,
        old_plan: DeploymentPlan,
        free: Sequence[str],
        paths: Optional[PathEnumerator] = None,
        candidates: Optional[Sequence[str]] = None,
    ) -> Dict[str, str]:
        """Re-home the free MATs, minimizing the same ``A_max`` as P#1.

        Returns the ``free MAT -> switch`` assignment for
        :func:`repro.plan.splice.splice_plan`; the predicted objective
        lands in :attr:`last_predicted_amax` as the splice's probe cap.

        Raises:
            DeploymentError: Infeasible or expired solve — the caller
                escalates to a full replan.
        """
        paths = paths or PathEnumerator(network)
        if not free:
            self.last_solution = None
            self.last_predicted_amax = old_plan.max_metadata_bytes()
            return {}
        handles = self.build(tdg, network, paths, old_plan, free, candidates)
        old_assignment = {
            a: old_plan.placements[a].switch
            for a in handles.free
            if a in old_plan.placements
        }
        initial = self.encode_assignment(handles, tdg, old_assignment)
        solution = BranchBoundSolver(
            time_limit_s=self.time_limit_s,
            node_limit=self.node_limit,
            presolve_cache=self.presolve_cache,
        ).solve(handles.model, initial=initial)
        self.last_solution = solution
        if not solution.status.has_solution:
            raise DeploymentError(
                f"delta solve failed: {solution.status.value}"
            )
        assignment: Dict[str, str] = {}
        for a in handles.free:
            for u in handles.candidates:
                if solution.rounded(handles.placement[(a, u)]) == 1:
                    assignment[a] = u
                    break
            else:
                raise DeploymentError(
                    f"delta solution places free MAT {a!r} nowhere"
                )
        self.last_predicted_amax = int(
            round(solution.value(handles.a_max))
        )
        return assignment

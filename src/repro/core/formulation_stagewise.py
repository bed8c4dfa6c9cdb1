"""The literal stage-granular P#1: decision variables ``x(a, i, u)``.

:mod:`repro.core.formulation` solves placement at switch granularity
and recovers stages with a list scheduler — fast, but the stage layout
is heuristic.  This module implements the paper's formulation exactly
as written, with one binary per (MAT, stage, switch):

* node deployment (Eq. 6): every MAT on exactly one stage;
* intra-switch ordering (Eq. 8): ``rho_end(a) < rho_begin(b)`` through
  a big-M linearization of the stage-index expressions;
* per-stage resource capacity (Eq. 9);
* the overhead objective (Eq. 1) through the standard product
  linearization.

The model has ``|V| * C_stage * |switches|`` binaries, so it is only
tractable for small instances — which is precisely its role here: an
oracle that certifies the scalable two-level pipeline (switch MILP +
list scheduler) loses nothing on instances small enough to check.
MATs whose demand exceeds one stage's capacity are out of scope (the
paper's spanning ``R(a, i, u)`` would need fractional spreading
variables); use the two-level pipeline for those.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.plan import DeploymentError, DeploymentPlan, MatPlacement
from repro.core.formulation import select_candidates
from repro.milp.expr import LinExpr
from repro.milp.model import Model, Var
from repro.milp.branch_bound import BranchBoundSolver
from repro.network.paths import Path, PathEnumerator
from repro.network.topology import Network
from repro.tdg.graph import Tdg


class StagewiseMilp:
    """Exact stage-granular deployment (small instances only).

    Args:
        epsilon2: Occupied-switch bound (Eq. 5).
        time_limit_s: Branch & bound budget.
        max_candidates: Candidate-switch cap.
    """

    def __init__(
        self,
        epsilon2: Optional[int] = None,
        time_limit_s: float = 120.0,
        max_candidates: Optional[int] = 3,
    ) -> None:
        self.epsilon2 = epsilon2
        self.time_limit_s = time_limit_s
        self.max_candidates = max_candidates
        self.last_solution = None

    def deploy(
        self,
        tdg: Tdg,
        network: Network,
        paths: Optional[PathEnumerator] = None,
        candidates: Optional[Sequence[str]] = None,
    ) -> DeploymentPlan:
        paths = paths or PathEnumerator(network)
        cand = list(
            candidates
            if candidates is not None
            else select_candidates(
                tdg, network, paths, self.max_candidates, self.epsilon2
            )
        )
        for u in cand:
            switch = network.switch(u)
            for mat in tdg.mats:
                if mat.resource_demand > switch.stage_capacity:
                    raise DeploymentError(
                        f"MAT {mat.name!r} (demand "
                        f"{mat.resource_demand:.2f}) exceeds one stage "
                        f"of {u!r}; stage-granular P#1 does not model "
                        "stage spanning"
                    )

        model, x, stage_count = self._build(tdg, network, cand)
        solution = BranchBoundSolver(time_limit_s=self.time_limit_s).solve(
            model
        )
        self.last_solution = solution
        if not solution.status.has_solution:
            raise DeploymentError(
                f"stagewise MILP failed: {solution.status.value}"
            )
        return self._decode(tdg, network, paths, cand, x, stage_count, solution)

    # ------------------------------------------------------------------
    def _build(
        self, tdg: Tdg, network: Network, cand: List[str]
    ) -> Tuple[Model, Dict[Tuple[str, int, str], Var], Dict[str, int]]:
        model = Model("P1_stagewise")
        mats = tdg.node_names
        stage_count = {u: network.switch(u).num_stages for u in cand}

        x: Dict[Tuple[str, int, str], Var] = {}
        for a in mats:
            for u in cand:
                for i in range(1, stage_count[u] + 1):
                    x[(a, i, u)] = model.add_binary(f"x[{a},{i},{u}]")

        # Eq. 6 (tightened to exactly-one placement).
        for a in mats:
            model.add_constr(
                LinExpr.total(
                    x[(a, i, u)]
                    for u in cand
                    for i in range(1, stage_count[u] + 1)
                )
                == 1,
                name=f"place[{a}]",
            )

        # Eq. 9: per-stage capacity.
        for u in cand:
            capacity = network.switch(u).stage_capacity
            for i in range(1, stage_count[u] + 1):
                model.add_constr(
                    LinExpr.total(
                        x[(a, i, u)] * tdg.node(a).resource_demand
                        for a in mats
                    )
                    <= capacity,
                    name=f"cap[{u},{i}]",
                )

        def on_switch(a: str, u: str) -> LinExpr:
            return LinExpr.total(
                x[(a, i, u)] for i in range(1, stage_count[u] + 1)
            )

        def stage_index(a: str, u: str) -> LinExpr:
            return LinExpr.total(
                x[(a, i, u)] * float(i)
                for i in range(1, stage_count[u] + 1)
            )

        # Eq. 8: ordering on a shared switch, big-M over co-location.
        for edge in tdg.edges:
            a, b = edge.upstream, edge.downstream
            for u in cand:
                big_m = stage_count[u] + 1
                model.add_constr(
                    stage_index(a, u) + 1
                    <= stage_index(b, u)
                    + big_m * (2 - on_switch(a, u) - on_switch(b, u)),
                    name=f"order[{a},{b},{u}]",
                )

        # Eq. 5: occupied switches.
        occ = {u: model.add_binary(f"occ[{u}]") for u in cand}
        for u in cand:
            for a in mats:
                model.add_constr(occ[u] >= on_switch(a, u))
        if self.epsilon2 is not None:
            model.add_constr(
                LinExpr.total(occ.values()) <= self.epsilon2, name="eps2"
            )

        # Eq. 1: linearized per-pair overhead max.
        a_max = model.add_var("A_max", lb=0.0)
        pair_terms: Dict[Tuple[str, str], List[LinExpr]] = {}
        for edge in tdg.edges:
            if edge.metadata_bytes <= 0:
                continue
            for u in cand:
                for v in cand:
                    if u == v:
                        continue
                    z = model.add_binary(
                        f"z[{edge.upstream},{edge.downstream},{u},{v}]"
                    )
                    model.add_constr(
                        z
                        >= on_switch(edge.upstream, u)
                        + on_switch(edge.downstream, v)
                        - 1
                    )
                    pair_terms.setdefault((u, v), []).append(
                        LinExpr.from_term(z, float(edge.metadata_bytes))
                    )
        for pair, terms in pair_terms.items():
            model.add_constr(
                a_max >= LinExpr.total(terms), name=f"amax[{pair}]"
            )
        model.minimize(a_max)
        return model, x, stage_count

    # ------------------------------------------------------------------
    def _decode(
        self,
        tdg: Tdg,
        network: Network,
        paths: PathEnumerator,
        cand: List[str],
        x: Dict[Tuple[str, int, str], Var],
        stage_count: Dict[str, int],
        solution,
    ) -> DeploymentPlan:
        placements: Dict[str, MatPlacement] = {}
        for a in tdg.node_names:
            located = None
            for u in cand:
                for i in range(1, stage_count[u] + 1):
                    if solution.rounded(x[(a, i, u)]) == 1:
                        located = MatPlacement(a, u, (i,))
            if located is None:
                raise DeploymentError(f"solver left MAT {a!r} unplaced")
            placements[a] = located
        plan = DeploymentPlan(tdg, network, placements)
        routing: Dict[Tuple[str, str], Path] = {}
        for pair in plan.pair_metadata_bytes():
            path = paths.shortest(*pair)
            if path is None:
                raise DeploymentError(f"no path for pair {pair}")
            routing[pair] = path
        plan = plan.with_routing(routing)
        plan.validate()
        return plan

"""Exact MILP solving: best-first branch & bound over LP relaxations.

Every node relaxes integrality and solves the LP with HiGHS.  The
nodes of one search differ only in variable bounds, so the search loads
its model into one HiGHS instance (scipy's bundled bindings) and per LP
changes the bounds and solves cold, which returns exactly what
``scipy.optimize.linprog`` would; when scipy lacks the bindings each LP
is a ``linprog`` call (``tests/milp/test_lp_backend.py`` holds the
two to bit-equal answers).  Fractional integral variables trigger two
child nodes (floor / ceil bound splits); nodes whose LP bound cannot
beat the incumbent are pruned.

Around the search sit three layers that shrink it without changing an
answer: a presolve pass (:mod:`repro.milp.presolve`) reduces the model
first, **pseudo-cost branching** picks branching variables from
observed LP-bound degradations instead of raw fractionality, and the
primal heuristics (:mod:`repro.milp.heuristics`) supply early
incumbents so pruning bites sooner.  The search is exact: it proves
optimality through LP bounds, and ``tests/milp/test_differential.py``
holds its answers to an exhaustive-enumeration oracle.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple, Union

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.milp import heuristics as _heuristics
from repro.milp.model import Model, Var
from repro.milp.presolve import (
    PresolveCache,
    PresolvedModel,
    PresolveStatus,
    presolve,
)
from repro.milp.solution import Solution, SolveStatus
from repro.telemetry import emit

#: Warm-start input accepted by :meth:`BranchBoundSolver.solve`: either
#: a raw assignment over the model's own variables, or a prior
#: :class:`Solution` (whose values are remapped by *variable name*, so
#: an incumbent survives the model being rebuilt between replans).
WarmStart = Union[Dict[Var, float], Solution]

_INT_TOL = 1e-6
_OBJ_TOL = 1e-9


@functools.lru_cache(maxsize=None)
def _highs_api() -> Optional[SimpleNamespace]:
    """Scipy's bundled HiGHS bindings, or None when they are missing.

    They are private, so the probe checks every name :class:`_HighsLp`
    uses.  It runs on first use, not at import.
    """
    try:
        from scipy.optimize._highspy import _core
        from scipy.optimize._linprog_highs import (
            _highs_to_scipy_status_message,
        )
        from scipy.optimize._linprog_util import _check_result

        for name in (
            "passOptions", "passModel", "changeColsBounds", "clearSolver",
            "run", "getModelStatus", "getInfo", "getSolution",
            "modelStatusToString", "solutionStatusToString",
        ):
            getattr(_core._Highs, name)
        return SimpleNamespace(
            core=_core,
            dual=_core.simplex_constants.SimplexStrategy.kSimplexStrategyDual,
            status_message=_highs_to_scipy_status_message,
            check_result=_check_result,
        )
    except (ImportError, AttributeError):
        return None


class _HighsLp:
    """One HiGHS model for every LP relaxation of a search.

    The nodes of a search differ only in column bounds, so the model is
    stacked and loaded once and each LP changes the bounds and re-runs.
    ``clearSolver`` drops the previous basis first: every LP is a cold
    solve with ``linprog``'s options, so it returns bit for bit what
    ``linprog(..., method="highs")`` returns, check of the solution
    included.  (Reusing the basis is faster but lands on other optimal
    vertices of degenerate LPs, which changes branching.)
    """

    def __init__(
        self,
        api: SimpleNamespace,
        c: np.ndarray,
        a_ub: Optional[sparse.spmatrix],
        b_ub: Optional[np.ndarray],
        a_eq: Optional[sparse.spmatrix],
        b_eq: Optional[np.ndarray],
    ) -> None:
        core = api.core
        self._api = api
        n = len(c)
        # The same stacking as linprog: empty blocks for missing rows,
        # A_ub above A_eq, and lhs <= A x <= rhs rows for HiGHS.
        b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, float)
        b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, float)
        blocks = [
            sparse.coo_array((0, n) if a is None else a, dtype=float)
            for a in (a_ub, a_eq)
        ]
        matrix = sparse.csc_array(sparse.vstack(blocks))
        self._m_ub = len(b_ub)
        self._rhs = np.concatenate((b_ub, b_eq))
        self._cols = np.arange(n, dtype=np.int32)

        model = core.HighsLp()
        model.num_col_ = n
        model.num_row_ = len(self._rhs)
        model.a_matrix_.num_col_ = n
        model.a_matrix_.num_row_ = len(self._rhs)
        model.a_matrix_.format_ = core.MatrixFormat.kColwise
        model.col_cost_ = np.asarray(c, dtype=float)
        model.col_lower_ = np.zeros(n)
        model.col_upper_ = np.zeros(n)
        model.row_lower_ = np.concatenate(
            (np.full(self._m_ub, -np.inf), b_eq)
        )
        model.row_upper_ = self._rhs
        model.a_matrix_.start_ = matrix.indptr
        model.a_matrix_.index_ = matrix.indices
        model.a_matrix_.value_ = matrix.data

        options = core.HighsOptions()
        options.presolve = "on"
        options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
        options.log_to_console = False
        options.output_flag = False
        options.simplex_strategy = api.dual
        self._highs = core._Highs()
        self._highs.passOptions(options)
        self._loaded = (
            self._highs.passModel(model) != core.HighsStatus.kError
        )

    def __call__(self, bounds: List[Tuple[float, float]]) -> SimpleNamespace:
        """Solve the LP under ``bounds``; a ``linprog``-style result."""
        api, core, highs = self._api, self._api.core, self._highs
        box = np.array(bounds, dtype=float)
        x = fun = slack = con = None
        if not self._loaded:
            status = core.HighsModelStatus.kModelError
            message = highs.modelStatusToString(status)
        else:
            highs.changeColsBounds(
                len(self._cols), self._cols, box[:, 0], box[:, 1]
            )
            highs.clearSolver()
            ran = highs.run()
            status = highs.getModelStatus()
            message = highs.modelStatusToString(status)
            # A run that errs reports the model status alone.
            if ran == core.HighsStatus.kError:
                pass
            elif status == core.HighsModelStatus.kOptimal:
                solution = highs.getSolution()
                x = np.array(solution.col_value)
                fun = highs.getInfo().objective_function_value
                residual = self._rhs - solution.row_value
                slack, con = residual[: self._m_ub], residual[self._m_ub :]
            else:
                primal = highs.getInfo().primal_solution_status
                message = (
                    f"model_status is {message}; primal_status is "
                    f"{highs.solutionStatusToString(primal)}"
                )
        # linprog's status codes and its check of the returned point.
        code, message = api.status_message(status, message)
        code, message = api.check_result(
            x, fun, code, slack, con, box, 1e-9, message, None
        )
        return SimpleNamespace(status=code, x=x, fun=fun, message=message)


def _lp_backend(
    c: np.ndarray,
    a_ub: Optional[sparse.spmatrix],
    b_ub: Optional[np.ndarray],
    a_eq: Optional[sparse.spmatrix],
    b_eq: Optional[np.ndarray],
) -> _heuristics.LpOracle:
    """The LP oracle of one search: bounds -> a ``linprog``-style result.

    A persistent :class:`_HighsLp` when scipy ships the HiGHS bindings,
    else a ``linprog`` call per LP (the same answers, rebuilt each time).
    """
    api = _highs_api()
    if api is not None:
        return _HighsLp(api, c, a_ub, b_ub, a_eq, b_eq)

    def solve(bounds: List[Tuple[float, float]]):
        return linprog(
            c,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            method="highs",
        )

    return solve


@dataclass(order=True)
class _Node:
    bound: float
    tie: int
    var_bounds: List[Tuple[float, float]] = field(compare=False)


class _PseudoCosts:
    """Per-variable branching statistics.

    For every branching on variable ``j`` at LP value ``v`` with
    fractionality ``f = v - floor(v)``, the observed LP-bound
    degradation of the floor child divided by ``f`` (respectively of
    the ceil child divided by ``1 - f``) updates the down
    (respectively up) pseudo-cost.  Unobserved directions fall back to
    the average observed pseudo-cost, the standard initialization.
    """

    def __init__(self, n: int) -> None:
        self._sums = [[0.0] * n, [0.0] * n]  # [down, up]
        self._counts = [[0] * n, [0] * n]
        self.observations = 0

    def update(self, idx: int, up: bool, degradation: float) -> None:
        side = 1 if up else 0
        self._sums[side][idx] += max(degradation, 0.0)
        self._counts[side][idx] += 1
        self.observations += 1

    def reliable(self, idx: int) -> bool:
        """Whether ``idx`` has been observed in both directions."""
        return bool(self._counts[0][idx] and self._counts[1][idx])

    def _average(self) -> float:
        total = sum(self._sums[0]) + sum(self._sums[1])
        count = sum(self._counts[0]) + sum(self._counts[1])
        return total / count if count else 1.0

    def score(self, idx: int, frac: float) -> float:
        """The product score of branching on ``idx`` (higher = better)."""
        fallback = self._average()
        down = (
            self._sums[0][idx] / self._counts[0][idx]
            if self._counts[0][idx]
            else fallback
        )
        up = (
            self._sums[1][idx] / self._counts[1][idx]
            if self._counts[1][idx]
            else fallback
        )
        eps = 1e-6
        return max(down * frac, eps) * max(up * (1.0 - frac), eps)


class BranchBoundSolver:
    """Exact solver for :class:`~repro.milp.model.Model` instances.

    Args:
        time_limit_s: Wall-clock budget; on expiry the best incumbent is
            returned with status FEASIBLE (or TIME_LIMIT if none).
        node_limit: Hard cap on explored nodes.
        gap_tolerance: Relative gap at which the search may stop early.

    Telemetry: when a sink is attached via :mod:`repro.telemetry`, the
    solver emits one ``solver.lp`` event per LP relaxation solved, one
    ``solver.node`` per explored node, ``solver.prune`` on every pruned
    node/child, ``solver.incumbent`` (with objective, bound and
    relative gap) whenever the incumbent improves, and a final
    ``solver.done`` carrying the :meth:`Solution.summary`.  Event
    counts therefore match ``Solution.lp_solves`` and
    ``Solution.nodes_explored`` exactly, and the gap values across the
    ``solver.incumbent`` stream trace the convergence trajectory
    (monotone non-increasing: the proven gap only ever shrinks, so an
    emitted gap is clamped by its predecessor when the relative
    normalization would otherwise bounce it upward).  The solver also
    emits ``solver.presolve`` (model reduction), ``solver.branching``
    (per branching decision) and ``solver.heuristic`` (per heuristic
    attempt) events, and heuristic incumbents carry
    ``source="heuristic"``.  Without a sink every emit is a no-op.
    """

    def __init__(
        self,
        time_limit_s: float = 300.0,
        node_limit: int = 200_000,
        gap_tolerance: float = 1e-6,
        presolve_cache: Optional[PresolveCache] = None,
    ) -> None:
        if time_limit_s <= 0:
            raise ValueError("time_limit_s must be positive")
        self.time_limit_s = time_limit_s
        self.node_limit = node_limit
        self.gap_tolerance = gap_tolerance
        #: Optional cross-solve presolve memo: when consecutive solves
        #: see structurally identical models (the reconciler's replan
        #: loop), the reduction is reused via
        #: :meth:`PresolveCache.fetch` instead of recomputed.
        self.presolve_cache = presolve_cache

    # ------------------------------------------------------------------
    def solve(
        self,
        model: Model,
        initial: Optional[WarmStart] = None,
    ) -> Solution:
        """Solve ``model``; ``initial`` optionally warm-starts the search.

        Presolve reduces the model, the search solves the reduction,
        and the answer is lifted back onto ``model``'s variables.  A
        feasible ``initial`` assignment becomes the first incumbent,
        so the search starts with a pruning bound instead of hunting
        for one; an infeasible assignment is silently ignored.  A prior
        :class:`Solution` is accepted directly: its values are remapped
        onto ``model``'s variables by name, so an incumbent from the
        previous replan survives the model being rebuilt (names the new
        model lacks are dropped; variables the solution lacks default
        to their encoding's zero).
        """
        start = time.perf_counter()
        warm = self._coerce_initial(model, initial)
        pres = (
            self.presolve_cache.fetch(model)
            if self.presolve_cache is not None
            else presolve(model)
        )
        if pres.status == PresolveStatus.INFEASIBLE:
            solution = Solution(
                SolveStatus.INFEASIBLE,
                wall_time_s=time.perf_counter() - start,
            )
        elif pres.status == PresolveStatus.SOLVED:
            solution = self._solved_by_presolve(model, pres, start)
        else:
            projected = (
                pres.project_values(warm) if warm is not None else None
            )
            inner = self._search(pres.model, projected, start)
            solution = Solution(
                inner.status,
                objective=(
                    inner.objective + pres.objective_offset
                    if inner.objective is not None
                    else None
                ),
                values=(
                    pres.lift_values(inner.values)
                    if inner.status.has_solution
                    else inner.values
                ),
                nodes_explored=inner.nodes_explored,
                lp_solves=inner.lp_solves,
                wall_time_s=time.perf_counter() - start,
                gap=inner.gap,
            )
        emit("solver.done", **solution.summary())
        return solution

    @staticmethod
    def _coerce_initial(
        model: Model, initial: Optional[WarmStart]
    ) -> Optional[Dict[Var, float]]:
        """Normalize a warm start onto ``model``'s own variables."""
        if initial is None or not isinstance(initial, Solution):
            return initial
        if not initial.status.has_solution:
            return None
        remapped: Dict[Var, float] = {}
        for var, value in initial.values.items():
            try:
                remapped[model.var(var.name)] = value
            except KeyError:
                continue
        return remapped or None

    @staticmethod
    def _solved_by_presolve(
        model: Model, pres: PresolvedModel, start: float
    ) -> Solution:
        """The answer when presolve fixed every variable."""
        values = dict(pres.fixed)
        if not model.is_feasible(values):  # pragma: no cover - guard
            return Solution(
                SolveStatus.INFEASIBLE,
                wall_time_s=time.perf_counter() - start,
            )
        emit(
            "solver.incumbent",
            source="presolve",
            objective=pres.objective_offset,
            bound=pres.objective_offset,
            gap=0.0,
        )
        return Solution(
            SolveStatus.OPTIMAL,
            objective=pres.objective_offset,
            values=values,
            wall_time_s=time.perf_counter() - start,
            gap=0.0,
        )

    # ------------------------------------------------------------------
    def _search(
        self,
        model: Model,
        initial: Optional[Dict[Var, float]],
        start: float,
    ) -> Solution:
        """The branch & bound search itself, on the presolved model."""
        c, a_ub, b_ub, a_eq, b_eq, root_bounds = model.to_arrays()
        int_indices = [v.index for v in model.variables if v.is_integral]
        sign = -1.0 if model.maximize_objective else 1.0

        lbs = np.array([b[0] for b in root_bounds])
        ubs = np.array([b[1] for b in root_bounds])
        int_mask = np.zeros(len(root_bounds), dtype=bool)
        int_mask[int_indices] = True

        def feasible(x: np.ndarray, tol: float = 1e-6) -> bool:
            """Vectorized feasibility of a candidate point."""
            if ((x < lbs - tol) | (x > ubs + tol)).any():
                return False
            if int_mask.any():
                xi = x[int_mask]
                if (np.abs(xi - np.round(xi)) > tol).any():
                    return False
            if a_ub is not None and (a_ub @ x > b_ub + tol).any():
                return False
            if a_eq is not None and (np.abs(a_eq @ x - b_eq) > tol).any():
                return False
            return True

        lp_solves = 0
        nodes_explored = 0
        incumbent: Optional[np.ndarray] = None
        incumbent_obj = math.inf  # in minimize space
        last_gap: Optional[float] = None

        def emit_incumbent(
            source: str,
            obj: float,
            bound: Optional[float],
            **extra: object,
        ) -> None:
            """Report an improved incumbent; gaps are clamped monotone
            (the proven gap only shrinks — a relative-gap bounce from
            the shrinking denominator is a normalization artifact, not
            a loosened proof)."""
            nonlocal last_gap
            gap = (
                self._relative_gap(obj, bound)
                if bound is not None
                else None
            )
            if gap is not None:
                if last_gap is not None:
                    gap = min(gap, last_gap)
                last_gap = gap
            emit(
                "solver.incumbent",
                source=source,
                objective=sign * obj,
                bound=sign * bound if bound is not None else None,
                gap=gap,
                **extra,
            )

        if initial is not None:
            candidate = np.zeros(len(model.variables))
            for var in model.variables:
                candidate[var.index] = float(initial.get(var, 0.0))
            for idx in int_indices:
                candidate[idx] = round(candidate[idx])
            if feasible(candidate):
                incumbent = candidate
                incumbent_obj = float(c @ candidate)
                emit_incumbent("warm_start", incumbent_obj, None)

        solve_lp = _lp_backend(c, a_ub, b_ub, a_eq, b_eq)

        def lp(bounds: List[Tuple[float, float]]):
            nonlocal lp_solves
            lp_solves += 1
            emit("solver.lp")
            return solve_lp(bounds)

        root = lp(root_bounds)
        if root.status == 2:
            return Solution(
                SolveStatus.INFEASIBLE,
                lp_solves=lp_solves,
                wall_time_s=time.perf_counter() - start,
            )
        if root.status == 3:
            return Solution(
                SolveStatus.UNBOUNDED,
                lp_solves=lp_solves,
                wall_time_s=time.perf_counter() - start,
            )
        if root.status != 0:  # pragma: no cover - numerical trouble
            raise RuntimeError(f"LP solver failed: {root.message}")

        deadline = start + self.time_limit_s

        # Root dive: fix near-integral variables one at a time to seed
        # an incumbent early — essential for models whose LP relaxation
        # is weak (e.g. min-switch-count objectives).
        dive = _heuristics.bounded_dive(
            lp,
            root.x,
            root_bounds,
            int_indices,
            feasible,
            c,
            deadline,
            sign=sign,
        )
        if dive is not None and dive[1] < incumbent_obj:
            incumbent, incumbent_obj = dive
            emit_incumbent(
                "heuristic", incumbent_obj, root.fun, heuristic="diving"
            )

        tie = itertools.count()
        heap: List[_Node] = [_Node(root.fun, next(tie), root_bounds)]
        # Cache the root LP solution so the first pop skips a re-solve.
        cached: Dict[int, Tuple[np.ndarray, float]] = {
            id(root_bounds): (root.x, root.fun)
        }

        pseudo = _PseudoCosts(len(root_bounds))
        best_bound = root.fun
        timed_out = False

        while heap:
            if time.perf_counter() - start > self.time_limit_s:
                timed_out = True
                break
            if nodes_explored >= self.node_limit:
                timed_out = True
                break
            node = heapq.heappop(heap)
            if node.bound >= incumbent_obj - _OBJ_TOL:
                # Pruned: cannot improve the incumbent.
                emit("solver.prune", where="pop", bound=sign * node.bound)
                continue
            best_bound = min(node.bound, incumbent_obj)

            hit = cached.pop(id(node.var_bounds), None)
            if hit is not None:
                x, obj = hit
            else:
                res = lp(node.var_bounds)
                if res.status != 0:
                    # Infeasible/unbounded subproblem.
                    emit("solver.prune", where="node_infeasible")
                    continue
                x, obj = res.x, res.fun
            nodes_explored += 1
            emit("solver.node", bound=sign * obj)
            if obj >= incumbent_obj - _OBJ_TOL:
                emit("solver.prune", where="node_bound", bound=sign * obj)
                continue

            frac_var = self._select_branch_var(x, int_indices, pseudo)
            if frac_var is None:
                # Integral LP optimum: new incumbent.
                incumbent = x.copy()
                incumbent_obj = obj
                emit_incumbent("node", incumbent_obj, best_bound)
                continue

            # Periodic dive while no incumbent exists: weak relaxations
            # can otherwise branch for the whole budget without ever
            # reaching an integral vertex.
            if incumbent is None and nodes_explored % 50 == 1:
                dived = _heuristics.bounded_dive(
                    lp,
                    x,
                    node.var_bounds,
                    int_indices,
                    feasible,
                    c,
                    deadline,
                    sign=sign,
                )
                if dived is not None:
                    incumbent, incumbent_obj = dived
                    emit_incumbent(
                        "heuristic",
                        incumbent_obj,
                        best_bound,
                        heuristic="diving",
                    )

            # Rounding heuristic: snap integral vars, re-check.
            rounded = _heuristics.round_to_feasible(
                x, int_indices, feasible, c, sign=sign
            )
            if rounded is not None:
                r_obj = float(c @ rounded)
                if r_obj < incumbent_obj - _OBJ_TOL:
                    incumbent = rounded
                    incumbent_obj = r_obj
                    emit_incumbent(
                        "heuristic",
                        incumbent_obj,
                        best_bound,
                        heuristic="rounding",
                    )

            value = x[frac_var]
            frac = value - math.floor(value)
            for child_up, (lo, hi) in (
                (False, (node.var_bounds[frac_var][0], math.floor(value))),
                (True, (math.ceil(value), node.var_bounds[frac_var][1])),
            ):
                if lo > hi:
                    continue
                child_bounds = list(node.var_bounds)
                child_bounds[frac_var] = (float(lo), float(hi))
                res = lp(child_bounds)
                if res.status != 0:
                    emit("solver.prune", where="child_infeasible")
                    continue
                width = (1.0 - frac) if child_up else frac
                if width > _INT_TOL:
                    pseudo.update(frac_var, child_up, (res.fun - obj) / width)
                if res.fun >= incumbent_obj - _OBJ_TOL:
                    emit(
                        "solver.prune",
                        where="child_bound",
                        bound=sign * res.fun,
                    )
                    continue
                child = _Node(res.fun, next(tie), child_bounds)
                cached[id(child_bounds)] = (res.x, res.fun)
                heapq.heappush(heap, child)

        wall = time.perf_counter() - start
        if incumbent is None:
            status = (
                SolveStatus.TIME_LIMIT if timed_out else SolveStatus.INFEASIBLE
            )
            return Solution(
                status,
                nodes_explored=nodes_explored,
                lp_solves=lp_solves,
                wall_time_s=wall,
            )

        values = {
            var: (
                float(round(incumbent[var.index]))
                if var.is_integral
                else float(incumbent[var.index])
            )
            for var in model.variables
        }
        status = (
            SolveStatus.FEASIBLE
            if timed_out and heap
            else SolveStatus.OPTIMAL
        )
        # Gap invariant: an exhausted search proved optimality, so the
        # gap is exactly 0.0 (never None) on OPTIMAL; a truncated
        # search reports the true incumbent-vs-bound gap (clamped by
        # the emitted trajectory, which is itself a valid proven gap),
        # a finite float whenever an incumbent exists (the root LP
        # bound is finite).
        if status is SolveStatus.OPTIMAL:
            gap = 0.0
        else:
            gap = self._relative_gap(incumbent_obj, best_bound)
            if gap is not None and last_gap is not None:
                gap = min(gap, last_gap)
        return Solution(
            status,
            objective=sign * incumbent_obj,
            values=values,
            nodes_explored=nodes_explored,
            lp_solves=lp_solves,
            wall_time_s=wall,
            gap=gap,
        )

    # ------------------------------------------------------------------
    def _select_branch_var(
        self,
        x: np.ndarray,
        int_indices: List[int],
        pseudo: _PseudoCosts,
    ) -> Optional[int]:
        """Pick the branching variable, or None if ``x`` is integral.

        Reliability branching: most-fractional among variables not yet
        observed in both directions (initializing their statistics),
        then the best product score of up/down pseudo-costs once every
        fractional candidate is reliable.  Each decision emits one
        ``solver.branching`` event.
        """
        # Reliability rule: while any fractional variable still lacks
        # observations in either direction, branch most-fractional
        # among the unreliable ones — the branching itself gathers the
        # missing statistics.  Trusting a half-empty pseudo-cost table
        # (average-initialized) measurably degrades assignment-style
        # models, where early observations mislead the product score.
        unreliable_idx: Optional[int] = None
        unreliable_dist = _INT_TOL
        best_idx: Optional[int] = None
        best_key: Optional[Tuple[float, float]] = None
        for idx in int_indices:
            frac = x[idx] - math.floor(x[idx])
            dist = abs(x[idx] - round(x[idx]))
            if dist <= _INT_TOL:
                continue
            if not pseudo.reliable(idx):
                if dist > unreliable_dist:
                    unreliable_dist = dist
                    unreliable_idx = idx
                continue
            key = (pseudo.score(idx, frac), dist)
            if best_key is None or key > best_key:
                best_key = key
                best_idx = idx
        if unreliable_idx is not None:
            emit(
                "solver.branching",
                rule="most_fractional",
                var=unreliable_idx,
                frac=unreliable_dist,
            )
            return unreliable_idx
        if best_idx is not None:
            emit(
                "solver.branching",
                rule="pseudo_cost",
                var=best_idx,
                frac=abs(x[best_idx] - round(x[best_idx])),
                score=best_key[0],
            )
        return best_idx

    @staticmethod
    def _relative_gap(incumbent: float, bound: float) -> Optional[float]:
        """Relative incumbent-vs-bound gap in minimize space.

        The bound is a valid lower bound, so the numerator clamps at
        zero — a bound that numerically overshoots the incumbent proves
        a zero gap, not a negative one.
        """
        if math.isinf(bound):
            return None
        denom = max(abs(incumbent), 1e-9)
        return max(incumbent - bound, 0.0) / denom


def solve(model: Model, time_limit_s: float = 300.0) -> Solution:
    """Convenience wrapper: solve ``model`` with default settings."""
    return BranchBoundSolver(time_limit_s=time_limit_s).solve(model)

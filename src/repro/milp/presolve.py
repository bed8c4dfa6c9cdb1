"""Presolve: shrink an MILP before branch & bound touches it.

Real solvers spend a fixed-point loop up front fixing variables,
tightening bounds and deleting constraints that can never bind; on the
deployment models of this repo (P#1 and the baseline ILPs) that loop
removes a meaningful share of the binaries the product linearization
introduces, which shrinks every LP the search solves and cuts the node
count.  The pass here implements the standard safe subset:

* **Integer bound rounding** — an integral variable's bounds snap to
  ``ceil(lb)`` / ``floor(ub)``.
* **Singleton rows** — a constraint over one variable is exactly a
  bound; it moves into the bound and the row disappears.
* **Activity-based redundancy / infeasibility** — a row whose maximum
  activity cannot exceed its right-hand side never binds and is
  dropped; a row whose minimum activity already exceeds it proves the
  model infeasible.
* **Implied integer bounds** — for each row and each integral variable
  in it, the residual activity of the other variables implies a bound,
  which is rounded and applied.  Only integral variables are tightened
  this way, so floating-point rounding can never cut off a continuous
  optimum.
* **Fixed-variable substitution** — a variable whose bounds coincide is
  substituted into every row and into the objective, accumulating a
  constant objective offset.

Everything is *conservative*: bounds only tighten, no transformation
can exclude an integer-feasible point of the original model, and the
:class:`PresolvedModel` transform maps reduced solutions back to
original variables exactly (fixed variables return their fixed values
verbatim).  The property tests in
``tests/milp/test_presolve_properties.py`` pin these invariants.

One ``solver.presolve`` telemetry event per :func:`presolve` call
reports the reduction (see :mod:`repro.telemetry`).
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.milp.expr import LinExpr
from repro.milp.model import Constraint, Model, Sense, Var
from repro.telemetry import emit

#: Integrality tolerance shared with the branch & bound solver.
_INT_TOL = 1e-6
#: Feasibility slack for activity arguments; matches the solver's own
#: feasibility checks so presolve never declares infeasible a point the
#: search would have accepted.
_FEAS_TOL = 1e-6
#: Rounding slack applied before ceil/floor so that 2.9999999996
#: counts as the integer 3.
_ROUND_TOL = 1e-7


class PresolveStatus:
    """Terminal state of a presolve pass (plain strings, not an enum,
    so telemetry payloads stay JSON-trivial)."""

    REDUCED = "reduced"  # a (possibly smaller) model remains to solve
    SOLVED = "solved"  # every variable was fixed; nothing left to solve
    INFEASIBLE = "infeasible"  # proven infeasible during presolve


@dataclass
class PresolveStats:
    """Counters describing one presolve pass."""

    rounds: int = 0
    fixed_vars: int = 0
    tightened_bounds: int = 0
    removed_constraints: int = 0

    def as_payload(self) -> Dict[str, int]:
        return {
            "rounds": self.rounds,
            "fixed": self.fixed_vars,
            "tightened": self.tightened_bounds,
            "removed": self.removed_constraints,
        }


@dataclass
class PresolvedModel:
    """Outcome of :func:`presolve`: the reduced model plus the exact
    transform back to the original variable space.

    Attributes:
        original: The model that was presolved (never mutated).
        model: The reduced model, or None when ``status`` is SOLVED or
            INFEASIBLE.
        status: One of :class:`PresolveStatus`.
        fixed: Original variables fixed during presolve, with values.
        var_map: Original variable -> its counterpart in ``model``
            (free variables only).
        objective_offset: Contribution of the fixed variables to the
            original objective's *linear terms*, in the model's own
            sense; add it to the reduced model's objective value to
            recover the original objective.  (Like the solver itself,
            the offset ignores any constant term of the objective
            expression.)
        stats: Reduction counters.
    """

    original: Model
    model: Optional[Model]
    status: str
    fixed: Dict[Var, float] = field(default_factory=dict)
    var_map: Dict[Var, Var] = field(default_factory=dict)
    objective_offset: float = 0.0
    stats: PresolveStats = field(default_factory=PresolveStats)

    def lift_values(
        self, reduced_values: Dict[Var, float]
    ) -> Dict[Var, float]:
        """Map a reduced-model assignment back onto original variables.

        Fixed variables round-trip exactly (their stored values are
        returned verbatim); free variables take the reduced solution's
        value of their mapped counterpart.
        """
        lifted: Dict[Var, float] = dict(self.fixed)
        for orig, reduced in self.var_map.items():
            lifted[orig] = reduced_values[reduced]
        return lifted

    def project_values(
        self, original_values: Dict[Var, float]
    ) -> Dict[Var, float]:
        """Map an original-space assignment into the reduced space
        (e.g. to warm-start the reduced solve).  Fixed variables drop
        out — their values are already decided."""
        return {
            reduced: original_values[orig]
            for orig, reduced in self.var_map.items()
            if orig in original_values
        }

    def rebind(self, model: Model) -> "PresolvedModel":
        """Retarget this reduction at a structurally identical model.

        Consecutive replans of the same deployment instance rebuild the
        model object from scratch; when the rebuild is structurally
        identical (same :func:`model_signature`), the presolve outcome
        is identical too and only the ``Var`` identities differ.  The
        fixed-value and free-variable maps are re-keyed by variable
        index onto ``model``'s own objects, so :meth:`lift_values` /
        :meth:`project_values` speak the new model's vocabulary.  The
        reduced model is shared — the solver never mutates it.
        """
        if len(model.variables) != len(self.original.variables):
            raise ValueError(
                "rebind target has a different variable count: "
                f"{len(model.variables)} != {len(self.original.variables)}"
            )
        variables = model.variables
        return PresolvedModel(
            original=model,
            model=self.model,
            status=self.status,
            fixed={
                variables[var.index]: value
                for var, value in self.fixed.items()
            },
            var_map={
                variables[var.index]: reduced
                for var, reduced in self.var_map.items()
            },
            objective_offset=self.objective_offset,
            stats=self.stats,
        )


def model_signature(model: Model) -> str:
    """Structural hash of a model: bounds, rows, and objective.

    Two models with equal signatures are the *same instance* up to
    ``Var`` object identity — same variable names/types/bounds in the
    same order, same constraint coefficients/senses/right-hand sides,
    same objective — so a presolve computed for one is valid for the
    other via :meth:`PresolvedModel.rebind`.
    """
    digest = hashlib.sha256()
    for var in model.variables:
        digest.update(
            f"v|{var.name}|{var.var_type.value}|{var.lb!r}|{var.ub!r}\n".encode()
        )
    for constraint in model.constraints:
        row = sorted(
            (var.index, coef)
            for var, coef in constraint.expr.coefs.items()
        )
        digest.update(
            f"c|{constraint.sense.value}|{constraint.expr.constant!r}|{row!r}\n".encode()
        )
    objective = sorted(
        (var.index, coef) for var, coef in model.objective.coefs.items()
    )
    digest.update(
        f"o|{model.maximize_objective}|{model.objective.constant!r}|{objective!r}".encode()
    )
    return digest.hexdigest()


class PresolveCache:
    """Reuses presolve output across structurally identical models.

    The reconciler's warm path re-solves the same deployment instance
    after every churn event; the model is rebuilt each time, but its
    structure rarely changes between consecutive replans.  Keyed by
    :func:`model_signature`, the cache returns the memoized reduction
    (rebound onto the fresh model's variables) instead of re-running
    the fixed-point loop.  Entries evict LRU past ``max_entries``.

    Emits one ``solver.presolve.cache`` telemetry event per lookup.
    """

    def __init__(self, max_entries: int = 8) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[str, PresolvedModel]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def fetch(self, model: Model, max_rounds: int = 10) -> PresolvedModel:
        """The presolve of ``model``, memoized by structure."""
        signature = model_signature(model)
        cached = self._entries.get(signature)
        if cached is not None:
            self.hits += 1
            self._entries.move_to_end(signature)
            emit(
                "solver.presolve.cache",
                hit=True,
                signature=signature[:12],
                hits=self.hits,
                misses=self.misses,
            )
            return cached.rebind(model)
        self.misses += 1
        emit(
            "solver.presolve.cache",
            hit=False,
            signature=signature[:12],
            hits=self.hits,
            misses=self.misses,
        )
        result = presolve(model, max_rounds=max_rounds)
        self._entries[signature] = result
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return result


# Internal row form: ``(coefs by original var index, sense, rhs)``
# meaning ``sum coef * x  <sense>  rhs``; GE rows are flipped into LE
# at entry, so only LE and EQ survive.
_Row = Tuple[Dict[int, float], Sense, float]


class _Reduction:
    """Mutable working state of one presolve run."""

    def __init__(self, model: Model) -> None:
        self.model = model
        self.lbs = [v.lb for v in model.variables]
        self.ubs = [v.ub for v in model.variables]
        self.integral = [v.is_integral for v in model.variables]
        self.fixed: Dict[int, float] = {}
        self.stats = PresolveStats()
        self.rows: List[_Row] = []
        for constraint in model.constraints:
            coefs = {
                var.index: coef
                for var, coef in constraint.expr.coefs.items()
                if coef != 0.0
            }
            rhs = -constraint.expr.constant
            if constraint.sense is Sense.GE:
                coefs = {i: -c for i, c in coefs.items()}
                self.rows.append((coefs, Sense.LE, -rhs))
            else:
                self.rows.append((coefs, constraint.sense, rhs))

    # ------------------------------------------------------------------
    def tighten(
        self, idx: int, lo: Optional[float], hi: Optional[float]
    ) -> bool:
        """Apply new bounds to ``idx``; False means lb > ub (infeasible)."""
        if lo is not None and lo > self.lbs[idx] + 1e-12:
            self.lbs[idx] = lo
            self.stats.tightened_bounds += 1
        if hi is not None and hi < self.ubs[idx] - 1e-12:
            self.ubs[idx] = hi
            self.stats.tightened_bounds += 1
        return self.lbs[idx] <= self.ubs[idx] + _FEAS_TOL

    def round_integer_bounds(self, idx: int) -> bool:
        if not self.integral[idx]:
            return True
        lo, hi = self.lbs[idx], self.ubs[idx]
        if not math.isinf(lo):
            self.lbs[idx] = float(math.ceil(lo - _ROUND_TOL))
        if not math.isinf(hi):
            self.ubs[idx] = float(math.floor(hi + _ROUND_TOL))
        return self.lbs[idx] <= self.ubs[idx] + _FEAS_TOL

    def min_max_activity(
        self, coefs: Dict[int, float]
    ) -> Tuple[float, float]:
        lo = 0.0
        hi = 0.0
        for idx, coef in coefs.items():
            if coef > 0:
                lo += coef * self.lbs[idx]
                hi += coef * self.ubs[idx]
            else:
                lo += coef * self.ubs[idx]
                hi += coef * self.lbs[idx]
        return lo, hi

    def implied_integer_bounds(
        self, coefs: Dict[int, float], rhs: float
    ) -> bool:
        """Tighten integral variables of one LE row ``coefs <= rhs``.

        For variable ``j``: ``a_j x_j <= rhs - min_activity(others)``,
        and the division result rounds safely because the domain is
        integral.  Returns False on proven infeasibility.
        """
        lo, _hi = self.min_max_activity(coefs)
        if math.isinf(lo):
            return True
        for idx, coef in coefs.items():
            if not self.integral[idx]:
                continue
            own_min = (
                coef * self.lbs[idx] if coef > 0 else coef * self.ubs[idx]
            )
            slack = rhs - (lo - own_min)
            if coef > 0:
                implied = float(math.floor(slack / coef + _ROUND_TOL))
                ok = self.tighten(idx, None, implied)
            else:
                implied = float(math.ceil(slack / coef - _ROUND_TOL))
                ok = self.tighten(idx, implied, None)
            if not ok:
                return False
        return True


def presolve(model: Model, max_rounds: int = 10) -> PresolvedModel:
    """Run the presolve loop on ``model`` and return the reduction.

    The input model is never mutated.  Emits one ``solver.presolve``
    telemetry event describing the reduction.
    """
    red = _Reduction(model)
    n = len(model.variables)

    def finish(result: PresolvedModel) -> PresolvedModel:
        reduced_model = result.model
        emit(
            "solver.presolve",
            status=result.status,
            vars=n,
            reduced_vars=(
                reduced_model.num_vars if reduced_model is not None else 0
            ),
            constraints=len(model.constraints),
            reduced_constraints=(
                reduced_model.num_constraints
                if reduced_model is not None
                else 0
            ),
            **result.stats.as_payload(),
        )
        return result

    def infeasible() -> PresolvedModel:
        return finish(
            PresolvedModel(
                original=model,
                model=None,
                status=PresolveStatus.INFEASIBLE,
                stats=red.stats,
            )
        )

    for idx in range(n):
        if not red.round_integer_bounds(idx):
            return infeasible()

    for _round in range(max_rounds):
        red.stats.rounds = _round + 1
        changed = False

        # Fix variables whose bounds have collapsed and substitute
        # them out of every row.  (Integral bounds are exact integers
        # after rounding, so equality there is exact; continuous
        # variables need genuinely coincident bounds.)
        newly_fixed = False
        for idx in range(n):
            if idx in red.fixed:
                continue
            width = red.ubs[idx] - red.lbs[idx]
            collapsed = (
                width <= _INT_TOL if red.integral[idx] else width <= 1e-12
            )
            if collapsed:
                value = red.lbs[idx]
                if red.integral[idx]:
                    value = float(round(value))
                red.fixed[idx] = value
                newly_fixed = True
        if newly_fixed:
            red.stats.fixed_vars = len(red.fixed)
            changed = True
            substituted: List[_Row] = []
            for coefs, sense, rhs in red.rows:
                if any(i in red.fixed for i in coefs):
                    coefs = dict(coefs)
                    for i in list(coefs):
                        if i in red.fixed:
                            rhs -= coefs.pop(i) * red.fixed[i]
                substituted.append((coefs, sense, rhs))
            red.rows = substituted

        kept: List[_Row] = []
        for coefs, sense, rhs in red.rows:
            # Empty rows are pure feasibility checks.
            if not coefs:
                if sense is Sense.LE and 0.0 > rhs + _FEAS_TOL:
                    return infeasible()
                if sense is Sense.EQ and abs(rhs) > _FEAS_TOL:
                    return infeasible()
                red.stats.removed_constraints += 1
                changed = True
                continue

            # Singleton rows are exactly bounds.
            if len(coefs) == 1:
                ((idx, coef),) = coefs.items()
                bound = rhs / coef
                if sense is Sense.EQ:
                    ok = red.tighten(idx, bound, bound)
                elif coef > 0:
                    ok = red.tighten(idx, None, bound)
                else:
                    ok = red.tighten(idx, bound, None)
                if ok:
                    ok = red.round_integer_bounds(idx)
                if not ok:
                    return infeasible()
                red.stats.removed_constraints += 1
                changed = True
                continue

            lo, hi = red.min_max_activity(coefs)
            if sense is Sense.LE:
                if lo > rhs + _FEAS_TOL:
                    return infeasible()
                if hi <= rhs + _FEAS_TOL:
                    red.stats.removed_constraints += 1
                    changed = True
                    continue
                if not red.implied_integer_bounds(coefs, rhs):
                    return infeasible()
            else:  # EQ: both activity directions must reach rhs.
                if lo > rhs + _FEAS_TOL or hi < rhs - _FEAS_TOL:
                    return infeasible()
                if hi - lo <= _FEAS_TOL:
                    red.stats.removed_constraints += 1
                    changed = True
                    continue
                flipped = {i: -c for i, c in coefs.items()}
                if not red.implied_integer_bounds(coefs, rhs):
                    return infeasible()
                if not red.implied_integer_bounds(flipped, -rhs):
                    return infeasible()
            kept.append((coefs, sense, rhs))
        red.rows = kept
        if not changed:
            break

    # ------------------------------------------------------------------
    # Rebuild the reduced model.
    # ------------------------------------------------------------------
    objective_offset = sum(
        coef * red.fixed[var.index]
        for var, coef in model.objective.coefs.items()
        if var.index in red.fixed
    )
    fixed_vars = {
        v: red.fixed[v.index] for v in model.variables if v.index in red.fixed
    }
    free = [v for v in model.variables if v.index not in red.fixed]

    if not free:
        return finish(
            PresolvedModel(
                original=model,
                model=None,
                status=PresolveStatus.SOLVED,
                fixed=fixed_vars,
                objective_offset=objective_offset,
                stats=red.stats,
            )
        )

    reduced = Model(f"{model.name}/presolved")
    var_map: Dict[Var, Var] = {}
    for var in free:
        var_map[var] = reduced.add_var(
            var.name,
            lb=red.lbs[var.index],
            ub=red.ubs[var.index],
            var_type=var.var_type,
        )
    index_map = {var.index: var_map[var] for var in free}

    for coefs, sense, rhs in red.rows:
        expr = LinExpr({index_map[i]: c for i, c in coefs.items()}, -rhs)
        reduced.constraints.append(Constraint(expr, sense))

    objective = LinExpr(
        {
            var_map[var]: coef
            for var, coef in model.objective.coefs.items()
            if var.index not in red.fixed
        },
        model.objective.constant + objective_offset,
    )
    if model.maximize_objective:
        reduced.maximize(objective)
    else:
        reduced.minimize(objective)

    return finish(
        PresolvedModel(
            original=model,
            model=reduced,
            status=PresolveStatus.REDUCED,
            fixed=fixed_vars,
            var_map=var_map,
            objective_offset=objective_offset,
            stats=red.stats,
        )
    )

"""Shared machinery for the solver's differential test suites.

Three pieces:

* :func:`enumerate_solution` / :func:`enumerate_oracle` — the trusted
  reference: exhaustive enumeration of every integral assignment of a
  small pure-integer model, returning an optimal assignment or its
  objective.  It shares no code with the branch & bound solver (it
  never solves an LP), so agreement between the two is genuine
  evidence.
* :func:`random_milp` — a seeded generator of small pure-integer
  models (<= 8 variables, bounded domains) spanning minimize and
  maximize senses, <=/>=/== constraints, negative bounds and a
  deliberate mix of feasible and infeasible instances.
* :class:`ClassicSearch` — the solver's branch & bound loop in its
  historical configuration (no presolve, most-fractional branching),
  a second search the shipped one must agree with.  It runs the loop
  on models exactly as written, which presolve would otherwise
  reduce before the search sees them.  :data:`PROFILES` names the two
  searches and :func:`solve_as` runs either.

Both the differential tests and the Hypothesis presolve properties
import from here, so the oracle and the instance distribution are
pinned in exactly one place.
"""

import itertools
import math
import random
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.milp.branch_bound import _INT_TOL, BranchBoundSolver
from repro.milp.expr import LinExpr
from repro.milp.model import Model, Var
from repro.milp.solution import Solution
from repro.telemetry import emit

#: Cap on the enumeration grid; the generator shrinks domains to stay
#: under it so the oracle stays sub-second per instance.
MAX_GRID = 6000

_FEAS_TOL = 1e-9


def _enumerate(model: Model) -> Optional[Tuple[float, np.ndarray]]:
    """``(objective in minimize space, point)`` of the first optimum in
    enumeration order, or ``None`` when nothing is feasible."""
    c, a_ub, b_ub, a_eq, b_eq, bounds = model.to_arrays()
    for var, (lo, hi) in zip(model.variables, bounds):
        if not var.is_integral or math.isinf(lo) or math.isinf(hi):
            raise ValueError(
                f"oracle needs bounded integer vars, got {var.name!r}"
            )
    ranges = [
        range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in bounds
    ]
    best = None  # in minimize space (to_arrays negates maximization)
    for combo in itertools.product(*ranges):
        x = np.asarray(combo, dtype=float)
        if a_ub is not None and (a_ub @ x > b_ub + _FEAS_TOL).any():
            continue
        if a_eq is not None and (np.abs(a_eq @ x - b_eq) > _FEAS_TOL).any():
            continue
        value = float(c @ x)
        if best is None or value < best[0]:
            best = (value, x)
    return best


def enumerate_oracle(model: Model) -> Optional[float]:
    """Optimal objective of a small pure-integer model, by brute force.

    Returns the optimum in the model's own sense (un-negated for
    maximization), or ``None`` when no integral assignment is feasible.
    Requires every variable to be integral with finite bounds.
    """
    best = _enumerate(model)
    if best is None:
        return None
    return -best[0] if model.maximize_objective else best[0]


def enumerate_solution(model: Model) -> Optional[Dict[Var, float]]:
    """An optimal assignment of the same model, by the same enumeration
    (the first optimum in enumeration order), or ``None``."""
    best = _enumerate(model)
    if best is None:
        return None
    return {var: float(best[1][var.index]) for var in model.variables}


def random_milp(seed: int) -> Model:
    """A seeded random pure-integer model the oracle can enumerate."""
    rng = random.Random(seed)
    model = Model(f"rand{seed}")
    n = rng.randint(2, 8)
    grid = 1
    xs = []
    domains = []
    for i in range(n):
        if rng.random() < 0.5 or grid * 4 > MAX_GRID:
            lo, hi = 0, 1
            xs.append(model.add_binary(f"b{i}"))
        else:
            lo = rng.randint(-2, 1)
            hi = lo + rng.randint(1, 3)
            xs.append(model.add_integer(f"z{i}", lo, hi))
        domains.append((lo, hi))
        grid *= hi - lo + 1

    # Anchor each constraint's rhs near the activity of a random box
    # point, so instances are mostly feasible but == rows (offset by
    # -1/0/+1) still produce a steady stream of infeasible models.
    reference = [float(rng.randint(lo, hi)) for lo, hi in domains]
    for _ in range(rng.randint(1, min(6, n + 2))):
        terms = sorted(rng.sample(range(n), rng.randint(1, n)))
        coefs = {
            i: rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
            for i in terms
        }
        expr = LinExpr.total(coefs[i] * xs[i] for i in terms)
        activity = sum(coefs[i] * reference[i] for i in terms)
        sense = rng.choice(("<=", ">=", "=="))
        if sense == "<=":
            model.add_constr(expr <= activity + rng.randint(0, 4))
        elif sense == ">=":
            model.add_constr(expr >= activity - rng.randint(0, 4))
        else:
            model.add_constr(expr == activity + rng.randint(-1, 1))

    objective = LinExpr.total(rng.randint(-9, 9) * x for x in xs)
    if rng.random() < 0.5:
        model.minimize(objective)
    else:
        model.maximize(objective)
    return model


class ClassicSearch(BranchBoundSolver):
    """The branch & bound loop without presolve, branching on the most
    fractional variable (the search's configuration before presolve
    and pseudo-cost branching were added)."""

    def solve(self, model: Model, initial=None) -> Solution:
        start = time.perf_counter()
        solution = self._search(
            model, self._coerce_initial(model, initial), start
        )
        emit("solver.done", **solution.summary())
        return solution

    def _select_branch_var(
        self, x: np.ndarray, int_indices: List[int], pseudo
    ) -> Optional[int]:
        best_idx: Optional[int] = None
        best_dist = _INT_TOL
        for idx in int_indices:
            dist = abs(x[idx] - round(x[idx]))
            if dist > best_dist:
                best_dist = dist
                best_idx = idx
        return best_idx


#: The searches the differential suites run, by test-case name:
#: ``fast`` is the shipped solver, ``classic`` is :class:`ClassicSearch`.
SEARCHES = {"fast": BranchBoundSolver, "classic": ClassicSearch}
PROFILES = tuple(SEARCHES)


def solve_as(model: Model, profile: str, **solver_kwargs) -> Solution:
    """Solve ``model`` with the search ``profile`` names."""
    return SEARCHES[profile](**solver_kwargs).solve(model)

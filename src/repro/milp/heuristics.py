"""Primal heuristics: cheap searches for early incumbents.

Branch & bound prunes with ``node bound >= incumbent``, so the sooner a
good incumbent exists the smaller the tree.  This module hosts the two
heuristics the solver runs (both profile-independent pure functions;
the solver decides when to call them and what telemetry to emit):

* :func:`round_to_feasible` — snap the integral coordinates of an LP
  point and keep the result only if it is feasible.  Free (one
  feasibility check), and on placement models whose relaxations are
  nearly integral it produces the optimum outright.
* :func:`bounded_dive` — iteratively fix the least-fractional integral
  variable (falling back to the opposite rounding direction when a fix
  makes the LP infeasible) and re-solve, up to ``max_rounds`` LP
  solves.  A bounded depth keeps worst-case cost predictable: a dive
  either reaches an integral vertex quickly or is abandoned.

When ``telemetry=True`` each call emits one ``solver.heuristic`` event
(``heuristic`` = "rounding" / "diving", ``success``, and the candidate
objective when found), which is how the fast profile makes heuristic
activity observable in the experiment journal.
"""

from __future__ import annotations

import math
import time
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.telemetry import emit

_INT_TOL = 1e-6

#: Signature of the LP oracle the solver passes in: bounds -> a
#: linprog-style result (the solver counts the LP solve and emits
#: ``solver.lp``).
LpOracle = Callable[[List[Tuple[float, float]]], object]
#: Signature of the feasibility predicate over candidate points.
FeasibleFn = Callable[[np.ndarray], bool]


def round_to_feasible(
    x: np.ndarray,
    int_indices: List[int],
    feasible: FeasibleFn,
    c: Optional[np.ndarray] = None,
    telemetry: bool = False,
    sign: float = 1.0,
) -> Optional[np.ndarray]:
    """Round integral vars of an LP point; keep it only if feasible.

    ``sign`` converts minimize-space objectives back to the model's own
    sense for the telemetry payload (the solver passes -1 for
    maximization models).
    """
    candidate = x.copy()
    for idx in int_indices:
        candidate[idx] = round(candidate[idx])
    ok = feasible(candidate)
    if telemetry:
        emit(
            "solver.heuristic",
            heuristic="rounding",
            success=bool(ok),
            objective=(
                sign * float(c @ candidate)
                if ok and c is not None
                else None
            ),
        )
    return candidate if ok else None


def bounded_dive(
    lp: LpOracle,
    x0: np.ndarray,
    start_bounds: List[Tuple[float, float]],
    int_indices: List[int],
    feasible: FeasibleFn,
    c: np.ndarray,
    deadline: Optional[float] = None,
    max_rounds: int = 60,
    telemetry: bool = False,
    sign: float = 1.0,
) -> Optional[Tuple[np.ndarray, float]]:
    """Dive from an LP point toward an integral vertex.

    Each round fixes every already-integral variable plus the single
    least-fractional one, then re-solves the LP; this converges in a
    handful of LP rounds rather than one per variable.  Degenerate
    relaxations (e.g. min-switch-count objectives) sit on plateaus
    where rounding toward zero is always infeasible, so when the
    primary fix fails the opposite side is tried before the dive is
    abandoned.

    Returns ``(solution, objective)`` in minimize space when the dive
    reaches an integral feasible point, else None.  Aborts when
    ``deadline`` (perf_counter seconds) passes or after ``max_rounds``
    LP rounds.
    """
    bounds = list(start_bounds)
    x = x0
    result: Optional[Tuple[np.ndarray, float]] = None
    for _step in range(max_rounds):
        if deadline is not None and time.perf_counter() > deadline:
            break
        fractional = [
            idx
            for idx in int_indices
            if abs(x[idx] - round(x[idx])) > _INT_TOL
        ]
        if not fractional:
            candidate = x.copy()
            for idx in int_indices:
                candidate[idx] = round(candidate[idx])
            if feasible(candidate):
                result = (candidate, float(c @ candidate))
            break
        for idx in int_indices:
            if abs(x[idx] - round(x[idx])) <= _INT_TOL:
                value = float(round(x[idx]))
                lo, hi = bounds[idx]
                value = min(max(value, lo), hi)
                bounds[idx] = (value, value)
        idx = min(fractional, key=lambda i: abs(x[i] - round(x[i])))
        lo, hi = bounds[idx]
        primary = min(max(float(round(x[idx])), lo), hi)
        fallback = (
            math.ceil(x[idx]) if primary <= x[idx] else math.floor(x[idx])
        )
        fallback = min(max(float(fallback), lo), hi)
        res = None
        for value in dict.fromkeys((primary, fallback)):
            bounds[idx] = (value, value)
            res = lp(bounds)
            if res.status == 0:
                break
        if res is None or res.status != 0:
            break
        x = res.x
    if telemetry:
        emit(
            "solver.heuristic",
            heuristic="diving",
            success=result is not None,
            objective=sign * result[1] if result is not None else None,
        )
    return result

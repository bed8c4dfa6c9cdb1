"""Mixed-integer linear programming substrate.

The paper solves its deployment problem P#1 with Gurobi.  Offline we
build the same capability from first principles: a small modeling API
(:class:`Model`, :class:`Var`, :class:`LinExpr`, :class:`Constraint`)
and an exact solver — best-first branch & bound over LP relaxations
solved by HiGHS: one persistent model per search through scipy's
bundled bindings, or ``scipy.optimize.linprog`` when scipy lacks them.

The solver is exact on the model it is given (it proves optimality via
LP bounds), supports binary/integer/continuous variables, <=/>=/==
constraints, minimization and maximization, time limits and incumbent
callbacks.  It is deliberately a general-purpose component: both the
Hermes "Optimal" configuration and every ILP-based baseline build their
models against this API.

Every solve runs a presolve pass (:mod:`repro.milp.presolve`), then
the search with pseudo-cost branching and primal heuristics
(:mod:`repro.milp.heuristics`), then lifts the answer back onto the
original model (see :mod:`repro.milp.branch_bound`).  The
exhaustive-enumeration oracle of ``tests/milp/milp_testkit.py`` judges
its answers.
"""

from repro.milp.expr import LinExpr
from repro.milp.model import Constraint, Model, Sense, Var, VarType
from repro.milp.presolve import (
    PresolveCache,
    PresolvedModel,
    PresolveStats,
    PresolveStatus,
    model_signature,
    presolve,
)
from repro.milp.solution import Solution, SolveStatus
from repro.milp.branch_bound import BranchBoundSolver, solve

__all__ = [
    "BranchBoundSolver",
    "Constraint",
    "LinExpr",
    "Model",
    "PresolveCache",
    "PresolveStats",
    "PresolveStatus",
    "PresolvedModel",
    "Sense",
    "Solution",
    "SolveStatus",
    "Var",
    "VarType",
    "model_signature",
    "presolve",
    "solve",
]

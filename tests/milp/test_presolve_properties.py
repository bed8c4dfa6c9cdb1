"""Hypothesis properties of the presolve pass.

Presolve is only allowed to *shrink the search space it hands the
solver, never the set of optimal answers*.  Over a generated universe
of small pure-integer models, these properties pin:

* **Optimum preservation** — presolve never excludes the oracle
  optimum: the brute-force optimum of the reduction plus the objective
  offset reproduces the brute-force optimum of the model exactly, and
  lifting the reduction's optimum gives a feasible point.
* **Bounds only tighten** — every surviving variable's reduced domain
  is a subset of its original domain, and every fixed value lies
  inside the original domain.
* **Status preservation** — presolve declares INFEASIBLE only on
  models the oracle also finds infeasible, and an oracle-feasible
  model is never presolved to INFEASIBLE (OPTIMAL/INFEASIBLE is
  preserved end-to-end through the solver).

Models are built structurally from drawn coefficients (not from an
opaque seed), so failures shrink to minimal counterexamples.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from milp_testkit import enumerate_oracle, enumerate_solution
from repro.milp.branch_bound import solve
from repro.milp.expr import LinExpr
from repro.milp.model import Model
from repro.milp.presolve import PresolveStatus, presolve
from repro.milp.solution import SolveStatus


@st.composite
def models(draw):
    """A small pure-integer model with bounded domains."""
    n = draw(st.integers(min_value=2, max_value=6))
    m = Model()
    xs = []
    for i in range(n):
        lo = draw(st.integers(min_value=-2, max_value=2))
        hi = lo + draw(st.integers(min_value=0, max_value=3))
        xs.append(m.add_integer(f"x{i}", lo, hi))
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        coefs = draw(
            st.lists(
                st.integers(min_value=-4, max_value=4),
                min_size=n,
                max_size=n,
            )
        )
        if not any(coefs):
            continue
        expr = LinExpr.total(c * x for c, x in zip(coefs, xs) if c)
        rhs = draw(st.integers(min_value=-10, max_value=10))
        sense = draw(st.sampled_from(("<=", ">=", "==")))
        if sense == "<=":
            m.add_constr(expr <= rhs)
        elif sense == ">=":
            m.add_constr(expr >= rhs)
        else:
            m.add_constr(expr == rhs)
    objective = LinExpr.total(
        draw(st.integers(min_value=-5, max_value=5)) * x for x in xs
    )
    if draw(st.booleans()):
        m.maximize(objective)
    else:
        m.minimize(objective)
    return m


@settings(max_examples=60, deadline=None)
@given(models())
def test_presolve_never_excludes_the_oracle_optimum(model):
    oracle = enumerate_oracle(model)
    pres = presolve(model)
    if oracle is None:
        # Nothing to preserve; infeasibility handling is pinned below.
        return
    assert pres.status != PresolveStatus.INFEASIBLE
    if pres.status == PresolveStatus.SOLVED:
        assert pres.objective_offset == pytest.approx(oracle, abs=1e-6)
        assert model.is_feasible(pres.lift_values({}))
        return
    inner = enumerate_solution(pres.model)
    assert inner is not None
    assert enumerate_oracle(pres.model) + pres.objective_offset == (
        pytest.approx(oracle, abs=1e-6)
    )
    assert model.is_feasible(pres.lift_values(inner))


@settings(max_examples=60, deadline=None)
@given(models())
def test_bounds_only_tighten(model):
    pres = presolve(model)
    if pres.status == PresolveStatus.INFEASIBLE:
        return
    for orig, reduced in pres.var_map.items():
        assert reduced.lb >= orig.lb - 1e-9
        assert reduced.ub <= orig.ub + 1e-9
        assert reduced.var_type == orig.var_type
    for orig, value in pres.fixed.items():
        assert orig.lb - 1e-9 <= value <= orig.ub + 1e-9
        assert value == float(round(value))  # integral vars fix to ints


@settings(max_examples=60, deadline=None)
@given(models())
def test_feasibility_status_is_preserved(model):
    oracle = enumerate_oracle(model)
    solution = solve(model)
    if oracle is None:
        assert solution.status is SolveStatus.INFEASIBLE
    else:
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective == pytest.approx(oracle, abs=1e-6)


@settings(max_examples=40, deadline=None)
@given(models())
def test_lift_project_roundtrip_on_the_reduction(model):
    """project then lift restores any reduced-feasible assignment:
    free variables pass through, fixed variables reappear verbatim."""
    pres = presolve(model)
    if pres.status != PresolveStatus.REDUCED:
        return
    inner = enumerate_solution(pres.model)
    if inner is None:
        return
    lifted = pres.lift_values(inner)
    reprojected = pres.project_values(lifted)
    assert reprojected == inner
    for var, value in pres.fixed.items():
        assert lifted[var] == value

"""Differential oracle suite: fast == classic == brute force.

The solver's presolve, pseudo-cost branching and primal heuristics
exist to shrink the search, never to change an answer.  This suite
pins that contract three ways:

* On hand-picked golden instances and a seeded stream of random
  pure-integer models, the shipped search (``fast``) and the branch &
  bound loop without presolve or pseudo-costs
  (``classic``, :class:`milp_testkit.ClassicSearch`) both return the
  exact optimal objective of :func:`milp_testkit.enumerate_oracle` — a
  brute-force enumerator that shares no code with the solver.
* Infeasible instances are reported INFEASIBLE by both searches.
* Presolve's ``lift_values`` round-trips fixed variables verbatim and
  lifts an optimum of the reduction (found by the enumerator) onto an
  optimum of the *original* model.

The default run covers a fast-lane slice of the seed stream; the full
200-seed sweep (the acceptance bar) is marked ``slow`` and runs in the
weekly CI cron.
"""

import pytest

from milp_testkit import (
    PROFILES,
    enumerate_oracle,
    enumerate_solution,
    random_milp,
    solve_as,
)
from repro.milp.expr import LinExpr
from repro.milp.model import Model
from repro.milp.presolve import PresolveStatus, presolve
from repro.milp.solution import SolveStatus

FAST_LANE_SEEDS = range(48)
FULL_SWEEP_SEEDS = range(200)


def knapsack(n=8, seed=3):
    import random

    rng = random.Random(seed)
    m = Model()
    xs = [m.add_binary(f"x{i}") for i in range(n)]
    weights = [rng.randint(2, 9) for _ in range(n)]
    values = [rng.randint(5, 20) for _ in range(n)]
    m.add_constr(
        LinExpr.total(w * x for w, x in zip(weights, xs))
        <= sum(weights) // 2
    )
    m.maximize(LinExpr.total(v * x for v, x in zip(values, xs)))
    return m


def covering(n=6):
    m = Model()
    xs = [m.add_integer(f"y{i}", 0, 5) for i in range(n)]
    for i in range(n - 1):
        m.add_constr(2 * xs[i] + 3 * xs[i + 1] >= 7)
    m.minimize(LinExpr.total(xs))
    return m


def mixed_signs():
    """Negative bounds, negative objective coefficients, an == row."""
    m = Model()
    a = m.add_integer("a", -3, 3)
    b = m.add_integer("b", -2, 4)
    c = m.add_binary("c")
    m.add_constr(a + b + 2 * c == 1)
    m.add_constr(2 * a - b <= 3)
    m.minimize(3 * a - 2 * b + 5 * c)
    return m


def infeasible():
    m = Model()
    x = m.add_binary("x")
    y = m.add_binary("y")
    m.add_constr(x + y >= 3)
    m.minimize(x + y)
    return m


GOLDEN = [
    ("knapsack8", knapsack),
    ("knapsack5", lambda: knapsack(n=5, seed=9)),
    ("covering", covering),
    ("mixed_signs", mixed_signs),
    ("infeasible", infeasible),
]


def assert_matches_oracle(model, profile):
    """One differential check: solver vs enumeration, plus feasibility
    of the returned assignment in the original (un-presolved) model."""
    oracle = enumerate_oracle(model)
    solution = solve_as(model, profile)
    if oracle is None:
        assert solution.status is SolveStatus.INFEASIBLE
        assert solution.objective is None
        return
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.objective == pytest.approx(oracle, abs=1e-6)
    assert model.is_feasible(solution.values)
    # The reported objective must be the objective *of the reported
    # assignment* — lifting through presolve must not desynchronize
    # them.  (The model's own objective includes its constant term,
    # which the solver convention excludes.)
    recomputed = (
        model.objective_value(solution.values) - model.objective.constant
    )
    assert recomputed == pytest.approx(solution.objective, abs=1e-6)


class TestGoldenInstances:
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize(
        "build", [g[1] for g in GOLDEN], ids=[g[0] for g in GOLDEN]
    )
    def test_profile_matches_oracle(self, build, profile):
        assert_matches_oracle(build(), profile)

    @pytest.mark.parametrize(
        "build", [g[1] for g in GOLDEN], ids=[g[0] for g in GOLDEN]
    )
    def test_profiles_agree_exactly(self, build):
        fast = solve_as(build(), "fast")
        classic = solve_as(build(), "classic")
        assert fast.status is classic.status
        if fast.objective is None:
            assert classic.objective is None
        else:
            assert fast.objective == pytest.approx(
                classic.objective, abs=1e-9
            )


class TestRandomInstances:
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("seed", FAST_LANE_SEEDS)
    def test_fast_lane_sweep(self, seed, profile):
        assert_matches_oracle(random_milp(seed), profile)

    @pytest.mark.slow
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("seed", FULL_SWEEP_SEEDS)
    def test_full_sweep(self, seed, profile):
        assert_matches_oracle(random_milp(seed), profile)

    def test_seed_stream_mixes_feasible_and_infeasible(self):
        # The sweep only means something if the generator actually
        # exercises both terminal statuses.
        oracles = [
            enumerate_oracle(random_milp(seed)) for seed in FAST_LANE_SEEDS
        ]
        assert sum(o is not None for o in oracles) >= 10
        assert sum(o is None for o in oracles) >= 5


class TestPresolveRoundTrip:
    @pytest.mark.parametrize("seed", FAST_LANE_SEEDS)
    def test_lift_restores_fixed_vars_verbatim(self, seed):
        model = random_milp(seed)
        pres = presolve(model)
        if pres.status != PresolveStatus.REDUCED:
            return
        reduced_optimum = enumerate_solution(pres.model)
        if reduced_optimum is None:
            return
        lifted = pres.lift_values(reduced_optimum)
        assert set(lifted) == set(model.variables)
        for var, value in pres.fixed.items():
            # Exact round-trip, not approximate: fixed values must pass
            # through lift_values untouched.
            assert lifted[var] == value
        assert model.is_feasible(lifted)
        # The lifted point is an optimum of the original model.
        assert model.objective_value(lifted) - model.objective.constant == (
            pytest.approx(enumerate_oracle(model), abs=1e-6)
        )

    def test_fully_solved_model_lifts_exactly(self):
        m = Model()
        x = m.add_integer("x", 2, 2)
        y = m.add_integer("y", 0, 10)
        m.add_constr(y == 2 * x)
        m.minimize(x + y)
        pres = presolve(m)
        assert pres.status == PresolveStatus.SOLVED
        lifted = pres.lift_values({})
        assert lifted == {x: 2.0, y: 4.0}
        assert pres.objective_offset == pytest.approx(6.0)

    @pytest.mark.parametrize("seed", FAST_LANE_SEEDS)
    def test_reduction_preserves_optimum(self, seed):
        """Solving the reduction and adding the offset equals solving
        the original — the invariant behind presolving every solve."""
        model = random_milp(seed)
        pres = presolve(model)
        oracle = enumerate_oracle(model)
        if pres.status == PresolveStatus.INFEASIBLE:
            assert oracle is None
            return
        if pres.status == PresolveStatus.SOLVED:
            assert oracle is not None
            assert pres.objective_offset == pytest.approx(oracle, abs=1e-6)
            return
        inner = enumerate_oracle(pres.model)
        if oracle is None:
            assert inner is None
        else:
            assert inner + pres.objective_offset == pytest.approx(
                oracle, abs=1e-6
            )

    def test_oracle_rejects_unbounded_domains(self):
        m = Model()
        m.add_integer("x")  # default ub = inf
        m.minimize(LinExpr() + 0.0)
        with pytest.raises(ValueError):
            enumerate_oracle(m)

    def test_oracle_rejects_continuous_vars(self):
        m = Model()
        m.add_var("x", 0.0, 1.0)
        m.minimize(LinExpr() + 0.0)
        with pytest.raises(ValueError):
            enumerate_oracle(m)

"""Differential lock: the persistent HiGHS model against ``linprog``.

The branch & bound search solves every LP relaxation on one HiGHS
model per search (``branch_bound._HighsLp``), and falls back to
``scipy.optimize.linprog`` when scipy lacks the bindings.  ``linprog``
stays the oracle:

* Every LP the search issues returns the same status, message and
  objective and a bit-equal ``x`` under both backends: over the golden
  instances, the seeded random-MILP stream and a small deployment
  model, and (slow-marked) the ten Table III "Optimal" deploys.
* Forcing the fallback returns an identical :class:`Solution`, under
  both the shipped search and :class:`milp_testkit.ClassicSearch`.
* An infeasible and an unbounded root map to the same
  :class:`SolveStatus` as under ``linprog``.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from milp_testkit import PROFILES, SEARCHES, random_milp, solve_as
from repro.core.analyzer import ProgramAnalyzer
from repro.core import formulation
from repro.core.formulation import HermesMilp
from repro.milp import branch_bound
from repro.milp.branch_bound import solve
from repro.milp.expr import LinExpr
from repro.milp.model import Model
from repro.milp.solution import SolveStatus
from repro.network.generators import linear_topology
from test_differential import FAST_LANE_SEEDS, FULL_SWEEP_SEEDS, GOLDEN
from tests.conftest import make_sketch_program


@pytest.fixture
def paired(monkeypatch):
    """Solve every LP with both backends; ``linprog`` drives the search.

    Yields the list of ``(linprog result, _HighsLp result)`` pairs.
    """
    api = branch_bound._highs_api()
    if api is None:  # pragma: no cover - scipy without the bindings
        pytest.skip("scipy ships no HiGHS bindings")
    pairs = []

    def backend(c, a_ub, b_ub, a_eq, b_eq):
        highs = branch_bound._HighsLp(api, c, a_ub, b_ub, a_eq, b_eq)

        def both(bounds):
            oracle = linprog(
                c,
                A_ub=a_ub,
                b_ub=b_ub,
                A_eq=a_eq,
                b_eq=b_eq,
                bounds=bounds,
                method="highs",
            )
            pairs.append((oracle, highs(bounds)))
            return oracle

        return both

    monkeypatch.setattr(branch_bound, "_lp_backend", backend)
    return pairs


def assert_same_lps(pairs):
    for oracle, got in pairs:
        assert got.status == oracle.status
        assert got.message == oracle.message
        if oracle.x is None:
            assert got.x is None and got.fun is None
        else:
            assert got.fun == oracle.fun
            assert np.array_equal(got.x, oracle.x)


def solutions_equal(a, b):
    assert a.status is b.status
    assert a.objective == b.objective
    assert a.nodes_explored == b.nodes_explored
    assert a.lp_solves == b.lp_solves
    assert a.gap == b.gap
    assert {v.name: x for v, x in a.values.items()} == {
        v.name: x for v, x in b.values.items()
    }


def deployment_model_solve():
    """A small P#1 deploy: continuous and binary columns, == rows."""
    programs = [
        make_sketch_program(f"p{i}", index_bytes=2 + i) for i in range(4)
    ]
    tdg = ProgramAnalyzer().analyze(programs)
    network = linear_topology(3, num_stages=4, stage_capacity=1.0)
    return HermesMilp(time_limit_s=60).deploy(tdg, network)


def unbounded_root():
    m = Model()
    x = m.add_var("x")
    y = m.add_integer("y", 0, 10)
    m.add_constr(x + y >= 1)
    m.minimize(-1 * x + y)
    return m


def infeasible_root():
    """Infeasible, but not by anything presolve detects."""
    m = Model()
    xs = [m.add_integer(f"x{i}", 0, 5) for i in range(3)]
    m.add_constr(xs[0] + xs[1] + xs[2] >= 7)
    m.add_constr(xs[0] + xs[1] + 2 * xs[2] <= 6)
    m.add_constr(xs[0] - xs[1] <= 1)
    m.minimize(LinExpr.total(xs))
    return m


class TestEveryLpMatchesLinprog:
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize(
        "build", [g[1] for g in GOLDEN], ids=[g[0] for g in GOLDEN]
    )
    def test_golden(self, paired, build, profile):
        solve_as(build(), profile)
        assert_same_lps(paired)

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("seed", FAST_LANE_SEEDS)
    def test_fast_lane_sweep(self, paired, seed, profile):
        solve_as(random_milp(seed), profile)
        assert_same_lps(paired)

    @pytest.mark.slow
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("seed", FULL_SWEEP_SEEDS)
    def test_full_sweep(self, paired, seed, profile):
        solve_as(random_milp(seed), profile)
        assert_same_lps(paired)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_deployment_model(self, paired, monkeypatch, profile):
        monkeypatch.setattr(
            formulation, "BranchBoundSolver", SEARCHES[profile]
        )
        deployment_model_solve()
        assert_same_lps(paired)
        assert len(paired) > 1

    @pytest.mark.slow
    @pytest.mark.parametrize("topology", range(1, 11))
    def test_table_iii_optimal_deploys(self, paired, topology):
        from repro.server.ops import deploy_op

        deploy_op(
            {
                "workload": "real:5",
                "topology": f"topozoo-{topology}",
                "mode": "optimal",
                "time_limit_s": 600.0,
            }
        )
        assert_same_lps(paired)
        assert len(paired) > 50

    def test_sweep_issues_infeasible_lps(self, paired):
        # The lock only covers non-optimal results if the search
        # actually issues some.
        for seed in FAST_LANE_SEEDS:
            solve(random_milp(seed))
        statuses = [oracle.status for oracle, _ in paired]
        assert statuses.count(0) >= 50 and statuses.count(2) >= 5


class TestFallback:
    def fallback_and_persistent(self, monkeypatch, build, profile):
        persistent = solve_as(build(), profile)
        monkeypatch.setattr(branch_bound, "_highs_api", lambda: None)
        fallback = solve_as(build(), profile)
        return fallback, persistent

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize(
        "build",
        [g[1] for g in GOLDEN] + [lambda: random_milp(7)],
        ids=[g[0] for g in GOLDEN] + ["random7"],
    )
    def test_identical_solution(self, monkeypatch, build, profile):
        solutions_equal(
            *self.fallback_and_persistent(monkeypatch, build, profile)
        )

    def test_fallback_calls_linprog(self, monkeypatch):
        monkeypatch.setattr(branch_bound, "_highs_api", lambda: None)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return linprog(*args, **kwargs)

        monkeypatch.setattr(branch_bound, "linprog", counting)
        solution = solve(GOLDEN[0][1]())
        assert len(calls) == solution.lp_solves > 0

    def test_persistent_model_skips_linprog(self, monkeypatch):
        def refuse(*args, **kwargs):  # pragma: no cover - the failure
            raise AssertionError("linprog called")

        monkeypatch.setattr(branch_bound, "linprog", refuse)
        assert solve(GOLDEN[0][1]()).status is SolveStatus.OPTIMAL

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize(
        "build, status",
        [
            (infeasible_root, SolveStatus.INFEASIBLE),
            (unbounded_root, SolveStatus.UNBOUNDED),
        ],
        ids=["infeasible", "unbounded"],
    )
    def test_root_status(self, monkeypatch, build, status, profile):
        fallback, persistent = self.fallback_and_persistent(
            monkeypatch, build, profile
        )
        solutions_equal(fallback, persistent)
        assert persistent.status is status
        assert persistent.lp_solves == 1

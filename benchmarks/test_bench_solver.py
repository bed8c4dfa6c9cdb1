"""Benchmark: the branch & bound search on the Exp#3 family.

The search (presolve + reliability/pseudo-cost branching + telemetered
primal heuristics) must return the pinned deployment of every golden
instance while exploring no more branch & bound nodes than the
instance's ceiling — and strictly fewer on at least half of them.  The
pinned ``overhead_bytes`` and the node ceilings are the values the
retired most-fractional search recorded in ``BENCH_solver.json`` on
these instances.  Node counts come from the ``solver.node`` telemetry
stream, aggregated over every ILP solve in a deployment.

Results are written to ``BENCH_solver.json`` at the repo root so the
node-count contract and the per-instance solve times are auditable
across commits.
"""

import json
import os

import pytest

from repro.baselines import HermesOptimal, MinStage, Speed
from repro.experiments.exp2_overhead import workload
from repro.network.topozoo import topology_zoo_wan
from repro.telemetry import Recorder, attached

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_REPORT_PATH = os.path.join(_REPO_ROOT, "BENCH_solver.json")

#: Golden Exp#3-family instances: (label, framework factory, topology,
#: workload size, pinned overhead_bytes, node ceiling).
#: Budgets and workloads are sized so every ILP solve reaches OPTIMAL —
#: node counts then measure tree size, not where the clock expired.
#: SPEED runs on one topology and a smaller workload: its network-wide
#: ILP is by far the most expensive solve in the family.
GOLDEN = [
    ("MinStage/topo1", lambda: MinStage(time_limit_s=5.0), 1, 10, 6, 11),
    ("MinStage/topo5", lambda: MinStage(time_limit_s=5.0), 5, 10, 6, 11),
    ("MinStage/topo10", lambda: MinStage(time_limit_s=5.0), 10, 10, 6, 11),
    ("Optimal/topo1", lambda: HermesOptimal(time_limit_s=60.0), 1, 10, 0, 954),
    ("Optimal/topo5", lambda: HermesOptimal(time_limit_s=60.0), 5, 10, 0, 0),
    ("Optimal/topo10", lambda: HermesOptimal(time_limit_s=60.0), 10, 10, 0, 0),
    ("SPEED/topo1", lambda: Speed(time_limit_s=60.0), 1, 8, 0, 479),
]


def _run_instance(factory, topology_id, num_programs):
    programs = workload(num_programs)
    network = topology_zoo_wan(topology_id)
    rec = Recorder()
    with attached(rec):
        result = factory().deploy(programs, network)
    return {
        "nodes": rec.count("solver.node"),
        "lp_solves": rec.count("solver.lp"),
        "overhead_bytes": result.overhead_bytes,
        "solve_time_s": round(result.solve_time_s, 3),
        "timed_out": result.timed_out,
    }


@pytest.fixture(scope="module")
def solver_records():
    """The search over every golden instance, persisted to JSON."""
    records = []
    for label, factory, topology_id, num_programs, pinned, ceiling in GOLDEN:
        records.append(
            {
                "instance": label,
                "topology": topology_id,
                "programs": num_programs,
                "pinned_overhead_bytes": pinned,
                "node_ceiling": ceiling,
                **_run_instance(factory, topology_id, num_programs),
            }
        )
    payload = {
        "instances": records,
        "summary": {
            "instances": len(records),
            "strict_node_wins": sum(
                1 for r in records if r["nodes"] < r["node_ceiling"]
            ),
            "nodes_total": sum(r["nodes"] for r in records),
            "node_ceiling_total": sum(r["node_ceiling"] for r in records),
            "solve_time_s_total": round(
                sum(r["solve_time_s"] for r in records), 3
            ),
        },
    }
    with open(_REPORT_PATH, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return payload


def test_bench_solver_overhead_pinned(solver_records):
    """Every instance solves within budget to its pinned deployment."""
    for record in solver_records["instances"]:
        assert not record["timed_out"], record["instance"]
        assert (
            record["overhead_bytes"] == record["pinned_overhead_bytes"]
        ), record["instance"]


def test_bench_solver_nodes_under_ceiling(solver_records):
    """nodes <= ceiling everywhere; strictly fewer on >= half."""
    for record in solver_records["instances"]:
        assert record["nodes"] <= record["node_ceiling"], record["instance"]
    summary = solver_records["summary"]
    assert summary["strict_node_wins"] * 2 >= summary["instances"]


def test_bench_solver_report(solver_records):
    from conftest import record_report

    rows = [
        "Branch & bound on the Exp#3 family (nodes per deployment)",
        f"{'instance':<18} {'nodes':>7} {'ceiling':>8} {'LPs':>6} "
        f"{'solve s':>8}",
    ]
    for record in solver_records["instances"]:
        rows.append(
            f"{record['instance']:<18} "
            f"{record['nodes']:>7} "
            f"{record['node_ceiling']:>8} "
            f"{record['lp_solves']:>6} "
            f"{record['solve_time_s']:>8.2f}"
        )
    summary = solver_records["summary"]
    rows.append(
        f"total nodes: {summary['nodes_total']} of ceiling "
        f"{summary['node_ceiling_total']} "
        f"(strict wins {summary['strict_node_wins']}/{summary['instances']})"
    )
    record_report("\n".join(rows))
    assert os.path.exists(_REPORT_PATH)

"""Exp#2 (Fig. 6): per-packet byte overhead in the large-scale simulation.

50 concurrent programs (the 10 real switch.p4 slices plus 40 synthetic
programs with the §VI-A distribution) are deployed on each of the ten
Table III WAN topologies; the per-packet byte overhead of every
framework is reported per topology.

Exp#3 (execution time) and Exp#4 (end-to-end impact) read the same runs,
so :func:`run` is shared by all three experiment modules.

Since the suite-compiler refactor the experiment lives in the shipped
``repro.suite/v1`` spec (``repro/suite/specs/exp2.json``); :func:`run`
compiles a matching spec through
:func:`repro.suite.compiler.deployment_cells` and :func:`render`
produces the table (the suite's ``exp2`` aggregator shares it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.baselines.base import DeploymentFramework
from repro.experiments.harness import DeploymentRecord
from repro.experiments.reporting import Table, pivot_records

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import ExperimentRunner
from repro.network.topozoo import TABLE_III_TOPOLOGIES
from repro.workloads.switchp4 import real_programs
from repro.workloads.synthetic import synthetic_programs

NUM_PROGRAMS = 50
TOPOLOGY_IDS = tuple(sorted(TABLE_III_TOPOLOGIES))


def workload(num_programs: int = NUM_PROGRAMS, seed: int = 7):
    """The Exp#2 workload: 10 real programs + synthetic fill."""
    reals = real_programs(min(num_programs, 10))
    remainder = max(num_programs - len(reals), 0)
    return reals + synthetic_programs(remainder, seed=seed)


def workload_spec(num_programs: int = NUM_PROGRAMS, seed: int = 7) -> str:
    """:func:`workload` as a workload-grammar string (suite specs use
    this form; ``parse_workload`` reproduces the same programs)."""
    spec = f"real:{min(num_programs, 10)}"
    if num_programs > 10:
        spec += f"+synthetic:{num_programs - 10}:{seed}"
    return spec


@dataclass
class Exp2Point:
    """One (framework, topology) cell of Figs. 6-8."""

    topology_id: int
    record: DeploymentRecord


def suite_spec(
    topology_ids: Sequence[int] = TOPOLOGY_IDS,
    num_programs: int = NUM_PROGRAMS,
    seed: int = 7,
    ilp_time_limit_s: float = 10.0,
):
    """The Exp#2 suite spec for arbitrary sweep parameters (the
    shipped ``exp2.json`` is this at the paper's defaults)."""
    from repro.suite import SuiteSpec

    frameworks = {
        "set": "paper",
        "ilp_time_limit_s": ilp_time_limit_s,
        "per_program_ilp_time_limit_s": max(
            ilp_time_limit_s / 20.0, 0.2
        ),
    }
    return SuiteSpec.from_dict(
        {
            "suite": "repro.suite/v1",
            "name": "exp2",
            "kind": "deployment",
            "axes": {
                "workloads": [
                    {
                        "spec": workload_spec(num_programs, seed),
                        "tag": num_programs,
                    }
                ],
                "topologies": [
                    {"spec": f"zoo:{tid}", "tag": tid}
                    for tid in topology_ids
                ],
                "frameworks": frameworks,
            },
            "params": {"tag_axis": "topology"},
            "aggregate": ["exp2"],
        }
    )


def run(
    topology_ids: Sequence[int] = TOPOLOGY_IDS,
    num_programs: int = NUM_PROGRAMS,
    frameworks: Optional[Sequence[DeploymentFramework]] = None,
    seed: int = 7,
    ilp_time_limit_s: float = 10.0,
    runner: Optional["ExperimentRunner"] = None,
) -> List[Exp2Point]:
    """Deploy the 50-program workload on each selected topology.

    The whole (framework x topology) sweep is one flat cell list, so a
    parallel ``runner`` overlaps deployments across topologies, not
    just within one; results are ordered and valued identically to the
    serial run.
    """
    from repro.experiments.runner import execute_cells
    from repro.suite import deployment_cells

    cells = deployment_cells(
        suite_spec(topology_ids, num_programs, seed, ilp_time_limit_s),
        frameworks_override=frameworks,
    )
    return [
        Exp2Point(res.cell.tag, res.record)
        for res in execute_cells(cells, runner)
    ]


def pivot(
    points: List[Exp2Point], attr: str, title: str
) -> Table:
    """Framework x topology table of one record attribute."""
    return pivot_records(
        [(p.topology_id, p.record) for p in points],
        attr,
        title,
        col_label=lambda t: f"topo{t}",
    )


def render(points: List[Exp2Point]) -> str:
    """Fig. 6 as one table (what ``main`` prints)."""
    return pivot(
        points, "overhead_bytes", "Fig. 6: per-packet byte overhead (B)"
    ).render()


def main(points: Optional[List[Exp2Point]] = None) -> str:
    points = points if points is not None else run()
    output = render(points)
    print(output)
    return output


if __name__ == "__main__":
    main()

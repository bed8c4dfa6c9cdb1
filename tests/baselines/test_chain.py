"""Unit tests for the virtual-pipeline chain scheduler."""

import pytest

from repro.baselines.base import (
    build_switch_chain,
    route_all_pairs,
    schedule_on_chain,
)
from repro.plan import DeploymentError, DeploymentPlan
from repro.dataplane.actions import no_op
from repro.dataplane.mat import Mat
from repro.network.generators import linear_topology, random_wan
from repro.network.paths import PathEnumerator
from repro.tdg.dependencies import DependencyType
from repro.tdg.graph import Tdg


def chain_tdg(demands, bytes_per_edge=4):
    tdg = Tdg("seg")
    names = [f"m{i}" for i in range(len(demands))]
    for name, demand in zip(names, demands):
        tdg.add_node(Mat(name, actions=[no_op()], resource_demand=demand))
    for up, down in zip(names, names[1:]):
        tdg.add_edge(up, down, DependencyType.MATCH, bytes_per_edge)
    return tdg


class TestBuildSwitchChain:
    def test_only_programmable(self):
        net = random_wan(20, 30, seed=1, programmable_fraction=0.5)
        paths = PathEnumerator(net)
        chain = build_switch_chain(net, paths)
        programmable = set(net.programmable_names())
        assert set(chain) <= programmable

    def test_anchor_first_then_by_latency(self):
        net = linear_topology(4, link_latency_ms=1.0)
        paths = PathEnumerator(net)
        assert build_switch_chain(net, paths) == ["s0", "s1", "s2", "s3"]

    def test_requires_programmable(self):
        net = linear_topology(3, programmable=False)
        with pytest.raises(DeploymentError):
            build_switch_chain(net, PathEnumerator(net))


class TestScheduleOnChain:
    def test_spills_to_next_switch(self):
        tdg = chain_tdg([0.6] * 6)
        net = linear_topology(3, num_stages=2, stage_capacity=1.0)
        chain = ["s0", "s1", "s2"]
        placements = schedule_on_chain(
            tdg, tdg.topological_order(), net, chain
        )
        switches_used = {p.switch for p in placements.values()}
        assert len(switches_used) >= 3  # chain of 6 over 2-stage switches

    def test_dependencies_respected_across_chain(self):
        tdg = chain_tdg([0.6] * 6)
        net = linear_topology(3, num_stages=2, stage_capacity=1.0)
        chain = ["s0", "s1", "s2"]
        placements = schedule_on_chain(
            tdg, tdg.topological_order(), net, chain
        )
        index = {name: i for i, name in enumerate(chain)}
        for edge in tdg.edges:
            up = placements[edge.upstream]
            down = placements[edge.downstream]
            if up.switch == down.switch:
                assert up.last_stage < down.first_stage
            else:
                assert index[up.switch] < index[down.switch]

    def test_rejects_non_topological_order(self):
        tdg = chain_tdg([0.2, 0.2])
        net = linear_topology(2)
        with pytest.raises(DeploymentError, match="topological"):
            schedule_on_chain(tdg, ["m1", "m0"], net, ["s0", "s1"])

    def test_rejects_when_chain_full(self):
        tdg = chain_tdg([1.0] * 10)
        net = linear_topology(2, num_stages=2, stage_capacity=1.0)
        with pytest.raises(DeploymentError, match="cannot host"):
            schedule_on_chain(
                tdg, tdg.topological_order(), net, ["s0", "s1"]
            )

    def test_plan_validates_end_to_end(self):
        tdg = chain_tdg([0.6] * 6)
        net = linear_topology(4, num_stages=2, stage_capacity=1.0)
        paths = PathEnumerator(net)
        chain = build_switch_chain(net, paths)
        placements = schedule_on_chain(
            tdg, tdg.topological_order(), net, chain
        )
        plan = route_all_pairs(DeploymentPlan(tdg, net, placements), paths)
        plan.validate()

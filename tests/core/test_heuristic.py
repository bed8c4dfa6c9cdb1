"""Unit tests for the greedy heuristic (Algorithm 2)."""

import pytest

from repro.core.analyzer import ProgramAnalyzer
from repro.plan import DeploymentError
from repro.core.heuristic import (
    GreedyHeuristic,
    select_switches,
    split_tdg,
)
from repro.dataplane.actions import no_op
from repro.dataplane.mat import Mat
from repro.network.generators import linear_topology, random_wan
from repro.network.paths import PathEnumerator
from repro.network.switch import Switch
from repro.tdg.dependencies import DependencyType
from repro.tdg.graph import Tdg
from tests.conftest import make_sketch_program


def weighted_chain(weights, demand=0.5):
    """n+1 MATs in a chain; edge i carries weights[i] bytes."""
    tdg = Tdg("chain")
    names = [f"m{i}" for i in range(len(weights) + 1)]
    for name in names:
        tdg.add_node(Mat(name, actions=[no_op()], resource_demand=demand))
    for i, weight in enumerate(weights):
        tdg.add_edge(names[i], names[i + 1], DependencyType.MATCH, weight)
    return tdg


class TestSplitTdg:
    def test_fitting_tdg_untouched(self):
        tdg = weighted_chain([4, 4], demand=0.2)
        segments = split_tdg(tdg, Switch("ref", num_stages=4))
        assert len(segments) == 1
        assert len(segments[0]) == 3

    def test_split_cuts_cheapest_edge(self):
        # Chain of 4 MATs (2.0 demand) on 1-stage-capacity switches
        # with 2 stages (capacity 2x0.75=1.5): must split once; the
        # cheapest edge is in the middle.
        tdg = weighted_chain([9, 1, 9], demand=0.5)
        ref = Switch("ref", num_stages=2, stage_capacity=0.75)
        segments = split_tdg(tdg, ref)
        assert len(segments) == 2
        names = [set(s.node_names) for s in segments]
        assert names == [{"m0", "m1"}, {"m2", "m3"}]

    def test_independent_programs_split_for_free(self):
        programs = [make_sketch_program(f"p{i}") for i in range(4)]
        tdg = ProgramAnalyzer().analyze(programs)
        ref = Switch("ref", num_stages=4, stage_capacity=1.0)
        segments = split_tdg(tdg, ref)
        # Each segment boundary should cut zero bytes.
        for left, right in zip(segments, segments[1:]):
            assert tdg.cut_bytes(left.node_names, right.node_names) == 0

    def test_segments_are_chain_ordered(self):
        tdg = weighted_chain([4, 4, 4, 4, 4], demand=0.6)
        ref = Switch("ref", num_stages=2, stage_capacity=1.0)
        segments = split_tdg(tdg, ref)
        seen = set()
        for segment in segments:
            for edge in tdg.edges:
                if edge.downstream in segment.node_names:
                    # upstream must be in this or an earlier segment
                    assert (
                        edge.upstream in segment.node_names
                        or edge.upstream in seen
                    )
            seen.update(segment.node_names)

    def test_segments_partition_nodes(self):
        tdg = weighted_chain([1] * 9, demand=0.4)
        ref = Switch("ref", num_stages=3, stage_capacity=1.0)
        segments = split_tdg(tdg, ref)
        names = [n for s in segments for n in s.node_names]
        assert sorted(names) == sorted(tdg.node_names)
        assert len(names) == len(set(names))

    def test_unfittable_single_mat_raises(self):
        tdg = Tdg("t")
        tdg.add_node(Mat("big", actions=[no_op()], resource_demand=50.0))
        with pytest.raises(DeploymentError, match="alone"):
            split_tdg(tdg, Switch("ref", num_stages=4))

    def test_segment_count_near_capacity_bound(self):
        programs = [make_sketch_program(f"p{i}") for i in range(20)]
        tdg = ProgramAnalyzer().analyze(programs)
        ref = Switch("ref", num_stages=12, stage_capacity=1.0)
        segments = split_tdg(tdg, ref)
        lower_bound = tdg.total_resource_demand() / ref.total_capacity
        assert len(segments) <= max(3, 3 * lower_bound)


class TestSelectSwitches:
    def test_orders_by_latency_from_anchor(self):
        net = linear_topology(4, link_latency_ms=1.0)
        paths = PathEnumerator(net)
        assert select_switches("s0", net, paths) == ["s0", "s1", "s2", "s3"]

    def test_epsilon2_caps_count(self):
        net = linear_topology(4)
        paths = PathEnumerator(net)
        assert len(select_switches("s0", net, paths, epsilon2=2)) == 2

    def test_epsilon1_filters_far_switches(self):
        net = linear_topology(3, link_latency_ms=10.0)  # 10ms per hop
        paths = PathEnumerator(net)
        near = select_switches("s0", net, paths, epsilon1=15_000.0)
        assert near == ["s0", "s1"]

    def test_anchor_always_first(self):
        net = random_wan(20, 30, seed=3)
        paths = PathEnumerator(net)
        anchor = net.programmable_names()[0]
        assert select_switches(anchor, net, paths)[0] == anchor


class TestGreedyHeuristic:
    def test_deploys_and_validates(self, six_programs, small_line):
        tdg = ProgramAnalyzer().analyze(six_programs)
        plan = GreedyHeuristic().deploy(tdg, small_line)
        plan.validate()
        assert len(plan.placements) == len(tdg)

    def test_independent_programs_get_zero_overhead(
        self, six_programs, small_line
    ):
        tdg = ProgramAnalyzer().analyze(six_programs)
        plan = GreedyHeuristic().deploy(tdg, small_line)
        assert plan.max_metadata_bytes() == 0

    def test_prefers_keeping_heavy_edges_local(self):
        # One chain with a single cheap edge among expensive ones.
        tdg = weighted_chain([50, 50, 2, 50, 50], demand=0.6)
        net = linear_topology(2, num_stages=3, stage_capacity=1.0)
        plan = GreedyHeuristic().deploy(tdg, net)
        assert plan.max_metadata_bytes() == 2

    def test_respects_epsilon2(self, six_programs):
        net = linear_topology(4, num_stages=4, stage_capacity=1.0)
        tdg = ProgramAnalyzer().analyze(six_programs)
        plan = GreedyHeuristic(epsilon2=3).deploy(tdg, net)
        assert plan.num_occupied_switches() <= 3

    def test_fails_when_epsilon2_too_tight(self, six_programs):
        net = linear_topology(4, num_stages=4, stage_capacity=1.0)
        tdg = ProgramAnalyzer().analyze(six_programs)
        with pytest.raises(DeploymentError):
            GreedyHeuristic(epsilon2=1).deploy(tdg, net)

    def test_no_programmable_switches(self, six_programs):
        net = linear_topology(3, programmable=False)
        tdg = ProgramAnalyzer().analyze(six_programs)
        with pytest.raises(DeploymentError):
            GreedyHeuristic().deploy(tdg, net)

    def test_rejects_bad_epsilons(self):
        with pytest.raises(ValueError):
            GreedyHeuristic(epsilon1=0)
        with pytest.raises(ValueError):
            GreedyHeuristic(epsilon2=0)

    def test_routing_covers_all_pairs(self):
        tdg = weighted_chain([4] * 5, demand=0.6)
        net = linear_topology(3, num_stages=2, stage_capacity=1.0)
        plan = GreedyHeuristic().deploy(tdg, net)
        for pair in plan.pair_metadata_bytes():
            assert pair in plan.routing

    def test_works_on_wan(self):
        programs = [make_sketch_program(f"p{i}") for i in range(10)]
        tdg = ProgramAnalyzer().analyze(programs)
        net = random_wan(30, 40, seed=11)
        plan = GreedyHeuristic().deploy(tdg, net)
        plan.validate()

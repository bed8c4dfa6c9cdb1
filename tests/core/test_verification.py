"""Unit tests for dataflow verification."""

import pytest

from repro.core.analyzer import ProgramAnalyzer
from repro.plan import DeploymentPlan, MatPlacement
from repro.core.heuristic import GreedyHeuristic
from repro.core.verification import (
    DataflowError,
    verify_dataflow,
)
from repro.dataplane.actions import modify, no_op
from repro.dataplane.fields import metadata_field
from repro.dataplane.mat import Mat
from repro.network.generators import linear_topology
from repro.network.paths import PathEnumerator
from repro.tdg.dependencies import DependencyType
from repro.tdg.graph import Tdg
from tests.conftest import make_sketch_program


def cross_switch_plan():
    """a (writes meta) on s0  ->  b (reads meta) on s1, routed."""
    meta = metadata_field("m.x", 32)
    tdg = Tdg("t")
    tdg.add_node(Mat("a", actions=[modify(meta)], resource_demand=0.2))
    tdg.add_node(
        Mat("b", match_fields=[meta], actions=[no_op()], resource_demand=0.2)
    )
    tdg.add_edge("a", "b", DependencyType.MATCH, 4)
    net = linear_topology(2)
    paths = PathEnumerator(net)
    plan = DeploymentPlan(
        tdg,
        net,
        {
            "a": MatPlacement("a", "s0", (1,)),
            "b": MatPlacement("b", "s1", (1,)),
        },
        {("s0", "s1"): paths.shortest("s0", "s1")},
    )
    return plan


class TestVerifyDataflow:
    def test_cross_switch_delivery(self):
        report = verify_dataflow(cross_switch_plan())
        assert report.single_pass
        assert report.shipped_fields[("s0", "s1")] == ["m.x"]
        assert report.reads_checked >= 1

    def test_same_switch_plan(self, six_programs, small_line):
        tdg = ProgramAnalyzer().analyze(six_programs)
        plan = GreedyHeuristic().deploy(tdg, small_line)
        report = verify_dataflow(plan)
        assert report.single_pass
        assert len(report.execution_order) == len(tdg)

    def test_reversed_placement_still_delivers_via_channel(self):
        # Placing the reader's switch "before" the writer's is fine as
        # long as the channel exists: the packet simply visits the
        # writer's switch first.
        base = cross_switch_plan()
        paths = PathEnumerator(base.network)
        plan = DeploymentPlan(
            base.tdg,
            base.network,
            {
                "a": MatPlacement("a", "s1", (1,)),
                "b": MatPlacement("b", "s0", (1,)),
            },
            {("s1", "s0"): paths.shortest("s1", "s0")},
        )
        report = verify_dataflow(plan)
        assert report.shipped_fields[("s1", "s0")] == ["m.x"]

    def test_detects_missing_channel(self):
        # A broken TDG that *omits* the a -> b data edge produces no
        # coordination channel, so b's read can never be satisfied
        # across switches.
        meta = metadata_field("m.x", 32)
        tdg = Tdg("broken")
        tdg.add_node(Mat("a", actions=[modify(meta)], resource_demand=0.2))
        tdg.add_node(
            Mat(
                "b",
                match_fields=[meta],
                actions=[no_op()],
                resource_demand=0.2,
            )
        )
        net = linear_topology(2)
        plan = DeploymentPlan(
            tdg,
            net,
            {
                "a": MatPlacement("a", "s0", (1,)),
                "b": MatPlacement("b", "s1", (1,)),
            },
        )
        with pytest.raises(DataflowError, match="stuck"):
            verify_dataflow(plan)

    def test_execution_order_respects_dependencies(self):
        programs = [make_sketch_program(f"p{i}") for i in range(3)]
        tdg = ProgramAnalyzer().analyze(programs)
        net = linear_topology(6, num_stages=2, stage_capacity=1.0)
        plan = GreedyHeuristic().deploy(tdg, net)
        report = verify_dataflow(plan)
        position = {m: i for i, m in enumerate(report.execution_order)}
        for edge in tdg.edges:
            assert position[edge.upstream] < position[edge.downstream]

    def test_all_frameworks_verify(self, six_programs, small_line):
        from repro.baselines import Ffl, Ffls, HermesHeuristic, MinStage

        for framework in (
            HermesHeuristic(),
            Ffl(),
            Ffls(),
            MinStage(time_limit_s=1.0),
        ):
            result = framework.deploy(six_programs, small_line)
            verify_dataflow(result.plan)

    def test_recirculation_counted(self):
        # a1(s0) -> b1(s1) and a2(s1) -> b2(s0): cyclic switch flow
        # needs a second round.
        m1 = metadata_field("m.one", 32)
        m2 = metadata_field("m.two", 32)
        tdg = Tdg("t")
        tdg.add_node(Mat("a1", actions=[modify(m1)], resource_demand=0.1))
        tdg.add_node(
            Mat("b1", match_fields=[m1], actions=[no_op()], resource_demand=0.1)
        )
        tdg.add_node(Mat("a2", actions=[modify(m2)], resource_demand=0.1))
        tdg.add_node(
            Mat("b2", match_fields=[m2], actions=[no_op()], resource_demand=0.1)
        )
        tdg.add_edge("a1", "b1", DependencyType.MATCH, 4)
        tdg.add_edge("a2", "b2", DependencyType.MATCH, 4)
        net = linear_topology(2)
        paths = PathEnumerator(net)
        plan = DeploymentPlan(
            tdg,
            net,
            {
                "a1": MatPlacement("a1", "s0", (1,)),
                "b1": MatPlacement("b1", "s1", (2,)),
                "a2": MatPlacement("a2", "s1", (1,)),
                "b2": MatPlacement("b2", "s0", (2,)),
            },
            {
                ("s0", "s1"): paths.shortest("s0", "s1"),
                ("s1", "s0"): paths.shortest("s1", "s0"),
            },
        )
        report = verify_dataflow(plan)
        assert report.rounds == 2
        assert not report.single_pass


class TestVisitScopedSemantics:
    def test_flow_ordered_visits_allow_single_pass(self):
        """Acyclic channel flow -> the verifier visits upstream
        switches first and one pass suffices."""
        hub_out = metadata_field("m.hub", 32)
        remote = metadata_field("m.remote", 32)
        tdg = Tdg("loop")
        # s1: hub writes m.hub; s0: producer writes m.remote;
        # s1: consumer needs BOTH -> must run on a second s1 visit,
        # by which time m.hub (never shipped via any channel that
        # returns to s1) is gone.
        tdg.add_node(Mat("hub", actions=[modify(hub_out)], resource_demand=0.2))
        tdg.add_node(
            Mat("producer", actions=[modify(remote)], resource_demand=0.2)
        )
        tdg.add_node(
            Mat(
                "consumer",
                match_fields=[hub_out, remote],
                actions=[no_op()],
                resource_demand=0.2,
            )
        )
        tdg.add_edge("hub", "consumer", DependencyType.MATCH, 4)
        tdg.add_edge("producer", "consumer", DependencyType.MATCH, 4)
        net = linear_topology(2)
        paths = PathEnumerator(net)
        plan = DeploymentPlan(
            tdg,
            net,
            {
                "hub": MatPlacement("hub", "s1", (1,)),
                "producer": MatPlacement("producer", "s0", (1,)),
                "consumer": MatPlacement("consumer", "s1", (2,)),
            },
            {("s0", "s1"): paths.shortest("s0", "s1")},
        )
        # Structurally fine AND single-pass executable: the verifier
        # orders visits along the channel flow (s0 first), so the
        # consumer sees the shipped remote field and the hub output of
        # its own visit.
        plan.validate()
        report = verify_dataflow(plan)
        assert report.single_pass

    def test_cyclic_same_switch_production_rejected(self):
        """The refinement regression: consumer blocked on a remote
        field whose switch visit happens after the local producer's
        output has died."""
        hub_out = metadata_field("m2.hub", 32)
        remote = metadata_field("m2.remote", 32)
        back = metadata_field("m2.back", 32)
        tdg = Tdg("loop2")
        tdg.add_node(Mat("hub", actions=[modify(hub_out)], resource_demand=0.2))
        # remote producer on s0 depends on hub (so s1 must run first),
        tdg.add_node(
            Mat(
                "producer",
                match_fields=[hub_out],
                actions=[modify(remote)],
                resource_demand=0.2,
            )
        )
        # and the consumer back on s1 needs hub's output again.
        tdg.add_node(
            Mat(
                "consumer",
                match_fields=[hub_out, remote],
                actions=[no_op()],
                resource_demand=0.2,
            )
        )
        tdg.add_edge("hub", "producer", DependencyType.MATCH, 4)
        tdg.add_edge("hub", "consumer", DependencyType.MATCH, 4)
        tdg.add_edge("producer", "consumer", DependencyType.MATCH, 4)
        net = linear_topology(2)
        paths = PathEnumerator(net)
        plan = DeploymentPlan(
            tdg,
            net,
            {
                "hub": MatPlacement("hub", "s1", (1,)),
                "producer": MatPlacement("producer", "s0", (1,)),
                "consumer": MatPlacement("consumer", "s1", (2,)),
            },
            {
                ("s1", "s0"): paths.shortest("s1", "s0"),
                ("s0", "s1"): paths.shortest("s0", "s1"),
            },
        )
        plan.validate()
        # Channel s1->s0 carries m2.hub (edge hub->producer); channel
        # s0->s1 carries m2.remote but NOT m2.hub... unless the edge
        # hub->consumer provides it?  hub and consumer share s1, so no
        # channel exists for it: the consumer can never see m2.hub on
        # its (second) visit.
        with pytest.raises(DataflowError, match="stuck"):
            verify_dataflow(plan)

"""Unit tests for deployment plans and their validation."""

import pytest

from repro.plan import (
    DeploymentError,
    DeploymentPlan,
    MatPlacement,
)
from repro.dataplane.actions import no_op
from repro.dataplane.mat import Mat
from repro.network.generators import linear_topology
from repro.network.paths import PathEnumerator
from repro.tdg.dependencies import DependencyType
from repro.tdg.graph import Tdg


def two_mat_tdg(meta_bytes=8):
    tdg = Tdg("t")
    tdg.add_node(Mat("a", actions=[no_op()], resource_demand=0.4))
    tdg.add_node(Mat("b", actions=[no_op()], resource_demand=0.4))
    tdg.add_edge("a", "b", DependencyType.MATCH, meta_bytes)
    return tdg


def plan_with(tdg, network, placements, route=True):
    routing = None
    if route:
        paths = PathEnumerator(network)
        probe = DeploymentPlan(tdg, network, placements)
        routing = {
            pair: paths.shortest(*pair)
            for pair in probe.pair_metadata_bytes()
        }
    return DeploymentPlan(tdg, network, placements, routing)


class TestMatPlacement:
    def test_stage_accessors(self):
        p = MatPlacement("a", "s0", (2, 3, 4))
        assert p.first_stage == 2
        assert p.last_stage == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            MatPlacement("a", "s0", ())
        with pytest.raises(ValueError):
            MatPlacement("a", "s0", (3, 2))
        with pytest.raises(ValueError):
            MatPlacement("a", "s0", (0,))


class TestMetrics:
    def test_same_switch_has_no_overhead(self):
        tdg = two_mat_tdg()
        net = linear_topology(2)
        plan = plan_with(
            tdg,
            net,
            {
                "a": MatPlacement("a", "s0", (1,)),
                "b": MatPlacement("b", "s0", (2,)),
            },
        )
        assert plan.max_metadata_bytes() == 0
        assert plan.num_occupied_switches() == 1
        plan.validate()

    def test_cross_switch_overhead_charged_to_pair(self):
        tdg = two_mat_tdg(meta_bytes=12)
        net = linear_topology(2)
        plan = plan_with(
            tdg,
            net,
            {
                "a": MatPlacement("a", "s0", (1,)),
                "b": MatPlacement("b", "s1", (1,)),
            },
        )
        assert plan.pair_metadata_bytes() == {("s0", "s1"): 12}
        assert plan.max_metadata_bytes() == 12
        assert plan.total_metadata_bytes() == 12
        assert plan.cross_switch_edges() == [("a", "b")]
        plan.validate()

    def test_max_is_per_pair_not_total(self):
        tdg = Tdg("t")
        for name in "abcd":
            tdg.add_node(Mat(name, actions=[no_op()], resource_demand=0.2))
        tdg.add_edge("a", "b", DependencyType.MATCH, 10)
        tdg.add_edge("c", "d", DependencyType.MATCH, 6)
        net = linear_topology(3)
        plan = plan_with(
            tdg,
            net,
            {
                "a": MatPlacement("a", "s0", (1,)),
                "b": MatPlacement("b", "s1", (1,)),
                "c": MatPlacement("c", "s1", (2,)),
                "d": MatPlacement("d", "s2", (1,)),
            },
        )
        assert plan.pair_metadata_bytes() == {
            ("s0", "s1"): 10,
            ("s1", "s2"): 6,
        }
        assert plan.max_metadata_bytes() == 10

    def test_end_to_end_latency_sums_routed_paths(self):
        tdg = two_mat_tdg()
        net = linear_topology(2, link_latency_ms=1.0)
        plan = plan_with(
            tdg,
            net,
            {
                "a": MatPlacement("a", "s0", (1,)),
                "b": MatPlacement("b", "s1", (1,)),
            },
        )
        # 2 switches x 1 us + 1 link x 1000 us
        assert plan.end_to_end_latency_us() == pytest.approx(1002.0)

    def test_stage_utilization_splits_spanning_demand(self):
        tdg = Tdg("t")
        tdg.add_node(Mat("a", actions=[no_op()], resource_demand=1.0))
        net = linear_topology(1)
        plan = plan_with(
            tdg, net, {"a": MatPlacement("a", "s0", (1, 2))}, route=False
        )
        util = plan.stage_utilization("s0")
        assert util == {1: pytest.approx(0.5), 2: pytest.approx(0.5)}

    def test_end_to_end_latency_missing_path_raises(self):
        # A communicating pair without a routed path must fail loudly,
        # not silently contribute zero latency.
        tdg = two_mat_tdg()
        net = linear_topology(2)
        plan = plan_with(
            tdg,
            net,
            {
                "a": MatPlacement("a", "s0", (1,)),
                "b": MatPlacement("b", "s1", (1,)),
            },
            route=False,
        )
        with pytest.raises(DeploymentError, match="no routed path"):
            plan.end_to_end_latency_us()

    def test_stage_utilization_sums_sharing_mats(self):
        # Two MATs sharing stage 2 add up; a spanning MAT contributes
        # its per-stage share to each stage it touches.
        tdg = Tdg("t")
        tdg.add_node(Mat("a", actions=[no_op()], resource_demand=0.6))
        tdg.add_node(Mat("b", actions=[no_op()], resource_demand=0.3))
        tdg.add_node(Mat("c", actions=[no_op()], resource_demand=0.4))
        net = linear_topology(1)
        plan = plan_with(
            tdg,
            net,
            {
                "a": MatPlacement("a", "s0", (1, 2)),
                "b": MatPlacement("b", "s0", (2,)),
                "c": MatPlacement("c", "s0", (3,)),
            },
            route=False,
        )
        util = plan.stage_utilization("s0")
        assert util == {
            1: pytest.approx(0.3),
            2: pytest.approx(0.3 + 0.3),
            3: pytest.approx(0.4),
        }
        assert plan.stage_utilization("nowhere") == {}

    def test_plan_is_immutable(self):
        tdg = two_mat_tdg()
        net = linear_topology(2)
        plan = plan_with(
            tdg,
            net,
            {
                "a": MatPlacement("a", "s0", (1,)),
                "b": MatPlacement("b", "s0", (2,)),
            },
        )
        with pytest.raises(AttributeError, match="immutable"):
            plan.placements = {}
        with pytest.raises(TypeError):
            plan.placements["a"] = MatPlacement("a", "s1", (1,))
        with pytest.raises(TypeError):
            plan.routing[("s0", "s1")] = None

    def test_with_routing_returns_sibling(self):
        tdg = two_mat_tdg(meta_bytes=4)
        net = linear_topology(2)
        plan = plan_with(
            tdg,
            net,
            {
                "a": MatPlacement("a", "s0", (1,)),
                "b": MatPlacement("b", "s1", (1,)),
            },
            route=False,
        )
        paths = PathEnumerator(net)
        routed = plan.with_routing(
            {("s0", "s1"): paths.shortest("s0", "s1")}
        )
        assert routed is not plan
        assert not plan.routing and routed.routing
        assert routed.max_metadata_bytes() == plan.max_metadata_bytes()
        routed.validate()

    def test_mats_on_orders_by_stage(self):
        tdg = two_mat_tdg()
        net = linear_topology(1)
        plan = plan_with(
            tdg,
            net,
            {
                "a": MatPlacement("a", "s0", (1,)),
                "b": MatPlacement("b", "s0", (3,)),
            },
        )
        assert plan.mats_on("s0") == ["a", "b"]


class TestValidation:
    def make(self, placements, net=None, tdg=None, route=True):
        return plan_with(
            tdg or two_mat_tdg(), net or linear_topology(2), placements, route
        )

    def test_missing_mat(self):
        plan = self.make({"a": MatPlacement("a", "s0", (1,))}, route=False)
        with pytest.raises(DeploymentError, match="unplaced"):
            plan.validate()

    def test_unknown_mat(self):
        plan = self.make(
            {
                "a": MatPlacement("a", "s0", (1,)),
                "b": MatPlacement("b", "s0", (2,)),
                "ghost": MatPlacement("ghost", "s0", (3,)),
            }
        )
        with pytest.raises(DeploymentError, match="unknown MATs"):
            plan.validate()

    def test_non_programmable_host(self):
        net = linear_topology(2, programmable=False)
        plan = self.make(
            {
                "a": MatPlacement("a", "s0", (1,)),
                "b": MatPlacement("b", "s0", (2,)),
            },
            net=net,
        )
        with pytest.raises(DeploymentError, match="non-programmable"):
            plan.validate()

    def test_stage_out_of_range(self):
        plan = self.make(
            {
                "a": MatPlacement("a", "s0", (1,)),
                "b": MatPlacement("b", "s0", (99,)),
            }
        )
        with pytest.raises(DeploymentError, match="stage"):
            plan.validate()

    def test_stage_overload(self):
        tdg = Tdg("t")
        tdg.add_node(Mat("a", actions=[no_op()], resource_demand=0.8))
        tdg.add_node(Mat("b", actions=[no_op()], resource_demand=0.8))
        plan = self.make(
            {
                "a": MatPlacement("a", "s0", (1,)),
                "b": MatPlacement("b", "s0", (1,)),
            },
            tdg=tdg,
        )
        with pytest.raises(DeploymentError, match="overloaded"):
            plan.validate()

    def test_intra_switch_order_violation(self):
        plan = self.make(
            {
                "a": MatPlacement("a", "s0", (2,)),
                "b": MatPlacement("b", "s0", (1,)),
            }
        )
        with pytest.raises(DeploymentError, match="rho_end"):
            plan.validate()

    def test_missing_route(self):
        plan = self.make(
            {
                "a": MatPlacement("a", "s0", (1,)),
                "b": MatPlacement("b", "s1", (1,)),
            },
            route=False,
        )
        with pytest.raises(DeploymentError, match="no routed path"):
            plan.validate()

    def test_wrong_direction_route(self):
        net = linear_topology(2)
        paths = PathEnumerator(net)
        plan = self.make(
            {
                "a": MatPlacement("a", "s0", (1,)),
                "b": MatPlacement("b", "s1", (1,)),
            },
            net=net,
            route=False,
        )
        backwards = {("s0", "s1"): paths.shortest("s1", "s0")}
        with pytest.raises(AttributeError, match="immutable"):
            plan.routing = backwards
        with pytest.raises(DeploymentError, match="runs"):
            plan.with_routing(backwards).validate()

    def test_switch_of_unknown(self):
        plan = self.make(
            {
                "a": MatPlacement("a", "s0", (1,)),
                "b": MatPlacement("b", "s0", (2,)),
            }
        )
        with pytest.raises(KeyError):
            plan.switch_of("ghost")

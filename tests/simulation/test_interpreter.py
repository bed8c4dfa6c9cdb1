"""Tests for the executable plan interpreter."""

import pytest

from repro.core import Hermes
from repro.plan import DeploymentPlan, MatPlacement
from repro.dataplane import (
    Mat,
    Program,
    counter_update,
    drop,
    forward,
    hash_compute,
    metadata_field,
    modify,
    standard_headers,
)
from repro.dataplane.rules import MatchKind, MatchSpec, Rule
from repro.network import linear_topology
from repro.simulation import MissingMetadataError, PlanInterpreter

HDR = standard_headers()


def flow_counter_program():
    idx = metadata_field("fc.idx", 32)
    cnt = metadata_field("fc.cnt", 32)
    return Program(
        "fc",
        [
            Mat(
                "hash",
                match_fields=[HDR["ipv4.protocol"]],
                actions=[
                    hash_compute(
                        idx, [HDR["ipv4.src_addr"], HDR["ipv4.dst_addr"]]
                    )
                ],
                capacity=16,
                resource_demand=0.6,
            ),
            Mat(
                "count",
                match_fields=[idx],
                actions=[counter_update(idx, cnt)],
                capacity=1024,
                resource_demand=0.9,
            ),
            Mat(
                "mark",
                match_fields=[cnt],
                actions=[modify(HDR["ipv4.dscp"], [cnt])],
                capacity=16,
                resource_demand=0.5,
            ),
        ],
    )


PACKET = {
    "ipv4.src_addr": 0x0A000001,
    "ipv4.dst_addr": 0x0A000002,
    "ipv4.protocol": 6,
    "tcp.dst_port": 443,
}


@pytest.fixture
def split_interpreter():
    """The flow counter forced across three single-stage switches."""
    net = linear_topology(3, num_stages=1, stage_capacity=1.0)
    result = Hermes().deploy([flow_counter_program()], net)
    assert result.plan.num_occupied_switches() == 3
    return PlanInterpreter(result.plan)


class TestCrossSwitchExecution:
    def test_every_mat_fires_once(self, split_interpreter):
        trace = split_interpreter.run_packet(dict(PACKET))
        assert len(trace.fired) == 3
        assert [m for _s, m, _a in trace.fired] == [
            "fc.hash",
            "fc.count",
            "fc.mark",
        ]

    def test_metadata_piggybacks_across_switches(self, split_interpreter):
        trace = split_interpreter.run_packet(dict(PACKET))
        # The count result must survive into the final fields even
        # though it was produced two switches upstream of the marker.
        assert trace.final_fields["fc.cnt"] == 1
        assert trace.final_fields["ipv4.dscp"] == 1

    def test_counters_are_stateful_per_flow(self, split_interpreter):
        for expected in (1, 2, 3):
            trace = split_interpreter.run_packet(dict(PACKET))
            assert trace.final_fields["fc.cnt"] == expected
        other = dict(PACKET, **{"ipv4.src_addr": 0x0A0000FF})
        trace = split_interpreter.run_packet(other)
        assert trace.final_fields["fc.cnt"] == 1  # new flow, new count

    def test_hash_is_deterministic(self, split_interpreter):
        # Two identical packets hash to the same index: exactly one
        # register slot exists and it counted both.
        split_interpreter.run_packet(dict(PACKET))
        split_interpreter.run_packet(dict(PACKET))
        table = split_interpreter.registers("fc.count")
        assert len(table) == 1
        assert list(table.values()) == [2]

    def test_pipeline_local_metadata_dies_at_boundary(
        self, split_interpreter
    ):
        # fc.idx is consumed on the counting switch; the s1 -> s2
        # channel only carries fc.cnt, so idx must NOT survive to the
        # end — pipeline metadata is not free to keep alive.
        trace = split_interpreter.run_packet(dict(PACKET))
        assert "fc.idx" not in trace.final_fields
        assert "fc.cnt" in trace.final_fields

    def test_register_inspection(self, split_interpreter):
        split_interpreter.run_packet(dict(PACKET))
        (index,) = split_interpreter.registers("fc.count")
        assert split_interpreter.register_value("fc.count", index) == 1
        assert split_interpreter.register_value("fc.count", index + 1) == 0


class TestRuleSemantics:
    def build_acl_plan(self):
        verdict = metadata_field("acl.v", 8)
        acl = Mat(
            "acl",
            match_fields=[HDR["tcp.dst_port"]],
            actions=[
                modify(verdict, name="set_verdict"),
            ],
            capacity=16,
            rules=[
                Rule(
                    matches=(MatchSpec("tcp.dst_port", MatchKind.EXACT, 22),),
                    action_name="set_verdict",
                    priority=10,
                    action_data=(("acl.v", 1),),
                ),
                Rule(
                    matches=(),
                    action_name="set_verdict",
                    priority=0,
                    action_data=(("acl.v", 0),),
                ),
            ],
            resource_demand=0.4,
        )
        enforce = Mat(
            "enforce",
            match_fields=[verdict],
            actions=[drop("deny"), forward(metadata_field("acl.port", 16), "permit")],
            capacity=4,
            rules=[
                Rule(
                    matches=(MatchSpec("acl.v", MatchKind.EXACT, 1),),
                    action_name="deny",
                    priority=10,
                ),
                Rule(
                    matches=(),
                    action_name="permit",
                    priority=0,
                    action_data=(("acl.port", 7),),
                ),
            ],
            resource_demand=0.4,
        )
        program = Program("acl", [acl, enforce])
        net = linear_topology(1, num_stages=4)
        result = Hermes().deploy([program], net)
        return PlanInterpreter(result.plan)

    def test_priority_rule_drops_ssh(self):
        interp = self.build_acl_plan()
        trace = interp.run_packet(dict(PACKET, **{"tcp.dst_port": 22}))
        assert trace.dropped
        assert trace.egress_port is None

    def test_default_rule_permits_https(self):
        interp = self.build_acl_plan()
        trace = interp.run_packet(dict(PACKET))
        assert not trace.dropped
        assert trace.egress_port == 7

    def test_action_data_written(self):
        interp = self.build_acl_plan()
        trace = interp.run_packet(dict(PACKET, **{"tcp.dst_port": 22}))
        assert trace.final_fields["acl.v"] == 1


class TestMissingMetadata:
    def test_unrouted_metadata_raises(self):
        # Handcraft a broken plan: reader placed with no channel.
        meta = metadata_field("m.x", 32)
        from repro.dataplane.actions import no_op
        from repro.tdg.dependencies import DependencyType
        from repro.tdg.graph import Tdg

        tdg = Tdg("broken")
        tdg.add_node(Mat("w", actions=[modify(meta)], resource_demand=0.2))
        tdg.add_node(
            Mat(
                "r",
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
                "w": MatPlacement("w", "s0", (1,)),
                "r": MatPlacement("r", "s1", (1,)),
            },
        )
        # The interpreter's constructor runs the dataflow verifier,
        # which already rejects this plan.
        from repro.core.verification import DataflowError

        with pytest.raises(DataflowError):
            PlanInterpreter(plan)

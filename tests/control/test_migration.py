"""Unit tests for failure-driven migration planning."""

import pytest

from repro.control import Controller, MigrationPlanner
from repro.control.migration import surviving_network
from repro.core import Hermes
from repro.plan import DeploymentError
from repro.core.verification import verify_dataflow
from repro.dataplane.rules import MatchKind, MatchSpec, Rule
from repro.network import linear_topology, random_wan
from tests.conftest import make_sketch_program


@pytest.fixture
def wan_plan():
    programs = [make_sketch_program(f"p{i}", index_bytes=2 + i) for i in range(8)]
    network = random_wan(16, 24, seed=4, num_stages=4)
    return Hermes().deploy(programs, network).plan


class TestSurvivingNetwork:
    def test_removes_switch_and_links(self):
        net = linear_topology(3)
        survived = surviving_network(net, "s1")
        assert survived.num_switches == 2
        assert survived.num_links == 0
        assert "s1" not in survived

    def test_unknown_switch(self):
        with pytest.raises(DeploymentError):
            surviving_network(linear_topology(2), "ghost")

    def test_original_untouched(self):
        net = linear_topology(3)
        surviving_network(net, "s1")
        assert net.num_switches == 3


class TestMigration:
    def test_failure_produces_valid_new_plan(self, wan_plan):
        failed = wan_plan.occupied_switches()[0]
        diff = MigrationPlanner().handle_switch_failure(wan_plan, failed)
        assert diff.new_plan is not None
        diff.new_plan.validate()
        verify_dataflow(diff.new_plan)
        assert failed not in diff.new_plan.occupied_switches()

    def test_every_orphaned_mat_moves(self, wan_plan):
        failed = wan_plan.occupied_switches()[0]
        orphaned = set(wan_plan.mats_on(failed))
        diff = MigrationPlanner().handle_switch_failure(wan_plan, failed)
        moved = {move.mat_name for move in diff.moves}
        assert orphaned <= moved
        for move in diff.moves:
            if move.mat_name in orphaned:
                assert move.source is None
                assert move.forced

    def test_forced_vs_optimization_split(self, wan_plan):
        failed = wan_plan.occupied_switches()[0]
        orphaned = set(wan_plan.mats_on(failed))
        diff = MigrationPlanner().handle_switch_failure(wan_plan, failed)
        forced = {m.mat_name for m in diff.forced_moves}
        optimization = {m.mat_name for m in diff.optimization_moves}
        assert forced >= orphaned
        assert not (forced & optimization)
        assert forced | optimization == {m.mat_name for m in diff.moves}
        for move in diff.optimization_moves:
            assert move.source is not None
            assert move.source != move.destination

    def test_unaffected_failure_keeps_plan_cheap(self, wan_plan):
        # Failing a switch that hosts nothing must not force moves of
        # MATs still on surviving switches... unless the heuristic
        # re-shuffles; the diff must stay consistent either way.
        unused = next(
            s
            for s in wan_plan.network.switch_names
            if s not in wan_plan.occupied_switches()
        )
        diff = MigrationPlanner().handle_switch_failure(wan_plan, unused)
        assert diff.new_plan is not None
        total = len(diff.moves) + len(diff.unchanged)
        assert total == len(wan_plan.placements)

    def test_disruption_fraction(self, wan_plan):
        failed = wan_plan.occupied_switches()[0]
        diff = MigrationPlanner().handle_switch_failure(wan_plan, failed)
        assert 0.0 < diff.disruption <= 1.0

    def test_rule_replay_counts_from_controller(self, wan_plan):
        controller = Controller(wan_plan)
        victim = wan_plan.occupied_switches()[0]
        victim_mat = wan_plan.mats_on(victim)[0]
        rule = Rule(
            matches=(
                MatchSpec("ipv4.src_addr", MatchKind.EXACT, 7),
            ),
            action_name=wan_plan.tdg.node(victim_mat).actions[0].name,
        )
        controller.install_rule(victim_mat, rule)
        installed = {
            name: controller.rules_to_replay(name)
            for name in wan_plan.placements
        }
        diff = MigrationPlanner().handle_switch_failure(
            wan_plan, victim, installed_rules=installed
        )
        moved = {m.mat_name: m for m in diff.moves}
        assert moved[victim_mat].rules_to_replay == 1
        assert diff.rules_to_replay >= 1

    def test_all_programmable_lost(self):
        programs = [make_sketch_program("p0")]
        net = linear_topology(2)
        # Make only one switch programmable, then fail it.
        from repro.network.switch import Switch
        from repro.network.topology import Network

        custom = Network("one_prog")
        custom.add_switch(Switch("a", programmable=True))
        custom.add_switch(Switch("b", programmable=False))
        custom.connect("a", "b")
        plan = Hermes().deploy(programs, custom).plan
        with pytest.raises(DeploymentError, match="survive"):
            MigrationPlanner().handle_switch_failure(plan, "a")

    def test_diff_rejects_mismatched_plans(self, wan_plan):
        other_programs = [make_sketch_program("other")]
        other = Hermes().deploy(other_programs, wan_plan.network).plan
        with pytest.raises(DeploymentError, match="different MAT sets"):
            MigrationPlanner().diff(wan_plan, other)

    def test_compute_moves_tolerates_workload_change(self, wan_plan):
        # Unlike MigrationPlanner.diff, the lower-level helper works
        # over the common MAT subset so a reconciler batch mixing a
        # workload change with a failure still gets a move set.
        from repro.control import compute_moves

        programs = [
            make_sketch_program(f"p{i}", index_bytes=2 + i)
            for i in range(8)
        ] + [make_sketch_program("extra")]
        grown = Hermes().deploy(programs, wan_plan.network).plan
        moves, unchanged = compute_moves(wan_plan, grown)
        named = {m.mat_name for m in moves} | set(unchanged)
        common = set(wan_plan.placements) & set(grown.placements)
        assert named == common
        for move in moves:
            assert not move.forced  # no host vanished

    def test_compute_moves_vanished_marks_forced(self, wan_plan):
        from repro.control import compute_moves

        victim = wan_plan.occupied_switches()[0]
        diff = MigrationPlanner().handle_switch_failure(wan_plan, victim)
        moves, _ = compute_moves(
            wan_plan, diff.new_plan, vanished={victim}
        )
        forced = [m for m in moves if m.forced]
        assert forced
        assert {m.mat_name for m in forced} >= set(
            wan_plan.mats_on(victim)
        )

"""Unit tests for the P#1 MILP formulation."""

import math

import pytest

from repro.cli import parse_workload
from repro.core.analyzer import ProgramAnalyzer
from repro.plan import DeploymentError
from repro.core.formulation import (
    HermesMilp,
    MilpFormulation,
    OBJECTIVE_LATENCY,
    OBJECTIVE_OVERHEAD,
    OBJECTIVE_SWITCHES,
    select_candidates,
)
from repro.core.heuristic import GreedyHeuristic
from repro.network.catalog import resolve
from repro.network.generators import linear_topology
from repro.network.paths import PathEnumerator
from tests.conftest import make_sketch_program


@pytest.fixture
def six_tdg(six_programs):
    return ProgramAnalyzer().analyze(six_programs)


@pytest.fixture
def line4():
    return linear_topology(3, num_stages=4, stage_capacity=1.0)


class TestValidation:
    def test_rejects_unknown_objective(self):
        with pytest.raises(ValueError, match="objective"):
            MilpFormulation(objective="fastest")

    def test_rejects_bad_epsilons(self):
        with pytest.raises(ValueError):
            MilpFormulation(epsilon1=0)
        with pytest.raises(ValueError):
            MilpFormulation(epsilon2=0)


class TestSelectCandidates:
    def test_covers_demand(self, six_tdg, line4):
        paths = PathEnumerator(line4)
        candidates = select_candidates(six_tdg, line4, paths)
        capacity = sum(
            line4.switch(u).total_capacity for u in candidates
        )
        assert capacity >= six_tdg.total_resource_demand()

    def test_max_candidates_respected_when_capacity_allows(
        self, sketch_program, line4
    ):
        tdg = ProgramAnalyzer().analyze([sketch_program])
        paths = PathEnumerator(line4)
        candidates = select_candidates(
            tdg, line4, paths, max_candidates=1
        )
        assert len(candidates) == 1

    def test_raises_when_capacity_insufficient(self, six_tdg):
        tiny = linear_topology(1, num_stages=2, stage_capacity=1.0)
        paths = PathEnumerator(tiny)
        with pytest.raises(DeploymentError, match="stage units"):
            select_candidates(six_tdg, tiny, paths)

    def test_requires_programmable(self, six_tdg):
        net = linear_topology(3, programmable=False)
        with pytest.raises(DeploymentError, match="programmable"):
            select_candidates(six_tdg, net, PathEnumerator(net))


class TestBuild:
    def test_model_structure(self, six_tdg, line4):
        paths = PathEnumerator(line4)
        handles = MilpFormulation().build(six_tdg, line4, paths)
        model = handles.model
        num_mats = len(six_tdg)
        num_candidates = len(handles.candidates)
        assert len(handles.placement) == num_mats * num_candidates
        assert len(handles.occupied) == num_candidates
        assert handles.a_max is not None
        assert model.num_constraints > num_mats  # at least placement rows

    def test_epsilon2_constraint_present(self, six_tdg, line4):
        paths = PathEnumerator(line4)
        handles = MilpFormulation(epsilon2=2).build(six_tdg, line4, paths)
        names = {c.name for c in handles.model.constraints if c.name}
        assert "eps2" in names

    def test_epsilon1_constraint_present(self, six_tdg, line4):
        paths = PathEnumerator(line4)
        handles = MilpFormulation(epsilon1=1e9).build(six_tdg, line4, paths)
        names = {c.name for c in handles.model.constraints if c.name}
        assert "eps1" in names

    def test_mats_cap_constraint(self, six_tdg, line4):
        paths = PathEnumerator(line4)
        handles = MilpFormulation(max_mats_per_switch=5).build(
            six_tdg, line4, paths
        )
        names = {c.name for c in handles.model.constraints if c.name}
        assert any(n.startswith("mats[") for n in names)


class TestDeploy:
    def test_optimal_plan_validates(self, six_tdg, line4):
        plan = HermesMilp(time_limit_s=60).deploy(six_tdg, line4)
        plan.validate()
        assert len(plan.placements) == len(six_tdg)

    def test_optimal_overhead_at_most_heuristic(self, six_tdg, line4):
        optimal = HermesMilp(time_limit_s=60).deploy(six_tdg, line4)
        greedy = GreedyHeuristic().deploy(six_tdg, line4)
        assert (
            optimal.max_metadata_bytes() <= greedy.max_metadata_bytes()
        )

    def test_switch_objective_minimizes_occupancy(self, line4):
        programs = [make_sketch_program(f"q{i}") for i in range(2)]
        tdg = ProgramAnalyzer().analyze(programs)
        plan = MilpFormulation(
            objective=OBJECTIVE_SWITCHES, time_limit_s=60
        ).deploy(tdg, line4)
        assert plan.num_occupied_switches() == 1

    def test_latency_objective_runs(self, line4):
        programs = [make_sketch_program(f"q{i}") for i in range(2)]
        tdg = ProgramAnalyzer().analyze(programs)
        plan = MilpFormulation(
            objective=OBJECTIVE_LATENCY, time_limit_s=60
        ).deploy(tdg, line4)
        plan.validate()

    def test_epsilon2_respected_in_plan(self, six_tdg, line4):
        plan = HermesMilp(epsilon2=2, time_limit_s=60).deploy(
            six_tdg, line4
        )
        assert plan.num_occupied_switches() <= 2

    def test_explicit_paths_mode(self, line4):
        programs = [make_sketch_program(f"q{i}") for i in range(2)]
        tdg = ProgramAnalyzer().analyze(programs)
        formulation = MilpFormulation(
            objective=OBJECTIVE_OVERHEAD,
            epsilon1=1e12,
            explicit_paths=True,
            time_limit_s=60,
        )
        plan = formulation.deploy(tdg, line4)
        plan.validate()

    def test_last_solution_recorded(self, six_tdg, line4):
        formulation = HermesMilp(time_limit_s=60)
        formulation.deploy(six_tdg, line4)
        assert formulation.last_solution is not None
        assert formulation.last_solution.status.has_solution


#: ``select_candidates`` on the Table III topologies, hub first, recorded
#: before candidate ranking moved onto shortest-path trees.  ``real:5``
#: and ``real:10`` both rank every programmable switch, so they share
#: one table.
GOLDEN_CANDIDATES = {
    "topozoo-1": (
        "w69 w48 w59 w66 w24 w16 w46 w35 w10 w51 w27 w77 w68 w5 w6 "
        "w40 w4 w8 w19 w25 w52 w56 w57 w2 w1 w34 w22 w26 w64 w20 w63 "
        "w37 w3 w11 w71 w43 w9 w7 w36 w47"
    ),
    "topozoo-2": (
        "w14 w29 w3 w45 w5 w19 w8 w28 w39 w18 w10 w61 w16 w32 w33 w66 "
        "w15 w40 w58 w64 w36 w35 w27 w37 w62 w67 w50 w26 w43 w60 w1 "
        "w17 w2 w53 w69"
    ),
    "topozoo-3": (
        "w35 w20 w3 w64 w21 w46 w8 w68 w42 w59 w5 w0 w14 w65 w32 w28 "
        "w37 w44 w49 w70 w61 w72 w34 w71 w57 w51 w63 w69 w45 w18 w2 "
        "w43 w58 w55 w41 w30 w39"
    ),
    "topozoo-4": (
        "w21 w32 w41 w62 w13 w53 w24 w9 w20 w5 w7 w54 w43 w3 w60 w65 "
        "w15 w1 w50 w46 w49 w42 w23 w39 w44 w8 w27 w64 w4 w19 w45 w0 "
        "w58"
    ),
    "topozoo-5": (
        "w49 w22 w14 w61 w3 w62 w41 w2 w60 w19 w7 w16 w50 w18 w51 w31 "
        "w38 w30 w57 w37 w5 w13 w42 w21 w25 w63 w23 w72 w15 w71 w58 "
        "w70 w68 w45 w52 w6"
    ),
    "topozoo-6": (
        "w17 w56 w46 w43 w49 w44 w1 w65 w19 w9 w18 w16 w31 w67 w47 "
        "w41 w22 w39 w64 w69 w5 w58 w48 w7 w50 w0 w28 w26 w29 w25 w59 "
        "w55 w3 w70 w20 w24 w2 w54"
    ),
    "topozoo-7": (
        "w46 w42 w1 w3 w12 w15 w7 w61 w59 w22 w60 w2 w21 w63 w49 w28 "
        "w66 w54 w65 w33 w57 w35 w14 w45 w18 w40 w37 w38 w17 w51 w39 "
        "w27 w67 w4"
    ),
    "topozoo-8": (
        "w2 w65 w37 w15 w0 w18 w61 w63 w60 w47 w43 w9 w70 w13 w55 w66 "
        "w50 w46 w51 w24 w20 w22 w58 w56 w23 w10 w6 w16 w31 w42 w14 "
        "w41 w39 w45 w53 w34"
    ),
    "topozoo-9": (
        "w35 w41 w61 w5 w8 w30 w38 w22 w45 w1 w13 w69 w60 w9 w10 w40 "
        "w62 w4 w0 w29 w36 w21 w12 w37 w32 w23 w66 w2 w48 w64 w67 w27 "
        "w43 w47 w31 w6 w53"
    ),
    "topozoo-10": (
        "w0 w46 w33 w23 w55 w36 w62 w38 w17 w66 w32 w43 w41 w30 w9 "
        "w25 w53 w4 w27 w35 w64 w44 w52 w59 w22 w6 w13 w10 w56 w31 "
        "w65 w21 w18 w60"
    ),
}

#: ``real:5`` plan fingerprints of the "Optimal" deploy, recorded likewise
#: (topozoo-7 is the benchmark's recorded ``deploy-optimal`` output).
GOLDEN_OPTIMAL_FINGERPRINTS = {
    "topozoo-1": (
        "713209ef0fd0e2cc69ef61d4737ce37d"
        "e9441887c41923e3416b8a8b70a044af"
    ),
    "topozoo-2": (
        "ede2766e1657fad38f7a958b777712d5"
        "353d74af1a0c98a0ebc7d7bb157eba98"
    ),
    "topozoo-3": (
        "aaecf0e7f6d99e72426897bf592964d1"
        "655bb2ba462932c68536c3f74bb67b8c"
    ),
    "topozoo-4": (
        "3314340e1b7a29efee1ed7ab019aea7c"
        "b50572348bb5b0a8ed5af784845eed02"
    ),
    "topozoo-5": (
        "a247a5bceb3378df587cc44bcde0e710"
        "fb1df2c212b625e36c4a40f37d00ee3e"
    ),
    "topozoo-6": (
        "2c7b9e9a702470b5add54afbb0b449ce"
        "79444bbf309659254d02ec4e9883e3dd"
    ),
    "topozoo-7": (
        "8885a0068355cfbc4c6e6543003a46c3"
        "a0bcb915d8ee2fd8d5a3ce6916b8caf9"
    ),
    "topozoo-8": (
        "f0382496ac807ca3467fdcb3aeb69971"
        "95d63da6cbd69ff72ea985ccf67fdddf"
    ),
    "topozoo-9": (
        "fde18895eb25c115d52f0b46a73b37e8"
        "42b4f0b1179792a9f1b0be7fb991f553"
    ),
    "topozoo-10": (
        "a46ce1cebdd39c3da9680e654b792d46"
        "3aac4c9f901e3f6ba291c9e22a23e9cf"
    ),
}


def optimal_fingerprint(topology):
    from repro.server.ops import deploy_op

    doc = deploy_op(
        {
            "workload": "real:5",
            "topology": topology,
            "mode": "optimal",
            "time_limit_s": 600.0,
        }
    )
    return doc["fingerprint"]


class TestGoldens:
    @pytest.mark.parametrize("workload", ["real:5", "real:10"])
    def test_candidate_sets(self, workload):
        tdg = ProgramAnalyzer().analyze(parse_workload(workload))
        for topology, names in GOLDEN_CANDIDATES.items():
            network = resolve(topology)
            chosen = select_candidates(tdg, network, PathEnumerator(network))
            assert chosen == names.split(), topology

    def test_optimal_plan_fingerprint(self):
        assert (
            optimal_fingerprint("topozoo-7")
            == GOLDEN_OPTIMAL_FINGERPRINTS["topozoo-7"]
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("topology", sorted(GOLDEN_OPTIMAL_FINGERPRINTS))
    def test_optimal_plan_fingerprints(self, topology):
        assert (
            optimal_fingerprint(topology)
            == GOLDEN_OPTIMAL_FINGERPRINTS[topology]
        )

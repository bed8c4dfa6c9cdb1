"""Property tests for the result-cache content hash.

Two directions, both load-bearing for correctness of the cache:

* **Stability** — rebuilding the same deployment problem from scratch
  (fresh ``Program``/``Network``/framework objects, different object
  identities) yields the same key, so re-runs actually hit the cache.
* **Sensitivity** — perturbing anything that can influence a
  ``DeploymentRecord`` (demands, widths, capacities, latencies,
  program order, framework class or configuration, harness params)
  changes the key, so the cache can never serve a stale record for a
  different problem.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import Ffl, Ffls, HermesHeuristic, MinStage
from repro.dataplane.actions import Action, ActionPrimitive
from repro.dataplane.fields import Field, FieldKind
from repro.dataplane.mat import Mat, ResourceDemand
from repro.dataplane.program import Program
from repro.experiments.runner import cache_key
from repro.network.switch import Switch
from repro.network.topology import Link, Network

BASE = dict(
    capacity=256,
    width_bits=16,
    demand=0.25,
    sram_bits=1024,
    latency_ms=1.0,
    stage_capacity=1.0,
    num_stages=4,
    swap_programs=False,
    meta_kind=False,
    payload=1024,
    with_end_to_end=True,
    time_limit=0.5,
)


def build_key(**overrides):
    """Build a full (programs, network, framework, params) cell from
    scalar knobs and return its cache key.  Every call constructs
    fresh objects, so equal keys prove content addressing."""
    p = dict(BASE, **overrides)
    kind = FieldKind.METADATA if p["meta_kind"] else FieldKind.HEADER
    f_match = Field("ipv4.dst", p["width_bits"], kind)
    f_out = Field("meta.port", 9, FieldKind.METADATA)
    mat_a = Mat(
        "route",
        match_fields=(f_match,),
        actions=(
            Action("fwd", ActionPrimitive.FORWARD, writes=(f_out,)),
        ),
        capacity=p["capacity"],
        resource_demand=p["demand"],
        detailed_demand=ResourceDemand(sram_bits=p["sram_bits"]),
    )
    mat_b = Mat(
        "acl",
        match_fields=(f_out,),
        actions=(Action("drop", ActionPrimitive.DROP, reads=(f_out,)),),
        capacity=64,
        resource_demand=0.1,
    )
    programs = [Program("prog_a", [mat_a]), Program("prog_b", [mat_b])]
    if p["swap_programs"]:
        programs.reverse()

    network = Network("key-test")
    for name in ("s1", "s2", "s3"):
        network.add_switch(
            Switch(
                name,
                num_stages=p["num_stages"],
                stage_capacity=p["stage_capacity"],
            )
        )
    network.add_link(Link("s1", "s2", latency_ms=p["latency_ms"]))
    network.add_link(Link("s2", "s3", latency_ms=1.0))

    framework = p.get("framework") or MinStage(time_limit_s=p["time_limit"])
    params = {
        "packet_payload_bytes": p["payload"],
        "with_end_to_end": p["with_end_to_end"],
    }
    return cache_key(programs, network, framework, params)


class TestStability:
    def test_identical_problems_hash_equal(self):
        assert build_key() == build_key()

    def test_key_is_hex_digest(self):
        key = build_key()
        assert len(key) == 64
        assert set(key) <= set(string.hexdigits.lower())

    def test_equivalent_framework_instances_hash_equal(self):
        a = build_key(framework=MinStage(time_limit_s=2.0))
        b = build_key(framework=MinStage(time_limit_s=2.0))
        assert a == b


PERTURBATIONS = [
    ("capacity", dict(capacity=512)),
    ("match_width", dict(width_bits=32)),
    ("field_kind", dict(meta_kind=True)),
    ("resource_demand", dict(demand=0.5)),
    ("detailed_sram", dict(sram_bits=2048)),
    ("link_latency", dict(latency_ms=2.5)),
    ("stage_capacity", dict(stage_capacity=2.0)),
    ("num_stages", dict(num_stages=8)),
    ("program_order", dict(swap_programs=True)),
    ("payload_bytes", dict(payload=256)),
    ("end_to_end_flag", dict(with_end_to_end=False)),
    ("framework_config", dict(time_limit=0.7)),
    ("framework_class", dict(framework=Ffl())),
]


class TestSensitivity:
    @pytest.mark.parametrize(
        "overrides", [p[1] for p in PERTURBATIONS], ids=[p[0] for p in PERTURBATIONS]
    )
    def test_any_perturbation_changes_key(self, overrides):
        assert build_key() != build_key(**overrides)

    def test_framework_classes_all_distinct(self):
        keys = {
            build_key(framework=f)
            for f in (
                HermesHeuristic(),
                Ffl(),
                Ffls(),
                MinStage(time_limit_s=0.5),
            )
        }
        assert len(keys) == 4

    def test_perturbations_are_pairwise_distinct(self):
        keys = [build_key()] + [build_key(**p[1]) for p in PERTURBATIONS]
        assert len(set(keys)) == len(keys)


problem_knobs = st.fixed_dictionaries(
    {
        "capacity": st.integers(min_value=1, max_value=4096),
        "width_bits": st.integers(min_value=1, max_value=128),
        "demand": st.floats(
            min_value=0.01, max_value=4.0, allow_nan=False
        ),
        "latency_ms": st.floats(
            min_value=0.0, max_value=50.0, allow_nan=False
        ),
        "num_stages": st.integers(min_value=1, max_value=20),
        "payload": st.integers(min_value=64, max_value=9000),
    }
)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(problem_knobs)
    def test_rebuild_hashes_equal(self, knobs):
        assert build_key(**knobs) == build_key(**knobs)

    @settings(max_examples=25, deadline=None)
    @given(problem_knobs, problem_knobs)
    def test_distinct_knobs_hash_distinct(self, a, b):
        if a == b:
            assert build_key(**a) == build_key(**b)
        else:
            assert build_key(**a) != build_key(**b)

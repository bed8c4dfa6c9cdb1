"""Unit tests for path enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.catalog import resolve
from repro.network.generators import linear_topology
from repro.network.paths import (
    Path,
    PathEnumerator,
    k_shortest_paths,
    path_latency_us,
    shortest_path,
)
from repro.network.switch import Switch
from repro.network.topology import Network


def diamond():
    """a - b - d and a - c - d with c-side slower."""
    net = Network("diamond")
    for name in "abcd":
        net.add_switch(Switch(name, latency_us=1.0))
    net.connect("a", "b", latency_ms=1.0)
    net.connect("b", "d", latency_ms=1.0)
    net.connect("a", "c", latency_ms=5.0)
    net.connect("c", "d", latency_ms=5.0)
    return net


class TestPath:
    def test_properties(self):
        p = Path(("a", "b", "c"), 10.0)
        assert p.source == "a"
        assert p.destination == "c"
        assert p.hop_count == 2
        assert p.links() == [("a", "b"), ("b", "c")]
        assert p.contains("b")
        assert p.contains_link("b", "a")
        assert not p.contains_link("a", "c")

    def test_rejects_revisits(self):
        with pytest.raises(ValueError, match="revisits"):
            Path(("a", "b", "a"), 1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Path((), 0.0)


class TestShortestPath:
    def test_prefers_low_latency(self):
        net = diamond()
        path = shortest_path(net, "a", "d")
        assert path.switches == ("a", "b", "d")

    def test_latency_sums_switches_and_links(self):
        net = diamond()
        path = shortest_path(net, "a", "d")
        # 3 switches x 1 us + 2 links x 1000 us
        assert path.latency_us == pytest.approx(2003.0)
        assert path_latency_us(net, path.switches) == pytest.approx(2003.0)

    def test_unreachable_returns_none(self):
        net = diamond()
        net.add_switch(Switch("island"))
        assert shortest_path(net, "a", "island") is None


class TestKShortest:
    def test_returns_distinct_paths_in_order(self):
        net = diamond()
        paths = k_shortest_paths(net, "a", "d", 5)
        assert len(paths) == 2
        assert paths[0].latency_us <= paths[1].latency_us
        assert paths[0].switches != paths[1].switches

    def test_k_limits_output(self):
        net = diamond()
        assert len(k_shortest_paths(net, "a", "d", 1)) == 1

    def test_zero_k(self):
        assert k_shortest_paths(diamond(), "a", "d", 0) == []

    def test_line_has_single_path(self):
        net = linear_topology(4)
        paths = k_shortest_paths(net, "s0", "s3", 3)
        assert len(paths) == 1
        assert paths[0].switches == ("s0", "s1", "s2", "s3")


class TestPathEnumerator:
    def test_caches_and_returns_sorted(self):
        net = diamond()
        enum = PathEnumerator(net, k=3)
        first = enum.paths("a", "d")
        assert first is enum.paths("a", "d")  # cached object
        latencies = [p.latency_us for p in first]
        assert latencies == sorted(latencies)

    def test_self_path_is_trivial(self):
        enum = PathEnumerator(diamond(), k=2)
        trivial = enum.paths("a", "a")
        assert len(trivial) == 1
        assert trivial[0].switches == ("a",)

    def test_shortest_and_reachable(self):
        net = diamond()
        net.add_switch(Switch("island"))
        enum = PathEnumerator(net)
        assert enum.shortest("a", "d").switches == ("a", "b", "d")
        assert enum.shortest("a", "island") is None
        assert enum.reachable("a", "d")
        assert not enum.reachable("a", "island")

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            PathEnumerator(diamond(), k=0)


#: The networks candidate ranking runs on: the ten Table III
#: topologies plus two seeded random WANs.
TABLE_III = [f"topozoo-{i}" for i in range(1, 11)]
WANS = ["wan:16:24:3", "wan:40:80:5"]


def assert_tree_matches(net, oracle):
    """``PathEnumerator.shortest`` equals ``oracle(u, v)`` on every
    ordered pair: the same switches and the same latency float."""
    enum = PathEnumerator(net)
    names = net.switch_names
    for u in names:
        for v in names:
            want = oracle(u, v)
            got = enum.shortest(u, v)
            assert enum.reachable(u, v) is (want is not None), (u, v)
            if want is None:
                assert got is None, (u, v)
            else:
                assert got.switches == want.switches, (u, v)
                assert got.latency_us == want.latency_us, (u, v)


def first_of_yen(net):
    def oracle(u, v):
        found = k_shortest_paths(net, u, v, 3)
        return found[0] if found else None

    return oracle


class TestShortestPathTree:
    """The per-source trees against the per-pair searches they replace."""

    @pytest.mark.parametrize("spec", WANS)
    def test_matches_yen_on_seeded_wans(self, spec):
        net = resolve(spec)
        assert_tree_matches(net, first_of_yen(net))

    @pytest.mark.parametrize("spec", TABLE_III)
    def test_matches_dijkstra_on_table_iii(self, spec):
        # Yen's first path is this per-pair search (the full Yen sweep
        # below is slow-marked).
        net = resolve(spec)
        assert_tree_matches(net, lambda u, v: shortest_path(net, u, v))

    @pytest.mark.slow
    @pytest.mark.parametrize("spec", TABLE_III)
    def test_matches_yen_on_table_iii(self, spec):
        net = resolve(spec)
        assert_tree_matches(net, first_of_yen(net))

    def test_trees_bypass_yen(self, monkeypatch):
        net = resolve(WANS[0])
        enum = PathEnumerator(net)
        monkeypatch.setattr(
            enum, "paths", lambda *a: pytest.fail("paths() called")
        )
        for u in net.switch_names:
            for v in net.switch_names:
                enum.reachable(u, v)
        assert len(enum._trees) == net.num_switches


@st.composite
def tie_heavy_networks(draw):
    """Small graphs whose many equal-latency routes stress tie-breaking.

    Link latencies are 0, 1 or 2 ms and every switch has the same
    latency, so equal-cost paths abound; a two-switch island is never
    reachable from the rest.
    """
    n = draw(st.integers(2, 7))
    net = Network("ties")
    for i in range(n):
        net.add_switch(Switch(f"s{i}", latency_us=1.0))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    latency = st.sampled_from([0, 1, 2])
    for i, j in draw(st.lists(st.sampled_from(pairs), unique=True)):
        net.connect(f"s{i}", f"s{j}", latency_ms=draw(latency))
    net.add_switch(Switch("x0", latency_us=1.0))
    net.add_switch(Switch("x1", latency_us=1.0))
    net.connect("x0", "x1", latency_ms=draw(latency))
    return net


@settings(max_examples=80, deadline=None)
@given(tie_heavy_networks())
def test_tree_agrees_with_shortest_path_under_ties(net):
    assert_tree_matches(net, lambda u, v: shortest_path(net, u, v))

"""Path enumeration: the path sets ``P(u, v)`` and latencies ``t_p(p)``.

The MILP formulation routes inter-switch traffic over explicit paths,
so the framework needs, for every ordered switch pair, a set of
candidate paths together with their latencies.  Enumerating *all*
simple paths is exponential; following standard practice we enumerate
the ``k`` shortest loop-free paths by latency (Yen's algorithm on top
of Dijkstra) and let ``k`` bound the decision-variable blow-up.  Only
the explicit-path formulation needs those sets; every other caller
asks for the single shortest path, which :class:`PathEnumerator` reads
from one Dijkstra tree per source instead.

``t_p(p)`` sums the switch latencies ``t_s`` and link latencies ``t_l``
along the path, matching the paper's definition.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.network.topology import Network


@dataclass(frozen=True)
class Path:
    """A loop-free switch sequence with its total latency.

    Attributes:
        switches: Ordered switch names from source to destination.
        latency_us: ``t_p(p)`` — sum of ``t_s`` over switches and
            ``t_l`` over links, in microseconds.
    """

    switches: Tuple[str, ...]
    latency_us: float

    def __post_init__(self) -> None:
        if len(self.switches) < 1:
            raise ValueError("a path needs at least one switch")
        if len(set(self.switches)) != len(self.switches):
            raise ValueError(f"path revisits a switch: {self.switches}")

    @property
    def source(self) -> str:
        return self.switches[0]

    @property
    def destination(self) -> str:
        return self.switches[-1]

    @property
    def hop_count(self) -> int:
        return len(self.switches) - 1

    def links(self) -> List[Tuple[str, str]]:
        return [
            (self.switches[i], self.switches[i + 1])
            for i in range(len(self.switches) - 1)
        ]

    def contains(self, element: str) -> bool:
        """Whether a switch name lies on this path (``E(a, p)`` = 1)."""
        return element in self.switches

    def contains_link(self, u: str, v: str) -> bool:
        pairs = set(self.links())
        return (u, v) in pairs or (v, u) in pairs


def path_latency_us(network: Network, switches: Sequence[str]) -> float:
    """``t_p`` for an explicit switch sequence."""
    total = sum(network.switch(s).latency_us for s in switches)
    for i in range(len(switches) - 1):
        total += network.link(switches[i], switches[i + 1]).latency_us
    return total


def _settle(
    network: Network,
    source: str,
    target: Optional[str] = None,
    banned_nodes: Optional[Set[str]] = None,
    banned_links: Optional[Set[Tuple[str, str]]] = None,
) -> Tuple[Dict[str, str], Set[str]]:
    """Latency Dijkstra from ``source``: ``(predecessors, settled)``.

    Stops as soon as ``target`` is settled; with no target it settles
    every reachable switch, which yields the whole shortest-path tree.
    Settled switches are never relaxed again, so the tree path to any
    switch is exactly the path a search stopped at that switch finds.
    """
    banned_nodes = banned_nodes or set()
    banned_links = banned_links or set()
    prev: Dict[str, str] = {}
    visited: Set[str] = set()
    if source in banned_nodes or target in banned_nodes:
        return prev, visited
    # Node cost model: entering a switch costs t_s, traversing a link
    # costs t_l; the source's t_s is added up front.
    dist: Dict[str, float] = {source: network.switch(source).latency_us}
    heap: List[Tuple[float, str]] = [(dist[source], source)]
    while heap:
        d, current = heapq.heappop(heap)
        if current in visited:
            continue
        visited.add(current)
        if current == target:
            break
        for nxt in network.neighbors(current):
            if nxt in banned_nodes or nxt in visited:
                continue
            key = (current, nxt) if current <= nxt else (nxt, current)
            if key in banned_links:
                continue
            link = network.link(current, nxt)
            cand = d + link.latency_us + network.switch(nxt).latency_us
            if cand < dist.get(nxt, float("inf")):
                dist[nxt] = cand
                prev[nxt] = current
                heapq.heappush(heap, (cand, nxt))
    return prev, visited


def _trace(prev: Dict[str, str], source: str, target: str) -> List[str]:
    """The switch sequence from ``source`` to ``target`` in ``prev``."""
    order = [target]
    while order[-1] != source:
        order.append(prev[order[-1]])
    order.reverse()
    return order


def _dijkstra(
    network: Network,
    source: str,
    target: str,
    banned_nodes: Optional[Set[str]] = None,
    banned_links: Optional[Set[Tuple[str, str]]] = None,
) -> Optional[List[str]]:
    """Latency-shortest path avoiding banned nodes/links, or None."""
    prev, visited = _settle(
        network, source, target, banned_nodes, banned_links
    )
    if target not in visited:
        return None
    return _trace(prev, source, target)


def shortest_path(network: Network, source: str, target: str) -> Optional[Path]:
    """The latency-shortest path between two switches, or None."""
    nodes = _dijkstra(network, source, target)
    if nodes is None:
        return None
    return Path(tuple(nodes), path_latency_us(network, nodes))


def k_shortest_paths(
    network: Network, source: str, target: str, k: int
) -> List[Path]:
    """Yen's algorithm: up to ``k`` loop-free shortest paths by latency."""
    if k <= 0:
        return []
    first = shortest_path(network, source, target)
    if first is None:
        return []
    found: List[Path] = [first]
    candidates: List[Tuple[float, Tuple[str, ...]]] = []
    seen: Set[Tuple[str, ...]] = {first.switches}

    while len(found) < k:
        last = found[-1].switches
        for i in range(len(last) - 1):
            spur_node = last[i]
            root = last[: i + 1]
            banned_links: Set[Tuple[str, str]] = set()
            for path in found:
                if path.switches[: i + 1] == root and len(path.switches) > i + 1:
                    u, v = path.switches[i], path.switches[i + 1]
                    banned_links.add((u, v) if u <= v else (v, u))
            banned_nodes = set(root[:-1])
            spur = _dijkstra(
                network, spur_node, target, banned_nodes, banned_links
            )
            if spur is None:
                continue
            total = root[:-1] + tuple(spur)
            if total in seen:
                continue
            seen.add(total)
            heapq.heappush(
                candidates, (path_latency_us(network, total), total)
            )
        if not candidates:
            break
        latency, nodes = heapq.heappop(candidates)
        found.append(Path(nodes, latency))
    return found


class PathEnumerator:
    """Cached path queries over one network.

    :meth:`shortest` and :meth:`reachable` read a single-source
    shortest-path tree, built once per source on first use; only
    :meth:`paths` (the explicit ``P(u, v)`` sets) runs Yen's algorithm.
    A tree path is exactly ``paths(u, v)[0]``: both come from the same
    Dijkstra, and the latency is summed by :func:`path_latency_us`.

    Args:
        network: The substrate network.
        k: Maximum candidate paths per ordered switch pair.
    """

    def __init__(self, network: Network, k: int = 3) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.network = network
        self.k = k
        self._cache: Dict[Tuple[str, str], List[Path]] = {}
        self._trees: Dict[str, Tuple[Dict[str, str], Set[str]]] = {}
        self._shortest: Dict[Tuple[str, str], Optional[Path]] = {}

    def _trivial(self, switch: str) -> Path:
        """``P(u, u)``: the single-switch path."""
        return Path((switch,), self.network.switch(switch).latency_us)

    def paths(self, source: str, target: str) -> List[Path]:
        """``P(u, v)`` — candidate paths, shortest first.

        ``P(u, u)`` is the trivial single-switch path.
        """
        key = (source, target)
        if key not in self._cache:
            if source == target:
                self._cache[key] = [self._trivial(source)]
            else:
                self._cache[key] = k_shortest_paths(
                    self.network, source, target, self.k
                )
        return self._cache[key]

    def shortest(self, source: str, target: str) -> Optional[Path]:
        """The latency-shortest path, or None when unreachable."""
        key = (source, target)
        if key not in self._shortest:
            self._shortest[key] = self._tree_path(source, target)
        return self._shortest[key]

    def _tree_path(self, source: str, target: str) -> Optional[Path]:
        if source == target:
            return self._trivial(source)
        tree = self._trees.get(source)
        if tree is None:
            tree = self._trees[source] = _settle(self.network, source)
        prev, settled = tree
        if target not in settled:
            return None
        nodes = _trace(prev, source, target)
        return Path(tuple(nodes), path_latency_us(self.network, nodes))

    def reachable(self, source: str, target: str) -> bool:
        return self.shortest(source, target) is not None

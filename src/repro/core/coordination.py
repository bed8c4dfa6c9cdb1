"""Inter-switch coordination: metadata channels and header layouts.

After placement, every TDG edge whose endpoints sit on different
switches induces metadata that must ride on packets between those
switches.  This module materializes that coordination:

* a :class:`MetadataChannel` per communicating ordered switch pair,
  listing which fields are shipped, the declared byte count (the sum of
  ``A(a, b)`` charged by the paper's objective) and the packed header
  layout actually emitted by the backend (equal fields shipped once);
* :class:`CoordinationAnalysis`, the per-plan summary the experiments
  read their overhead numbers from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.plan import DeploymentPlan
from repro.dataplane.fields import Field, FieldSet
from repro.dataplane.mat import Mat
from repro.tdg.dependencies import DependencyType
from repro.tdg.graph import TdgEdge


def edge_metadata_fields(
    upstream: Mat, downstream: Mat, dep_type: DependencyType
) -> FieldSet:
    """The metadata fields a dependency ships downstream.

    Mirrors :func:`repro.tdg.analysis.edge_metadata_bytes` but returns
    the fields themselves (for header layout) instead of their sizes.
    """
    if dep_type is DependencyType.MATCH:
        return upstream.modified_fields.metadata_only()
    if dep_type is DependencyType.ACTION:
        return upstream.modified_fields.union(
            downstream.modified_fields
        ).metadata_only()
    if dep_type is DependencyType.REVERSE:
        return FieldSet()
    if dep_type is DependencyType.SUCCESSOR:
        return upstream.modified_fields.metadata_only()
    raise AssertionError(f"unhandled dependency type {dep_type}")


@dataclass
class MetadataChannel:
    """Coordination between one ordered pair of switches.

    Attributes:
        source, destination: The switch pair.
        edges: The cross-switch TDG edges charged to this pair.
        declared_bytes: ``sum A(a, b)`` over those edges — the quantity
            the optimization minimizes (fields shipped per edge).
        layout: Packed header layout: (field, offset) pairs; a field
            needed by several edges occupies one slot.
        layout_bytes: Size of the packed layout.
    """

    source: str
    destination: str
    edges: List[TdgEdge]
    declared_bytes: int
    layout: List[Tuple[Field, int]]
    layout_bytes: int

    @property
    def field_names(self) -> List[str]:
        return [f.name for f, _offset in self.layout]


class CoordinationAnalysis:
    """Derives all coordination channels of a deployment plan."""

    def __init__(self, plan: DeploymentPlan) -> None:
        self.plan = plan
        self.channels: Dict[Tuple[str, str], MetadataChannel] = {}
        self._build()

    def _build(self) -> None:
        grouped: Dict[Tuple[str, str], List[TdgEdge]] = {}
        for edge in self.plan.tdg.edges:
            u = self.plan.switch_of(edge.upstream)
            v = self.plan.switch_of(edge.downstream)
            if u == v or edge.metadata_bytes == 0:
                continue
            grouped.setdefault((u, v), []).append(edge)

        for (u, v), edges in grouped.items():
            fields = FieldSet()
            declared = 0
            for edge in edges:
                upstream = self.plan.tdg.node(edge.upstream)
                downstream = self.plan.tdg.node(edge.downstream)
                fields = fields.union(
                    edge_metadata_fields(upstream, downstream, edge.dep_type)
                )
                declared += edge.metadata_bytes
            layout: List[Tuple[Field, int]] = []
            offset = 0
            for field in sorted(fields, key=lambda f: f.name):
                layout.append((field, offset))
                offset += field.size_bytes
            self.channels[(u, v)] = MetadataChannel(
                source=u,
                destination=v,
                edges=edges,
                declared_bytes=declared,
                layout=layout,
                layout_bytes=offset,
            )

    # ------------------------------------------------------------------
    # Summary metrics
    # ------------------------------------------------------------------
    def max_declared_bytes(self) -> int:
        """``A_max`` — matches ``plan.max_metadata_bytes()``."""
        if not self.channels:
            return 0
        return max(c.declared_bytes for c in self.channels.values())

    def max_layout_bytes(self) -> int:
        """The packed (deduplicated) worst pair overhead — what a real
        header would occupy; never exceeds the declared maximum."""
        if not self.channels:
            return 0
        return max(c.layout_bytes for c in self.channels.values())

    def total_declared_bytes(self) -> int:
        return sum(c.declared_bytes for c in self.channels.values())

    def channel(self, source: str, destination: str) -> MetadataChannel:
        try:
            return self.channels[(source, destination)]
        except KeyError:
            raise KeyError(
                f"no coordination between {source!r} and {destination!r}"
            ) from None

    def __len__(self) -> int:
        return len(self.channels)

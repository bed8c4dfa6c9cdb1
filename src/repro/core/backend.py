"""The Hermes backend: lowering plans to switch configurations.

The paper's backend takes the decision variables and produces, per
switch, the artifacts the vendor compiler and the controller consume:
which MATs (and rules) run on which stages, what metadata header the
switch must prepend/extract per neighbour, and the forwarding entries
steering packets along the chosen inter-switch paths.

Hardware compilation is out of scope offline; the backend emits the
same information as structured, serializable configuration objects —
sufficient for the simulator, the examples and Exp#6's resource
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.coordination import CoordinationAnalysis
from repro.plan import DeploymentPlan
from repro.dataplane.mat import ResourceDemand


@dataclass
class StageProgram:
    """One stage's worth of configuration."""

    stage: int
    mat_names: List[str] = field(default_factory=list)
    load: float = 0.0


@dataclass
class ForwardingEntry:
    """A controller-installed steering rule: next hop towards a peer."""

    destination_switch: str
    next_hop: str
    path: Tuple[str, ...]


@dataclass
class SwitchConfig:
    """Everything one switch needs to participate in the deployment.

    Attributes:
        switch: Switch name.
        stages: Per-stage MAT layout (only occupied stages listed).
        emit_headers: Metadata header layout to append per downstream
            peer: peer -> list of (field name, offset, size bytes).
        extract_headers: Header layout to parse per upstream peer.
        forwarding: Steering entries towards downstream peers.
        total_rules: Rules installed across the switch's MATs.
        detailed_demand: Aggregate SRAM/TCAM/ALU consumption.
    """

    switch: str
    stages: List[StageProgram] = field(default_factory=list)
    emit_headers: Dict[str, List[Tuple[str, int, int]]] = field(
        default_factory=dict
    )
    extract_headers: Dict[str, List[Tuple[str, int, int]]] = field(
        default_factory=dict
    )
    forwarding: List[ForwardingEntry] = field(default_factory=list)
    total_rules: int = 0
    detailed_demand: ResourceDemand = field(default_factory=ResourceDemand)

    def to_dict(self) -> Dict:
        """A plain-dict rendering (JSON-ready) of the configuration."""
        return {
            "switch": self.switch,
            "stages": [
                {
                    "stage": sp.stage,
                    "mats": list(sp.mat_names),
                    "load": round(sp.load, 6),
                }
                for sp in self.stages
            ],
            "emit_headers": {
                peer: [list(entry) for entry in layout]
                for peer, layout in self.emit_headers.items()
            },
            "extract_headers": {
                peer: [list(entry) for entry in layout]
                for peer, layout in self.extract_headers.items()
            },
            "forwarding": [
                {
                    "destination": fe.destination_switch,
                    "next_hop": fe.next_hop,
                    "path": list(fe.path),
                }
                for fe in self.forwarding
            ],
            "total_rules": self.total_rules,
        }


class Backend:
    """Transforms a validated plan into per-switch configurations."""

    def compile(self, plan: DeploymentPlan) -> Dict[str, SwitchConfig]:
        """Emit a :class:`SwitchConfig` for every occupied switch."""
        coordination = CoordinationAnalysis(plan)
        configs: Dict[str, SwitchConfig] = {
            name: SwitchConfig(switch=name)
            for name in plan.occupied_switches()
        }

        # Stage layouts.
        for name, config in configs.items():
            per_stage: Dict[int, StageProgram] = {}
            for mat_name in plan.mats_on(name):
                placement = plan.placements[mat_name]
                mat = plan.tdg.node(mat_name)
                share = mat.resource_demand / len(placement.stages)
                for stage in placement.stages:
                    sp = per_stage.setdefault(stage, StageProgram(stage))
                    sp.mat_names.append(mat_name)
                    sp.load += share
                config.total_rules += len(mat.rules)
                config.detailed_demand = (
                    config.detailed_demand + mat.detailed_demand
                )
            config.stages = [per_stage[s] for s in sorted(per_stage)]

        # Metadata headers, both directions.
        for (u, v), channel in coordination.channels.items():
            layout = [
                (f.name, offset, f.size_bytes) for f, offset in channel.layout
            ]
            configs[u].emit_headers[v] = layout
            configs[v].extract_headers[u] = layout

        # Forwarding along routed paths.
        for (u, v), path in plan.routing.items():
            if path.hop_count == 0:
                continue
            if u in configs:
                configs[u].forwarding.append(
                    ForwardingEntry(
                        destination_switch=v,
                        next_hop=path.switches[1],
                        path=path.switches,
                    )
                )
        return configs

"""An executable interpreter for deployed programs.

The structural validators (:meth:`DeploymentPlan.validate`,
:func:`repro.core.verification.verify_dataflow`) prove a plan *could*
process packets correctly.  This interpreter actually does it: a packet
— a mapping of header-field names to values — is pushed through the
deployment, executing every MAT's matching rule and action with
concrete semantics:

* ``MODIFY_FIELD`` writes the firing rule's action data (or zero);
* ``HASH`` computes a deterministic CRC over the read fields;
* ``COUNTER``/``REGISTER`` update per-MAT stateful arrays indexed by
  the read value and write back the new count;
* ``FORWARD`` records the egress decision, ``DROP`` ends processing.

Metadata behaves exactly as the coordination machinery dictates: it is
pipeline-local, so when the packet leaves a switch only the fields in
that switch's outgoing piggyback headers survive, materialized into the
destination's arrival buffer.  A MAT that needs metadata its switch
never received raises :class:`MissingMetadataError` — making the
interpreter an end-to-end oracle for coordination correctness.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.coordination import CoordinationAnalysis
from repro.plan import DeploymentPlan
from repro.core.verification import verify_dataflow
from repro.dataplane.actions import Action, ActionPrimitive
from repro.dataplane.mat import Mat


class MissingMetadataError(RuntimeError):
    """A MAT needed metadata that never reached its switch."""


@dataclass
class ExecutionTrace:
    """What happened to one packet.

    Attributes:
        visited_switches: Switches in visit order.
        fired: (switch, MAT, action) triples in execution order.
        final_fields: Field values after the last switch.
        dropped: Whether a DROP action ended processing.
        egress_port: Last FORWARD decision, if any.
    """

    visited_switches: List[str] = field(default_factory=list)
    fired: List[Tuple[str, str, str]] = field(default_factory=list)
    final_fields: Dict[str, int] = field(default_factory=dict)
    dropped: bool = False
    egress_port: Optional[int] = None

    def actions_of(self, mat_name: str) -> List[str]:
        return [action for _sw, mat, action in self.fired if mat == mat_name]


def _crc_hash(values: List[int]) -> int:
    data = b"".join(v.to_bytes(8, "big", signed=False) for v in values)
    return zlib.crc32(data)


class PlanInterpreter:
    """Executes packets against a validated deployment plan.

    Stateful tables (counters/registers) persist across packets, so a
    sequence of sends observes counting behaviour.

    Args:
        plan: A validated deployment plan.
    """

    def __init__(self, plan: DeploymentPlan) -> None:
        self.plan = plan
        self.coordination = CoordinationAnalysis(plan)
        # Visit order including recirculations, from the dataflow
        # verifier's execution order.
        report = verify_dataflow(plan)
        self._visit_plan = self._visits_from(report.execution_order)
        # Per-MAT stateful arrays.
        self._registers: Dict[str, Dict[int, int]] = {}
        self._field_widths: Dict[str, int] = {}
        for mat in plan.tdg.mats:
            for fld in list(mat.match_fields) + list(mat.read_fields):
                self._field_widths[fld.name] = fld.width_bits

    def _visits_from(
        self, execution_order: List[str]
    ) -> List[Tuple[str, List[str]]]:
        """Compress the MAT execution order into per-switch visits."""
        visits: List[Tuple[str, List[str]]] = []
        for mat_name in execution_order:
            switch = self.plan.switch_of(mat_name)
            if visits and visits[-1][0] == switch:
                visits[-1][1].append(mat_name)
            else:
                visits.append((switch, [mat_name]))
        return visits

    # ------------------------------------------------------------------
    def run_packet(self, headers: Dict[str, int]) -> ExecutionTrace:
        """Push one packet through the deployment."""
        trace = ExecutionTrace()
        metadata: Dict[str, int] = {}
        # Piggyback buffers: destination switch -> delivered fields.
        inbox: Dict[str, Dict[str, int]] = {}
        packet = dict(headers)

        for switch, mats in self._visit_plan:
            if trace.dropped:
                break
            trace.visited_switches.append(switch)
            # Metadata is pipeline-local: entering a switch starts from
            # whatever the piggyback headers delivered.
            metadata = dict(inbox.get(switch, {}))
            for mat_name in mats:
                if trace.dropped:
                    break
                mat = self.plan.tdg.node(mat_name)
                self._execute_mat(
                    mat, mat_name, switch, packet, metadata, trace
                )
            # Leaving the switch: materialize outgoing channels.
            for (u, v), channel in self.coordination.channels.items():
                if u != switch:
                    continue
                delivered = inbox.setdefault(v, {})
                for fld, _offset in channel.layout:
                    if fld.name in metadata:
                        delivered[fld.name] = metadata[fld.name]

        trace.final_fields = {**packet, **metadata}
        return trace

    # ------------------------------------------------------------------
    def _execute_mat(
        self,
        mat: Mat,
        mat_name: str,
        switch: str,
        packet: Dict[str, int],
        metadata: Dict[str, int],
        trace: ExecutionTrace,
    ) -> None:
        def read(field_name: str, required: bool) -> Optional[int]:
            if field_name in metadata:
                return metadata[field_name]
            if field_name in packet:
                return packet[field_name]
            if required:
                raise MissingMetadataError(
                    f"MAT {mat_name!r} on {switch!r} needs field "
                    f"{field_name!r} which never arrived"
                )
            return None

        # Match phase: metadata keys are required; header fields
        # missing from the packet simply miss.
        key: Dict[str, int] = {}
        for fld in mat.match_fields:
            value = read(fld.name, required=fld.is_metadata)
            if value is not None:
                key[fld.name] = value

        action = self._select_action(mat, key)
        rule = self._select_rule(mat, key)
        if action is None:
            return  # table miss with no rules: no-op
        trace.fired.append((switch, mat_name, action.name))

        # P4 semantics: exactly one of the table's actions runs, but
        # the PHV declares every metadata field the table *may* write —
        # zero-initialized.  Downstream tables matching a field the
        # chosen action skipped see 0, not garbage (and coordination
        # channels, provisioned for the union, ship that 0).
        for fld in mat.modified_fields.metadata_only():
            metadata.setdefault(fld.name, 0)

        def write(field_name: str, value: int) -> None:
            width = self._field_widths.get(field_name, 32)
            value &= (1 << width) - 1
            if any(
                f.name == field_name and f.is_metadata
                for f in mat.modified_fields
            ):
                metadata[field_name] = value
            else:
                packet[field_name] = value

        if action.primitive is ActionPrimitive.DROP:
            trace.dropped = True
            return
        if action.primitive is ActionPrimitive.FORWARD:
            for fld in action.writes:
                port = (rule.action_value(fld.name) if rule else None) or 1
                write(fld.name, port)
                trace.egress_port = port
            return
        if action.primitive is ActionPrimitive.HASH:
            inputs = [
                read(f.name, required=f.is_metadata) or 0
                for f in action.reads
            ]
            for fld in action.writes:
                write(fld.name, _crc_hash(inputs))
            return
        if action.primitive in (
            ActionPrimitive.COUNTER,
            ActionPrimitive.REGISTER,
        ):
            index_values = [
                read(f.name, required=f.is_metadata) or 0
                for f in action.reads
            ]
            index = index_values[0] if index_values else 0
            table = self._registers.setdefault(mat_name, {})
            table[index] = table.get(index, 0) + 1
            for fld in action.writes:
                write(fld.name, table[index])
            return
        # MODIFY_FIELD / ENCAP / DECAP / NO_OP: write action data.
        for fld in action.writes:
            explicit = rule.action_value(fld.name) if rule else None
            if explicit is not None:
                write(fld.name, explicit)
            else:
                inputs = [
                    read(f.name, required=f.is_metadata) or 0
                    for f in action.reads
                ]
                write(fld.name, inputs[0] if inputs else 0)

    def _select_rule(self, mat: Mat, key: Dict[str, int]):
        matching = [
            rule
            for rule in mat.rules
            if rule.matches_packet(key, self._field_widths)
        ]
        if not matching:
            return None
        return max(matching, key=lambda r: r.priority)

    def _select_action(
        self, mat: Mat, key: Dict[str, int]
    ) -> Optional[Action]:
        rule = self._select_rule(mat, key)
        if rule is not None:
            return mat.action(rule.action_name)
        # Miss: default to the first action (P4 default_action).
        return mat.actions[0] if mat.actions else None

    def register_value(self, mat_name: str, index: int) -> int:
        """Inspect a MAT's stateful array (for tests and examples)."""
        return self._registers.get(mat_name, {}).get(index, 0)

    def registers(self, mat_name: str) -> Dict[int, int]:
        """A copy of a MAT's whole stateful array."""
        return dict(self._registers.get(mat_name, {}))

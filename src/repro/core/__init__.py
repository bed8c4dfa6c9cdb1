"""Hermes core: the paper's contribution.

The pipeline mirrors Figure 3:

1. :class:`ProgramAnalyzer` turns input programs into one merged,
   metadata-annotated TDG (Algorithm 1);
2. the optimization framework places every MAT on a pipeline stage of a
   programmable switch, either exactly (:class:`HermesMilp`, problem
   P#1 solved by branch & bound) or via the greedy heuristic
   (:class:`GreedyHeuristic`, Algorithm 2);
3. the result is a :class:`DeploymentPlan` whose inter-switch
   coordination cost is measured by :class:`CoordinationAnalysis`, and
   which the :class:`Backend` lowers to per-switch configurations.

:class:`Hermes` is the facade tying the steps together.
"""

from repro.plan import (
    DeploymentError,
    DeploymentPlan,
    MatPlacement,
)
from repro.core.stages import StageAssignmentError, assign_stages
from repro.core.analyzer import ProgramAnalyzer
from repro.core.delta import DeltaFormulation, select_delta_candidates
from repro.core.formulation import HermesMilp, MilpFormulation
from repro.core.formulation_stagewise import StagewiseMilp
from repro.core.replication import replicate_cheap_hubs, replication_cost
from repro.core.heuristic import GreedyHeuristic, split_tdg
from repro.core.coordination import CoordinationAnalysis, MetadataChannel
from repro.core.backend import Backend, SwitchConfig
from repro.core.verification import DataflowError, DataflowReport, verify_dataflow
from repro.core.explain import OverheadReport, explain_overhead
from repro.core.refine import refine_plan
from repro.core.hermes import Hermes, HermesResult

__all__ = [
    "Backend",
    "CoordinationAnalysis",
    "DataflowError",
    "DataflowReport",
    "DeltaFormulation",
    "DeploymentError",
    "DeploymentPlan",
    "GreedyHeuristic",
    "Hermes",
    "HermesMilp",
    "HermesResult",
    "MatPlacement",
    "MetadataChannel",
    "MilpFormulation",
    "OverheadReport",
    "ProgramAnalyzer",
    "StageAssignmentError",
    "StagewiseMilp",
    "SwitchConfig",
    "assign_stages",
    "explain_overhead",
    "refine_plan",
    "replicate_cheap_hubs",
    "replication_cost",
    "select_delta_candidates",
    "split_tdg",
    "verify_dataflow",
]

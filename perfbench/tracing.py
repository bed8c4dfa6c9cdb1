"""Span recording around the public functions of each layer.

The benchmark never edits the program: :func:`install` replaces each
traced function with a wrapper, at its defining module and at every
``repro.*`` module that imported it by name, so every call path goes
through the wrapper.  Wrappers record nothing until
:attr:`Recorder.active` is set, so set-up and correctness checks stay
out of the spans (:meth:`Recorder.root` records one operation).

Spans live in memory (one tuple each) and are written as one JSON
document when the benchmark ends (:meth:`Recorder.write`).  A span's *self
time* is its duration minus the time its child spans cover; summing
self times per layer attributes every traced second exactly once.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

#: Span name -> the public functions it times, as (module, attribute
#: path).  The span name is the per-layer metric name without ``_s``.
TRACED: Dict[str, List[Tuple[str, str]]] = {
    "workloads.parse": [
        ("repro.cli", "parse_workload"),
        ("repro.cli", "parse_topology"),
    ],
    "tdg.analyze": [("repro.core.analyzer", "ProgramAnalyzer.analyze")],
    "core.heuristic": [("repro.core.heuristic", "GreedyHeuristic.deploy")],
    "core.refine": [("repro.core.refine", "refine_plan")],
    "network.paths": [("repro.network.paths", "PathEnumerator.paths")],
    "core.select_candidates": [
        ("repro.core.formulation", "select_candidates")
    ],
    "core.model_build": [("repro.core.formulation", "MilpFormulation.build")],
    "milp.lp": [("repro.milp.branch_bound", "linprog")],
    "milp.bb_self": [("repro.milp.branch_bound", "BranchBoundSolver.solve")],
    "milp.presolve": [("repro.milp.presolve", "presolve")],
    "plan.to_dict": [("repro.plan.serialize", "plan_to_dict")],
    "plan.from_dict": [("repro.plan.serialize", "plan_from_dict")],
    "plan.fingerprint": [("repro.plan.serialize", "plan_fingerprint")],
    "runtime.replan": [
        ("repro.runtime.incremental", "IncrementalReplanner.replan")
    ],
    "plan.rebase": [("repro.plan.splice", "rebase_plan")],
    "runtime.store_write": [("repro.runtime.store", "PlanStore.write_dir")],
    "server.protocol": [
        ("repro.server.protocol", "encode_frame"),
        ("repro.server.protocol", "decode_frame"),
    ],
    "server.handler": [
        ("repro.server.session", "Session.deploy"),
        ("repro.server.session", "Session.plan_diff"),
    ],
    "simulation.trace": [("repro.simulation.traces", "generate_trace")],
    "simulation.spec": [
        ("repro.simulation.spec", "SimulationSpec.from_plan")
    ],
    "simulation.engine": [
        ("repro.simulation.contention", "ContentionEngine.evaluate")
    ],
}

#: Spans whose self time counts toward ``trace.coverage``.  The
#: daemon's request handler is excluded: it blocks on cold solves that
#: run (and are traced) on another thread.
LAYERS = [name for name in TRACED if name != "server.handler"]

#: The span that wraps one whole benchmark operation.  Its self time
#: is the part of an operation no named layer accounts for.
ROOT = "op"


class Recorder:
    """In-memory span sink shared by every installed wrapper.

    A span is ``(span_id, parent_id, request_id, name, start, end,
    self_s)``; spans of one operation share its ``request_id``.
    """

    def __init__(self) -> None:
        self.active = False
        self.spans: List[Tuple] = []
        self.store_writes: List[Tuple[int, int]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        span_id = next(self._ids)
        if stack:
            parent_id, request_id = stack[-1][0], stack[-1][1]
        else:
            parent_id, request_id = 0, span_id
        frame = [span_id, request_id, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][2] += duration
            self.spans.append(
                (span_id, parent_id, request_id, name, start, end,
                 duration - frame[2])
            )

    def root(self, fn: Callable, *args, **kwargs):
        """Run one benchmark operation under the root span, recording
        only for its duration."""
        self.active = True
        try:
            return self.call(ROOT, fn, args, kwargs)
        finally:
            self.active = False

    # ------------------------------------------------------------------
    def self_times(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span[3]] = totals.get(span[3], 0.0) + span[6]
        return totals

    def counts(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for span in self.spans:
            totals[span[3]] = totals.get(span[3], 0) + 1
        return totals

    def write(self, path: str) -> None:
        """Write the spans and store writes (once, at the end)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {"spans": self.spans, "store_writes": self.store_writes}, fh
            )

    @classmethod
    def read(cls, path: str) -> "Recorder":
        """A recorder holding what :meth:`write` wrote to ``path``."""
        with open(path) as fh:
            doc = json.load(fh)
        recorder = cls()
        recorder.spans = [tuple(span) for span in doc["spans"]]
        recorder.store_writes = [tuple(w) for w in doc["store_writes"]]
        return recorder


RECORDER = Recorder()


def _wrap(name: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return RECORDER.call(name, fn, args, kwargs)

    traced.__perfbench_traced__ = True
    return traced


def _wrap_store_write(fn: Callable) -> Callable:
    """``PlanStore.write_dir`` also records the bytes it wrote and the
    size of the newest plan file (the one this deploy added)."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        paths = RECORDER.call("runtime.store_write", fn, args, kwargs)
        if RECORDER.active:
            sizes = [os.path.getsize(p) for p in paths]
            plan_files = [
                (p, s) for p, s in zip(paths, sizes)
                if os.path.basename(p).startswith("plan-")
            ]
            newest = max(plan_files)[1] if plan_files else 0
            RECORDER.store_writes.append((sum(sizes), newest))
        return paths

    traced.__perfbench_traced__ = True
    return traced


def _rebind_everywhere(original: Callable, replacement: Callable) -> None:
    """Point every ``repro.*`` module-level binding of ``original`` at
    ``replacement`` (covers ``from x import f`` sites)."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> None:
    """Install every wrapper of :data:`TRACED` (idempotent)."""
    for name, targets in TRACED.items():
        for module_name, path in targets:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner: Any = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            if owner is module:
                original = getattr(module, attr)
                if getattr(original, "__perfbench_traced__", False):
                    continue
                wrapped = _wrap(name, original)
                if original.__module__.startswith("repro"):
                    _rebind_everywhere(original, wrapped)
                setattr(module, attr, wrapped)
                continue
            raw = None
            for klass in owner.__mro__:
                if attr in vars(klass):
                    raw = vars(klass)[attr]
                    break
            if raw is None:
                raise AttributeError(f"{module_name}.{path}")
            bound = isinstance(raw, (classmethod, staticmethod))
            func = raw.__func__ if bound else raw
            if getattr(func, "__perfbench_traced__", False):
                continue
            if name == "runtime.store_write":
                wrapped = _wrap_store_write(func)
            else:
                wrapped = _wrap(name, func)
            if bound:
                wrapped = type(raw)(wrapped)
            setattr(owner, attr, wrapped)

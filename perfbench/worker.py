"""One benchmark run of one workload, in its own process.

Usage (``run.py`` starts it; it is not meant to be typed by hand)::

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]
        [--smoke] [--inject-fault]

The process imports what the workload's entry point needs and builds
the workload's inputs from ``SEED`` (that is the set-up), prints
``READY``, then runs a number of operations fixed by ``SECONDS`` (see
:meth:`InProcess.op_count`; serve-mix: :meth:`ServeMix.session_count`).
Correctness checks run between operations, outside the timed time.
The in-process workloads pin themselves to one CPU and sample its
speed during set-up and timed operations (:class:`run.SpeedSampler`).
The last stdout line is one JSON document with the raw samples;
``run.py`` turns it into metrics.

With ``TRACE`` = 1 the same operations run twice: once untraced and
once with the span wrappers of :mod:`tracing` installed, so the
per-layer numbers come with the tracing overhead they cost.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, ".out")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from run import (  # noqa: E402
    DEFAULT_SEED,
    SpeedSampler,
    nominal_latencies,
    setup_probes,
    speed_scale,
    worker_env,
)

#: Table III topology ids (``topozoo-1`` .. ``topozoo-10``).
TABLE_III = list(range(1, 11))

#: Synthetic program seeds of deploy-heuristic.  Every block of ten
#: deploys uses each Table III topology and each of these seeds once,
#: paired by the run seed, so a run's mix of inputs - and with it its
#: cost - does not depend on which seed drew it.
SYNTHETIC_SEEDS = list(range(1, 11))

#: Inputs generated per run: far more operations than any run completes.
INPUT_COUNT = 400


def expected_failures(workload: str, got: Dict[str, Any]) -> List[str]:
    """How ``got`` differs from the outputs recorded at the default
    seed (``expected.json``); floats agree to a relative 1e-9."""
    with open(os.path.join(HERE, "expected.json")) as fh:
        want = json.load(fh)[workload]
    messages = []
    for key, value in want.items():
        ok = (
            close_to(got[key], value)
            if isinstance(value, float)
            else got[key] == value
        )
        if not ok:
            messages.append(
                f"default-seed {key}: got {got[key]!r}, recorded {value!r}"
            )
    return messages


# ----------------------------------------------------------------------
# Process measurements
# ----------------------------------------------------------------------
def peak_rss_mb(pid: str = "self") -> float:
    """``VmHWM`` of a process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def reset_peak_rss() -> None:
    """Restart this process's ``VmHWM`` from its current RSS."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def shuffled_blocks(rng: random.Random, pool: List, count: int) -> List:
    """``count`` items of ``pool``; each block of ``len(pool)`` is a
    fresh shuffle."""
    items: List = []
    while len(items) < count:
        block = list(pool)
        rng.shuffle(block)
        items += block
    return items[:count]


def table_iii_order(rng: random.Random, count: int) -> List[str]:
    return [f"topozoo-{i}" for i in shuffled_blocks(rng, TABLE_III, count)]


class Failures:
    """Failed checks, keyed by the operation they belong to."""

    def __init__(self) -> None:
        self.messages: List[Tuple[int, str]] = []

    def add(self, op_index: int, message: str) -> None:
        self.messages.append((op_index, message))

    def check(self, op_index: int, ok: bool, message: str) -> None:
        if not ok:
            self.add(op_index, message)

    @property
    def failed_ops(self) -> int:
        return len({i for i, _ in self.messages})


def validate_plan_doc(plan_doc: Dict[str, Any]) -> Optional[str]:
    """None when the plan document loads and passes ``validate()``."""
    from repro.plan.serialize import plan_from_dict

    try:
        plan_from_dict(plan_doc).validate()
    except Exception as exc:  # any failure is a failed check
        return f"{type(exc).__name__}: {exc}"
    return None


def close_to(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)


# ----------------------------------------------------------------------
# In-process workloads: deploy-heuristic, deploy-optimal, simulate-1m
# ----------------------------------------------------------------------
class InProcess:
    """Sequential operations through one ``repro.server.ops`` entry."""

    name = ""
    #: Modules the entry point imports (lazily) - part of set-up.
    modules = ["repro.server.ops", "repro.cli", "repro.core"]
    #: Runs perform whole blocks of operations: a block covers every
    #: input class once (ten Table III topologies).
    block = 1
    #: Run seconds budgeted per operation; sets the operation count.
    op_s = 1.0

    def __init__(self, seed: int, smoke: bool, fault: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.fault = fault
        self.rng = random.Random(f"{self.name}:{seed}")
        self.failures = Failures()
        if smoke:
            self.block = 1

    def op_count(self, seconds: float) -> int:
        """Operations in a run of ``seconds``: whole blocks, at least
        one.  It depends on ``seconds`` alone, so every run of a
        workload performs the same number of operations on the same
        kind of inputs, however fast the machine is."""
        blocks = max(1, round(seconds / (self.op_s * self.block)))
        return blocks * self.block

    def inputs(self, count: int) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def op(self, params: Dict[str, Any]) -> Dict[str, Any]:
        raise NotImplementedError

    def check(self, index: int, params, doc) -> None:
        """Checks of one operation's output (outside timed time)."""

    def finish(self) -> None:
        """Checks that run once after the timed phase."""

    def timed(self, index: int, params, trace_root=None):
        """One timed operation: ``(document, wall seconds)``."""
        start = time.perf_counter()
        doc = trace_root(self.op, params) if trace_root else self.op(params)
        return doc, time.perf_counter() - start

    def items(self, doc) -> int:
        """Work items one operation completed (for throughput)."""
        return 1

    def traced_extra(self, phase, ops: int) -> Dict[str, float]:
        """Workload-specific per-layer metrics of a traced phase."""
        return {}

    def quality(self, doc) -> Dict[str, float]:
        return {"a_max_bytes": doc["summary"]["a_max_bytes"]}

    def expected_check(self, doc) -> None:
        """Op 0 at the default seed must reproduce its recorded output."""
        if self.smoke or self.seed != DEFAULT_SEED:
            return
        for message in expected_failures(self.name, self.deterministic(doc)):
            self.failures.add(0, message)

    def deterministic(self, doc) -> Dict[str, Any]:
        return {
            "a_max_bytes": doc["summary"]["a_max_bytes"],
            "fingerprint": doc["fingerprint"],
        }


class DeployHeuristic(InProcess):
    name = "deploy-heuristic"
    block = len(TABLE_III)
    #: A deploy takes about a second; a 15 s run holds two blocks.
    op_s = 0.75

    def inputs(self, count):
        spec = "real:3+synthetic:4" if self.smoke else "real:10+synthetic:40"
        topologies = table_iii_order(self.rng, count)
        seeds = shuffled_blocks(self.rng, SYNTHETIC_SEEDS, count)
        return [
            {
                "workload": f"{spec}:{seed}",
                "topology": topology,
                "mode": "heuristic",
            }
            for topology, seed in zip(topologies, seeds)
        ]

    def op(self, params):
        from repro.server.ops import deploy_op

        return deploy_op(params)

    def check(self, index, params, doc):
        if self.fault and index == 0:
            doc["plan"]["placements"][0]["switch"] = "no-such-switch"
        error = validate_plan_doc(doc["plan"])
        self.failures.check(index, error is None, f"validate: {error}")
        if index == 0:
            self.expected_check(doc)


class DeployOptimal(InProcess):
    name = "deploy-optimal"
    block = len(TABLE_III)
    op_s = 2.0
    #: Far above the 1-4 s solve; a solve that stops at the limit
    #: (any non-optimal ``solver.done``) is a failure.
    time_limit_s = 600.0

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.statuses: List[str] = []

    def inputs(self, count):
        workload = "real:2" if self.smoke else "real:5"
        return [
            {
                "workload": workload,
                "topology": topology,
                "mode": "optimal",
                "time_limit_s": self.time_limit_s,
            }
            for topology in table_iii_order(self.rng, count)
        ]

    def op(self, params):
        from repro.server.ops import deploy_op
        from repro.telemetry import attached, current_sink, tee

        def sink(event):
            if event["kind"] == "solver.done":
                self.statuses.append(event["status"])

        self.statuses = []
        outer = current_sink()
        with attached(tee(outer, sink) if outer else sink):
            return deploy_op(params)

    def check(self, index, params, doc):
        from repro.server.ops import deploy_op

        statuses = list(self.statuses)
        self.failures.check(
            index,
            bool(statuses) and all(s == "optimal" for s in statuses),
            f"solve statuses {statuses} (time limit {self.time_limit_s}s)",
        )
        if self.fault and index == 0:
            doc["summary"]["a_max_bytes"] += 10**6
        error = validate_plan_doc(doc["plan"])
        self.failures.check(index, error is None, f"validate: {error}")
        heuristic = deploy_op(dict(params, mode="heuristic"))
        self.failures.check(
            index,
            doc["summary"]["a_max_bytes"]
            <= heuristic["summary"]["a_max_bytes"],
            f"optimal A_max {doc['summary']['a_max_bytes']} > heuristic "
            f"{heuristic['summary']['a_max_bytes']} on {params['topology']}",
        )
        if index == 0:
            self.expected_check(doc)


class Simulate1M(InProcess):
    name = "simulate-1m"
    modules = InProcess.modules + [
        "repro.simulation.contention",
        "repro.simulation.engine",
        "repro.simulation.spec",
        "repro.simulation.traces",
        "numpy",
    ]
    workload = "real:10+synthetic:20:7"
    topology = "topozoo-1"
    #: A simulation takes about 10 s; a 15 s run holds two.
    op_s = 7.5

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.batch_mean_fct_us: Optional[float] = None
        self.fingerprints: set = set()

    def inputs(self, count):
        flows = 20_000 if self.smoke else 1_000_000
        return [
            {
                "workload": self.workload,
                "topology": self.topology,
                "engine": "contention",
                "load": 0.9,
                "flows": flows,
                "trace_seed": self.rng.randrange(1, 10**6),
            }
            for _ in range(count)
        ]

    def op(self, params):
        from repro.server.ops import simulate_op

        return simulate_op(params)

    def timed(self, index, params, trace_root=None):
        """Untraced op 0 also hands its spec to the batch-engine check,
        which runs right after it (outside timed time)."""
        if index or trace_root:
            return super().timed(index, params, trace_root)
        from repro.simulation.spec import SimulationSpec

        captured = []
        original = SimulationSpec.__dict__["from_plan"]

        def capture(*args, **kwargs):
            spec = original.__func__(*args, **kwargs)
            captured.append(spec)
            return spec

        SimulationSpec.from_plan = staticmethod(capture)
        try:
            doc, elapsed = super().timed(index, params)
        finally:
            SimulationSpec.from_plan = original
        from repro.simulation.engine import get_engine

        self.batch_mean_fct_us = get_engine("batch").evaluate(
            captured[0]
        ).mean_fct_us
        return doc, elapsed

    def items(self, doc):
        return doc["summary"]["flows"]

    def quality(self, doc):
        return {
            "a_max_bytes": doc["deploy"]["a_max_bytes"],
            "worst_fct_ratio": doc["summary"]["worst_fct_ratio"],
            "contended_fraction": doc["summary"]["contended_fraction"],
        }

    def traced_extra(self, phase, ops):
        return {
            "simulation.flows": phase["items"] / ops,
            "simulation.contended_fraction": statistics.fmean(
                phase["quality"]["contended_fraction"]
            ),
        }

    def deterministic(self, doc):
        summary = doc["summary"]
        return {
            "a_max_bytes": doc["deploy"]["a_max_bytes"],
            "fingerprint": doc["deploy"]["fingerprint"],
            "mean_fct_us": summary["mean_fct_us"],
            "p99_fct_us": summary["p99_fct_us"],
            "total_wire_mb": summary["total_wire_mb"],
            "worst_fct_ratio": summary["worst_fct_ratio"],
        }

    def check(self, index, params, doc):
        summary = doc["summary"]
        if self.fault and index == 0:
            summary["mean_fct_us"] = 0.0
        self.failures.check(
            index,
            summary["flows"] == params["flows"],
            f"simulated {summary['flows']} flows of {params['flows']}",
        )
        self.fingerprints.add(doc["deploy"]["fingerprint"])
        if index == 0:
            self.failures.check(
                0,
                summary["mean_fct_us"] >= self.batch_mean_fct_us,
                f"contention mean FCT {summary['mean_fct_us']} below the "
                f"contention-free batch engine's {self.batch_mean_fct_us}",
            )
            self.expected_check(doc)

    def finish(self):
        from repro.server.ops import deploy_op

        doc = deploy_op({"workload": self.workload, "topology": self.topology})
        error = validate_plan_doc(doc["plan"])
        self.failures.check(0, error is None, f"validate: {error}")
        self.failures.check(
            0,
            self.fingerprints == {doc["fingerprint"]},
            "simulated plan differs from the deployed plan",
        )


def run_ops(
    workload: InProcess,
    inputs: List[Dict[str, Any]],
    count: int,
    sampler: SpeedSampler,
    trace_root: Optional[Callable] = None,
) -> Dict[str, Any]:
    """Run the first ``count`` operations, sampling speed while each
    is timed."""
    latencies: List[float] = []
    references: List[List[float]] = []
    items = 0
    peak = 0.0
    quality: Dict[str, List[float]] = {}
    for index, params in enumerate(inputs[:count]):
        gc.collect()
        reset_peak_rss()
        with sampler.measuring():
            doc, elapsed = workload.timed(index, params, trace_root)
        peak = max(peak, peak_rss_mb())
        latencies.append(elapsed)
        references.append(sampler.take())
        items += workload.items(doc)
        for key, value in workload.quality(doc).items():
            quality.setdefault(key, []).append(value)
        workload.check(index, params, doc)
    return {
        "latencies_s": latencies,
        "references": references,
        "items": items,
        "peak_rss_mb": peak,
        "quality": quality,
    }


def traced_layers(recorder, counts: Dict[str, int], ops: int) -> Dict[str, float]:
    """Per-layer metrics (per operation) from a traced phase."""
    selfs = recorder.self_times()
    calls = recorder.counts()
    per_op = max(ops, 1)
    layers = {
        f"{name}_s": selfs.get(name, 0.0) / per_op for name in tracing.LAYERS
    }
    layers["network.paths_calls"] = calls.get("network.paths", 0) / per_op
    layers["milp.lp_solves"] = counts.get("solver.lp", 0) / per_op
    layers["milp.nodes"] = counts.get("solver.node", 0) / per_op
    layers["milp.lp_per_node"] = (
        counts.get("solver.lp", 0) / counts["solver.node"]
        if counts.get("solver.node")
        else 0.0
    )
    writes = recorder.store_writes
    layers["runtime.store_bytes_per_deploy"] = (
        statistics.fmean(w for w, _ in writes) if writes else 0.0
    )
    layers["runtime.write_amplification"] = (
        statistics.fmean(w / n for w, n in writes if n) if writes else 0.0
    )
    return layers


def run_in_process(workload: InProcess, inputs, sampler: SpeedSampler,
                   args) -> Dict[str, Any]:
    if not args.trace:
        phase = run_ops(workload, inputs, workload.op_count(args.seconds),
                        sampler)
        workload.finish()
        return {"phase": phase}

    # Traced run: half the operations untraced, then the same ones
    # again under the span wrappers.
    ops = workload.op_count(args.seconds / 2)
    plain = run_ops(workload, inputs, ops, sampler)
    from repro.telemetry import attached

    tracing.install()
    counts: Dict[str, int] = {}

    def count(event):
        counts[event["kind"]] = counts.get(event["kind"], 0) + 1

    def root(fn, params):
        with attached(count):
            return tracing.RECORDER.root(fn, params)

    traced = run_ops(workload, inputs, ops, sampler, trace_root=root)
    workload.finish()
    tracing.RECORDER.write(
        os.path.join(OUT_DIR, f"spans-{workload.name}-{args.seed}.json")
    )
    layers = traced_layers(tracing.RECORDER, counts, ops)
    selfs = tracing.RECORDER.self_times()
    named = sum(selfs.get(name, 0.0) for name in tracing.LAYERS)
    layers["trace.coverage"] = named / sum(traced["latencies_s"])
    layers["trace.overhead"] = (
        sum(nominal_latencies(traced)) / sum(nominal_latencies(plain))
    )
    layers.update(workload.traced_extra(traced, ops))
    return {
        "phase": plain,
        "layers": layers,
        # Speed during the traced operations, for the layer times.
        "reference_s": [s for op in traced["references"] for s in op],
    }


# ----------------------------------------------------------------------
# serve-mix: the daemon in its own process, two closed-loop clients
# ----------------------------------------------------------------------
class ServeMix:
    name = "serve-mix"
    connections = 2
    #: Run seconds budgeted per session (one takes about 0.5 s with
    #: both connections busy); sets the session count.
    session_s = 0.55

    def __init__(self, seed: int, smoke: bool, fault: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.fault = fault
        self.rng = random.Random(f"{self.name}:{seed}")
        self.failures = Failures()
        self.k = 2 if self.smoke else 12
        self.topology = "wan:8:10" if self.smoke else "wan:16:24"
        self.wan_seeds = [
            self.rng.randrange(1, 10**6) for _ in range(INPUT_COUNT)
        ]
        self.state_root = os.path.join(
            OUT_DIR, f"serve-{os.getpid()}-{seed}"
        )

    def session_count(self, seconds: float) -> int:
        """Sessions in a run of ``seconds`` (at least one per
        connection); fixed by ``seconds`` alone."""
        return max(self.connections, round(seconds / self.session_s))

    def out_prefix(self, tag: str) -> str:
        """Where the daemon started as ``tag`` writes its speed samples
        (and spans when traced)."""
        return os.path.join(OUT_DIR, f"{self.name}-{self.seed}-{tag}")

    # -- daemon lifecycle ---------------------------------------------
    def start_daemon(self, tag: str, traced: bool):
        from repro.server.client import ReproClient

        # Relative to the checkout root (every process here runs there):
        # a Unix socket path must stay under ~100 bytes.
        sock = os.path.relpath(
            os.path.join(self.state_root, f"{tag}.sock"), ROOT
        )
        state = os.path.join(self.state_root, f"{tag}-state")
        os.makedirs(self.state_root, exist_ok=True)
        cmd = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
               self.out_prefix(tag), str(int(traced)), "serve", "--socket",
               sock, "--state-dir", state]
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=worker_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = start + 120.0
        while True:
            if proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {proc.returncode}")
            try:
                with ReproClient.connect(sock, timeout=10) as client:
                    client.ping()
                break
            except OSError:
                if time.perf_counter() > deadline:
                    proc.kill()
                    proc.wait()
                    raise RuntimeError("daemon never became ready")
                time.sleep(0.005)
        return proc, sock, start, time.perf_counter()

    def speed(self, tag: str) -> List[Tuple[float, float]]:
        """``(start time, sample)`` of every speed sample the daemon
        ``tag`` took; start times are ``time.perf_counter()``, the same
        clock in every process here."""
        with open(self.out_prefix(tag) + "-speed.json") as fh:
            doc = json.load(fh)
        return list(zip(doc["stamps"], doc["samples"]))

    @staticmethod
    def load_speed(speed, log) -> List[float]:
        """The samples of ``speed`` taken during the load phase ``log``."""
        return [s for t, s in speed if log["start"] <= t <= log["end"]]

    def nominal_setup(self, tag: str, start: float, ready: float) -> float:
        """Set-up time of daemon ``tag`` at nominal speed."""
        samples = [s for t, s in self.speed(tag) if start <= t <= ready]
        return (ready - start) * speed_scale(samples)

    @staticmethod
    def stop_daemon(proc, sock) -> float:
        """Shut the daemon down; returns its peak RSS (MB)."""
        from repro.server.client import ReproClient

        peak = peak_rss_mb(str(proc.pid))
        try:
            with ReproClient.connect(sock, timeout=30) as client:
                client.shutdown_server()
        finally:
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        return peak

    # -- one session ----------------------------------------------------
    def session(self, sock: str, index: int, log: Dict[str, list]) -> None:
        from repro.server.client import ReproClient, ServerError
        from repro.server import protocol

        sizes = log["response_bytes"]

        class Client(ReproClient):
            def _read_frame(self):
                line = self._rfile.readline(protocol.MAX_FRAME_BYTES + 2)
                if not line:
                    raise ConnectionError("server closed the connection")
                sizes.append(len(line))
                return protocol.decode_frame(line)

        params = {
            "workload": "real:10" if not self.smoke else "real:4",
            "topology": f"{self.topology}:{self.wan_seeds[index]}",
        }
        op_id = index * 1000

        def call(kind: str, op: str, p=None):
            nonlocal op_id
            op_id += 1
            log["attempted"].append(op_id)
            start = time.perf_counter()
            try:
                result = client.request(op, p)
            except (ServerError, OSError) as exc:
                self.failures.add(op_id, f"{op}: {exc}")
                return None
            end = time.perf_counter()
            log[kind].append(end - start)
            if kind == "deploy":
                log["deploy_spans"].append((start, end))
            return result

        with Client.connect(sock, timeout=120) as client:
            cold = call("deploy", "deploy", params)
            if cold is None:
                return
            fingerprint = cold["fingerprint"]
            log["cold"].append((op_id, cold["plan"], fingerprint))
            for repeat in range(self.k):
                doc = call("deploy", "deploy", params)
                if doc is None:
                    return
                if self.fault and index == 0 and repeat == 0:
                    doc["fingerprint"] = "0" * 64
                self.failures.check(
                    op_id,
                    doc["fingerprint"] == fingerprint
                    and doc["session"]["source"].startswith("warm"),
                    f"repeat deploy {doc['session']['source']} "
                    f"{doc['fingerprint'][:12]} != cold {fingerprint[:12]}",
                )
                diff = call("read", "plan_diff", {})
                if diff is None:
                    return
                self.failures.check(
                    op_id, diff["is_empty"], "plan_diff of a repeat deploy"
                )
            info = call("info", "session_info")
            if info is None:
                return
            log["warm_hits"].append(info["warm_hits"])
            log["deploys"].append(info["deploys"])
            self.failures.check(
                op_id,
                info["warm_hits"] == self.k
                and info["deploys"] == self.k + 1,
                f"session_info warm_hits={info['warm_hits']} "
                f"deploys={info['deploys']}, want {self.k}/{self.k + 1}",
            )

    def load(self, sock: str, sessions: int):
        """Two connections in a closed loop running ``sessions``
        sessions back to back."""
        log: Dict[str, list] = {
            key: [] for key in (
                "deploy", "read", "info", "attempted", "cold",
                "response_bytes", "warm_hits", "deploys", "deploy_spans",
            )
        }
        lock = threading.Lock()
        next_index = [0]
        start = time.perf_counter()

        def client_loop():
            while True:
                with lock:
                    index = next_index[0]
                    if index >= sessions:
                        return
                    next_index[0] += 1
                try:
                    self.session(sock, index, log)
                except Exception as exc:  # recorded as a failed operation
                    self.failures.add(index * 1000, f"session: {exc!r}")

        threads = [
            threading.Thread(target=client_loop)
            for _ in range(self.connections)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        log["start"], log["end"] = start, time.perf_counter()
        log["wall_s"] = log["end"] - start
        return log

    def post_checks(self, log) -> None:
        from repro.plan.serialize import plan_from_dict

        for op_id, plan_doc, fingerprint in log["cold"]:
            error = validate_plan_doc(plan_doc)
            self.failures.check(op_id, error is None, f"validate: {error}")
            self.failures.check(
                op_id,
                error is None
                and plan_from_dict(plan_doc).fingerprint() == fingerprint,
                "cold plan fingerprint does not match its document",
            )
        if not self.smoke and self.seed == DEFAULT_SEED and log["cold"]:
            op_id, plan_doc, fingerprint = min(log["cold"])
            got = {
                "fingerprint": fingerprint,
                "a_max_bytes": plan_from_dict(plan_doc).max_metadata_bytes(),
            }
            for message in expected_failures(self.name, got):
                self.failures.add(op_id, message)

    @staticmethod
    def requests(log) -> int:
        """Requests answered (deploy, plan_diff, session_info)."""
        return len(log["deploy"]) + len(log["read"]) + len(log["info"])

    #: Speed samples around a request within this many seconds scale
    #: it (a request is far shorter than the sampling interval).
    speed_window_s = 0.5

    def phase_result(self, log, peak, speed) -> Dict[str, Any]:
        """The phase document; ``speed`` is the daemon's samples with
        their start times."""
        quality = {}
        if log["cold"]:
            from repro.plan.serialize import plan_from_dict

            quality["a_max_bytes"] = [
                plan_from_dict(doc).max_metadata_bytes()
                for _, doc, _ in log["cold"]
            ]
        window = self.speed_window_s
        return {
            "latencies_s": log["deploy"],
            "references": [
                [s for t, s in speed if start - window <= t <= end + window]
                for start, end in log["deploy_spans"]
            ],
            "wall_references": self.load_speed(speed, log),
            "read_latencies_s": log["read"],
            "items": self.requests(log),
            "wall_s": log["wall_s"],
            "attempted": len(log["attempted"]),
            "peak_rss_mb": peak,
            "quality": quality,
        }

    def run(self, args) -> Dict[str, Any]:
        import shutil

        setups: List[float] = []
        try:
            ready()
            probes = 0 if args.trace else setup_probes(self.smoke)
            for i in range(probes):
                proc, sock, start, ready_at = self.start_daemon(
                    f"setup{i}", False
                )
                self.stop_daemon(proc, sock)
                setups.append(self.nominal_setup(f"setup{i}", start, ready_at))
            sessions = self.session_count(
                args.seconds / 2 if args.trace else args.seconds
            )
            proc, sock, start, ready_at = self.start_daemon("plain", False)
            try:
                log = self.load(sock, sessions)
            finally:
                peak = self.stop_daemon(proc, sock)
            setups.append(self.nominal_setup("plain", start, ready_at))
            self.post_checks(log)
            result = {
                "phase": self.phase_result(log, peak, self.speed("plain")),
                "setup_s": setups,
            }
            if not args.trace:
                return result
            proc, sock, _, _ = self.start_daemon("traced", True)
            try:
                traced = self.load(sock, sessions)
            finally:
                self.stop_daemon(proc, sock)
            self.post_checks(traced)
            plain_speed = self.load_speed(self.speed("plain"), log)
            traced_speed = self.load_speed(self.speed("traced"), traced)
            result["layers"] = self.traced_layers(log, traced)
            # Traced over untraced time per request, at nominal speed.
            result["layers"]["trace.overhead"] *= (
                speed_scale(traced_speed) / speed_scale(plain_speed)
            )
            result["reference_s"] = traced_speed
            return result
        finally:
            shutil.rmtree(self.state_root, ignore_errors=True)

    def traced_layers(self, plain, traced) -> Dict[str, float]:
        recorder = tracing.Recorder.read(self.out_prefix("traced") + "-spans.json")
        handled = [
            (s[4], s[5]) for s in recorder.spans if s[3] == "server.handler"
        ]
        requests = self.requests(traced)
        layers = traced_layers(recorder, {}, requests)
        client_s = sum(traced["deploy"]) + sum(traced["read"])
        handler_s = sum(end - start for start, end in handled)
        layers["server.wait_s"] = (
            (client_s - handler_s) / len(handled) if handled else 0.0
        )
        layers["server.response_bytes"] = statistics.fmean(
            traced["response_bytes"]
        )
        deploys = sum(traced["deploys"])
        layers["server.warm_hit_ratio"] = (
            sum(traced["warm_hits"]) / deploys if deploys else 0.0
        )
        selfs = recorder.self_times()
        total_s = client_s + sum(traced["info"])
        named = sum(selfs.get(name, 0.0) for name in tracing.LAYERS)
        layers["trace.coverage"] = named / total_s
        layers["trace.overhead"] = (traced["wall_s"] / requests) / (
            plain["wall_s"] / self.requests(plain)
        )
        return layers


# ----------------------------------------------------------------------
WORKLOADS = {
    cls.name: cls
    for cls in (DeployHeuristic, DeployOptimal, ServeMix, Simulate1M)
}


def ready(references: Optional[List[float]] = None) -> None:
    """End of set-up, with the speed samples taken during it."""
    print("READY " + json.dumps(references or []), flush=True)


def main(argv: List[str]) -> int:
    import argparse

    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("trace", type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args(argv)

    cls = WORKLOADS[args.workload]
    workload = cls(args.seed, args.smoke, args.inject_fault)
    if cls is ServeMix:
        result = workload.run(args)
    else:
        import importlib

        # One CPU for the operations and the sampler that measures it.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        sampler = SpeedSampler().start()
        try:
            with sampler.measuring():
                for module in cls.modules:
                    importlib.import_module(module)
                inputs = workload.inputs(INPUT_COUNT)
            ready(sampler.take())
            if args.setup_only:
                return 0
            result = run_in_process(workload, inputs, sampler, args)
        finally:
            sampler.stop()
    result["failures"] = [m for _, m in workload.failures.messages]
    result["failed"] = workload.failures.failed_ops
    phase = result["phase"]
    phase.setdefault("attempted", len(phase["latencies_s"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

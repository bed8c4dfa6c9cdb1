"""The repository benchmark: one workload, one seed, one JSON result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload deploy-heuristic --seed 1 \\
        --seconds 15 --trace 0

Workloads: ``deploy-heuristic``, ``deploy-optimal``, ``serve-mix`` and
``simulate-1m`` (see ``perfbench/README.md`` for what each runs and
why).  The program under test is ``src/repro``, run from source; the
benchmark itself only needs the standard library here.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same operations with and without span wrappers and prints the
per-layer metrics.  Times are reported at nominal machine speed
(:class:`SpeedSampler`); the wall-clock figures are printed beside
them.  Human-readable lines come first; the last stdout line is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  A copy
of every result, raw samples included, goes to
``perfbench/.out/result-<workload>-<seed>-trace<0|1>.json``.

``--smoke`` runs each workload at a tiny size (for the benchmark's own
tests), and ``--inject-fault`` corrupts one output so the checks must
fail.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, ".out")
WORKER = os.path.join(HERE, "worker.py")

#: The seed whose outputs ``expected.json`` records.
DEFAULT_SEED = 1

#: A run must end within 180 s; the worker gets a little less.
WORKER_TIMEOUT_S = 170.0

#: Set-up-only starts per run besides the measured run's own start,
#: so ``setup_s`` is a median of three samples.
SETUP_PROBES = 2


def setup_probes(smoke: bool) -> int:
    """Set-up-only starts per run (one in the benchmark's smoke tests)."""
    return 1 if smoke else SETUP_PROBES


def benchmark_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the workload names, metric names and units."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


#: Unit of ``throughput_per_s`` per workload (printed, not gated).
THROUGHPUT_OF = {
    "deploy-heuristic": "deploys/s",
    "deploy-optimal": "deploys/s",
    "serve-mix": "requests/s (all ops)",
    "simulate-1m": "flows/s",
}

#: Reference work takes this long at nominal machine speed.  Reported
#: times are wall times scaled by ``REFERENCE_S / reference time``
#: measured while they ran (:class:`SpeedSampler`, :func:`speed_scale`).
REFERENCE_S = 0.001


def reference_sample() -> float:
    """Wall seconds of one fixed piece of pure-Python work."""
    start = time.perf_counter()
    table: Dict[Tuple[int, int], int] = {}
    for i in range(1_800):
        table[i % 211, i] = i * i % 7
    sorted(table.items(), key=lambda kv: kv[1])
    return time.perf_counter() - start


class SpeedSampler:
    """Times :func:`reference_sample` every ``interval_s`` on a thread
    of the measured process while :meth:`measuring` is on.

    The VMs this benchmark runs on switch between two speeds, 1.6x
    apart, every few seconds (other tenants on the same cores), so runs
    of unchanged code differ by a third.  The sampler shares the
    measured thread's CPU (the measured process pins itself to one) and
    takes about 2 % of it, so its samples follow that CPU's speed
    during the measured interval.
    """

    def __init__(self, interval_s: float = 0.05) -> None:
        self.interval_s = interval_s
        self.samples: List[float] = []
        #: ``time.perf_counter()`` at the start of each sample.
        self.stamps: List[float] = []
        self._lock = threading.Lock()
        self._on = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            if self._on.is_set():
                stamp = time.perf_counter()
                sample = reference_sample()
                with self._lock:
                    self.stamps.append(stamp)
                    self.samples.append(sample)

    def start(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    @contextlib.contextmanager
    def measuring(self):
        self._on.set()
        try:
            yield
        finally:
            self._on.clear()

    def take(self) -> List[float]:
        """The samples so far; the next call starts afresh."""
        with self._lock:
            samples, self.samples, self.stamps = self.samples, [], []
        return samples


def speed_scale(samples: List[float]) -> float:
    """Factor from wall time to nominal-speed time: ``REFERENCE_S`` over
    the interquartile mean of the samples.  The mean follows the mix of
    fast and slow spells; the trim drops samples stretched by waiting
    for the interpreter lock while the measured thread ran native code.
    Without samples the factor is 1: wall time.
    """
    if not samples:
        return 1.0
    ordered = sorted(samples)
    cut = len(ordered) // 4
    return REFERENCE_S / statistics.fmean(ordered[cut:len(ordered) - cut])


def nominal_latencies(phase: Dict[str, Any]) -> List[float]:
    """Operation times at nominal speed: each wall time scaled by the
    speed sampled during that operation (the whole phase's speed for
    an operation too short to hold a sample)."""
    per_op = phase["references"]
    everything = phase.get("wall_references") or [
        sample for samples in per_op for sample in samples
    ]
    return [
        wall * speed_scale(samples or everything)
        for wall, samples in zip(phase["latencies_s"], per_op)
    ]


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


#: ``latency_tail_ms`` is this nearest-rank percentile of the
#: per-operation latencies (serve-mix: of its deploys).
TAIL_PERCENTILE = 90


def tail_rank(count: int, pct: float = TAIL_PERCENTILE) -> int:
    """1-based nearest rank of percentile ``pct`` among ``count``."""
    return max(1, math.ceil(count * pct / 100))


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    return sorted(values)[tail_rank(len(values), pct) - 1]


def worker_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def start_worker(argv: List[str]) -> Tuple[subprocess.Popen, float]:
    """Start a worker; returns it and its set-up time: the seconds until
    it said READY, at nominal speed when it sent speed samples."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER] + argv,
        cwd=ROOT,
        env=worker_env(),
        stdout=subprocess.PIPE,
        text=True,
        # Its own process group, so a kill also stops a daemon it started.
        start_new_session=True,
    )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    word, _, references = line.partition(" ")
    if word != "READY":
        kill_worker(proc)
        raise BenchmarkError(f"worker failed during set-up: {line!r}")
    return proc, setup_s * speed_scale(json.loads(references))


def kill_worker(proc: subprocess.Popen) -> None:
    """Kill a worker and everything it started, and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.communicate()


def finish_worker(proc: subprocess.Popen) -> List[str]:
    """Wait for a started worker; returns its stdout lines after READY."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_worker(proc)
        raise BenchmarkError("worker exceeded its time limit")
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}")
    return out.strip().splitlines()


def worker_result(proc: subprocess.Popen) -> Dict[str, Any]:
    lines = finish_worker(proc)
    if not lines:
        raise BenchmarkError("worker printed no result")
    return json.loads(lines[-1])


def run_workload(args) -> Dict[str, Any]:
    argv = [args.workload, str(args.seed), str(args.seconds),
            str(args.trace)]
    if args.smoke:
        argv.append("--smoke")
    if args.inject_fault:
        argv.append("--inject-fault")
    if args.workload == "serve-mix":
        # The daemon's start-up is the set-up; the worker times it.
        return worker_result(start_worker(argv)[0])
    setups: List[float] = []
    if not args.trace:
        for _ in range(setup_probes(args.smoke)):
            probe, setup_s = start_worker(argv + ["--setup-only"])
            finish_worker(probe)
            setups.append(setup_s)
    proc, setup_s = start_worker(argv)
    setups.append(setup_s)
    result = worker_result(proc)
    result["setup_s"] = setups
    return result


def end_to_end(result: Dict[str, Any]) -> Dict[str, float]:
    phase = result["phase"]
    latencies = nominal_latencies(phase)
    if "wall_s" in phase:
        busy_s = phase["wall_s"] * speed_scale(phase["wall_references"])
    else:
        busy_s = sum(latencies)
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "throughput_per_s": phase["items"] / busy_s,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": percentile(latencies, TAIL_PERCENTILE) * 1e3,
        "peak_rss_mb": phase["peak_rss_mb"],
    }


def per_layer(result: Dict[str, Any],
              units: Dict[str, str]) -> Dict[str, float]:
    """Layer metrics in BENCHMARK.json order; times at nominal speed."""
    layers = result["layers"]
    unknown = set(layers) - set(units)
    if unknown:
        raise BenchmarkError(f"layer metrics not in BENCHMARK.json: "
                             f"{sorted(unknown)}")
    scale = speed_scale(result.get("reference_s", []))
    return {
        name: layers.get(name, 0.0) * (scale if unit == "s" else 1.0)
        for name, unit in units.items()
    }


def report_lines(workload: str, result: Dict[str, Any],
                 metrics: Dict[str, float], units: Dict[str, str],
                 trace: int) -> List[str]:
    phase = result["phase"]
    lines = [f"workload {workload}"]
    for name, value in metrics.items():
        lines.append(f"  {name:<34} {value:>16.6g} {units[name]}")
    if trace:
        references = result.get("reference_s", [])
    else:
        references = phase.get("wall_references") or [
            s for op in phase["references"] for s in op
        ]
    lines.append(
        f"  times are at nominal speed: wall time x "
        f"{speed_scale(references):.4f} over the phase "
        f"({len(references)} reference samples; nominal "
        f"{REFERENCE_S * 1e3:g} ms each)"
    )
    if trace:
        return lines
    n = len(phase["latencies_s"])
    lines.append(
        f"  throughput unit: {THROUGHPUT_OF[workload]}; latency samples: "
        f"{n}; tail = p{TAIL_PERCENTILE} "
        f"({n - tail_rank(n)} samples beyond it); wall-clock p50 "
        f"{statistics.median(phase['latencies_s']) * 1e3:.6g} ms"
    )
    lines.append(
        f"  setup samples: {len(result['setup_s'])} "
        f"({', '.join('%.3f' % s for s in result['setup_s'])} s)"
    )
    reads = phase.get("read_latencies_s")
    if reads:
        lines.append(
            f"  {'read_latency_p50_ms':<34} "
            f"{statistics.median(reads) * 1e3:>16.6g}"
            f" ms (plan_diff, wall time, {len(reads)} samples)"
        )
    for key, values in sorted(phase["quality"].items()):
        unit = "B" if key.endswith("bytes") else ""
        lines.append(f"  {key:<34} {max(values):>16.6g} {unit}".rstrip())
    attempted = phase["attempted"]
    lines.append(
        f"  {'error_rate':<34} {result['failed'] / attempted:>16.6g} "
        f"({result['failed']} of {attempted} operations failed)"
    )
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("error: src/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2
    units = metric_units("per_layer" if args.trace else "end_to_end")
    try:
        result = run_workload(args)
        if args.trace:
            metrics = per_layer(result, units)
        else:
            metrics = end_to_end(result)
            if set(metrics) != set(units):
                raise BenchmarkError(
                    f"end-to-end metrics {sorted(metrics)} differ from "
                    f"BENCHMARK.json's {sorted(units)}"
                )
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in report_lines(args.workload, result, metrics, units,
                             args.trace):
        print(line)
    for message in result["failures"]:
        print(f"  FAILED CHECK: {message}")
    document = {
        "correct": not result["failures"],
        "attempted": result["phase"]["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as fh:
        json.dump(dict(document, raw=result), fh)
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())

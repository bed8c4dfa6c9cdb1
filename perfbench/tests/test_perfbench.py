"""Smoke tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload runs at a tiny size (``--smoke``, one second) with
tracing off and on; a run with ``--inject-fault`` must fail its
checks.  About a minute in total.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import worker  # noqa: E402

END_TO_END = run.metric_units("end_to_end")
PER_LAYER = run.metric_units("per_layer")
WORKLOADS = [w["name"] for w in run.benchmark_spec()["workloads"]]


def bench(workload, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_command(benchmark_json):
    assert sorted(WORKLOADS) == sorted(worker.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in benchmark_json["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    layer_times = {name + "_s" for name in worker.tracing.LAYERS}
    assert layer_times <= set(PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_reports_every_metric(workload):
    lines, doc = result_of(bench(workload, "--trace", "0"))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0
    assert doc["attempted"] >= 1
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in doc["metrics"].values())
    text = "\n".join(lines)
    for name in ("error_rate", "a_max_bytes", "setup samples"):
        assert name in text
    if workload == "serve-mix":
        assert "read_latency_p50_ms" in text
    if workload == "simulate-1m":
        assert "worst_fct_ratio" in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    _, doc = result_of(bench(workload, "--trace", "1"))
    assert doc["correct"] is True
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == PER_LAYER
    metrics = {k: v["value"] for k, v in doc["metrics"].items()}
    assert 0 < metrics["trace.coverage"] <= 1.05
    assert metrics["trace.overhead"] > 0
    exercised = {
        "deploy-heuristic": ["core.heuristic_s", "tdg.analyze_s"],
        "deploy-optimal": ["milp.lp_s", "milp.nodes", "core.model_build_s"],
        "serve-mix": ["runtime.store_write_s", "server.protocol_s",
                      "server.response_bytes"],
        "simulate-1m": ["simulation.trace_s", "simulation.engine_s",
                        "simulation.flows"],
    }[workload]
    for name in exercised:
        assert metrics[name] > 0, name
    if workload == "serve-mix":
        # Smoke sessions run K = 2 repeat deploys after one cold one.
        assert metrics["server.warm_hit_ratio"] == pytest.approx(2 / 3)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_wrong_output_trips_the_checks(workload):
    lines, doc = result_of(bench(workload, "--trace", "0", "--inject-fault"))
    assert doc["correct"] is False
    assert doc["failed"] >= 1
    assert any("FAILED CHECK" in line for line in lines)
    rate = [line for line in lines if "error_rate" in line][0]
    assert float(rate.split()[1]) > 0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("deploy-heuristic", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_default_seed_outputs_are_checked():
    with open(os.path.join(BENCH, "expected.json")) as fh:
        recorded = json.load(fh)
    heuristic = recorded["deploy-heuristic"]
    doc = {"summary": {"a_max_bytes": heuristic["a_max_bytes"]},
           "fingerprint": heuristic["fingerprint"]}
    workload = worker.DeployHeuristic(run.DEFAULT_SEED, False, False)
    workload.expected_check(doc)
    assert workload.failures.messages == []
    doc["summary"]["a_max_bytes"] += 1
    workload.expected_check(doc)
    assert workload.failures.failed_ops == 1

    simulated = dict(recorded["simulate-1m"])
    assert worker.expected_failures("simulate-1m", simulated) == []
    simulated["p99_fct_us"] *= 1 + 1e-6
    assert len(worker.expected_failures("simulate-1m", simulated)) == 1


def test_op_counts_depend_on_run_seconds_only():
    heuristic = worker.DeployHeuristic(5, False, False)
    assert heuristic.op_count(15) == 20
    assert heuristic.op_count(1) == heuristic.block
    assert worker.DeployOptimal(5, False, False).op_count(15) == 10
    assert worker.Simulate1M(5, False, False).op_count(15) == 2
    assert worker.ServeMix(5, False, False).session_count(1) == 2


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 90) == 90.0
    assert run.percentile(values, 50) == 50.0
    assert run.percentile(values, 100) == 100.0
    assert run.percentile([3.0], 90) == 3.0

"""Steadiness check: repeated runs, spread of runs and of medians.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --workloads serve-mix simulate-1m \\
        --seeds 1 2 3 4 5 6 7 8 9 10 --sets 2

For each workload, each set runs ``run.py`` once per seed (trace
off).  Per end-to-end metric it prints the median of each set, the
spread of single runs in each set (distance between the first and
third quartile, ``statistics.quantiles(values, n=4)``, as a share of
the median) and, with two or more sets, how far the later set medians
moved from the first.  Raw values go to
``perfbench/.out/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(workload: str, seed: int, seconds: float):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    if not doc["correct"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed")
    return {k: v["value"] for k, v in doc["metrics"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/steadiness.py")
    spec = run.benchmark_spec()
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int,
                        default=list(range(1, 11)))
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    args = parser.parse_args()

    raw = {}
    for workload in args.workloads:
        sets = []
        for _ in range(args.sets):
            runs = [one_run(workload, s, args.seconds) for s in args.seeds]
            sets.append(runs)
        raw[workload] = sets
        print(f"workload {workload} ({len(args.seeds)} seeds x "
              f"{args.sets} sets)")
        for metric in run.metric_units("end_to_end"):
            medians, spreads = [], []
            for runs in sets:
                values = [r[metric] for r in runs]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            moved = [m / medians[0] - 1 for m in medians[1:]]
            print(
                f"  {metric:<18} median "
                + " / ".join(f"{m:.6g}" for m in medians)
                + "  run spread "
                + " / ".join(f"{s:.3f}" for s in spreads)
                + ("  median moved " + " / ".join(f"{d:+.3f}" for d in moved)
                   if moved else "")
            )
        sys.stdout.flush()
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with open(os.path.join(run.OUT_DIR, "steadiness.json"), "w") as fh:
        json.dump({"seeds": args.seeds, "runs": raw}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

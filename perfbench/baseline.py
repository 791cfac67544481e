"""Run every workload over several seeds and summarize the spread.

Usage:
    python3 perfbench/baseline.py [--write]

For each workload of ``BENCHMARK.json`` this runs ``run.py --trace 0`` once
per seed (seeds 1..10) for ``run_seconds``, and ``run.py --trace 1`` once
(seed 1).  For each end-to-end metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the quartile spread as
a share of the median, next to the bound in ``BENCHMARK.json``.  ``--write`` stores the summary, with the
environment record of the first run, in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite perfbench/baseline.json")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    summary = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        traced = run_once(workload, 1, seconds, 1)
        if not all(r["correct"] for r in runs + [traced]):
            print(f"{workload}: incorrect output in some run", file=sys.stderr)
            return 1
        metrics = {}
        for name in bounds:
            stats = summarize([r["metrics"][name]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            metrics[name] = stats
            flag = "" if stats["spread"] <= bounds[name] / 3 else "  <-- over a third of the bound"
            print(f"{workload:<15} {name:<12} median {stats['median']:<10.5g} "
                  f"spread {stats['spread']:.4f} bound {bounds[name]}{flag}")
        summary["workloads"][workload] = {
            "attempted": [r["attempted"] for r in runs],
            "end_to_end": metrics,
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.write:
        first = json.loads((HERE / "out" / f"{workloads[0]}-seed1-trace0.json").read_text())
        summary["environment"] = first["environment"]
        (HERE / "baseline.json").write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

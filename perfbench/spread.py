"""Run each workload on several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --runs 10 [--workload micro_finetune ...]

Runs are sequential, one process at a time, with the workloads in
alternation (seed 1 of each, then seed 2 of each, ...), so that a phase of
host load lasting minutes touches every workload instead of covering all
runs of one. For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of the
median, next to the metric's bound in ``BENCHMARK.json``. A spread wider
than a third of its bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or names
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    failed = dict.fromkeys(workloads, 0)
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed[workload] += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
    for workload in workloads:
        print(f"{workload}: {args.runs} runs, {failed[workload]} failed operations")
        for name, v in values[workload].items():
            s = stats.spread(v)
            bound = bounds[name]
            flag = "" if s["iqr_share"] < bound / 3 else "  WIDE"
            print(f"  {name:20s} median {s['median']:12.5g}  q1 {s['q1']:12.5g}  "
                  f"q3 {s['q3']:12.5g}  spread {s['iqr_share']:.3f} (bound {bound}){flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

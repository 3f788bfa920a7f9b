"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads fit,explain,distill --seeds 1-10

Runs ``run.py`` once per (workload, seed), one after another, with
``run_seconds`` from BENCHMARK.json, and prints every run's result and, per
workload and end-to-end metric, the median and the distance between the
first and third quartiles as a share of the median, next to the metric's
bound.  Every result line is also appended to
``.perfbench_runs/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    log = ROOT / ".perfbench_runs" / "spread.jsonl"
    log.parent.mkdir(exist_ok=True)
    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}", flush=True)
                status = 1
                continue
            result = json.loads(lines[-1])
            with log.open("a") as out:
                out.write(json.dumps({"workload": workload, "seed": seed, **result,
                                      "info": json.loads(lines[-2])}) + "\n")
            shares.add((result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {shown} attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']}", flush=True)
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            median = statistics.median(vals)
            print(f"  {workload} {name}: median {median:.4f}, spread {(q3 - q1) / median:.4f} "
                  f"(bound {bounds[name]}), min {min(vals):.4f}, max {max(vals):.4f}", flush=True)
        print(f"  {workload} failed/attempted pairs: {sorted(shares)}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())

"""rwtkit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fit --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The workload runs in a fresh
process (``workload.py``) that imports rwtkit from ``src/`` with one BLAS
thread, in a scratch directory under ``.perfbench_runs/`` that is removed
when the run succeeds.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the machine facts, the seed and the per-round figures.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fit", "explain", "distill")
#: BLAS threads for numpy in the workload process.  More threads move the
#: network figures by up to a quarter on two cores and make them drift.
BLAS_THREADS = "1"
#: The workload process is killed after this long.
TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int, help="seed of the generated inputs")
    parser.add_argument("--seconds", required=True, type=float,
                        help="timed work per run; whole rounds are run until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics instead of end-to-end ones")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = ROOT / "src"
    if not (src / "rwtkit" / "__init__.py").is_file():
        print(f"perfbench: no rwtkit sources in {src}; run from a source checkout",
              file=sys.stderr)
        return 2

    run_dir = ROOT / ".perfbench_runs" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS)
    # SIGTERM unwinds through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    command = [sys.executable, str(ROOT / "perfbench" / "workload.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--run-dir", str(run_dir), "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in {TIMEOUT_S} s; "
              f"files kept in {run_dir}", file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {args.workload} exited {proc.returncode}; files kept in {run_dir}",
              file=sys.stderr)
        return proc.returncode or 1
    result = json.loads(lines[-1])
    if result["failed"] == 0:
        shutil.rmtree(run_dir)
    print(json.dumps(result.pop("info")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

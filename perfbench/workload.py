"""One rwtkit benchmark workload, run in a fresh process by ``run.py``.

The workload sets up ``SETUPS`` times, each time in a fresh process (ingest,
plus training where the workload needs it), then runs whole rounds of CLI
commands through ``rwtkit.cli.main`` until the timed commands add up to
``--seconds``.  Each command is one operation (each (prefix, seed) record of
``kan-run`` in ``distill``).  The first set-up's and the first round's
outputs are checked by ``checks.py``; every later set-up and round must write
the same bytes.  The result is one JSON line on stdout.

With ``--trace 1`` the set-ups run traced in this process instead, and rounds
alternate untraced and traced so that the cost of tracing is measured in the
same process.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

#: Set-ups per run; ``setup_s`` reports their median.
SETUPS = 3
#: No round starts once the process is this old, so a run ends well inside
#: its time limit on a slow machine.
LATEST_ROUND_START_S = 120.0
NOISE = 0.02
MODELS = ("cart", "rf", "gbm", "mlp", "kan")
EXPLAINED = ("rf", "gbm", "mlp", "kan")
INSTANCES = 20
BACKGROUND = 64
#: Instances per kind whose attributions are checked against enumeration.
BRUTE_INSTANCES = (0, INSTANCES - 1)
ORDERING = (1, 2, 3)
KAN_SEEDS = (0, 1)
#: Test R2 floors, below what every seed tried reaches, so that a failure
#: means broken output and not an unlucky draw.  On 40 profiles the spline
#: network's test R2 ranged 0.31-0.97 over seeds 1-40 (rf 0.49-0.94); the
#: distilled expressions on 120 profiles scored 0.86-0.98 over seeds 1-8.
FIT_R2_FLOOR = 0.0
EXPRESSION_R2_FLOOR = 0.6

#: Files each command writes, compared byte for byte between repeats.
OUTPUTS = {
    "ingest": ("profiles.jsonl", "scaler.json", "split.json", "ingest_notes.json"),
    "train": ("model_{model}.json", "train_{model}.json"),
    "evaluate": ("metrics.json", "per_reservoir.csv", "scatter.csv", "qq.csv"),
    "explain": ("shap_summary.csv", "shap_heatmap.csv", "shap_global.json"),
    "kan-run": ("kan_records.jsonl", "r2_curve.csv"),
}


@dataclass(frozen=True)
class Workload:
    profiles: int
    setup: tuple[tuple[str, ...], ...]
    round: tuple[tuple[str, ...], ...]


WORKLOADS = {
    # Tree growth, MLP and spline-network training; no Shapley, no snapping.
    "fit": Workload(
        profiles=40,
        setup=(),
        round=tuple(("train", "--model", m, "--preset", "published") for m in MODELS)
        + (("evaluate",),),
    ),
    # Exact attributions from models trained in set-up.
    "explain": Workload(
        profiles=30,
        setup=tuple(("train", "--model", m, "--preset", "published") for m in EXPLAINED),
        round=tuple(("explain", "--model", m, "--shap-instances", str(INSTANCES),
                     "--shap-background", str(BACKGROUND)) for m in EXPLAINED),
    ),
    # Spline-network training and snapping to equations; no trees, no Shapley.
    "distill": Workload(
        profiles=120,
        setup=(),
        round=(("kan-run", "--kan-regime", "complex",
                "--kan-ordering", ",".join(map(str, ORDERING)),
                "--kan-seeds", ",".join(map(str, KAN_SEEDS)), "--kan-steps", "600"),),
    ),
}


def ingest_command(profiles: int, seed: int) -> tuple[str, ...]:
    return ("ingest", "--synthetic", "--synth-profiles", str(profiles), "--synth-samples", "6",
            "--synth-noise", repr(NOISE), "--synth-reservoirs", "3",
            "--synth-seed", str(seed), "--split-seed", str(seed))


def _flag(argv, name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def span_name(argv) -> str:
    model = _flag(argv, "--model")
    return f"cli.{argv[0]}" + (f".{model}" if model else "")


def output_files(argv) -> tuple[str, ...]:
    model = _flag(argv, "--model")
    return tuple(name.format(model=model) for name in OUTPUTS[argv[0]])


@dataclass
class Call:
    argv: tuple[str, ...]
    seconds: float
    error: str | None
    outputs: dict[str, bytes]


class Runner:
    """Calls ``rwtkit.cli.main`` in-process and keeps what each call wrote."""

    def __init__(self, cli_main, tracer=None) -> None:
        self.cli_main = cli_main
        self.tracer = tracer

    def call(self, argv, out_dir: Path) -> Call:
        sink = io.StringIO()
        traced = self.tracer is not None and self.tracer.installed
        span = self.tracer.open(span_name(argv)) if traced else None
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = self.cli_main([*argv, "--out", str(out_dir)])
                error = None if code == 0 else f"exit {code}: {sink.getvalue().strip()[-300:]}"
            except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if span is not None:
            self.tracer.close(span)
        return Call(tuple(argv), seconds, error, read_outputs(argv, out_dir))


def read_outputs(argv, out_dir: Path) -> dict[str, bytes]:
    return {name: (out_dir / name).read_bytes() for name in output_files(argv)
            if (out_dir / name).exists()}


def setup_commands(spec: Workload, seed: int) -> tuple[tuple[str, ...], ...]:
    return (ingest_command(spec.profiles, seed),) + spec.setup


def set_up_in_children(spec: Workload, args) -> tuple[list[list[Call]], list[float]]:
    """``SETUPS`` set-ups, each in a fresh process started with the arguments of
    this one plus ``--setup``; returns their calls and their times from process
    start to the end of the set-up."""
    commands = setup_commands(spec, args.seed)
    setups, seconds = [], []
    for k in range(SETUPS):
        out_dir = args.run_dir / f"setup{k}"
        start = time.monotonic()
        proc = subprocess.run([sys.executable, __file__, *sys.argv[1:], "--setup", str(out_dir)],
                              stdout=subprocess.PIPE, text=True, check=False,
                              timeout=LATEST_ROUND_START_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            report = json.loads(lines[-1])
            done, timings = report["done"], report["calls"]
        else:
            done = time.monotonic()
            timings = [[0.0, f"set-up process exited {proc.returncode}"]] * len(commands)
        seconds.append(done - start)
        setups.append([Call(argv, t, error, read_outputs(argv, out_dir))
                       for argv, (t, error) in zip(commands, timings)])
    return setups, seconds


# -- machine facts ----------------------------------------------------------------


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# -- checks -------------------------------------------------------------------------


class Ledger:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong_output = False
        self.problems: list[str] = []

    def record(self, what: str, error: str | None, problems=()) -> None:
        self.attempted += 1
        if error is None and not problems:
            return
        self.failed += 1
        self.wrong_output |= error is None
        if len(self.problems) < 20:
            self.problems.append(f"{what}: {error or '; '.join(problems)}")


def _guarded(check) -> list[str]:
    try:
        return check()
    except Exception as exc:  # output the check cannot read is wrong output
        return [f"check raised {type(exc).__name__}: {exc}"]


def reference_checks(name: str, setup0: list[Call], round1: list[Call],
                     ref_dir: Path) -> list[list[str]]:
    """Problems of each first-set-up and first-round operation, in order.

    ``ref_dir`` holds the first set-up's and the first round's files.  An
    operation that raised or exited non-zero is failed already and not checked.
    """
    import checks
    from rwtkit.serialize import load_model
    from rwtkit.shapley import BackgroundSet

    try:
        data = checks.read_run(ref_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [[f"cannot read the run directory: {exc}"]] * len(operations(setup0 + round1))

    def ingest():
        truth = json.loads((ref_dir / "ingest_notes.json").read_text())["truth"]
        bank = (Path(__file__).resolve().parent.parent / "src" / "rwtkit" / "data"
                / "equation_bank_v1.txt").read_text()
        published = next(line.split(",", 3)[3] for line in bank.splitlines()
                         if line.startswith("simple,4,"))
        if truth != published:
            return [f"ingest truth {truth!r} is not bank simple/4"]
        return checks.check_truth(data, published, NOISE)

    def evaluate(call):
        reported = sorted(json.loads(call.outputs["metrics.json"]))
        return [] if reported == sorted(MODELS) else [f"metrics.json has models {reported}"]

    def explain(call):
        background = BackgroundSet(data.x_train).subsample(BACKGROUND, seed=0).rows
        model = load_model(ref_dir / f"model_{_flag(call.argv, '--model')}.json")
        return checks.check_explain(call.outputs["shap_summary.csv"].decode(), data, model,
                                    background, INSTANCES, BRUTE_INSTANCES)

    thunks = [ingest] + [list for _ in setup0[1:]]
    if name == "fit":
        for call in round1:
            kind = _flag(call.argv, "--model")
            thunks.append((lambda c=call: evaluate(c)) if kind is None else
                          (lambda k=kind: checks.check_metrics(data, ref_dir, k, FIT_R2_FLOOR,
                                                               load_model)))
    elif name == "explain":
        thunks += [lambda c=call: explain(c) for call in round1]
    else:
        lines = round1[0].outputs.get("kan_records.jsonl", b"").decode().splitlines()
        expected = [(k, s) for k in range(1, len(ORDERING) + 1) for s in KAN_SEEDS]
        for i, (k, s) in enumerate(expected):
            def record(i=i, k=k, s=s):
                found = json.loads(lines[i]) if i < len(lines) else None
                if found is None or (found["n_inputs"], found["seed"]) != (k, s):
                    return [f"no record for prefix {k} seed {s}"]
                return checks.check_record(found, ORDERING, data, EXPRESSION_R2_FLOOR)
            thunks.append(record)
    errors = [error for _, error, _ in operations(setup0) + operations(round1)]
    return [[] if error is not None else _guarded(thunk) for thunk, error in zip(thunks, errors)]


def operations(calls: list[Call]) -> list[tuple[str, str | None, bytes | None]]:
    """(label, error, output) per operation of a set-up or round.

    ``kan-run`` yields one operation per expected record line.
    """
    ops = []
    for call in calls:
        label = " ".join(call.argv[:3])
        if call.argv[0] != "kan-run":
            ops.append((label, call.error, b"".join(call.outputs.get(f, b"\0missing")
                                                    for f in output_files(call.argv))))
            continue
        lines = call.outputs.get("kan_records.jsonl", b"").splitlines()
        for i in range(len(ORDERING) * len(KAN_SEEDS)):
            ops.append((f"kan-run record {i}", call.error,
                        lines[i] if i < len(lines) else None))
    return ops


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--run-dir", required=True, type=Path)
    parser.add_argument("--t0", required=True, type=float,
                        help="time.monotonic() when run.py started this process")
    parser.add_argument("--setup", type=Path,
                        help="only set up, in this directory, and report when it ended")
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]

    src = Path(__file__).resolve().parent.parent / "src"
    found = importlib.util.find_spec("rwtkit")
    if found is None or Path(found.origin).resolve().parent != src / "rwtkit":
        print(f"rwtkit is not importable from {src}", file=sys.stderr)
        return 2
    if args.setup is not None:
        from rwtkit.cli import main as cli_main

        calls = [Runner(cli_main).call(argv, args.setup) for argv in setup_commands(spec, args.seed)]
        print(json.dumps({"done": time.monotonic(), "calls": [[c.seconds, c.error] for c in calls]}))
        return 0

    if args.trace:
        import spans
        from rwtkit.cli import main as cli_main

        tracer = spans.Tracer()
        runner = Runner(cli_main, tracer)
        tracer.install()
        setups = [[runner.call(argv, args.run_dir / f"setup{k}")
                   for argv in setup_commands(spec, args.seed)] for k in range(SETUPS)]
        setup_seconds = [sum(c.seconds for c in calls) for calls in setups]
        tracer.uninstall()
    else:
        setups, setup_seconds = set_up_in_children(spec, args)
        from rwtkit.cli import main as cli_main

        runner = Runner(cli_main)
    work_dir = args.run_dir / "setup0"
    ref_dir = args.run_dir / "reference"
    work_dir.mkdir(parents=True, exist_ok=True)
    shutil.copytree(work_dir, ref_dir)

    rounds: list[list[Call]] = []
    walls, traced_walls, untraced_walls, cpu = [], [], [], []
    measured = 0.0
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            tracer.phase = "round"
            tracer.install()
        before = os.times()
        calls = [runner.call(argv, work_dir) for argv in spec.round]
        after = os.times()
        if traced:
            tracer.uninstall()
        wall = sum(c.seconds for c in calls)
        if not rounds:
            for call in calls:
                for name, content in call.outputs.items():
                    (ref_dir / name).write_bytes(content)
        rounds.append(calls)
        walls.append(wall)
        (traced_walls if traced else untraced_walls).append(wall)
        cpu.append(after.user + after.system - before.user - before.system)
        measured += wall
        enough = measured >= args.seconds and (not args.trace or traced_walls and untraced_walls)
        if enough or time.monotonic() - args.t0 + wall > LATEST_ROUND_START_S:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    command_s = [[c.seconds for c in calls] for calls in rounds]

    ledger = Ledger()
    problems = reference_checks(args.workload, setups[0], rounds[0], ref_dir)
    setup_ops = [operations(calls) for calls in setups]
    round_ops = [operations(calls) for calls in rounds]
    first_ok = []
    for (label, error, _), found in zip(setup_ops[0] + round_ops[0], problems):
        ledger.record(label, error, found)
        first_ok.append(error is None and not found)
    n_setup = len(setup_ops[0])
    repeats = ([(ops, setup_ops[0], first_ok[:n_setup], "set-up") for ops in setup_ops[1:]]
               + [(ops, round_ops[0], first_ok[n_setup:], "round") for ops in round_ops[1:]])
    for ops, reference, reference_ok, what in repeats:
        for (label, error, output), (_, _, want), ok in zip(ops, reference, reference_ok):
            if not ok:
                found = [f"the first {what}'s operation failed"]
            else:
                found = [] if output == want else [f"wrote other bytes than the first {what}"]
            ledger.record(label, error, found)

    if args.trace:
        metrics = spans.layer_metrics(tracer, n_rounds=len(traced_walls), n_setups=SETUPS)
        metrics["proc.cpu_s"] = (statistics.median(cpu), "s")
        metrics["trace.wall_s"] = (statistics.median(traced_walls), "s")
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - statistics.median(untraced_walls), "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_seconds), "s"),
            "wall_s": (sum(statistics.median(times) for times in zip(*command_s)), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": not ledger.wrong_output,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": {
            "workload": args.workload,
            "seed": args.seed,
            "machine": machine_facts(),
            "rounds": len(rounds),
            "round_wall_s": walls,
            "command_s": command_s,
            "round_cpu_s": cpu,
            "setup_each_s": setup_seconds,
            "problems": ledger.problems,
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

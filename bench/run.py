"""Layered benchmark for magrep.

Usage (from the repository root):

    python3 bench/run.py --workload catalog_sweep --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55

One process runs one workload.  It repeats cycles of set-up (every input
built afresh) plus one pass of questions until ``--seconds`` have been
spent, and reports medians over the cycles after the first, which warms
the process up.  End-to-end times are wall time scaled, task by task, to
the nominal speed of a reference computation sampled around each task
(``harness.SpeedProbe``); the wall-clock figures are printed beside them.
``--trace 1`` makes a separate run that records a span per public call and
reports per-layer figures instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
print every metric with its unit and the environment.  ``--workload all``
runs each workload in its own process and prints all of their tables.
See ``bench/README.md`` for the metrics and why each workload exists.
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads: the single-thread
# baseline, and no contention with the second core on a 2-core machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

WARMUP_CYCLES = 1
MIN_CYCLES = 3
WORKLOAD_NAMES = ("catalog_sweep", "oht")

#: End-to-end metrics: name -> unit.  Question times are medians over passes.
END_TO_END = {
    "setup_s": "s",
    "classify_s": "s",
    "reduce_s": "s",
    "kp_s": "s",
    "stability_s": "s",
    "oracle_s": "s",
    "total_s": "s",
    "peak_rss_mb": "MB",
}


def _environment(args, cycles: int) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cycles": cycles,
        "warmup_cycles": WARMUP_CYCLES,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "magrep")):
        print(f"error: magrep sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import numpy as np
    from harness import PASS, QUESTIONS, REFERENCE_S, SETUP, Session
    from workloads import WORKLOADS

    session = Session(trace=bool(args.trace))
    workload = WORKLOADS[args.workload](session)
    workload.prepare()

    # Each cycle sets every input up afresh (cold) and then runs one pass, so
    # set-up and pass samples come from the same stretch of time.  The first
    # cycle warms the process up and is not counted.  Cycles run until the
    # budget is spent, and at least MIN_CYCLES are counted; a traced run
    # alternates traced and untraced cycles, so it has one of each.  Every
    # sample is a (wall seconds, scaled seconds) pair; see harness.SpeedProbe.
    probe = session.probe
    setups = []
    passes = {"traced": [], "plain": []}
    tasks = defaultdict(list)
    budget_start = time.perf_counter()
    k = 0
    while True:
        counted = k >= WARMUP_CYCLES
        traced = bool(args.trace) and counted and k % 2 == 1
        session.trace = traced
        session.start_phase(f"{SETUP}{k}" if counted else "warmup")
        wall, factor = probe.timed(workload.setup)
        setup = (wall, wall * factor)
        session.start_phase(f"{PASS}{k}" if counted else "warmup")
        wall, factor = probe.timed(workload.run_pass,
                                   np.random.default_rng([args.seed, k]),
                                   not counted)
        # Task time is scaled task by task; the rest of the pass (basis
        # changes between tasks) by the pass's factor.
        times = session.task_times()
        in_tasks = [sum(v[i] for v in times.values()) for i in (0, 1)]
        run = (wall, in_tasks[1] + (wall - in_tasks[0]) * factor)
        if counted:
            setups.append(setup)
            passes["traced" if traced else "plain"].append(run)
            if not traced:
                for key, value in times.items():
                    tasks[key].append(value)
        k += 1
        elapsed = time.perf_counter() - budget_start
        if (k >= WARMUP_CYCLES + MIN_CYCLES
                and elapsed + elapsed / k > args.seconds):
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    env = _environment(args, k - WARMUP_CYCLES)
    env["speed_factor"] = REFERENCE_S / statistics.fmean(probe.samples)
    if args.trace:
        metrics = session.layer_metrics()
        metrics["trace.overhead_s"] = _scaled(passes["traced"]) - _scaled(passes["plain"])
        units = {name: _layer_unit(name) for name in metrics}
        wall = {}
    else:
        # A question's time is the sum over its tasks of each task's median
        # over the passes; set-up and total are medians of whole steps.
        metrics, wall = {}, {}
        for q in QUESTIONS:
            mine = [v for (tq, _), v in tasks.items() if tq == q]
            metrics[f"{q}_s"] = sum(_scaled(v) for v in mine)
            wall[f"{q}_s"] = sum(statistics.median(w for w, _ in v) for v in mine)
        for name, v in (("setup_s", setups), ("total_s", passes["plain"])):
            metrics[name] = _scaled(v)
            wall[name] = statistics.median(w for w, _ in v)
        metrics["peak_rss_mb"] = peak_rss_mb
        units = dict(END_TO_END)
    failed_frac = session.failed / session.attempted

    print("# environment: " + json.dumps(env, sort_keys=True))
    for line in session.failures:
        print("# FAILED " + line, file=sys.stderr)
    for name in sorted(metrics):
        note = " (process-wide ru_maxrss)" if name == "peak_rss_mb" else ""
        if name in wall:
            note = f" (wall-clock median {wall[name]:.6f} s)"
        print(f"{name:52s} {metrics[name]:>16.6f} {units[name]}{note}")
    print(f"{'failed_frac':52s} {failed_frac:>16.6f} ratio "
          f"({session.failed} of {session.attempted} tasks)")

    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w") as fh:
        json.dump({"environment": env, "metrics": metrics, "units": units,
                   "wall_metrics": wall, "failed_frac": failed_frac,
                   "setup_runs": setups, "passes": passes,
                   "task_passes": {f"{q}:{label}": v for (q, label), v in tasks.items()},
                   "reference_samples_s": probe.samples,
                   "reference_times": probe.times,
                   "task_log": session.task_log,
                   "failures": session.failures,
                   "spans": session.span_records()}, fh)
    print(f"# report and spans written to {os.path.relpath(out_path, ROOT)}")

    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }
    print(json.dumps(result))
    return 0


def _scaled(samples: list) -> float:
    """Median of the scaled seconds: seconds at the reference's nominal
    speed."""
    return statistics.median(scaled for _, scaled in samples)


def _layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "bytes"
    if name.endswith("seeds_per_call"):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Each workload in its own process; one table per workload."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        print(f"## {name}")
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        if not results[name]["correct"]:
            status = 1
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

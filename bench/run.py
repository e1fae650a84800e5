"""Benchmark of infobell: four workloads, end-to-end metrics and a traced per-layer run.

    python3 bench/run.py --workload exact --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from anywhere; the package is taken from ``src`` next to this
directory and nothing needs to be installed or built. One workload runs
as a single closed-loop client in a fresh child interpreter (worker.py)
with one thread per BLAS pool. Set-up is timed on several fresh
children and reported as their median. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``). ``--workload all`` runs every workload untraced
and twice traced, prints every metric, and fails if a count differs
between the two traced runs. See README.md next to this file.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = ROOT / ".bench_results"
WORKLOADS = ("exact", "measured", "multipartite", "cli")
SETUP_REPEATS = 3
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "op_cost_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ops_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class RunError(RuntimeError):
    """The workload could not be run at all; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def git_sha() -> str | None:
    """HEAD commit read from the checkout's own .git directory; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(env: dict) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": git_sha(),
        "loadavg_start": list(os.getloadavg()),
        "threads": {var: env[var] for var in THREAD_VARS},
    }


def start_worker(args, env: dict, deadline: float, setup_only: bool):
    """Start a worker; returns (process, its kill timer, seconds until it printed READY)."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(RESULTS_DIR)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    # Its own process group, so a worker past the deadline is killed with any CLI call it runs.
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill_group, (proc,))
    timer.start()
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        code, _ = finish(proc, timer)
        raise RunError(f"worker did not start (exit {code})")
    return proc, timer, ready


def kill_group(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def finish(proc, timer) -> tuple:
    """Wait for a worker and return (exit code, its remaining standard output)."""
    try:
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    return proc.returncode, rest


def run_one(args) -> dict:
    env = child_env()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(env)}
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = []
    for _ in range(SETUP_REPEATS - 1 if not args.trace else 0):
        proc, timer, ready = start_worker(args, env, deadline, setup_only=True)
        finish(proc, timer)
        setups.append(ready)
    proc, timer, ready = start_worker(args, env, deadline, setup_only=False)
    setups.append(ready)
    code, rest = finish(proc, timer)
    lines = rest.strip().splitlines()
    if code != 0 or not lines:
        raise RunError(f"worker exited {code} without a result")
    raw = json.loads(lines[-1])
    record["raw"] = raw
    record["setup_runs_s"] = setups

    if args.trace:
        values = raw["per_layer"]
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in sorted(values.items())}
    else:
        values = {
            "op_cost_ref": raw["op_cost_ref"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    record["result"] = {
        "correct": raw["failed"] == 0 and finite,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    return record


def report(record: dict) -> None:
    raw, result = record["raw"], record["result"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']}  trace {record['trace']}")
    for name, metric in result["metrics"].items():
        note = ""
        if name == "op_cost_ref":
            note = f"  (mean operation / mean reference kernel of {raw['reference_kernel_ms']:.3f} ms)"
        elif name == "setup_s":
            note = "  (median of " + ", ".join(f"{s:.3f}" for s in record["setup_runs_s"]) + ")"
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}{note}")
    if not record["trace"]:
        # Raw wall-clock figures are printed but not gated: they follow the machine's speed (README.md).
        print(f"  throughput_ops_s = {raw['throughput_ops_s']:.6g} 1/s  "
              f"({raw['completed']} ops in {raw['loop_s']:.2f} s)")
        print(f"  op_p50_ms = {raw['op_p50_ms']:.6g} ms  (n = {raw['ops']})")
        print(f"  op_p90_ms = {raw['op_p90_ms']:.6g} ms  (n = {raw['ops']}, {raw['beyond_p90']} beyond)")
    ratio = result["failed"] / result["attempted"]
    print(f"  fail_ratio = {ratio:.6g}  ({result['failed']} failed / {result['attempted']} attempted)")
    for failure in raw["failures"]:
        print(f"  FAILED {failure}")
    print("environment " + json.dumps(record["environment"]))


def run_all(args) -> int:
    """Every workload untraced and twice traced, with the traced counts compared."""
    ok = True
    for workload in WORKLOADS:
        results = []
        for trace in (0, 1, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
            if proc.returncode != 0:
                print(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            results.append(json.loads(proc.stdout.splitlines()[-1]))
        ok &= all(r["correct"] for r in results)
        first, second = (r["metrics"] for r in results[1:])
        differ = [k for k, m in first.items()
                  if m["unit"] in ("count", "ratio") and m["value"] != second[k]["value"]]
        print(f"{workload}: traced counts " + ("identical across two runs" if not differ
                                               else "DIFFER: " + ", ".join(differ)))
        ok &= not differ
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "infobell" / "__init__.py").is_file():
        print(f"error: no infobell sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if args.workload == "all":
        return run_all(args)
    RESULTS_DIR.mkdir(exist_ok=True)
    try:
        record = run_one(args)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS_DIR / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    report(record)
    print(json.dumps(record["result"], allow_nan=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

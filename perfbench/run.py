"""geowave benchmark: one command, four workloads, every metric by name and unit.

Run from the repository root:

    python3 perfbench/run.py --workload mc_batch --seed 0 --seconds 10 --trace 0

With --trace 0 it prints the end-to-end metrics (wall_s, setup_s,
paths_per_s, peak_rss_mb); with --trace 1 the per-layer metrics of a traced
run.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --smoke runs on 192-point lattices
in seconds.  WORKLOADS.md describes the workloads and metrics.

This script uses only the standard library.  Each workload runs in a worker
process with OPENBLAS_NUM_THREADS=1 and OMP_NUM_THREADS=1; set-up time is the
median over several fresh processes, because only a fresh process pays for
`import geowave`.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("mc_batch", "verify_paths", "rate_gn", "skeleton_csv")
TIME_LIMIT_S = 170.0
SETUP_PROBES = 6
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
UNITS = {"wall_s": "s", "setup_s": "s", "paths_per_s": "1/s", "peak_rss_mb": "MB"}


class WorkerFailed(Exception):
    pass


def _worker(cmd: list[str], env: dict, deadline: float) -> dict:
    """Run one worker process to completion and parse its last output line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed("time limit reached before the worker started")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker exceeded the {TIME_LIMIT_S:.0f} s limit") from None
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _report(args, result: dict, metrics: dict) -> None:
    env = result["env"]
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {len(result['op_seconds'])}  op seconds "
          + " ".join(f"{s:.3f}" for s in result["op_seconds"]))
    for name, entry in metrics.items():
        print(f"  {name:<56} {entry['value']:>16.6g} {entry['unit']}")
    error_rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<56} {error_rate:>16.6g} (failed / attempted operations)")
    for failure in result["failures"]:
        print(f"FAILED {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="192-point lattices, seconds per run")
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's seed-0 reference numbers instead of comparing")
    args = parser.parse_args()

    deadline = time.monotonic() + TIME_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "geowave" / "__init__.py").is_file():
        print("perfbench: no geowave sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH", "")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", "smoke" if args.smoke else "default"]
    if args.record_reference:
        cmd.append("--record-reference")

    try:
        result = _worker(cmd, env, deadline)
        setups = [result["setup_s"]]
        if not args.trace:
            setups += [_worker(cmd + ["--setup-only"], env, deadline)["setup_s"]
                       for _ in range(SETUP_PROBES)]
    except WorkerFailed as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    if args.trace:
        import tracer

        units = dict(tracer.per_layer_specs())
    else:
        result["metrics"]["setup_s"] = statistics.median(setups)
        units = UNITS
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    _report(args, result, metrics)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

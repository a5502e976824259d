"""Write one BENCH_<n>.json: the machine, the four benchmark workloads and the acceptance times.

Run from anywhere; the repository is the parent of this script's directory:

    python3 tools/bench.py --out BENCH_19.json

The file holds
  - "env": CPU model, vCPUs, Python, numpy and BLAS versions, git commit
    and whether tracked files differ from it;
  - "workloads": for each workload of perfbench/run.py, the last JSON line
    of its --trace 0 run (end-to-end metrics) and of its --trace 1 run
    (per-layer metrics), seed 0;
  - "acceptance": the call time of each criterion in tests/test_acceptance.py,
    parsed from `pytest --durations=0`, its outcome line and its wall time.
Runs are sequential, so they do not compete for the CPUs.  On a 2-vCPU
machine one file takes about ten minutes.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("mc_batch", "verify_paths", "rate_gn", "skeleton_csv")
_DURATION = re.compile(r"^\s*([0-9.]+)s call\s+tests/test_acceptance\.py::(\S+)")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _env() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    changes = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                             capture_output=True, text=True)
    vcpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "cpu_model": _cpu_model(),
        "vcpus": vcpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "git_commit": commit.stdout.strip() or None,
        "git_dirty": bool(changes.stdout.strip()),  # tracked files differ from the commit
    }


def _workload(name: str, trace: int, seconds: float) -> dict:
    """The last JSON line of one perfbench/run.py run, or its exit code when it failed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name, "--seed", "0",
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        return {"returncode": proc.returncode}
    return json.loads(lines[-1])


def _acceptance() -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p))
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=0",
                           "tests/test_acceptance.py"], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    wall = time.perf_counter() - started
    lines = proc.stdout.splitlines()
    times = {m.group(2): float(m.group(1)) for m in map(_DURATION.match, lines) if m}
    summary = next((line.strip("= ") for line in reversed(lines) if re.search(r"\d+ (passed|failed)", line)), "")
    return {"call_s": dict(sorted(times.items())), "summary": summary, "wall_s": wall,
            "returncode": proc.returncode}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    parser.add_argument("--seconds", type=float, default=10.0, help="perfbench --seconds per run")
    args = parser.parse_args()

    bench = {"env": _env(), "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        bench["workloads"][name] = {f"trace_{trace}": _workload(name, trace, args.seconds) for trace in (0, 1)}
        print(f"bench: {name} done", file=sys.stderr)
    bench["acceptance"] = _acceptance()
    Path(args.out).write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

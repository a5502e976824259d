"""Write one BENCH_<n>.json: the machine, the four benchmark workloads, the acceptance and Tier-1 times.

Run from anywhere.  The repository measured is the parent of this script's
directory, or the checkout named by --repo, so that one copy of the script
can measure two commits the same way:

    python3 tools/bench.py --out BENCH_22.json
    python3 tools/bench.py --repo ../parent --out BENCH_20.json

The file holds
  - "env": CPU model, vCPUs, Python, numpy and BLAS versions, git commit
    and whether tracked files differ from it;
  - "workloads": for each workload of perfbench/run.py, the last JSON line
    of its --trace 0 run (end-to-end metrics) and of its --trace 1 run
    (per-layer metrics), seed 0;
  - "acceptance": the call time of each criterion in tests/test_acceptance.py,
    parsed from `pytest --durations=0`, its outcome line, its wall time and
    its CPU time;
  - "tier1": the whole Tier-1 run's outcome line, wall time and CPU time.
CPU time is user + sys of the pytest process and the children it waited
for, the change in getrusage(RUSAGE_CHILDREN) across the run.  Runs are
sequential, so they do not compete for the CPUs.  On a 2-vCPU machine one
file takes about seven minutes.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent  # the default --repo
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


def _env(root: Path) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    changes = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
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


def _workload(root: Path, name: str, trace: int, seconds: float) -> dict:
    """The last JSON line of one perfbench/run.py run, or its exit code when it failed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", name, "--seed", "0",
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=root, stdout=subprocess.PIPE, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        return {"returncode": proc.returncode}
    return json.loads(lines[-1])


def _cpu_s() -> float:
    """User + sys seconds of the children this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _pytest(root: Path, *args: str) -> tuple[list, dict]:
    """One pytest run in root with src on the path: its output lines, and its outcome line, wall, CPU and exit code."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH", "")) if p))
    cpu, started = _cpu_s(), time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
                          cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    wall, cpu = time.perf_counter() - started, _cpu_s() - cpu
    lines = proc.stdout.splitlines()
    summary = next((line.strip("= ") for line in reversed(lines) if re.search(r"\d+ (passed|failed)", line)), "")
    return lines, {"summary": summary, "wall_s": wall, "cpu_s": cpu, "returncode": proc.returncode}


def _acceptance(root: Path) -> dict:
    lines, run = _pytest(root, "--durations=0", "tests/test_acceptance.py")
    times = {m.group(2): float(m.group(1)) for m in map(_DURATION.match, lines) if m}
    return {"call_s": dict(sorted(times.items())), **run}


def _tier1(root: Path) -> dict:
    """The Tier-1 run of ROADMAP.md."""
    return _pytest(root, "--continue-on-collection-errors")[1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    parser.add_argument("--repo", type=Path, default=ROOT, help="the checkout to measure (default: this one)")
    parser.add_argument("--seconds", type=float, default=10.0, help="perfbench --seconds per run")
    args = parser.parse_args()
    root = args.repo.resolve()

    bench = {"env": _env(root), "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        bench["workloads"][name] = {f"trace_{trace}": _workload(root, name, trace, args.seconds) for trace in (0, 1)}
        print(f"bench: {name} done", file=sys.stderr)
    bench["acceptance"] = _acceptance(root)
    print("bench: acceptance done", file=sys.stderr)
    bench["tier1"] = _tier1(root)
    Path(args.out).write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

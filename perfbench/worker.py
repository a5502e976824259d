"""One benchmark process: set up a workload, time its operations, check them.

`run.py` starts this file with the thread settings pinned and `src` on
PYTHONPATH; the last line it prints is one JSON object for `run.py`.
Set-up time runs from before `import numpy` to the built workload inputs.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402  (imports numpy, which set-up time includes)

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0
OUT_DIR = ".perfbench_out"


def _import_geowave(root: Path) -> None:
    import geowave
    import geowave.cli  # noqa: F401  (the package root does not import the CLI)

    src = (root / "src").resolve()
    if Path(geowave.__file__).resolve().parent.parent != src:
        raise SystemExit(f"perfbench: imported geowave from {geowave.__file__}, not from {src}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "threads": {key: os.environ.get(key, "") for key in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def _load_reference(scale: str, workload: str) -> dict | None:
    if not REFERENCE_FILE.is_file():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(scale, {}).get(workload)


def _record_reference(scale: str, workload: str, numbers: dict) -> None:
    data = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.is_file() else {}
    data.setdefault(scale, {})[workload] = numbers
    REFERENCE_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


class Run:
    """Operation outcomes and failures of one benchmark run."""

    def __init__(self, workload, args, reference):
        self.workload = workload
        self.args = args
        self.reference = reference
        self.attempted = 0
        self.failed_ops: set[str] = set()
        self.failures: list[str] = []

    def timed_op(self, index: int, label: str, workload=None):
        """(seconds, outcome) of one operation; outcome None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = (workload or self.workload).op(index, label)
        except Exception:
            self.fail(label, [f"raised:\n{traceback.format_exc()}"])
            return time.perf_counter() - start, None
        return time.perf_counter() - start, outcome

    def check(self, index: int, label: str, outcome) -> int:
        """Check an outcome outside the timed section; return its path count."""
        try:
            problems = self.workload.check(index, outcome)
            if index == 0 and self.args.seed == REFERENCE_SEED:
                numbers = self.workload.reference(outcome)
                if self.args.record_reference:
                    _record_reference(self.args.scale, self.args.workload, numbers)
                elif self.reference is None:
                    problems.append("no committed reference numbers for this workload")
                else:
                    problems += workloads.reference_failures(numbers, self.reference)
            paths = self.workload.paths(outcome)
        except Exception:
            problems, paths = [f"check raised:\n{traceback.format_exc()}"], 0
        self.fail(label, problems)
        return paths

    def fail(self, label: str, problems: list[str]) -> None:
        """Count operation `label` as failed if it has problems."""
        if problems:
            self.failed_ops.add(label)
            self.failures += [f"{label}: {p}" for p in problems]


def run_timed(run: Run, seconds: float) -> dict:
    """Repeat operations until their summed time reaches `seconds`."""
    op_seconds, paths, rss = [], 0, 0.0
    while not op_seconds or sum(op_seconds) < seconds:
        index = len(op_seconds)
        elapsed, outcome = run.timed_op(index, f"op{index}")
        op_seconds.append(elapsed)
        rss = max(rss, _peak_rss_mb())
        if outcome is None:
            break
        paths += run.check(index, f"op{index}", outcome)
    return {
        "op_seconds": op_seconds,
        "metrics": {
            "wall_s": statistics.median(op_seconds),
            "paths_per_s": paths / sum(op_seconds),
            "peak_rss_mb": rss,
        },
    }


def run_traced(run: Run, make_workload) -> dict:
    """One untraced and one traced operation; per-layer metrics from the spans."""
    wall_untraced, plain = run.timed_op(0, "untraced")
    spans = tracer.Tracer()
    spans.install()
    try:
        with spans.span("perfbench.setup"):
            traced_workload = make_workload(lambda fn: spans.wrap("perfbench.observer", fn))
        with spans.span("perfbench.op"):
            wall_traced, traced = run.timed_op(0, "traced", traced_workload)
    finally:
        spans.uninstall()
    leftovers = spans.leftover_wrappers()
    if leftovers:
        run.fail("traced", [f"wrappers left after uninstall: {leftovers}"])
    if plain is not None:
        run.check(0, "untraced", plain)
    if plain is not None and traced is not None:
        if traced_workload.reference(traced) != run.workload.reference(plain):
            run.fail("traced", ["tracing changed the operation's outputs"])
    spans.write_spans(Path.cwd() / OUT_DIR / f"spans-{run.args.workload}-seed{run.args.seed}.csv.gz")
    metrics = tracer.layer_metrics(spans)
    metrics["trace.wall_s_untraced"] = wall_untraced
    metrics["trace.wall_s_traced"] = wall_traced
    metrics["trace.overhead"] = wall_traced / wall_untraced
    return {"op_seconds": [wall_untraced], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("default", "smoke"), default="default")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    _import_geowave(root)
    cls = workloads.WORKLOADS[args.workload]
    workdir = root / OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = cls(args.seed, args.scale, workdir)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            result = {"setup_s": setup_s}
        else:
            run = Run(workload, args, _load_reference(args.scale, args.workload))
            if args.trace:
                result = run_traced(run, lambda hook: cls(args.seed, args.scale, workdir, hook))
            else:
                result = run_timed(run, args.seconds)
            result.update(setup_s=setup_s, attempted=run.attempted, failed=len(run.failed_ops),
                          failures=run.failures, env=environment())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

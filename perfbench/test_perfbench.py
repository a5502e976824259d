"""Tests of the benchmark itself: tracer hygiene, span arithmetic, smoke runs.

Run from the repository root with `python3 -m pytest -q perfbench`.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import geowave  # noqa: E402
import geowave.cli  # noqa: E402,F401
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _targets():
    out = {}
    for mod_name, attr in tr.TARGETS:
        owner = sys.modules[f"geowave.{mod_name}"]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            out[(mod_name, cls_name, attr)] = vars(owner)[attr]
        else:
            out[(mod_name, attr)] = getattr(owner, attr)
    return out


def _small_traced_run(tracer):
    """A noisy path plus its energy check on a 96-point circle lattice."""
    from geowave import solver

    geom = geowave.make_grid(6.0, 96, 1.0)
    man = geowave.ManifoldModel.circle()
    basis = geowave.build_basis(geowave.SpectralMeasure.default_three_atoms())
    yf = geowave.DiffusionField.for_manifold(man)
    loc = geowave.LocalizationParams(radius=geom.half_width)
    with tracer.span("perfbench.op"):
        z0 = sys.modules["geowave.states"].bump_state(geom, man)
        traj = solver.solve_stochastic(z0, 1e-2, None, 1.0, loc, manifold=man, basis=basis,
                                       diffusion=yf, trial_id=3, keep_states=True)
        sys.modules["geowave.energy"].verify_energy_inequality(
            traj, cone=geowave.LightCone(0.0, 2.0), manifold=man, basis=basis, diffusion=yf)
    return traj


def test_wrappers_are_gone_after_uninstall():
    before = _targets()
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert sys.modules["geowave.solver"].derivative1 is not before[("function_spaces", "derivative1")]
        assert sys.modules["geowave.energy"].curvature_force is not before[("solver", "curvature_force")]
        assert tracer.leftover_wrappers()
        _small_traced_run(tracer)
    finally:
        tracer.uninstall()
    assert tracer.leftover_wrappers() == []
    after = _targets()
    assert all(after[key] is before[key] for key in before)
    names = {tracer.names[record[0]] for record in tracer.spans}
    assert {"solver.solve_stochastic", "energy.verify_energy_inequality", "rng.stream",
            "function_spaces.integrate_samples", "geometry.DiffusionField.__call__"} <= names


def test_self_times_are_nonnegative_and_children_fit_in_parents():
    tracer = tr.Tracer()
    tracer.install()
    try:
        _small_traced_run(tracer)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    selfs, covered = tr.self_times(spans)
    assert len(spans) > 100
    assert all(s >= 0 for s in selfs)
    children = {}
    for index, (_, start, end, parent, _) in enumerate(spans):
        assert end >= start
        if parent >= 0:
            children.setdefault(parent, []).append(index)
    for parent, kids in children.items():
        p_start, p_end = spans[parent][1], spans[parent][2]
        raw = sum(spans[k][2] - spans[k][1] for k in kids)
        assert raw <= p_end - p_start
        assert covered[parent] == raw
        for k in kids:
            assert p_start <= spans[k][1] and spans[k][2] <= p_end
    metrics = tr.layer_metrics(tracer)
    assert set(metrics) == {name for name, _ in tr.per_layer_specs()}
    assert metrics["solver.col_steps"] == 16
    assert metrics["rng.stream.noise_draws"] == 16


def test_self_times_of_synthetic_spans():
    # parent [0, 100] with children [10, 30] and [20, 50] (overlapping) and [90, 120]
    spans = [[0, 0, 100, -1, None], [0, 10, 30, 0, None], [0, 20, 50, 0, None], [0, 90, 120, 0, None]]
    selfs, covered = tr.self_times(spans)
    assert covered[0] == 40 + 10
    assert selfs == [50, 20, 30, 30]


def test_reference_tolerance_separates_reordering_from_dropped_terms():
    want = {"a": 1.0, "b": -3.0}
    assert wl.reference_failures({"a": 1.0 + 1e-12, "b": -3.0 * (1 + 1e-12)}, want) == []
    assert wl.reference_failures({"a": 1.0 + 1e-6, "b": -3.0}, want)
    assert wl.reference_failures({"a": 1.0}, want)


def test_benchmark_json_matches_the_code():
    import run

    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.UNITS
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == tr.per_layer_specs()


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run(workload):
    e2e = _bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "0", "--smoke")
    assert e2e.returncode == 0, e2e.stderr
    result = json.loads(e2e.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, e2e.stdout
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = _bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1", "--smoke")
    assert traced.returncode == 0, traced.stderr
    result = json.loads(traced.stdout.splitlines()[-1])
    assert result["correct"], traced.stdout
    layer = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(layer) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert layer["trace.overhead"] > 0
    # bypass predictions: no noise draws without noise, no verifier without paths
    noisy = workload in ("mc_batch", "verify_paths")
    assert (layer["rng.stream.noise_draws"] > 0) == noisy
    assert (layer["ldp.rate.iterations"] > 0) == (workload == "rate_gn")
    assert (layer["cli.run_command.calls"] > 0) == (workload in ("rate_gn", "skeleton_csv"))
    if workload in ("mc_batch", "rate_gn"):
        assert layer["function_spaces.integrate_samples.calls"] == 0
    if workload == "mc_batch":
        assert layer["perfbench.observer.calls"] > 0


def test_fails_without_sources():
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc_batch",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

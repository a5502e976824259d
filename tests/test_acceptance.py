"""End-to-end acceptance gate at desk scale.

One test per shipped guarantee, each printing a PASS/FAIL line with the
measured numbers and asserting both the tolerance and a wall-clock budget.
Scale: circle and sphere targets, domain radius 6, 1536 grid points, unit
horizon, the three-atom default noise (the rate-recovery test runs on a 384
point lattice to stay inside its time budget; tolerances are unchanged).
"""
import hashlib
import json
import math
import time

import numpy as np

from geowave.cli import run_command
from geowave.energy import energy, verify_energy_inequality, verify_energy_transforms
from geowave.function_spaces import LightCone, State
from geowave.geometry import DiffusionField, ManifoldModel
from geowave.ldp import RateOptions, rate_function, statement1_probe, statement2_probe
from geowave.noise import (
    SpectralMeasure,
    build_basis,
    covariance_kernel,
    hs_embedding_norm,
    sample_increment,
)
from geowave.rng import stream
from geowave.solver import (
    Control,
    LocalizationParams,
    solve_skeleton,
    solve_stochastic,
)
from geowave.states import (
    ROTATING_OMEGA,
    ROTATING_THETA0,
    bump_state,
    make_grid,
    random_state,
    rotating_state,
    twin_pair,
)
from geowave.wave_group import apply_group

_MEASURE = SpectralMeasure.default_three_atoms()
_BASIS = build_basis(_MEASURE)
_CIRCLE = ManifoldModel.circle()
_SPHERE = ManifoldModel.sphere()
_Y_CIRCLE = DiffusionField.circle_rotation()
_Y_SPHERE = DiffusionField.sphere_axis_rotation()
_SEED = 2026


def _line(name, ok, detail, elapsed, budget):
    print(f"{'PASS' if ok and elapsed < budget else 'FAIL'}  {name}: "
          f"{detail} [{elapsed:.1f}s / budget {budget:.0f}s]")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name}: {elapsed:.1f}s exceeded the {budget:.0f}s budget"


def _loc(geom):
    return LocalizationParams(radius=geom.half_width)


def test_criterion_01_geometry_invariants():
    from geowave.selfcheck import geometry_groups

    start = time.perf_counter()
    checks = []
    geometry_groups(checks, stream(_SEED, 1))
    bad = [name for name, ok, _ in checks if not ok]
    _line("acceptance-01 geometry invariants", not bad,
          f"{len(checks)} invariant groups, failures: {bad or 'none'}",
          time.perf_counter() - start, 5.0)


def test_criterion_02_wave_group_exactness():
    start = time.perf_counter()
    geom = make_grid(6.0, 192, 1.0)
    worst_comp = worst_rev = worst_energy = 0.0
    for seed in range(3):
        z = random_state(geom, _CIRCLE, stream(_SEED, 20, seed))
        once = apply_group(apply_group(z, 0.25), 0.5)
        whole = apply_group(z, 0.75)
        worst_comp = max(worst_comp,
                         float(np.abs(once.u.values - whole.u.values).max()),
                         float(np.abs(once.v.values - whole.v.values).max()))
        back = apply_group(apply_group(z, 0.5), -0.5)
        worst_rev = max(worst_rev,
                        float(np.abs(back.u.values - z.u.values).max()),
                        float(np.abs(back.v.values - z.v.values).max()))

        def free_energy(state):
            du = np.gradient(state.u.values, geom.spacing, axis=0)
            return float((du ** 2 + state.v.values ** 2).sum() * geom.spacing)

        e0 = free_energy(z)
        for t in (0.25, 0.5, 1.0):
            worst_energy = max(worst_energy, abs(free_energy(apply_group(z, t)) - e0) / e0)

    u = np.zeros((geom.npoints, 1))
    inside = np.abs(geom.x) < 1.0
    u[inside, 0] = np.cos(geom.x[inside] * math.pi / 2.0) ** 2
    zc = geom.state(u, np.zeros_like(u))
    moved = apply_group(zc, 0.5)
    outside = np.abs(geom.x) > 1.5 + geom.spacing / 2
    leak = max(float(np.abs(moved.u.values[outside]).max()),
               float(np.abs(moved.v.values[outside]).max()))

    ok = worst_comp < 1e-12 and worst_rev < 1e-12 and leak == 0.0 and worst_energy < 1e-10
    _line("acceptance-02 wave group exactness", ok,
          f"composition {worst_comp:.2e}, reversal {worst_rev:.2e}, "
          f"cone leak {leak:.1e}, energy drift {worst_energy:.2e}",
          time.perf_counter() - start, 5.0)


def test_criterion_03_skeleton_closed_form_and_order():
    start = time.perf_counter()
    sups = []
    residual = None
    for pts in (384, 768, 1536):
        geom = make_grid(6.0, pts, 1.0)
        traj = solve_skeleton(rotating_state(geom, _CIRCLE), None, 1.0, _loc(geom),
                              manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE,
                              keep_states=True)
        box = np.abs(geom.x) <= geom.domain_radius
        worst = 0.0
        for m, um in enumerate(traj.u):
            ang = ROTATING_THETA0 + ROTATING_OMEGA * traj.times[m]
            worst = max(worst,
                        float(np.abs(um[box, 0] - math.cos(ang)).max()),
                        float(np.abs(um[box, 1] - math.sin(ang)).max()))
        sups.append(worst)
        if pts == 1536:
            residual = max(float(_CIRCLE.constraint_residual(um).max())
                           for um in traj.u)
    orders = (math.log2(sups[0] / sups[1]), math.log2(sups[1] / sups[2]))
    ok = sups[-1] < 1e-3 and min(orders) >= 1.8 and residual < 1e-9
    _line("acceptance-03 rotating-geodesic accuracy", ok,
          f"sup error {sups[-1]:.2e}, orders {orders[0]:.2f}/{orders[1]:.2f}, "
          f"constraint residual {residual:.2e}",
          time.perf_counter() - start, 60.0)


def test_criterion_04_cone_agreement_for_twin_data():
    start = time.perf_counter()
    geom = make_grid(6.0, 1536, 1.0)
    cone = LightCone(0.0, 2.0)
    worst = 0.0
    for seed in range(5):
        man = _CIRCLE if seed % 2 == 0 else _SPHERE
        y = _Y_CIRCLE if seed % 2 == 0 else _Y_SPHERE
        za, zb = twin_pair(geom, man, stream(_SEED, 40, seed))
        ta = solve_skeleton(za, None, 1.0, _loc(geom), manifold=man, basis=_BASIS,
                            diffusion=y, keep_states=True)
        tb = solve_skeleton(zb, None, 1.0, _loc(geom), manifold=man, basis=_BASIS,
                            diffusion=y, keep_states=True)
        for m, t in enumerate(ta.times):
            box = np.abs(geom.x - cone.center) <= cone.horizon - t - geom.spacing / 2
            worst = max(
                worst,
                float(np.abs(ta.u[m, box] - tb.u[m, box]).max()),
                float(np.abs(ta.v[m, box] - tb.v[m, box]).max()),
            )
    _line("acceptance-04 twin-data cone agreement", worst < 1e-10,
          f"max in-cone disagreement over 5 pairs = {worst:.2e}",
          time.perf_counter() - start, 120.0)


def test_criterion_05_energy_inequality_on_noisy_paths():
    start = time.perf_counter()
    geom = make_grid(6.0, 1536, 1.0)
    cone = LightCone(0.0, 2.0)
    z0 = random_state(geom, _SPHERE, stream(_SEED, 50))
    violations = 0
    tol_1536 = None
    for tid in range(20):
        traj = solve_stochastic(z0, 1e-2, None, 1.0, _loc(geom), manifold=_SPHERE,
                                basis=_BASIS, diffusion=_Y_SPHERE, master_seed=_SEED,
                                trial_id=tid, keep_states=True)
        reports = verify_energy_transforms(traj, ("identity", "log1p"), cone=cone,
                                           manifold=_SPHERE, basis=_BASIS, diffusion=_Y_SPHERE)
        violations += sum(len(rep.violations) for rep in reports.values())
        if tid == 0:
            tol_1536 = reports["identity"].tol

    geom_h = make_grid(6.0, 768, 1.0)
    z0_h = random_state(geom_h, _SPHERE, stream(_SEED, 50))
    traj_h = solve_stochastic(z0_h, 1e-2, None, 1.0, _loc(geom_h), manifold=_SPHERE,
                              basis=_BASIS, diffusion=_Y_SPHERE, master_seed=_SEED,
                              trial_id=0, keep_states=True)
    tol_768 = verify_energy_inequality(traj_h, cone=cone, manifold=_SPHERE,
                                       basis=_BASIS, diffusion=_Y_SPHERE).tol
    ratio = tol_1536 / tol_768
    ok = violations == 0 and 0.4 < ratio < 0.6
    _line("acceptance-05 pathwise energy inequality", ok,
          f"violations {violations} across 20 paths x 2 transforms, "
          f"tol(dt)/tol(2dt) = {ratio:.3f}",
          time.perf_counter() - start, 600.0)


def test_criterion_06_weak_null_perturbations_wash_out():
    start = time.perf_counter()
    geom = make_grid(6.0, 1536, 1.0)
    z0 = bump_state(geom, _CIRCLE)
    cone = LightCone(0.0, 2.0)
    rep = statement1_probe([4, 8, 16, 32, 64], z0, cone, horizon=1.0,
                           loc=_loc(geom), manifold=_CIRCLE, basis=_BASIS,
                           diffusion=_Y_CIRCLE, tol=1e-2)
    flat = statement1_probe([4, 8, 16, 32, 64], z0, cone, horizon=1.0,
                            loc=_loc(geom), manifold=_CIRCLE, basis=_BASIS,
                            diffusion=_Y_CIRCLE, tol=1e-2, perturbation="constant")
    ok = rep.passed and rep.metrics[-1] < 1e-2 and flat.metrics[-1] > 1e-1
    _line("acceptance-06 weak-perturbation continuity", ok,
          f"d_n {np.array2string(rep.metrics, precision=2)}, "
          f"negative control plateau {flat.metrics[-1]:.3f}",
          time.perf_counter() - start, 600.0)


def test_criterion_07_linear_noise_response():
    start = time.perf_counter()
    geom = make_grid(6.0, 1536, 1.0)
    z0 = random_state(geom, _SPHERE, stream(_SEED, 72))
    cone = LightCone(0.0, 2.0)
    rep = statement2_probe([1e-2, 1e-3, 1e-4], 50, 10.0, z0, cone, _SEED,
                           horizon=1.0, loc=_loc(geom), manifold=_SPHERE,
                           basis=_BASIS, diffusion=_Y_SPHERE)
    ok = rep.passed and 0.7 <= rep.slope <= 1.3
    _line("acceptance-07 linear mean-energy response", ok,
          f"log-log slope {rep.slope:.4f}, means "
          f"{np.array2string(rep.metrics, precision=2)}",
          time.perf_counter() - start, 1800.0)


def test_criterion_08_rate_recovery_on_the_circle():
    start = time.perf_counter()
    geom = make_grid(6.0, 384, 1.0)
    z0 = bump_state(geom, _CIRCLE)
    cone = LightCone(0.0, 2.0)
    steps = round(1.0 / geom.spacing)
    opts = RateOptions(blocks=8)
    ratios, cert_gaps = [], []
    for mode, amp in ((0, 0.9), (1, 0.7), (2, 0.5)):
        rows = np.zeros((steps, _BASIS.dim))
        rows[:, mode] = amp
        planted = Control(rows, geom.spacing)
        cost = 0.5 * planted.squared_norm()
        target = solve_skeleton(z0, planted, 1.0, _loc(geom), manifold=_CIRCLE,
                                basis=_BASIS, diffusion=_Y_CIRCLE).final_state()
        res = rate_function(target, z0, 50.0, opts, cone=cone, horizon=1.0,
                            loc=_loc(geom), manifold=_CIRCLE, basis=_BASIS,
                            diffusion=_Y_CIRCLE)
        assert res.converged
        ratios.append(res.value / cost)
        redo = solve_skeleton(z0, res.argmin, 1.0, _loc(geom), manifold=_CIRCLE,
                              basis=_BASIS, diffusion=_Y_CIRCLE).final_state()
        diff = State(redo.u.with_values(redo.u.values - target.u.values),
                     redo.v.with_values(redo.v.values - target.v.values))
        gap_re = math.sqrt(2.0 * energy(1.0, diff, cone, k=1))
        cert_gaps.append(abs(gap_re - res.terminal_gap))

    free_target = solve_skeleton(z0, None, 1.0, _loc(geom), manifold=_CIRCLE,
                                 basis=_BASIS, diffusion=_Y_CIRCLE).final_state()
    free = rate_function(free_target, z0, 50.0, opts, cone=cone, horizon=1.0,
                         loc=_loc(geom), manifold=_CIRCLE, basis=_BASIS,
                         diffusion=_Y_CIRCLE)
    ok = (max(ratios) <= 1.05 and free.converged and free.value < 1e-6
          and max(cert_gaps) < 1e-10)
    _line("acceptance-08 control-energy recovery", ok,
          f"value/cost ratios {[f'{r:.3f}' for r in ratios]}, "
          f"uncontrolled value {free.value:.1e}, "
          f"certificate re-simulation gap {max(cert_gaps):.1e}",
          time.perf_counter() - start, 1200.0)


def test_criterion_09_noise_statistics():
    start = time.perf_counter()
    rng = stream(_SEED, 90)
    nsamp, dt = 100_000, 0.1
    coeffs = np.stack([sample_increment(_BASIS, dt, rng) for _ in range(nsamp)])
    var = coeffs.var(axis=0, ddof=1)
    sigma = dt * math.sqrt(2.0 / (nsamp - 1))
    var_dev = float(np.abs(var - dt).max() / sigma)

    x = np.linspace(-3.0, 3.0, 7)
    fields = coeffs @ _BASIS.evaluate(x)
    emp_cov = np.cov(fields, rowvar=False, ddof=1)
    want = dt * covariance_kernel(_MEASURE, x[:, None] - x[None, :])
    kd = np.diag(want)
    cov_sigma = np.sqrt((np.outer(kd, kd) + want ** 2) / (nsamp - 1))
    cov_dev = float((np.abs(emp_cov - want) / cov_sigma).max())

    coarse = hs_embedding_norm(_MEASURE, samples=2048)
    fine = hs_embedding_norm(_MEASURE, samples=4096)
    rel = abs(fine - coarse) / fine

    ok = var_dev < 5.0 and cov_dev < 5.0 and rel < 1e-2
    _line("acceptance-09 noise statistics", ok,
          f"variance dev {var_dev:.2f} sigma, covariance dev {cov_dev:.2f} sigma, "
          f"embedding-norm quadrature drift {rel:.2e}",
          time.perf_counter() - start, 120.0)


def test_criterion_10_verify_is_thread_count_invariant(tmp_path, capsys):
    start = time.perf_counter()
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("noise.seed = 7\n")
    outputs, stdouts = [], []
    for name, threads in (("one", "1"), ("four", "4")):
        out = tmp_path / name
        code = run_command(["verify", "--config", str(cfg), "--out", str(out),
                            "--threads", threads])
        assert code == 0
        stdouts.append(capsys.readouterr().out)
        outputs.append((out / "verify_report.json").read_bytes())
    same_report = outputs[0] == outputs[1]
    same_stdout = stdouts[0] == stdouts[1]
    digest = hashlib.sha256(outputs[0]).hexdigest()[:12]
    report = json.loads(outputs[0])
    ok = same_report and same_stdout and report["passed"] == report["total"]
    _line("acceptance-10 thread-count determinism", ok,
          f"verify twice (1 vs 4 threads): report bytes equal {same_report}, "
          f"stdout equal {same_stdout}, {report['passed']}/{report['total']} groups, "
          f"sha256 {digest}",
          time.perf_counter() - start, 120.0)

"""The `geowave verify` battery: named invariant groups over every module.

Each group appends (name, passed, detail) triples to a list.  The groups run
on small internal lattices, so the battery is independent of the config's
grid; only the seed, the spectral measure and the thread count reach it.
Details print floats with 17 significant digits, so a replay with the same
seed is byte-identical for any thread count.
"""
from __future__ import annotations

import math

import numpy as np

from .energy import perpendicularity_defect, verify_energy_inequality, verify_energy_transforms
from .function_spaces import GridFunction, LightCone, extend, sobolev_sq
from .geometry import DiffusionField, ManifoldModel
from .ldp import RateOptions, rate_function, statement1_probe, statement2_probe
from .noise import SpectralMeasure, build_basis, covariance_kernel, hs_embedding_norm, sample_increment
from .rng import stream
from .solver import (
    Control,
    LocalizationParams,
    mild_residual,
    solve_batch,
    solve_skeleton,
    solve_stochastic,
    window_norm,
)
from .states import (
    ROTATING_OMEGA,
    ROTATING_THETA0,
    bump_state,
    constant_state,
    make_grid,
    random_state,
    rotating_state,
    twin_pair,
)
from .wave_group import apply_group, lattice_steps

VERIFY_TRIALS = 30  # the noisy paths per noise level of the ldp group, the only trials it fans out

__all__ = [
    "verify_suite",
    "geometry_groups",
    "space_groups",
    "noise_groups",
    "wave_groups",
    "solver_groups",
    "energy_groups",
    "ldp_groups",
]


def _fmt(x) -> str:
    """A float with 17 significant digits, the format of every CLI output."""
    return format(float(x), ".17g")


def _tube_samples(manifold: ManifoldModel, rng, count: int = 64):
    base = rng.standard_normal((count, manifold.ambient_dim))
    p = manifold.nearest_point(base + np.array([2.0] + [0.0] * (manifold.ambient_dim - 1)))
    normal = p  # for the unit circle and sphere the outward normal is the point itself
    s = rng.uniform(-0.5, 0.5, (count, 1)) * manifold.tubular_radius
    return p, p + s * normal


def _tangent_probe(manifold, p, rng):
    raw = rng.standard_normal(p.shape)
    return manifold.tangent_project_at(p, raw)


def geometry_groups(checks: list, rng) -> None:
    for name in ("circle", "sphere"):
        man = getattr(ManifoldModel, name)()
        p, q = _tube_samples(man, rng)
        err_inv = float(np.abs(man.involution(man.involution(q)) - q).max())
        checks.append((f"geometry.{name}.involution_involutive", err_inv < 1e-10,
                       f"max |R(R(q)) - q| = {_fmt(err_inv)}"))
        err_fix = float(np.abs(man.involution(p) - p).max())
        checks.append((f"geometry.{name}.involution_fixed_points", err_fix < 1e-12,
                       f"max |R(p) - p| on the manifold = {_fmt(err_fix)}"))
        tan = _tangent_probe(man, p, rng)
        jt = man.involution_jacobian(p, tan)
        jn = man.involution_jacobian(p, p)
        err_jac = max(float(np.abs(jt - tan).max()), float(np.abs(jn + p).max()))
        checks.append((f"geometry.{name}.involution_jacobian_signs", err_jac < 1e-10,
                       f"tangent +1 / normal -1 eigenvector defect = {_fmt(err_jac)}"))
        xi = _tangent_probe(man, p, rng)
        eta = _tangent_probe(man, p, rng)
        sff = man.extended_sff_perp(p, xi, eta)
        oracle = -(xi * eta).sum(axis=1, keepdims=True) * p
        err_sff = float(np.abs(sff - oracle).max())
        checks.append((f"geometry.{name}.second_fundamental_form", err_sff < 1e-10,
                       f"max |A(xi,eta) + <xi,eta> p| = {_fmt(err_sff)}"))
        a = rng.standard_normal(q.shape)
        b = rng.standard_normal(q.shape)
        err_even = float(np.abs(man.extended_sff_perp(q, a, b)
                                - man.extended_sff_perp(man.involution(q), a, b)).max())
        checks.append((f"geometry.{name}.extension_reflection_even", err_even < 1e-10,
                       f"max |A~(q) - A~(R(q))| = {_fmt(err_even)}"))
        proj = man.tangent_project_at(p, a)
        err_proj = max(float(np.abs(man.tangent_project_at(p, proj) - proj).max()),
                       float(np.abs((proj * p).sum(axis=1)).max()))
        checks.append((f"geometry.{name}.tangent_projection", err_proj < 1e-12,
                       f"idempotency / orthogonality defect = {_fmt(err_proj)}"))
        yfield = DiffusionField.for_manifold(man)
        err_tan = float(np.abs((yfield(p) * p).sum(axis=1)).max())
        checks.append((f"geometry.{name}.diffusion_tangency", err_tan < 1e-12,
                       f"max |<Y(p), p>| = {_fmt(err_tan)}"))


def space_groups(checks: list) -> None:
    n = 2048
    dx = 2.0 * math.pi / n
    x = dx * np.arange(n + 1)
    f = GridFunction(0.0, dx, np.sin(x))
    got = math.sqrt(sobolev_sq(f, (0.0, 2.0 * math.pi), 1))
    want = math.sqrt(2.0 * math.pi)
    rel = abs(got - want) / want
    checks.append(("spaces.sobolev_sine_oracle", rel < 1e-4,
                   f"H1 norm of sine vs closed form, rel err = {_fmt(rel)}"))
    xs = -2.0 + 0.1 * np.arange(41)
    poly = GridFunction(-2.0, 0.1, 1.0 + 2.0 * xs - 3.0 * xs ** 2)
    ext = extend(poly, 1.0, order=2)
    xe = ext.x
    mask = np.abs(xe) <= 1.24  # inside the pre-cutoff band the reflection is exact
    err = float(np.abs(ext.values[mask, 0] - (1.0 + 2.0 * xe[mask] - 3.0 * xe[mask] ** 2)).max())
    checks.append(("spaces.reflection_extension_quadratic", err < 1e-9,
                   f"order-2 extension on a quadratic, max err = {_fmt(err)}"))


def noise_groups(checks: list, measure: SpectralMeasure, seed: int) -> None:
    basis = build_basis(measure)
    x = np.linspace(-3.0, 3.0, 7)
    modes = basis.evaluate(x)
    gram = modes.T @ modes
    want = covariance_kernel(measure, x[:, None] - x[None, :])
    err = float(np.abs(gram - want).max())
    checks.append(("noise.kernel_reproduction", err < 1e-12,
                   f"mode Gram matrix vs covariance kernel, max err = {_fmt(err)}"))

    rng = stream(seed, 101)
    nsamp, dt = 20000, 0.1
    coeffs = np.stack([sample_increment(basis, dt, rng) for _ in range(nsamp)])
    var = coeffs.var(axis=0, ddof=1)
    sigma = dt * math.sqrt(2.0 / (nsamp - 1))
    dev = float(np.abs(var - dt).max() / sigma)
    checks.append(("noise.increment_variance", dev < 5.0,
                   f"worst per-mode variance deviation = {_fmt(dev)} sigma"))

    fields = coeffs @ modes
    fvar = fields.var(axis=0, ddof=1)
    k0 = float(covariance_kernel(measure, np.zeros(1))[0]) * dt
    fsigma = k0 * math.sqrt(2.0 / (nsamp - 1))
    # a measure of zero weight has the zero field, whose variance is k0 = 0 with no spread
    fdev = float(np.abs(fvar - k0).max() / fsigma) if fsigma else float(np.abs(fvar - k0).max())
    checks.append(("noise.field_stationarity", fdev < 5.0,
                   f"worst pointwise field variance deviation = {_fmt(fdev)} sigma"))

    coarse = hs_embedding_norm(measure, samples=2048)
    fine = hs_embedding_norm(measure, samples=4096)
    rel = abs(fine - coarse) / fine if fine else abs(fine - coarse)
    checks.append(("noise.hs_norm_quadrature_stable", rel < 1e-2,
                   f"embedding HS norm at two quadrature levels, rel diff = {_fmt(rel)}"))


def wave_groups(checks: list, rng) -> None:
    geom = make_grid(6.0, 192, 1.0)
    man = ManifoldModel.circle()
    z = random_state(geom, man, rng)
    once = apply_group(apply_group(z, 0.25), 0.5)
    whole = apply_group(z, 0.75)
    err = max(float(np.abs(once.u.values - whole.u.values).max()),
              float(np.abs(once.v.values - whole.v.values).max()))
    checks.append(("wave.group_law", err < 1e-12,
                   f"S_a S_b vs S_(a+b), max err = {_fmt(err)}"))
    back = apply_group(apply_group(z, 0.5), -0.5)
    err = max(float(np.abs(back.u.values - z.u.values).max()),
              float(np.abs(back.v.values - z.v.values).max()))
    checks.append(("wave.time_reversibility", err < 1e-12,
                   f"S_(-t) S_t vs identity, max err = {_fmt(err)}"))

    def free_energy(state):
        du = np.gradient(state.u.values, geom.spacing, axis=0)
        return float(((du ** 2 + state.v.values ** 2).sum()) * geom.spacing)

    e0, e1 = free_energy(z), free_energy(apply_group(z, 0.5))
    rel = abs(e1 - e0) / e0
    checks.append(("wave.free_energy_conservation", rel < 1e-10,
                   f"free energy drift after transport, rel = {_fmt(rel)}"))

    u = np.zeros((geom.npoints, 1))
    inside = np.abs(geom.x) < 1.0
    u[inside, 0] = np.cos(geom.x[inside] * math.pi / 2.0) ** 2
    zc = geom.state(u, np.zeros_like(u))
    moved = apply_group(zc, 0.5)
    outside = np.abs(geom.x) > 1.5 + geom.spacing / 2
    leak = max(float(np.abs(moved.u.values[outside]).max()),
               float(np.abs(moved.v.values[outside]).max()))
    checks.append(("wave.finite_propagation_speed", leak == 0.0,
                   f"amplitude beyond the light cone = {_fmt(leak)}"))


def solver_groups(checks: list, basis, seed: int) -> None:
    man_c = ManifoldModel.circle()
    y_c = DiffusionField.circle_rotation()

    geom = make_grid(6.0, 192, 1.0)
    loc = LocalizationParams(radius=geom.half_width)
    zc = constant_state(geom, man_c)
    traj = solve_skeleton(zc, None, 0.5, loc, manifold=man_c, basis=basis, diffusion=y_c)
    zf = traj.final_state()
    err = max(float(np.abs(zf.u.values - zc.u.values).max()), float(np.abs(zf.v.values).max()))
    checks.append(("solver.rest_state_exact", err < 1e-12,
                   f"drift of the rest state over T=0.5, max err = {_fmt(err)}"))

    sups = []
    for pts in (96, 192, 384):
        g = make_grid(6.0, pts, 1.0)
        lc = LocalizationParams(radius=g.half_width)
        z0 = rotating_state(g, man_c)
        tr = solve_skeleton(z0, None, 1.0, lc, manifold=man_c, basis=basis,
                            diffusion=y_c, keep_states=True)
        worst = 0.0
        for m, um in enumerate(tr.u):
            ang = ROTATING_THETA0 + ROTATING_OMEGA * tr.times[m]
            exact = np.stack([np.cos(ang) * np.ones(g.npoints), np.sin(ang) * np.ones(g.npoints)], axis=1)
            box = np.abs(g.x) <= g.domain_radius
            worst = max(worst, float(np.abs(um[box] - exact[box]).max()))
        sups.append(worst)
    checks.append(("solver.rotating_geodesic_closed_form", sups[-1] < 1e-3,
                   f"sup error vs the closed-form rotating state = {_fmt(sups[-1])}"))
    order = math.log2(sups[0] / sups[1])
    order2 = math.log2(sups[1] / sups[2])
    checks.append(("solver.self_convergence_order", min(order, order2) > 1.5,
                   f"observed orders across refinements = {_fmt(order)}, {_fmt(order2)}"))

    g384 = make_grid(6.0, 384, 1.0)
    loc384 = LocalizationParams(radius=g384.half_width)
    za, zb = twin_pair(g384, man_c, stream(seed, 202))
    cone = LightCone(0.0, 2.0)
    ta = solve_skeleton(za, None, 1.0, loc384, manifold=man_c, basis=basis,
                        diffusion=y_c, keep_states=True)
    tb = solve_skeleton(zb, None, 1.0, loc384, manifold=man_c, basis=basis,
                        diffusion=y_c, keep_states=True)
    worst = 0.0
    for m in range(len(ta.times)):
        t = ta.times[m]
        rad = cone.horizon - t
        box = np.abs(g384.x - cone.center) <= rad - g384.spacing / 2
        worst = max(worst, float(np.abs(ta.u[m, box] - tb.u[m, box]).max()),
                    float(np.abs(ta.v[m, box] - tb.v[m, box]).max()))
    checks.append(("solver.twin_cone_agreement", worst < 1e-10,
                   f"max in-cone disagreement of twin data = {_fmt(worst)}"))

    z0 = random_state(geom, man_c, stream(seed, 203))
    det = solve_skeleton(z0, None, 0.5, loc, manifold=man_c, basis=basis, diffusion=y_c)
    sto = solve_stochastic(z0, 0.0, None, 0.5, loc, manifold=man_c, basis=basis,
                           diffusion=y_c, master_seed=seed)
    same = (np.array_equal(det.final_state().u.values, sto.final_state().u.values)
            and np.array_equal(det.final_state().v.values, sto.final_state().v.values))
    checks.append(("solver.zero_noise_reduction", same,
                   "eps = 0 stochastic path reproduces the skeleton bitwise"
                   if same else "eps = 0 path deviates from the skeleton"))

    man_s = ManifoldModel.sphere()
    y_s = DiffusionField.sphere_axis_rotation()
    zs = random_state(geom, man_s, stream(seed, 204))

    def grab(store):
        def obs(m, t, u, v):
            store[m] = (u.copy(), v.copy())
        return obs

    batch_store = {}
    solve_batch(zs, 1e-2, 0.5, loc, manifold=man_s, basis=basis, diffusion=y_s,
                master_seed=seed, trial_ids=list(range(5)), keep_states=False,
                observer=grab(batch_store))
    mlast = max(batch_store)
    pure = True
    for tid in range(5):
        single_store = {}
        solve_batch(zs, 1e-2, 0.5, loc, manifold=man_s, basis=basis, diffusion=y_s,
                    master_seed=seed, trial_ids=[tid], keep_states=False,
                    observer=grab(single_store))
        pure = pure and np.array_equal(batch_store[mlast][0][:, tid], single_store[mlast][0][:, 0])
        pure = pure and np.array_equal(batch_store[mlast][1][:, tid], single_store[mlast][1][:, 0])
    checks.append(("solver.batch_lane_purity", pure,
                   "every batched trial column matches its standalone run bitwise"
                   if pure else "a batched trial column deviates from its standalone run"))

    rates = np.zeros((lattice_steps(1.0, g384.spacing), basis.dim))
    rates[:, 0] = 0.8
    ctl = Control(rates, g384.spacing)
    ztr = solve_skeleton(random_state(g384, man_s, stream(seed, 205)), ctl, 1.0, loc384,
                         manifold=man_s, basis=basis, diffusion=y_s)
    res = float(man_s.constraint_residual(ztr.final_state().u.values).max())
    checks.append(("solver.renormalized_constraint", res < 1e-9,
                   f"final constraint residual of a controlled run = {_fmt(res)}"))

    resids = []
    for pts in (96, 192):
        g = make_grid(6.0, pts, 1.0)
        lc = LocalizationParams(radius=g.half_width)
        zb0 = bump_state(g, man_c)
        tr = solve_skeleton(zb0, None, 1.0, lc, manifold=man_c, basis=basis,
                            diffusion=y_c, keep_states=True)
        resids.append(mild_residual(tr, lc, manifold=man_c, basis=basis, diffusion=y_c))
    ratio = resids[1] / resids[0]
    checks.append(("solver.mild_form_residual_decay", ratio < 0.75,
                   f"mild-form residual ratio across dt halving = {_fmt(ratio)}"))

    geod = rotating_state(geom, man_c)
    trg = solve_skeleton(geod, None, 0.5, loc, manifold=man_c, basis=basis,
                         diffusion=y_c, keep_states=True)
    recomputed = window_norm(trg.state(3), geom.half_width - 3 * geom.spacing)
    logged = float(trg.energy_trace["taper_norm"][3])
    drift = abs(recomputed - logged) / (1.0 + logged)
    checks.append(("solver.taper_trace_consistency", drift < 1e-12,
                   f"stored vs recomputed window norm, rel err = {_fmt(drift)}"))


def energy_groups(checks: list, basis, seed: int) -> None:
    man = ManifoldModel.sphere()
    yf = DiffusionField.sphere_axis_rotation()
    cone = LightCone(0.0, 2.0)

    geom = make_grid(6.0, 192, 1.0)
    loc = LocalizationParams(radius=geom.half_width)
    z0 = random_state(geom, man, stream(seed, 301))

    tr = solve_skeleton(z0, None, 1.0, loc, manifold=man, basis=basis,
                        diffusion=yf, keep_states=True)
    reports = verify_energy_transforms(tr, ("identity", "log1p"), cone=cone, manifold=man,
                                       basis=basis, diffusion=yf)
    worst = {transform: len(rep.violations) for transform, rep in reports.items()}
    ok = worst["identity"] == 0 and worst["log1p"] == 0
    checks.append(("energy.skeleton_inequality", ok,
                   f"violations (identity, log1p) = {worst['identity']}, {worst['log1p']}"))

    bad = 0
    for tid in range(3):
        tr = solve_stochastic(z0, 1e-2, None, 1.0, loc, manifold=man, basis=basis,
                              diffusion=yf, master_seed=seed, trial_id=tid)
        reports = verify_energy_transforms(tr, ("identity", "log1p"), cone=cone, manifold=man,
                                           basis=basis, diffusion=yf)
        bad += sum(len(rep.violations) for rep in reports.values())
    checks.append(("energy.stochastic_inequality", bad == 0,
                   f"violations over noisy paths and both transforms = {bad}"))

    tols = []
    for pts in (192, 384):
        g = make_grid(6.0, pts, 1.0)
        lc = LocalizationParams(radius=g.half_width)
        zz = random_state(g, man, stream(seed, 302))
        tr = solve_skeleton(zz, None, 1.0, lc, manifold=man, basis=basis,
                            diffusion=yf, keep_states=True)
        tols.append(verify_energy_inequality(tr, cone=cone, manifold=man, basis=basis,
                                             diffusion=yf).tol)
    ratio = tols[1] / tols[0]
    checks.append(("energy.tolerance_scales_with_dt", 0.4 < ratio < 0.6,
                   f"slack ratio across dt halving = {_fmt(ratio)}"))

    defect = perpendicularity_defect(z0, 0.25, cone, man)
    checks.append(("energy.curvature_force_perpendicular", defect < 1e-10,
                   f"<v, A(u)(v,v) - A(u)(ux,ux)> cone integral = {_fmt(defect)}"))


def ldp_groups(checks: list, basis, seed: int, threads: int) -> None:
    man = ManifoldModel.circle()
    yf = DiffusionField.circle_rotation()
    geom = make_grid(6.0, 192, 1.0)
    loc = LocalizationParams(radius=geom.half_width)
    cone = LightCone(0.0, 2.0)
    z0 = random_state(geom, man, stream(seed, 401))

    rep = statement1_probe([2, 4, 8], z0, cone, horizon=1.0, loc=loc,
                           manifold=man, basis=basis, diffusion=yf, tol=1e-1)
    decayed = bool(rep.metrics[-1] < 0.5 * rep.metrics[0])
    checks.append(("ldp.weak_perturbation_decay", decayed,
                   f"sup distance falls {_fmt(rep.metrics[0])} -> {_fmt(rep.metrics[-1])}"))

    man_s = ManifoldModel.sphere()
    y_s = DiffusionField.sphere_axis_rotation()
    zs = random_state(geom, man_s, stream(seed, 402))
    rep2 = statement2_probe([1e-2, 1e-3], VERIFY_TRIALS, 10.0, zs, cone, seed,
                            horizon=1.0, loc=loc, manifold=man_s, basis=basis,
                            diffusion=y_s, threads=threads)
    if not rep2.metrics.any():  # a measure of zero weight drives no noise, and 0 / 0 is no ratio
        checks.append(("ldp.noise_energy_linear_in_eps", False,
                       "both mean peak cone energies are 0: the measure has no weight"))
    else:
        ratio = rep2.metrics[0] / rep2.metrics[1]
        checks.append(("ldp.noise_energy_linear_in_eps", 5.0 < ratio < 20.0,
                       f"mean peak cone energy ratio across a decade = {_fmt(ratio)}"))

    target = solve_skeleton(z0, None, 1.0, loc, manifold=man, basis=basis,
                            diffusion=yf).final_state()
    res = rate_function(target, z0, 10.0, RateOptions(blocks=4), cone=cone, horizon=1.0,
                        loc=loc, manifold=man, basis=basis, diffusion=yf)
    ok = res.converged and res.value < 1e-6
    checks.append(("ldp.reachable_target_zero_rate", ok,
                   f"rate of the uncontrolled terminal state = {_fmt(res.value)}"))


def verify_suite(seed: int, measure: SpectralMeasure, threads: int) -> list:
    """Run every invariant group; returns (name, passed, detail) triples."""
    checks: list = []
    rng = stream(seed, 1)
    basis = build_basis(measure)
    geometry_groups(checks, rng)
    space_groups(checks)
    noise_groups(checks, measure, seed)
    wave_groups(checks, stream(seed, 2))
    solver_groups(checks, basis, seed)
    energy_groups(checks, basis, seed)
    ldp_groups(checks, basis, seed, threads)
    return checks

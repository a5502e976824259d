"""Tests for cone energies and the pathwise inequality verifier."""
import functools
import importlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geowave.energy import (
    _PathLedger,
    energy,
    perpendicularity_defect,
    verify_energy_inequality,
    verify_energy_transforms,
)
from geowave.errors import BlowupDetected, MissingIncrementLog
from geowave.function_spaces import (
    SECTION_MARGIN,
    LightCone,
    State,
    derivative1,
    derivative2,
    pointwise_dot,
)
from geowave.geometry import DiffusionField, ManifoldModel
from geowave.noise import SpectralMeasure, build_basis
from geowave.rng import stream
from geowave.solver import (
    Control,
    LocalizationParams,
    drift_force,
    mild_residual,
    solve_skeleton,
    solve_stochastic,
)
from geowave.states import bump_state, constant_state, make_grid, random_state, rotating_state

_BASIS = build_basis(SpectralMeasure.default_three_atoms())
_CIRCLE = ManifoldModel.circle()
_Y_CIRCLE = DiffusionField.circle_rotation()
_CONE = LightCone(0.0, 2.0)


def _loc(geom):
    return LocalizationParams(radius=geom.half_width)


def _skeleton(geom, z, horizon=0.25):
    return solve_skeleton(z, None, horizon, _loc(geom), manifold=_CIRCLE,
                          basis=_BASIS, diffusion=_Y_CIRCLE, keep_states=True)


def test_energy_frozen_values_for_constant_and_rotating_data():
    geom = make_grid(6.0, 96, 1.0)
    z = constant_state(geom, _CIRCLE)
    # |u| = 1, v = 0: half the interval length at either level
    assert abs(energy(0.5, z, _CONE, k=1) - 1.5) < 1e-12
    assert abs(energy(0.5, z, _CONE, k=0) - 1.5) < 1e-12
    zr = rotating_state(geom, _CIRCLE, omega=2.0)
    want = 0.5 * 3.0 * (1.0 + 4.0)
    assert abs(energy(0.5, zr, _CONE, k=1) - want) < 1e-10


def test_energy_rejects_bad_level():
    geom = make_grid(6.0, 96, 1.0)
    with pytest.raises(ValueError):
        energy(0.0, constant_state(geom, _CIRCLE), _CONE, k=2)


def test_skeleton_path_satisfies_inequality_under_both_transforms():
    geom = make_grid(6.0, 96, 1.0)
    traj = _skeleton(geom, bump_state(geom, _CIRCLE))
    for transform in ("identity", "log1p"):
        rep = verify_energy_inequality(traj, cone=_CONE, manifold=_CIRCLE,
                                       transform=transform)
        assert rep.passed
        assert rep.violations == []
        assert rep.transform == transform
        assert len(rep.times) == traj.steps + 1
        assert rep.gaps.max() <= rep.tol


def test_stochastic_path_satisfies_inequality():
    geom = make_grid(6.0, 96, 1.0)
    z = bump_state(geom, _CIRCLE)
    traj = solve_stochastic(z, 1e-2, None, 0.25, _loc(geom), manifold=_CIRCLE,
                            basis=_BASIS, diffusion=_Y_CIRCLE, master_seed=3,
                            keep_states=True)
    rep = verify_energy_inequality(traj, cone=_CONE, manifold=_CIRCLE,
                                   basis=_BASIS, diffusion=_Y_CIRCLE)
    assert rep.passed
    assert rep.metadata["eps"] == 1e-2
    # the martingale part must actually be active on a noisy path
    assert np.abs(rep.martingale).max() > 0.0


def test_stochastic_verification_requires_increment_log_and_operators():
    geom = make_grid(6.0, 96, 1.0)
    z = bump_state(geom, _CIRCLE)
    traj = solve_stochastic(z, 1e-2, None, 0.25, _loc(geom), manifold=_CIRCLE,
                            basis=_BASIS, diffusion=_Y_CIRCLE, master_seed=3,
                            keep_states=True)
    with pytest.raises(ValueError):
        verify_energy_inequality(traj, cone=_CONE, manifold=_CIRCLE)
    traj.noise_increments = None
    with pytest.raises(MissingIncrementLog):
        verify_energy_inequality(traj, cone=_CONE, manifold=_CIRCLE,
                                 basis=_BASIS, diffusion=_Y_CIRCLE)


def test_verifier_needs_stored_states_and_known_transform():
    geom = make_grid(6.0, 96, 1.0)
    traj = solve_skeleton(bump_state(geom, _CIRCLE), None, 0.25, _loc(geom),
                          manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE,
                          keep_states=False)
    with pytest.raises(ValueError):
        verify_energy_inequality(traj, cone=_CONE, manifold=_CIRCLE)
    full = _skeleton(geom, bump_state(geom, _CIRCLE))
    with pytest.raises(ValueError):
        verify_energy_inequality(full, cone=_CONE, manifold=_CIRCLE, transform="sqrt")


def test_tolerance_halves_with_the_step():
    tols = []
    for pts in (96, 192):
        geom = make_grid(6.0, pts, 1.0)
        rep = verify_energy_inequality(_skeleton(geom, bump_state(geom, _CIRCLE)),
                                       cone=_CONE, manifold=_CIRCLE)
        tols.append(rep.tol)
    assert 0.4 < tols[1] / tols[0] < 0.6


def test_perpendicularity_defect_vanishes_for_tangent_fields():
    geom = make_grid(6.0, 192, 1.0)
    z = bump_state(geom, _CIRCLE)
    assert perpendicularity_defect(z, 0.25, _CONE, _CIRCLE) < 1e-10
    radial = State(z.u, z.v.with_values(z.u.values.copy()))
    assert perpendicularity_defect(radial, 0.25, _CONE, _CIRCLE) > 1e-3


# ---------------------------------------------------------------------------
# the whole-lattice verifier, kept as the reference for the sliced one
# ---------------------------------------------------------------------------

_REFERENCE_TRANSFORMS = {
    "identity": (lambda e: e, lambda e: 1.0, lambda e: 0.0),
    "log1p": (lambda e: math.log1p(e), lambda e: 1.0 / (1.0 + e), lambda e: -1.0 / (1.0 + e) ** 2),
}


def _reference_integrate(samples, origin, spacing, a, b):
    w = np.asarray(samples, dtype=float)
    m = w.shape[0]
    pos_a = (a - origin) / spacing
    pos_b = (b - origin) / spacing
    i0 = max(int(math.ceil(pos_a - 1e-9)), 0)
    i1 = min(int(math.floor(pos_b + 1e-9)), m - 1)

    def interp(pos):
        j = min(max(int(math.floor(pos)), 0), m - 2)
        frac = pos - j
        return (1.0 - frac) * w[j] + frac * w[j + 1]

    if i1 < i0:
        return 0.5 * (b - a) * (interp(pos_a) + interp(pos_b))
    total = 0.0
    if i1 > i0:
        total = spacing * (w[i0:i1 + 1].sum() - 0.5 * (w[i0] + w[i1]))
    wa = (i0 - pos_a) * spacing
    if wa > 1e-14 * spacing:
        total += 0.5 * wa * (interp(pos_a) + w[i0])
    wb = (pos_b - i1) * spacing
    if wb > 1e-14 * spacing:
        total += 0.5 * wb * (w[i1] + interp(pos_b))
    return float(total)


def _reference_sobolev_sq(f, interval, order):
    a, b = max(interval[0], f.origin), min(interval[1], f.right)
    total = _reference_integrate(pointwise_dot(f.values, f.values)[:, 0], f.origin, f.spacing, a, b)
    for d in (derivative1(f.values, f.spacing), derivative2(f.values, f.spacing))[:order]:
        total += _reference_integrate(pointwise_dot(d, d)[:, 0], f.origin, f.spacing, a, b)
    return float(total)


def _reference_energy(t, z, cone, k=1):
    interval = cone.interval(t)
    return 0.5 * (_reference_sobolev_sq(z.u, interval, k + 1) + _reference_sobolev_sq(z.v, interval, k))


def _reference_verify(traj, cone, manifold, basis, diffusion, transform):
    """The verifier as it was before it read cone rows only: every field on the whole lattice."""
    L, Lp, Lpp = _REFERENCE_TRANSFORMS[transform]
    eps = float(traj.metadata.get("eps", 0.0))
    z0 = traj.state(0)
    dx, origin, steps = z0.spacing, z0.origin, traj.steps
    modes = basis.evaluate(z0.u.x)
    sqeps = math.sqrt(eps)

    def inner(a, b, interval):
        return _reference_integrate(pointwise_dot(a, b)[:, 0], origin, dx, *interval)

    e_vals, V, dM = np.zeros(steps + 1), np.zeros(steps + 1), np.zeros(steps)
    for m in range(steps + 1):
        t = float(traj.times[m])
        z = traj.state(m)
        interval = cone.interval(t)
        u, v = z.u.values, z.v.values
        e = _reference_energy(t, z, cone)
        e_vals[m] = e
        cfield = None if traj.control is None else traj.control.row(m) @ modes
        f = drift_force(manifold, u, v, dx, diffusion=diffusion, control_field=cfield)
        v_ladder = [v, derivative1(v, dx)]
        f_ladder = [f, derivative1(f, dx)]
        pairing = inner(u, v, interval)
        pairing += sum(inner(vl, fl, interval) for vl, fl in zip(v_ladder, f_ladder))
        quad = 0.0
        cross_sq = 0.0
        if eps > 0.0:
            y = sqeps * diffusion(u)
            cross = np.zeros(basis.dim)
            for j in range(basis.dim):
                gj = y * modes[j][:, None]
                g_ladder = [gj, derivative1(gj, dx)]
                for gl in g_ladder:
                    quad += inner(gl, gl, interval)
                cross[j] = sum(inner(vl, gl, interval) for vl, gl in zip(v_ladder, g_ladder))
            cross_sq = float((cross ** 2).sum())
            if m < steps:
                dM[m] = Lp(e) * float(cross @ traj.noise_increments[m])
        V[m] = Lp(e) * pairing + 0.5 * Lp(e) * quad + 0.5 * Lpp(e) * cross_sq

    dt = float(traj.times[1] - traj.times[0])
    drift_int = np.concatenate([[0.0], np.cumsum(0.5 * dt * (V[1:] + V[:-1]))])
    mart = np.concatenate([[0.0], np.cumsum(dM)])
    Le = np.array([L(e) for e in e_vals])
    bound = Le[0] + drift_int + mart
    return {"e_values": e_vals, "bound_values": bound, "gaps": Le - bound, "drift_integral": drift_int,
            "martingale": mart, "tol": np.array(5.0 * dt * (1.0 + float(e_vals.max())))}


_TARGETS = {
    "circle": (ManifoldModel.circle(), DiffusionField.circle_rotation()),
    "sphere": (ManifoldModel.sphere(), DiffusionField.sphere_axis_rotation()),
}
_PATH_HORIZON = 0.5


@functools.lru_cache(maxsize=None)
def _path(target, points, kind):
    """A stored skeleton, controlled or noisy path on the target (cached: the property only reads it)."""
    manifold, diffusion = _TARGETS[target]
    geom = make_grid(6.0, points, 1.0)
    z0 = random_state(geom, manifold, stream(points, 17))
    steps = round(_PATH_HORIZON / geom.spacing)
    horizon = steps * geom.spacing
    fields = dict(manifold=manifold, basis=_BASIS, diffusion=diffusion, keep_states=True)
    if kind == "noisy":
        return solve_stochastic(z0, 1e-2, None, horizon, _loc(geom), **fields, master_seed=5, trial_id=1)
    control = None
    if kind == "controlled":
        rates = np.random.default_rng(points).normal(scale=0.6, size=(steps, _BASIS.dim))
        control = Control(rates, geom.spacing)
    return solve_skeleton(z0, control, horizon, _loc(geom), **fields)


@st.composite
def _cones(draw, npoints, spacing, origin, steps):
    """Cones whose t = 0 section fits the lattice, often within a margin of its edge.

    Radii are whole cells; centres are lattice points or sit a drawn cell
    fraction past one, so the quadrature's fractional end cells are read too.
    """
    radius = draw(st.integers(steps + 1, (npoints - 2) // 2))
    shift = draw(st.sampled_from((0.0, 0.5, 0.25 + 0.5 * draw(st.floats(0.0, 1.0)))))
    room = npoints - 1 - 2 * radius - (shift > 0.0)  # left end row of the t = 0 section: 0 .. room
    side = draw(st.sampled_from(("left", "right", "anywhere")))
    near = draw(st.integers(0, min(SECTION_MARGIN + 1, room)))
    left = {"left": near, "right": room - near, "anywhere": draw(st.integers(0, room))}[side]
    return LightCone(origin + (left + radius + shift) * spacing, radius * spacing)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), target=st.sampled_from(sorted(_TARGETS)), points=st.sampled_from([96, 120, 192]),
       kind=st.sampled_from(("skeleton", "controlled", "noisy")))
def test_sliced_verifier_is_bitwise_the_whole_lattice_one(data, target, points, kind):
    traj = _path(target, points, kind)
    z0 = traj.state(0)
    cone = data.draw(_cones(z0.u.npoints, z0.spacing, z0.origin, traj.steps), label="cone")
    manifold, diffusion = _TARGETS[target]
    reports = verify_energy_transforms(traj, ("identity", "log1p"), cone=cone, manifold=manifold,
                                       basis=_BASIS, diffusion=diffusion)
    for transform, rep in reports.items():
        want = _reference_verify(traj, cone, manifold, _BASIS, diffusion, transform)
        for name, value in want.items():
            assert np.array_equal(getattr(rep, name), value), (transform, name)
    for m in (0, traj.steps):
        t = float(traj.times[m])
        for k in (0, 1):
            assert energy(t, traj.state(m), cone, k) == _reference_energy(t, traj.state(m), cone, k)


@settings(max_examples=15, deadline=None)
@given(target=st.sampled_from(sorted(_TARGETS)), points=st.integers(64, 96), steps=st.integers(3, 10),
       eps=st.sampled_from((0.0, 1e-2)), controlled=st.booleans(), renormalize=st.booleans())
def test_ledger_fed_by_the_observer_is_bitwise_the_stored_replay(target, points, steps, eps, controlled,
                                                                  renormalize):
    # geowave skeleton's form: a width-1 run's observer feeds each state to the ledger as the run makes it
    manifold, diffusion = _TARGETS[target]
    horizon = steps * (6.0 / points)
    geom = make_grid(6.0, points, horizon)
    z0 = random_state(geom, manifold, stream(points, 17))
    fields = dict(manifold=manifold, basis=_BASIS, diffusion=diffusion)
    control = None
    if controlled:
        control = Control(np.random.default_rng(points).normal(scale=0.6, size=(steps, _BASIS.dim)), geom.spacing)
    ledger = _PathLedger(_CONE, **fields, origin=z0.origin, spacing=z0.spacing, npoints=geom.npoints, eps=eps)

    def observe(m, t, u, v):
        ledger.add(t, u[:, 0], v[:, 0], None if control is None else control.row(m))

    def solve(**kwargs):
        return solve_stochastic(z0, eps, control, horizon, _loc(geom), **fields, master_seed=5, trial_id=1,
                                renormalize=renormalize, **kwargs)

    run = solve(keep_states=False, observer=observe)
    stored = solve(keep_states=True)
    assert run.u is None and np.array_equal(run.times, stored.times)
    replay = _PathLedger(_CONE, **fields, origin=z0.origin, spacing=z0.spacing, npoints=geom.npoints, eps=eps)
    for m in range(stored.steps + 1):
        replay.add(float(stored.times[m]), stored.u[m], stored.v[m], None if control is None else control.row(m))
    got, want_ledger = ledger.ledger(run.noise_increments), replay.ledger(stored.noise_increments)
    for name in ("e", "pairing", "quad", "cross_sq", "dm"):
        assert np.array_equal(getattr(got, name), getattr(want_ledger, name)), name
    assert (eps > 0.0) == bool(np.any(got.dm != 0.0))

    want = verify_energy_transforms(stored, ("identity", "log1p"), cone=_CONE, **fields)
    for transform, rep in ledger.reports(want, run.noise_increments).items():
        for name in ("times", "e_values", "bound_values", "gaps", "drift_integral", "martingale"):
            assert np.array_equal(getattr(rep, name), getattr(want[transform], name)), (transform, name)
        assert (rep.tol, rep.violations) == (want[transform].tol, want[transform].violations)
        reference = _reference_verify(stored, _CONE, manifold, _BASIS, diffusion, transform)
        for name, value in reference.items():
            assert np.array_equal(getattr(rep, name), value), (transform, name)


def test_verifier_builds_fields_on_the_cone_rows_only(monkeypatch):
    traj = _path("sphere", 192, "noisy")
    z0 = traj.state(0)
    manifold, diffusion = _TARGETS["sphere"]
    sizes = []

    def counted(values, spacing):
        sizes.append(len(values))
        return derivative1(values, spacing)

    for name in ("function_spaces", "energy", "solver"):  # every module calling it by name
        monkeypatch.setattr(importlib.import_module(f"geowave.{name}"), "derivative1", counted)
    verify_energy_inequality(traj, cone=_CONE, manifold=manifold, basis=_BASIS, diffusion=diffusion)
    per_step = np.array(sizes).reshape(traj.steps + 1, -1)  # the same calls every step
    x = z0.u.x
    for m, step_sizes in enumerate(per_step):
        cone_rows = np.count_nonzero(np.abs(x - _CONE.center) <= _CONE.horizon - traj.times[m] + 1e-9)
        assert step_sizes.max() <= cone_rows + 2 * SECTION_MARGIN < z0.u.npoints, m


@pytest.mark.parametrize("where", ["u", "v", "increment"])
def test_non_finite_budget_is_a_blowup(where):
    # a NaN state makes e non-finite, a NaN increment the martingale
    manifold, diffusion = _TARGETS["sphere"]
    geom = make_grid(6.0, 96, 1.0)
    traj = solve_stochastic(random_state(geom, manifold, stream(2, 3)), 1e-2, None, 0.5, _loc(geom),
                            manifold=manifold, basis=_BASIS, diffusion=diffusion, master_seed=4,
                            keep_states=True)
    row = int(np.argmin(np.abs(geom.x - _CONE.center)))  # in the cone at every step
    if where == "increment":
        traj.noise_increments[3, 0] = np.nan
    else:
        getattr(traj, where)[3, row, 0] = np.nan
    with pytest.raises(BlowupDetected, match=f"step 3, t={traj.times[3]}"):
        verify_energy_inequality(traj, cone=_CONE, manifold=manifold, basis=_BASIS, diffusion=diffusion)


def test_control_rows_are_read_by_step_not_by_float_time():
    # a control step the solver accepts as the lattice step (within 1e-12 of it)
    # drives a bitwise-equal path, so its verifier report and mild residual agree too
    manifold, diffusion = _TARGETS["sphere"]
    geom = make_grid(6.0, 384, 1.0)
    steps = round(1.0 / geom.spacing)
    rates = np.random.default_rng(384).normal(scale=0.6, size=(steps, _BASIS.dim))
    z0 = random_state(geom, manifold, stream(384, 17))
    fields = dict(manifold=manifold, basis=_BASIS, diffusion=diffusion)
    exact, nudged = (solve_skeleton(z0, Control(rates, dt), 1.0, _loc(geom), **fields, keep_states=True)
                     for dt in (geom.spacing, geom.spacing + 1e-12))
    assert np.array_equal(exact.u, nudged.u) and np.array_equal(exact.v, nudged.v)
    want, got = (verify_energy_transforms(traj, ("identity", "log1p"), cone=_CONE, **fields)
                 for traj in (exact, nudged))
    for transform in want:
        for name in ("e_values", "bound_values", "gaps", "drift_integral", "martingale", "tol"):
            assert np.array_equal(getattr(got[transform], name), getattr(want[transform], name)), name
    assert mild_residual(nudged, _loc(geom), **fields) == mild_residual(exact, _loc(geom), **fields)

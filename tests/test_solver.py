"""Tests for the localized cone solver: exactness, convergence, determinism."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geowave.errors import (
    BlowupDetected,
    ConeExhausted,
    DimensionMismatch,
    NonLatticeTime,
    OffManifoldInitialData,
)
from geowave.function_spaces import GridFunction, LightCone, State
from geowave.geometry import DiffusionField, ManifoldModel
from geowave.noise import SpectralMeasure, build_basis, sample_increment
from geowave.rng import stream
from geowave.solver import (
    Control,
    LocalizationParams,
    blowup_times,
    curvature_force,
    localized_drift,
    mild_residual,
    q_transform,
    q_transform_derivative,
    run_trials,
    solve_batch,
    solve_skeleton,
    solve_stochastic,
    taper_factor,
    window_norm,
)
from geowave.states import (
    ROTATING_OMEGA,
    ROTATING_THETA0,
    bump_state,
    constant_state,
    make_grid,
    random_state,
    rotating_state,
    twin_pair,
)

_BASIS = build_basis(SpectralMeasure.default_three_atoms())
_CIRCLE = ManifoldModel.circle()
_Y_CIRCLE = DiffusionField.circle_rotation()


def _loc(geom):
    return LocalizationParams(radius=geom.half_width)


def test_taper_factor_profile():
    assert taper_factor(0.0, 4) == 1.0
    assert taper_factor(4.0, 4) == 1.0
    assert taper_factor(6.0, 4) == 0.5
    assert taper_factor(8.0, 4) == 0.0
    assert taper_factor(80.0, 4) == 0.0
    ramp = taper_factor(np.array([1.0, 5.0, 7.0, 9.0]), 4)
    assert np.array_equal(ramp, [1.0, 0.75, 0.25, 0.0])


def test_curvature_force_circle_closed_form():
    # spatially constant rotation: u_x = 0 and the force is -omega^2 u
    geom = make_grid(6.0, 64, 1.0)
    z = rotating_state(geom, _CIRCLE, omega=1.7)
    force = curvature_force(_CIRCLE, z.u.values, z.v.values, np.zeros_like(z.u.values))
    assert np.abs(force + 1.7 ** 2 * z.u.values).max() < 1e-10


def test_curvature_force_is_normal_valued():
    rng = np.random.default_rng(5)
    man = ManifoldModel.sphere()
    u = man.nearest_point(rng.normal(size=(40, 3)))
    v = man.tangent_project_at(u, rng.normal(size=(40, 3)))
    w = man.tangent_project_at(u, rng.normal(size=(40, 3)))
    force = curvature_force(man, u, v, w)
    assert np.abs(man.tangent_project_at(u, force)).max() < 1e-10


def test_window_norm_sine_oracle():
    geom = make_grid(6.0, 256, 1.0)
    x = geom.x
    z = State(
        GridFunction(geom.origin, geom.spacing, np.sin(x)),
        GridFunction(geom.origin, geom.spacing, np.cos(x)),
    )
    got = window_norm(z, 1.5)
    want = math.sqrt(7.5 - 0.5 * math.sin(3.0))
    assert abs(got - want) / want < 1e-3


def test_window_norm_matches_recorded_trace():
    geom = make_grid(6.0, 96, 1.0)
    traj = solve_skeleton(
        bump_state(geom, _CIRCLE), None, 0.25, _loc(geom),
        manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE, keep_states=True,
    )
    for m in (0, 2, traj.steps):
        s = geom.half_width - traj.times[m]
        got = window_norm(traj.states[m], s)
        ref = traj.energy_trace["taper_norm"][m]
        assert abs(got - ref) <= 1e-12 * ref


def test_rest_state_is_exactly_stationary():
    geom = make_grid(6.0, 96, 1.0)
    z = constant_state(geom, _CIRCLE)
    traj = solve_skeleton(z, None, 0.5, _loc(geom), manifold=_CIRCLE,
                          basis=_BASIS, diffusion=_Y_CIRCLE)
    zf = traj.final_state()
    assert np.abs(zf.u.values - z.u.values).max() < 1e-12
    assert np.abs(zf.v.values).max() < 1e-12


def test_rotating_geodesic_convergence():
    sups = []
    for pts in (96, 192, 384):
        geom = make_grid(6.0, pts, 1.0)
        traj = solve_skeleton(rotating_state(geom, _CIRCLE), None, 0.5, _loc(geom),
                              manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE)
        ang = ROTATING_THETA0 + ROTATING_OMEGA * 0.5
        box = np.abs(geom.x) <= geom.domain_radius
        zf = traj.final_state()
        err = max(
            float(np.abs(zf.u.values[box, 0] - math.cos(ang)).max()),
            float(np.abs(zf.u.values[box, 1] - math.sin(ang)).max()),
        )
        sups.append(err)
    assert sups[-1] < 1e-3
    assert math.log2(sups[0] / sups[1]) > 1.5
    assert math.log2(sups[1] / sups[2]) > 1.5


def test_zero_noise_path_reduces_to_skeleton_bitwise():
    geom = make_grid(6.0, 96, 1.0)
    z = random_state(geom, _CIRCLE, stream(7, 1))
    det = solve_skeleton(z, None, 0.25, _loc(geom), manifold=_CIRCLE,
                         basis=_BASIS, diffusion=_Y_CIRCLE)
    sto = solve_stochastic(z, 0.0, None, 0.25, _loc(geom), manifold=_CIRCLE,
                           basis=_BASIS, diffusion=_Y_CIRCLE, master_seed=7)
    assert np.array_equal(det.final_state().u.values, sto.final_state().u.values)
    assert np.array_equal(det.final_state().v.values, sto.final_state().v.values)


_LANE_GEOM = make_grid(6.0, 96, 1.0)
_SPHERE = ManifoldModel.sphere()
_Y_SPHERE = DiffusionField.sphere_axis_rotation()
_LANE_Z0 = random_state(_LANE_GEOM, _SPHERE, stream(11, 2))


@settings(max_examples=15, deadline=None)
@given(ids=st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
def test_batch_columns_match_standalone_runs_bitwise(ids):
    batch = solve_batch(_LANE_Z0, 1e-2, 0.25, _loc(_LANE_GEOM), manifold=_SPHERE, basis=_BASIS,
                        diffusion=_Y_SPHERE, master_seed=11, trial_ids=ids, keep_states=True)
    ub, vb = batch.states[-1]
    for col, tid in enumerate(ids):
        single = solve_stochastic(_LANE_Z0, 1e-2, None, 0.25, _loc(_LANE_GEOM), manifold=_SPHERE,
                                  basis=_BASIS, diffusion=_Y_SPHERE, master_seed=11, trial_id=tid)
        assert np.array_equal(ub[:, col], single.final_state().u.values)
        assert np.array_equal(vb[:, col], single.final_state().v.values)
        assert np.array_equal(batch.noise_increments[:, col], single.noise_increments)
        # the solver's draw is exactly the public sampler on the (seed, trial, step) stream
        want = sample_increment(_BASIS, _LANE_GEOM.spacing, stream(11, tid, 0))
        assert np.array_equal(batch.noise_increments[0, col], want)


def test_control_rate_lookup_and_norm():
    ctl = Control(np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]]), 0.5)
    assert np.array_equal(ctl.rate_at(0.2), [1.0, 0.0])
    assert np.array_equal(ctl.rate_at(0.5), [0.0, 2.0])
    assert np.array_equal(ctl.rate_at(99.0), [3.0, 0.0])
    assert ctl.squared_norm() == 0.5 * (1.0 + 4.0 + 9.0)
    zero = Control.zeros(4, 2, 0.25)
    assert zero.squared_norm() == 0.0
    with pytest.raises(ValueError):
        Control(np.array([[np.nan]]), 0.5)
    with pytest.raises(ValueError):
        Control(np.array([[1.0]]), 0.0)


def test_control_requires_noise_operators():
    geom = make_grid(6.0, 96, 1.0)
    ctl = Control.zeros(8, _BASIS.dim, geom.spacing)
    with pytest.raises(ValueError):
        solve_skeleton(constant_state(geom, _CIRCLE), ctl, 0.25, _loc(geom),
                       manifold=_CIRCLE)


def test_control_step_must_match_lattice():
    geom = make_grid(6.0, 96, 1.0)
    ctl = Control.zeros(8, _BASIS.dim, geom.spacing * 1.5)
    with pytest.raises(NonLatticeTime):
        solve_skeleton(constant_state(geom, _CIRCLE), ctl, 0.25, _loc(geom),
                       manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE)


def test_control_dimension_must_match_basis():
    geom = make_grid(6.0, 96, 1.0)
    ctl = Control.zeros(8, _BASIS.dim + 1, geom.spacing)
    with pytest.raises(DimensionMismatch):
        solve_skeleton(constant_state(geom, _CIRCLE), ctl, 0.25, _loc(geom),
                       manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE)


def test_off_manifold_data_rejected():
    geom = make_grid(6.0, 96, 1.0)
    z = constant_state(geom, _CIRCLE)
    bad_u = State(z.u * 1.5, z.v)
    with pytest.raises(OffManifoldInitialData):
        solve_skeleton(bad_u, None, 0.25, _loc(geom), manifold=_CIRCLE)
    bad_v = State(z.u, z.v.with_values(z.u.values.copy()))
    with pytest.raises(OffManifoldInitialData):
        solve_skeleton(bad_v, None, 0.25, _loc(geom), manifold=_CIRCLE)


def test_non_finite_initial_data_rejected():
    geom = make_grid(6.0, 96, 1.0)
    z = bump_state(geom, _CIRCLE)
    u = z.u.values.copy()
    u[40, 0] = np.nan  # NaN > 1e-8 is False, so the residual test alone lets this through
    with pytest.raises(OffManifoldInitialData, match="non-finite"):
        solve_skeleton(State(z.u.with_values(u), z.v), None, 0.25, _loc(geom), manifold=_CIRCLE)
    v = z.v.values.copy()
    v[40, 1] = np.inf
    with pytest.raises(OffManifoldInitialData, match="non-finite"):
        solve_skeleton(State(z.u, z.v.with_values(v)), None, 0.25, _loc(geom), manifold=_CIRCLE)


def test_negative_noise_level_rejected_by_every_entry_point():
    geom = make_grid(6.0, 96, 1.0)
    z = bump_state(geom, _CIRCLE)
    kwargs = dict(manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE)
    with pytest.raises(ValueError, match="noise level"):
        solve_batch(z, -0.5, 0.25, _loc(geom), trial_ids=[0, 1], **kwargs)
    with pytest.raises(ValueError, match="noise level"):
        solve_stochastic(z, -0.5, None, 0.25, _loc(geom), **kwargs)


@settings(max_examples=60, deadline=None)
@given(trials=st.integers(1, 12), threads=st.integers(1, 4), first=st.integers(0, 50))
def test_run_trials_keeps_id_order_for_any_thread_count(trials, threads, first):
    chunks = []

    def fn(ids):
        chunks.append(list(ids))
        ids = np.asarray(ids)
        return 10.0 * ids, ids % 3 == 0

    ids = list(range(first, first + trials))
    got = run_trials(ids, fn, threads)
    assert len(chunks) <= threads
    assert sorted(i for chunk in chunks for i in chunk) == ids
    want = fn(ids)  # the serial run
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


def test_horizon_must_be_lattice_and_inside_cone():
    geom = make_grid(6.0, 96, 1.0)
    z = constant_state(geom, _CIRCLE)
    with pytest.raises(NonLatticeTime):
        solve_skeleton(z, None, 3.5 * geom.spacing * 1.0001, _loc(geom), manifold=_CIRCLE)
    with pytest.raises(ConeExhausted):
        solve_skeleton(z, None, geom.half_width + 1.0, _loc(geom), manifold=_CIRCLE)
    with pytest.raises(ConeExhausted):
        localized_drift(geom.half_width, z, _loc(geom), _CIRCLE)


def test_exhausted_cutoff_levels_raise():
    geom = make_grid(6.0, 96, 1.0)
    z = rotating_state(geom, _CIRCLE)
    small = LocalizationParams(radius=geom.half_width, k=1, k_max=4)
    with pytest.raises(BlowupDetected):
        solve_skeleton(z, None, 0.25, small, manifold=_CIRCLE)


def test_taper_kills_drift_above_cutoff():
    geom = make_grid(6.0, 96, 1.0)
    z = rotating_state(geom, _CIRCLE)  # window norm well above 2
    out = localized_drift(0.0, z, _loc(geom), _CIRCLE, k=1)
    assert np.abs(out.v.values).max() == 0.0
    live = localized_drift(0.0, z, _loc(geom), _CIRCLE)
    assert np.abs(live.v.values).max() > 0.1


def test_twin_data_agree_inside_the_cone():
    geom = make_grid(6.0, 192, 1.0)
    za, zb = twin_pair(geom, _CIRCLE, stream(3, 9))
    cone = LightCone(0.0, 2.0)
    ta = solve_skeleton(za, None, 0.5, _loc(geom), manifold=_CIRCLE,
                        basis=_BASIS, diffusion=_Y_CIRCLE, keep_states=True)
    tb = solve_skeleton(zb, None, 0.5, _loc(geom), manifold=_CIRCLE,
                        basis=_BASIS, diffusion=_Y_CIRCLE, keep_states=True)
    worst = 0.0
    for m, t in enumerate(ta.times):
        box = np.abs(geom.x - cone.center) <= cone.horizon - t - geom.spacing / 2
        worst = max(
            worst,
            float(np.abs(ta.states[m].u.values[box] - tb.states[m].u.values[box]).max()),
            float(np.abs(ta.states[m].v.values[box] - tb.states[m].v.values[box]).max()),
        )
    assert worst < 1e-10
    # and the data really differ somewhere outside
    assert np.abs(za.u.values - zb.u.values).max() > 1e-2


def test_renormalization_pins_the_constraint():
    geom = make_grid(6.0, 192, 1.0)
    z = random_state(geom, _CIRCLE, stream(5, 4))
    on = solve_stochastic(z, 1e-2, None, 0.25, _loc(geom), manifold=_CIRCLE,
                          basis=_BASIS, diffusion=_Y_CIRCLE, master_seed=5)
    res_on = float(_CIRCLE.constraint_residual(on.final_state().u.values).max())
    off = solve_stochastic(z, 1e-2, None, 0.25, _loc(geom), manifold=_CIRCLE,
                           basis=_BASIS, diffusion=_Y_CIRCLE, master_seed=5,
                           renormalize=False)
    res_off = float(_CIRCLE.constraint_residual(off.final_state().u.values).max())
    assert res_on < 1e-9
    assert res_off > res_on


def test_mild_residual_shrinks_with_the_step():
    res = []
    for pts in (96, 192):
        geom = make_grid(6.0, pts, 1.0)
        traj = solve_skeleton(bump_state(geom, _CIRCLE), None, 0.25, _loc(geom),
                              manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE,
                              keep_states=True)
        res.append(mild_residual(traj, _loc(geom), manifold=_CIRCLE,
                                 basis=_BASIS, diffusion=_Y_CIRCLE))
    assert res[1] / res[0] < 0.75


def test_blowup_times_report_crossings():
    geom = make_grid(6.0, 96, 1.0)
    traj = solve_skeleton(rotating_state(geom, _CIRCLE), None, 0.25, _loc(geom),
                          manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE)
    out = blowup_times(traj, _loc(geom), thresholds=[1, 10 ** 6])
    assert out[0] == (1, 0.0)          # crossed immediately
    assert out[1] == (10 ** 6, 0.25)   # never crossed: reported at the horizon


def test_q_transform_fixes_on_manifold_states_inside_plateau():
    geom = make_grid(6.0, 96, 1.0)
    z = bump_state(geom, _CIRCLE)
    loc = LocalizationParams(radius=2.0)
    out = q_transform(z, loc, _CIRCLE)
    inside = np.abs(geom.x) <= 2.0
    assert np.abs(out.u.values[inside] - z.u.values[inside]).max() < 1e-12
    assert np.abs(out.v.values[inside] - z.v.values[inside]).max() < 1e-12
    far = np.abs(geom.x) >= 4.0
    assert np.abs(out.u.values[far]).max() == 0.0


def test_q_transform_derivative_matches_finite_differences():
    rng = np.random.default_rng(21)
    geom = make_grid(6.0, 96, 1.0)
    z = bump_state(geom, _CIRCLE)
    loc = LocalizationParams(radius=2.0)
    w = State(
        z.u.with_values(0.1 * rng.normal(size=z.u.values.shape)),
        z.v.with_values(0.1 * rng.normal(size=z.v.values.shape)),
    )
    h = 1e-5
    plus = q_transform(State(z.u + w.u * h, z.v + w.v * h), loc, _CIRCLE)
    minus = q_transform(State(z.u - w.u * h, z.v - w.v * h), loc, _CIRCLE)
    fd_u = (plus.u.values - minus.u.values) / (2 * h)
    fd_v = (plus.v.values - minus.v.values) / (2 * h)
    got = q_transform_derivative(z, w, loc, _CIRCLE)
    assert np.abs(got.u.values - fd_u).max() < 1e-6
    assert np.abs(got.v.values - fd_v).max() < 1e-6


def test_non_finite_window_norm_is_a_blowup():
    geom = make_grid(6.0, 96, 1.0)
    z = bump_state(geom, _CIRCLE)

    def poison(m, t, u, v):
        if m == 2:
            u[u.shape[0] // 2, 1, 0] = np.nan  # the live state of column 1, mid-lattice

    with pytest.raises(BlowupDetected, match=rf"column 1 is nan at t={3 * geom.spacing}"):
        solve_batch(z, 1e-2, 0.5, _loc(geom), manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE,
                    trial_ids=[0, 1], observer=poison)

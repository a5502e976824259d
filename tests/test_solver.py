"""Tests for the localized cone solver: exactness, convergence, determinism."""
import contextlib
import math
import os
import re
import time
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geowave.errors import (
    BlowupDetected,
    ConeExhausted,
    DimensionMismatch,
    NonLatticeTime,
    OffManifoldInitialData,
)
from geowave import solver
from geowave.function_spaces import (
    GridFunction,
    LightCone,
    Scratch,
    State,
    derivative1,
    extend_array,
    section_rows,
    window_indices,
)
from geowave.geometry import DiffusionField, ManifoldModel
from geowave.noise import SpectralMeasure, build_basis, sample_increment
from geowave.rng import stream
from geowave.solver import (
    Control,
    LocalizationParams,
    cone_energies,
    cone_window,
    curvature_force,
    drift_force,
    mild_residual,
    section_energy,
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
from geowave.wave_group import apply_arrays

import broadcast_kernels as ref
from dense_section import dense_section_energy
from forked_tally import Tally

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
        got = window_norm(traj.state(m), s)
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
    ub, vb = batch.u[-1], batch.v[-1]
    for col, tid in enumerate(ids):
        single = solve_stochastic(_LANE_Z0, 1e-2, None, 0.25, _loc(_LANE_GEOM), manifold=_SPHERE,
                                  basis=_BASIS, diffusion=_Y_SPHERE, master_seed=11, trial_id=tid)
        assert np.array_equal(ub[:, col], single.final_state().u.values)
        assert np.array_equal(vb[:, col], single.final_state().v.values)
        assert np.array_equal(batch.noise_increments[:, col], single.noise_increments)
        # the solver's draw is exactly the public sampler on the (seed, trial, step) stream
        want = sample_increment(_BASIS, _LANE_GEOM.spacing, stream(11, tid, 0))
        assert np.array_equal(batch.noise_increments[0, col], want)


@settings(max_examples=10, deadline=None)
@given(ids=st.lists(st.integers(0, 9), min_size=2, max_size=5, unique=True), seed=st.integers(0, 2**16))
def test_cone_energy_columns_are_bitwise_their_width_one_runs(ids, seed):
    # step 0 included: a wider batch starts from the same C-ordered copy of z0
    z0 = random_state(_LANE_GEOM, _SPHERE, stream(seed, 3))
    dx, horizon = _LANE_GEOM.spacing, 0.5
    cone = LightCone(0.0, 2.0 * horizon)
    windows = [cone_window(cone, _LANE_GEOM.origin, dx, _LANE_GEOM.npoints, m)
               for m in range(round(horizon / dx) + 1)]
    fields = dict(manifold=_SPHERE, basis=_BASIS, diffusion=_Y_SPHERE, master_seed=seed)
    (wide,), _ = cone_energies(z0, 1e-2, horizon, _loc(_LANE_GEOM), windows, [None], **fields, trial_ids=ids)
    for col, tid in enumerate(ids):
        (single,), _ = cone_energies(z0, 1e-2, horizon, _loc(_LANE_GEOM), windows, [None], **fields,
                                     trial_ids=[tid])
        assert np.array_equal(wide[col], single[0]), (col, np.flatnonzero(wide[col] != single[0]))


def test_cone_energies_without_trial_ids_run_one_column_as_trial_zero():
    # solve_batch reads trial_ids=None as one column with trial id 0
    z0 = random_state(_LANE_GEOM, _SPHERE, stream(5, 3))
    dx, horizon = _LANE_GEOM.spacing, 0.25
    cone = LightCone(0.0, 2.0 * horizon)
    windows = [cone_window(cone, _LANE_GEOM.origin, dx, _LANE_GEOM.npoints, m)
               for m in range(round(horizon / dx) + 1)]
    fields = dict(manifold=_SPHERE, basis=_BASIS, diffusion=_Y_SPHERE, master_seed=5)
    (got,), final = cone_energies(z0, 1e-2, horizon, _loc(_LANE_GEOM), windows, [None], **fields)
    (want,), want_final = cone_energies(z0, 1e-2, horizon, _loc(_LANE_GEOM), windows, [None], **fields,
                                        trial_ids=[0])
    assert got.shape == (1, len(windows))
    assert np.array_equal(got, want) and np.array_equal(final, want_final)


def test_solves_leave_their_input_arrays_unchanged():
    z0 = random_state(_LANE_GEOM, _SPHERE, stream(4, 3))
    kept = z0.u.values.copy(), z0.v.values.copy()
    fields = dict(manifold=_SPHERE, basis=_BASIS, diffusion=_Y_SPHERE)
    solve_skeleton(z0, None, 0.5, _loc(_LANE_GEOM), **fields)
    solve_stochastic(z0, 1e-2, None, 0.5, _loc(_LANE_GEOM), **fields)
    solve_batch(z0, 1e-2, 0.5, _loc(_LANE_GEOM), **fields, trial_ids=[0, 1, 2], keep_states=True)
    assert np.array_equal(z0.u.values, kept[0]) and np.array_equal(z0.v.values, kept[1])


@pytest.mark.parametrize("keep_states", [False, True])
@pytest.mark.parametrize("drive", ["noise", "control"])
def test_observed_states_are_never_written_afterwards(keep_states, drive):
    # an observer may keep the pair it sees without copying it
    z0 = random_state(_LANE_GEOM, _SPHERE, stream(6, 3))
    steps = round(0.25 / _LANE_GEOM.spacing)
    if drive == "noise":
        eps, batch = 1e-2, dict(trial_ids=[0, 1, 2])
    else:
        eps, batch = 0.0, dict(control_rates=np.random.default_rng(6).normal(size=(steps, 3, _BASIS.dim)))
    seen = []

    def observer(m, t, u, v):
        seen.append(((u, v), (u.copy(), v.copy())))

    solve_batch(z0, eps, 0.25, _loc(_LANE_GEOM), manifold=_SPHERE, basis=_BASIS, diffusion=_Y_SPHERE,
                keep_states=keep_states, observer=observer, **batch)
    assert len(seen) == steps + 1
    for (u, v), (u_copy, v_copy) in seen:
        assert np.array_equal(u, u_copy) and np.array_equal(v, v_copy)


@pytest.mark.parametrize("keep_states", [False, True])
@pytest.mark.parametrize("threads", [1, 2])
def test_an_observer_cannot_write_the_pair_it_sees(threads, keep_states):
    z0 = random_state(_LANE_GEOM, _SPHERE, stream(6, 3))
    refused = []

    def observer(m, t, u, v):
        for arr in (u, v):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, -1, 0] = 0.0
        refused.append(m)

    fields = dict(manifold=_SPHERE, basis=_BASIS, diffusion=_Y_SPHERE, keep_states=keep_states, observer=observer)
    traj = solve_batch(z0, 1e-2, 0.25, _loc(_LANE_GEOM), trial_ids=[0, 1, 2], threads=threads, **fields)
    assert traj.metadata["threads"] == threads and refused == list(range(traj.steps + 1))
    refused.clear()
    solve_skeleton(z0, None, 0.25, _loc(_LANE_GEOM), **fields)  # step 0 is a view of the caller's data
    assert refused == list(range(traj.steps + 1)) and z0.u.values.flags.writeable


def test_batched_trajectory_has_no_single_state():
    geom = make_grid(6.0, 96, 1.0)
    traj = solve_batch(bump_state(geom, _CIRCLE), 1e-2, 0.25, _loc(geom), manifold=_CIRCLE, basis=_BASIS,
                       diffusion=_Y_CIRCLE, trial_ids=[0], keep_states=True)
    assert traj.u.shape[2] == 1
    for read in (lambda: traj.state(2), traj.final_state):
        with pytest.raises(ValueError, match=r"batch of 1 paths.*traj\.u\[m\]\[:, b\]"):
            read()


@pytest.mark.parametrize("case, threads", [("skeleton", 1), ("stochastic", 1), ("batch", 1), ("batch", 2),
                                           ("joins", 1), ("joins", 2)])
def test_every_solve_returns_its_last_pair_stored_path_or_not(case, threads):
    z0 = random_state(_LANE_GEOM, _SPHERE, stream(8, 3))
    horizon, dx = 0.25, _LANE_GEOM.spacing
    fields = dict(manifold=_SPHERE, basis=_BASIS, diffusion=_Y_SPHERE)
    rates = np.random.default_rng(8).normal(scale=0.5, size=(round(horizon / dx), 5, _BASIS.dim))
    joins = {2: 2, 4: 1} if case == "joins" else None
    for col, start in enumerate([0, 0, 2, 2, 4]):  # a joined column has column 0's rows before its step
        rates[:start, col] = rates[:start, 0]

    def solve(keep_states):
        if case == "skeleton":
            return solve_skeleton(z0, Control(rates[:, 0], dx), horizon, _loc(_LANE_GEOM), **fields,
                                  keep_states=keep_states)
        if case == "stochastic":
            return solve_stochastic(z0, 1e-2, None, horizon, _loc(_LANE_GEOM), **fields, trial_id=3,
                                    keep_states=keep_states)
        batch = dict(trial_ids=list(range(5))) if case == "batch" else dict(control_rates=rates)
        with patch.object(solver, "_MIN_BLOCK_CELLS", 1):
            # a kept path has the start width, so only the unstored run grows at the joins
            traj = solve_batch(z0, 1e-2 if case == "batch" else 0.0, horizon, _loc(_LANE_GEOM), **fields, **batch,
                               keep_states=keep_states, threads=threads, _joins=None if keep_states else joins)
        assert traj.metadata["threads"] == threads
        return traj

    stored, unstored = solve(True), solve(False)
    assert unstored.u is None and unstored.v is None
    for traj in (stored, unstored):
        for end, path in zip(traj.final, (stored.u, stored.v)):
            assert np.array_equal(end, path[-1]) and not end.flags.writeable
    assert all(np.shares_memory(end, path) for end, path in zip(stored.final, (stored.u, stored.v)))
    if case in ("skeleton", "stochastic"):
        z = unstored.final_state()
        assert np.array_equal(z.u.values, stored.u[-1]) and np.array_equal(z.v.values, stored.v[-1])


def test_control_rate_lookup_and_norm():
    ctl = Control(np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]]), 0.5)
    assert np.array_equal(ctl.row(0), [1.0, 0.0])
    assert np.array_equal(ctl.row(1), [0.0, 2.0])
    assert np.array_equal(ctl.row(99), [3.0, 0.0])
    assert ctl.squared_norm() == 0.5 * (1.0 + 4.0 + 9.0)
    zero = Control.zeros(4, 2, 0.25)
    assert zero.squared_norm() == 0.0
    with pytest.raises(ValueError):
        Control(np.array([[np.nan]]), 0.5)
    for dt in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="control step must be positive and finite"):
            Control(np.array([[1.0]]), dt)


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
    # per-column rates: one trial id per column
    z = bump_state(geom, _CIRCLE)
    rates = np.zeros((8, 2, _BASIS.dim))
    kwargs = dict(manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE, control_rates=rates)
    with pytest.raises(DimensionMismatch, match="3 trial ids for 2 columns"):
        solve_batch(z, 1e-2, 0.5, _loc(geom), trial_ids=[0, 1, 2], **kwargs)
    ok = solve_batch(z, 1e-2, 0.5, _loc(geom), trial_ids=[0, 1], **kwargs)
    assert ok.metadata["nbatch"] == 2 and ok.noise_increments.shape[1] == 2


def test_off_manifold_data_rejected():
    geom = make_grid(6.0, 96, 1.0)
    z = constant_state(geom, _CIRCLE)
    bad_u = State(z.u.with_values(z.u.values * 1.5), z.v)
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


_BLOCK_CASES = {
    "circle": (_CIRCLE, _Y_CIRCLE),
    "sphere": (_SPHERE, _Y_SPHERE),
}


def _blocked_solve(z, threads, **kwargs):
    """solve_batch with the given threads and the (m, U, V) sequence its observer saw."""
    seen = []
    traj = solve_batch(z, observer=lambda m, t, u, v: seen.append((m, t, u.copy(), v.copy())),
                       threads=threads, **kwargs)
    return traj, seen


def _reference_run(z, joins=None, **kwargs):
    """solve_batch's run as one block stepped phase by phase, widened before each join step's head.

    Returns the _Run and the (m, t, U, V) sequence it observed: the reference for solver._integrate.
    """
    joins, seen = joins or {}, []
    width = len(kwargs["trial_ids"]) if "trial_ids" in kwargs else kwargs["control_rates"].shape[1]
    u0 = np.broadcast_to(z.u.values[:, None], (z.u.npoints, width - sum(joins.values()), z.u.values.shape[1]))
    run = solver._Run(u0, np.broadcast_to(z.v.values[:, None], u0.shape), origin=z.origin, spacing=z.spacing,
                      **{"keep_states": False, **kwargs})  # solve_batch's default
    for m in range(run.steps + 1):
        if m in joins:
            run.widen(joins[m])
        run.head(m)
        seen.append((m, m * run.dx, run.u.copy(), run.v.copy()))
        if m < run.steps:
            run.advance(m, run.kick(m), *run.drift(m), run.pair(m + 1))
    return run, seen


@settings(max_examples=12, deadline=None)
@given(
    kind=st.sampled_from(sorted(_BLOCK_CASES)),
    points=st.integers(64, 96),
    width=st.integers(1, 7),
    noisy=st.booleans(),
    controlled=st.booleans(),
    keep_states=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(kind="sphere", points=64, width=5, noisy=True, controlled=True, keep_states=True, seed=0)
def test_any_thread_count_gives_the_one_thread_bits(kind, points, width, noisy, controlled, keep_states, seed):
    # batch columns are bitwise independent, so every split into column blocks is the one-block run
    manifold, diffusion = _BLOCK_CASES[kind]
    steps = 6
    geom = make_grid(6.0, points, steps * 6.0 / points)
    z = random_state(geom, manifold, stream(seed, 7))
    kwargs = dict(eps=1e-2 if noisy else 0.0, horizon=geom.horizon, loc=_loc(geom), manifold=manifold, basis=_BASIS,
                  diffusion=diffusion, master_seed=seed, trial_ids=list(range(seed % 5, seed % 5 + width)),
                  keep_states=keep_states)
    if controlled:
        kwargs["control_rates"] = np.random.default_rng(seed).normal(scale=0.5, size=(steps, width, _BASIS.dim))
    want, want_seen = _reference_run(z, **kwargs)
    # every head lifts each level above its norm, so the left-point taper would be exactly 1
    assert (want.trace["taper_norm"] < want.trace["k_level"]).all()
    with patch.object(solver, "_MIN_BLOCK_CELLS", 1):  # None: one block per available CPU
        for threads in (1, 2, 3, None):
            got, seen = _blocked_solve(z, threads, **kwargs)
            for a, b in ((got.u, want.path_u), (got.v, want.path_v), (got.noise_increments, want.noise_log)):
                assert (a is None and b is None) or np.array_equal(a, b), threads
            for key in want.trace:
                assert np.array_equal(got.energy_trace[key], want.trace[key]), (threads, key)
            assert np.array_equal(got.metadata["k_init"], want.trace["k_level"][0]), threads
            assert np.array_equal(got.metadata["k_final"], want.trace["k_level"][-1]), threads
            assert len(seen) == len(want_seen)
            for (m, t, u, v), (wm, wt, wu, wv) in zip(seen, want_seen):
                assert (m, t) == (wm, wt) and np.array_equal(u, wu) and np.array_equal(v, wv), (threads, m)


def _rebuilt_each_step(run, m):
    """The control field built afresh at every step: the reference for _Run.control_field's reuse."""
    shape = (run.u.shape[1], 2 * run.u.shape[0] - 1)
    return solver._mode_field(run.control_rates[m], run.modes_fine, np.empty(shape), np.empty(shape)).T


@pytest.mark.parametrize("threads", [1, 2])
def test_a_control_field_reused_while_its_rows_repeat_steps_like_a_per_step_rebuild(threads, tmp_path):
    steps = 7
    geom = make_grid(6.0, 96, steps * 6.0 / 96)
    z = random_state(geom, _SPHERE, stream(3, 7))
    a, b = np.random.default_rng(5).normal(scale=0.5, size=(2, 3, _BASIS.dim))
    b[0] = a[0]  # column 0 keeps its row, the others change
    b[2, 1] = 0.0
    b_signed = b.copy()
    b_signed[2, 1] = -0.0  # compares equal to b: the field is reused
    rates = np.stack([a, a, b, a, b, b, b_signed])
    kwargs = dict(eps=0.0, horizon=geom.horizon, loc=_loc(geom), manifold=_SPHERE, basis=_BASIS,
                  diffusion=_Y_SPHERE, control_rates=rates, keep_states=True, threads=threads)
    builds = Tally(tmp_path / "builds")  # the forked blocks build their fields too
    mode_field = solver._mode_field

    def counting(*args):
        builds.append(1)
        return mode_field(*args)

    with patch.object(solver, "_mode_field", counting):
        got = solve_batch(z, **kwargs)
    with patch.object(solver._Run, "control_field", _rebuilt_each_step):
        want = solve_batch(z, **kwargs)
    assert len(builds.values()) == 4 * threads  # at steps 0, 2, 3 and 4, in each block
    assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v)
    for key in want.energy_trace:
        assert np.array_equal(got.energy_trace[key], want.energy_trace[key]), key


def test_column_blocks_follow_the_threads_and_the_cell_floor(monkeypatch):
    monkeypatch.setattr(solver.os, "sched_getaffinity", lambda pid: set(range(4)))
    floor = solver._MIN_BLOCK_CELLS
    # an explicit count is used as given: trial_chunks' contiguous chunks, at most one per column
    assert solver._column_blocks(3, 10, 5) == [slice(0, 2), slice(2, 4), slice(4, 5)]
    assert solver._column_blocks(8, 10, 2) == [slice(0, 1), slice(1, 2)]
    # None: the available CPUs, lowered until every block holds the floor's cells
    assert len(solver._column_blocks(None, floor, 4)) == 4
    half = -(-floor // 2)  # two columns of this many points reach the floor
    assert len(solver._column_blocks(None, half, 7)) == 2  # 4 or 3 blocks leave one of a single column
    assert len(solver._column_blocks(None, half - 1, 8)) == 2  # blocks of 2 columns fall short, of 4 do not
    assert len(solver._column_blocks(None, floor - 1, 1)) == 1
    assert solver._column_blocks(None, 10**6, 0) == []
    # the benchmark's shapes at two CPUs: rate_gn's widest chain would split 11/10 and stays one block,
    # mc_batch splits 4/4; so the floor lies in (4 510, 14 348]
    monkeypatch.setattr(solver.os, "sched_getaffinity", lambda pid: {0, 1})
    assert len(solver._column_blocks(None, 451, 21)) == 1
    assert len(solver._column_blocks(None, 3587, 8)) == 2
    for threads in (0, -1):  # trial_chunks' check, which an explicit count reaches
        with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
            solver._column_blocks(threads, 10, 5)
        with pytest.raises(ValueError, match=f"threads must be at least 1, got {threads}"):
            solver.trial_chunks(range(4), threads)


def _poisoning(step, values):
    """_Run.advance patched to set column b's new state of step + 1 to values[b] mid-lattice, before its head.

    Columns are numbered in the whole batch; each block writes its own.
    """
    advance = solver._Run.advance

    def poisoned(run, m, *args):
        advance(run, m, *args)
        for b, value in values.items():
            if m == step and 0 <= b - run.offset < run.u.shape[1]:
                run.u[run.u.shape[0] // 2, b - run.offset, 0] = value

    return patch.object(solver._Run, "advance", poisoned)


def _poisoned_solve(threads, values):
    geom = make_grid(6.0, 96, 1.0)
    z = bump_state(geom, _CIRCLE)
    with _poisoning(2, values), pytest.raises(BlowupDetected) as err:
        solve_batch(z, 1e-2, 0.5, _loc(geom), manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE,
                    trial_ids=[0, 1, 2, 3], threads=threads)
    return str(err.value)


def _no_child_left():
    """No process forked by a solve outlives it: nothing is left to reap."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_blowup_in_one_block_is_the_serial_one_and_joins_every_worker():
    dx = make_grid(6.0, 96, 1.0).spacing

    nan_in_column_3 = {3: np.nan}  # the second of two blocks
    serial = _poisoned_solve(1, nan_in_column_3)
    assert serial == f"window norm of column 3 is nan at t={3 * dx}"
    assert _poisoned_solve(2, nan_in_column_3) == serial
    _no_child_left()

    nan_in_columns_1_and_3 = {1: np.nan, 3: np.nan}  # both blocks fail at one step: the lowest block's column is named
    assert _poisoned_solve(2, nan_in_columns_1_and_3) == _poisoned_solve(1, nan_in_columns_1_and_3)

    huge_in_column_0_nan_in_column_3 = {0: 1e30, 3: np.nan}
    # different checks in two blocks at one step: serial raises the first check that any column fails,
    # blocks raise the lowest block's
    assert "column 3 is nan" in _poisoned_solve(1, huge_in_column_0_nan_in_column_3)
    assert "exhausted cutoff levels" in _poisoned_solve(2, huge_in_column_0_nan_in_column_3)
    _no_child_left()


def _counting_forks():
    """os.fork patched to record the pid of each child it makes, and that list."""
    forks, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    return patch.object(os, "fork", counting), forks


def test_no_forked_block_outlives_its_solve():
    geom = make_grid(6.0, 96, 1.0)
    z = bump_state(geom, _CIRCLE)
    kwargs = dict(manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE, trial_ids=[0, 1, 2, 3])
    counting, forks = _counting_forks()
    with counting:
        # a clean run that splits at its joins: one child per block of each of its three segments
        solve_batch(z, 0.0, 0.5, _loc(geom), threads=2, _joins={2: 1, 4: 1}, **kwargs)
        assert len(forks) == 6
        _no_child_left()
        # a blow-up in the second block, then in the first, at step 2 of 8
        for column in (3, 0):
            with _poisoning(2, {column: np.nan}), pytest.raises(BlowupDetected, match=f"column {column} is nan"):
                solve_batch(z, 1e-2, 0.5, _loc(geom), threads=2, **kwargs)
            _no_child_left()

        def failing(m, t, u, v):
            if m == 3:
                raise KeyError("observer")

        with pytest.raises(KeyError, match="observer"):  # an observer that raises mid-run
            solve_batch(z, 1e-2, 0.5, _loc(geom), threads=2, observer=failing, **kwargs)
        _no_child_left()
    assert len(forks) == 12  # two children for each of the three failing runs


def _stepping_pids(tmp_path, z, threads, **kwargs):
    """The pid of the process that made each _Run.advance call of one solve_batch call, in call order per process."""
    pids, advance = Tally(tmp_path / "pids"), solver._Run.advance

    def recording(run, *args):
        pids.append(os.getpid())
        advance(run, *args)

    with patch.object(solver._Run, "advance", recording):
        solve_batch(z, threads=threads, **kwargs)
    return pids.values()


def test_a_split_steps_every_block_in_a_child_and_one_block_steps_in_the_calling_process(tmp_path):
    geom = make_grid(6.0, 96, 1.0)
    z = bump_state(geom, _CIRCLE)
    kwargs = dict(eps=1e-2, horizon=0.5, loc=_loc(geom), manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE,
                  trial_ids=[0, 1, 2, 3])  # 8 steps
    me = os.getpid()
    # one block without an observer: every step in the calling process
    assert _stepping_pids(tmp_path, z, 1, **kwargs) == [me] * 8
    # two blocks: the calling process steps nothing, and each child steps its block to the horizon
    split = _stepping_pids(tmp_path, z, 2, **kwargs)
    assert me not in split and len(split) == 16
    assert sorted(split.count(pid) for pid in set(split)) == [8, 8]
    # a run that is one block until its first join steps in the calling process until then, and in
    # two children per segment after it: the layout switches once, at the join, and never back
    kwargs.update(eps=0.0, trial_ids=[0, 1, 2])
    joined = _stepping_pids(tmp_path, z, 2, _joins={2: 1, 4: 1}, **kwargs)
    assert joined[:2] == [me, me] and me not in joined[2:] and len(joined) == 2 + 2 * 2 + 2 * 4
    assert len(set(joined[2:])) == 4


def test_without_fork_a_batch_is_one_block(monkeypatch):
    geom = make_grid(6.0, 96, 1.0)
    z = bump_state(geom, _CIRCLE)
    kwargs = dict(manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE, trial_ids=[0, 1, 2, 3], keep_states=True)
    want = solve_batch(z, 1e-2, 0.5, _loc(geom), threads=1, **kwargs)
    monkeypatch.delattr(os, "fork")
    got = solve_batch(z, 1e-2, 0.5, _loc(geom), threads=2, **kwargs)
    assert got.metadata["threads"] == 1
    assert np.array_equal(got.u, want.u) and np.array_equal(got.v, want.v)
    assert np.array_equal(got.noise_increments, want.noise_increments)
    for key in want.energy_trace:
        assert np.array_equal(got.energy_trace[key], want.energy_trace[key]), key


def test_a_failed_fork_closes_its_pipes():
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no per-process descriptor listing on this platform")
    geom = make_grid(6.0, 96, 1.0)
    z = bump_state(geom, _CIRCLE)
    fields = dict(manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE)

    def failing():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    before = len(os.listdir("/proc/self/fd"))
    with patch.object(os, "fork", failing):
        for _ in range(3):
            with pytest.raises(BlockingIOError):
                solve_batch(z, 1e-2, 0.25, _loc(geom), **fields, trial_ids=[0, 1, 2, 3], threads=2)
            with pytest.raises(BlockingIOError):  # a lone observed column forks too
                solve_skeleton(z, None, 0.25, _loc(geom), **fields, observer=lambda m, t, u, v: None)
    assert len(os.listdir("/proc/self/fd")) == before


def test_a_forked_rings_slots_follow_its_block_size():
    # geowave skeleton's default sphere lattice, one column: 172 KB a slot, 8 slots, so the
    # child can step through the 8 steps between two CSV snapshots while the observer writes one
    points = make_grid(6.0, 1536, 1.0).npoints
    assert points == 3587
    assert solver._ring_slots((points, 1, 3)) == 8
    # mc_batch's block at two CPUs, 4 of 8 columns: 688 KB a slot, 2 slots
    assert solver._ring_slots((points, 4, 3)) == 2
    assert solver._ring_slots((10**6, 8, 3)) == 2 and solver._ring_slots((4, 1, 2)) == 8


def _lone_column_solve(kind, geom, eps, control, keep_states, observer):
    manifold, diffusion = _BLOCK_CASES[kind]
    z = random_state(geom, manifold, stream(3, 9))
    fields = dict(manifold=manifold, basis=_BASIS, diffusion=diffusion, keep_states=keep_states,
                  observer=observer)
    if eps is None:
        return solve_skeleton(z, control, geom.horizon, _loc(geom), **fields)
    return solve_stochastic(z, eps, control, geom.horizon, _loc(geom), **fields, master_seed=5, trial_id=2)


def _observed_lone_column(forked, *args, sleep=0.0, fail_at=None):
    """_lone_column_solve with an observer, forked or with os.fork deleted: (trajectory or error, forks, seen)."""
    seen = []

    def observer(m, t, u, v):
        if sleep and m % 3 == 0:
            time.sleep(sleep)
        if m == fail_at:
            raise KeyError(f"observer at step {m}")
        seen.append((m, t, u.copy(), v.copy()))

    counting, forks = _counting_forks()
    with counting, pytest.MonkeyPatch.context() as mp:
        if not forked:
            mp.delattr(os, "fork")
        try:
            result = _lone_column_solve(*args, observer=observer)
        except Exception as exc:
            result = exc
    _no_child_left()
    return result, forks, seen


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(sorted(_BLOCK_CASES)),
    noisy=st.booleans(),
    controlled=st.booleans(),
    keep_states=st.booleans(),
    length=st.sampled_from([(0, 1), (1, -1), (1, 0), (1, 1), (2, 1)]),  # (a, b): a * slots + b steps
    sleep=st.sampled_from([0.0, 2e-3]),
    seed=st.integers(0, 2**16),
)
@example(kind="sphere", noisy=True, controlled=True, keep_states=True, length=(2, 1), sleep=2e-3, seed=0)
def test_a_lone_observed_column_stepped_in_a_child_is_the_in_process_run(kind, noisy, controlled, keep_states,
                                                                          length, sleep, seed):
    # one column with an observer is stepped in a forked child and observed while the child steps on
    slots = 8  # every lattice here is far below the ring's byte budget
    steps = length[0] * slots + length[1]  # 1, slots - 1, slots, slots + 1 or 2 slots + 1
    geom = make_grid(6.0, 64, steps * 6.0 / 64)
    assert solver._ring_slots((geom.npoints, 1, _BLOCK_CASES[kind][0].ambient_dim)) == slots
    control = (Control(np.random.default_rng(seed).normal(scale=0.5, size=(steps, _BASIS.dim)), geom.spacing)
               if controlled else None)
    args = (kind, geom, 1e-2 if noisy else None, control, keep_states)
    got, forks, seen = _observed_lone_column(True, *args, sleep=sleep)
    want, no_forks, want_seen = _observed_lone_column(False, *args)
    assert len(forks) == 1 and no_forks == []
    assert got.steps == steps and got.metadata == want.metadata
    assert len(seen) == len(want_seen) == steps + 1
    for (m, t, u, v), (wm, wt, wu, wv) in zip(seen, want_seen):
        assert (m, t) == (wm, wt) and np.array_equal(u, wu) and np.array_equal(v, wv), m
    for a, b in zip(got.final, want.final):
        assert np.array_equal(a, b) and not a.flags.writeable
    for a, b in ((got.u, want.u), (got.v, want.v), (got.noise_increments, want.noise_increments)):
        assert (a is None and b is None) or np.array_equal(a, b)
    assert (got.u is None) == (not keep_states) and (got.noise_increments is None) == (not noisy)
    for key in want.energy_trace:
        assert np.array_equal(got.energy_trace[key], want.energy_trace[key]), key


@pytest.mark.parametrize("failure", ["observer", "nan in the child"])
def test_a_lone_observed_columns_failure_is_the_in_process_one(failure):
    geom = make_grid(6.0, 96, 1.0)
    args = ("circle", geom, 1e-2, None, False)
    with _poisoning(2, {0: np.nan}) if failure == "nan in the child" else contextlib.nullcontext():
        got, forks, seen = _observed_lone_column(True, *args, fail_at=3)
        want, _, want_seen = _observed_lone_column(False, *args, fail_at=3)
    assert len(forks) == 1
    assert type(got) is type(want) and str(got) == str(want)
    if failure == "observer":
        assert isinstance(got, KeyError) and str(got) == "'observer at step 3'"
    else:
        assert isinstance(got, BlowupDetected) and str(got) == f"window norm of column 0 is nan at t={3 * geom.spacing}"
    assert [m for m, *_ in seen] == [m for m, *_ in want_seen] == [0, 1, 2]


def test_horizon_must_be_lattice_and_inside_cone():
    geom = make_grid(6.0, 96, 1.0)
    z = constant_state(geom, _CIRCLE)
    with pytest.raises(NonLatticeTime):
        solve_skeleton(z, None, 3.5 * geom.spacing * 1.0001, _loc(geom), manifold=_CIRCLE)
    with pytest.raises(ConeExhausted):
        solve_skeleton(z, None, geom.half_width + 1.0, _loc(geom), manifold=_CIRCLE)


def test_exhausted_cutoff_levels_raise():
    geom = make_grid(6.0, 96, 1.0)
    z = rotating_state(geom, _CIRCLE)  # starting level ceil(2 * window norm) = 11
    top = LocalizationParams(radius=geom.half_width, k_max=64)

    # a huge value in step 2's state lifts its norm past every level up to the top
    with _poisoning(1, {0: 1e3}), pytest.raises(BlowupDetected,
                                                match=rf"exhausted cutoff levels up to 64 at t={2 * geom.spacing}"):
        solve_skeleton(z, None, 0.25, top, manifold=_CIRCLE)
    # a starting level above the top level is exhausted before the first step
    low_top = LocalizationParams(radius=geom.half_width, k_max=1)
    with pytest.raises(BlowupDetected, match="starting taper level 11 of column 0 exceeds the top level 1"):
        solve_skeleton(z, None, 0.5, low_top, manifold=_CIRCLE)
    at_top = LocalizationParams(radius=geom.half_width, k_max=11)
    assert solve_skeleton(z, None, 0.5, at_top, manifold=_CIRCLE).metadata["k_init"] == 11


def test_a_level_doubled_mid_run_is_the_one_block_level_in_every_split():
    # a bump in column 3's state of step 2 lifts its norm past two doublings; the run goes on to
    # the horizon, and each block's heads write that column's levels in the run's trace
    geom = make_grid(6.0, 96, 1.0)
    z = bump_state(geom, _CIRCLE)
    kwargs = dict(eps=1e-2, horizon=0.5, loc=_loc(geom), manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE,
                  trial_ids=[0, 1, 2, 3], keep_states=True)
    with _poisoning(1, {3: 1.5}):
        want, want_seen = _reference_run(z, **kwargs)
        # the levels live in the trace alone
        assert not {"k", "k_init", "fine"} & set(vars(want))
        levels = want.trace["k_level"]
        assert (levels[:, :3] == levels[0, :3]).all()  # no other column's level moves
        assert (levels[0, 3], levels[-1, 3]) == (9, 144)
        with patch.object(solver, "_MIN_BLOCK_CELLS", 1):  # None: one block per available CPU
            for threads in (1, 2, 3, None):
                got, seen = _blocked_solve(z, threads, **kwargs)
                for a, b in ((got.u, want.path_u), (got.v, want.path_v), (got.noise_increments, want.noise_log)):
                    assert np.array_equal(a, b), threads
                for key in want.trace:
                    assert np.array_equal(got.energy_trace[key], want.trace[key]), (threads, key)
                assert np.array_equal(got.metadata["k_init"], levels[0]), threads
                assert np.array_equal(got.metadata["k_final"], levels[-1]), threads
                assert len(seen) == len(want_seen)
                for (m, t, u, v), (_, _, wu, wv) in zip(seen, want_seen):
                    assert np.array_equal(u, wu) and np.array_equal(v, wv), (threads, m)


def test_a_starting_level_past_int64_names_the_top_level():
    # a window norm of 4.6e18 or more gives a level the int64 cast would wrap below 1
    geom = make_grid(1e-12, 64, 4 * 1e-12 / 64)
    z = random_state(geom, _CIRCLE, stream(0, 9000))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BlowupDetected, match=r"starting taper level \d{19,} of column 0 exceeds the top level 1024"):
            solve_skeleton(z, None, 4 * geom.spacing, LocalizationParams(geom.half_width), manifold=_CIRCLE)


def test_taper_kills_drift_above_cutoff():
    geom = make_grid(6.0, 96, 1.0)
    z = rotating_state(geom, _CIRCLE)
    norm = window_norm(z, geom.half_width)
    assert norm > 2.0  # past the whole ramp [1, 2] of level 1
    u, v = z.u.values, z.v.values
    ux = derivative1(u, geom.spacing)
    dead = solver._core_drift(_CIRCLE, u, v, ux, taper_factor(norm, 1), None, np.empty(u.shape))
    assert np.abs(dead).max() == 0.0
    live = drift_force(_CIRCLE, u, v, geom.spacing)  # at the starting level the taper is 1
    assert taper_factor(norm, math.ceil(2 * norm)) == 1.0 and np.abs(live).max() > 0.1


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
            float(np.abs(ta.u[m, box] - tb.u[m, box]).max()),
            float(np.abs(ta.v[m, box] - tb.v[m, box]).max()),
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


@pytest.mark.parametrize("width", [1, 3])
def test_mild_residual_of_a_batched_path_names_the_batch(width):
    geom = make_grid(6.0, 96, 1.0)
    traj = solve_batch(bump_state(geom, _CIRCLE), 0.0, 0.25, _loc(geom), manifold=_CIRCLE, basis=_BASIS,
                       diffusion=_Y_CIRCLE, trial_ids=list(range(width)), keep_states=True)
    with pytest.raises(ValueError, match=f"trajectory is a batch of {width} paths"):
        mild_residual(traj, _loc(geom), manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE)


def test_non_finite_window_norm_is_a_blowup():
    geom = make_grid(6.0, 96, 1.0)
    z = bump_state(geom, _CIRCLE)

    with _poisoning(2, {1: np.nan}), pytest.raises(BlowupDetected, match=rf"column 1 is nan at t={3 * geom.spacing}"):
        solve_batch(z, 1e-2, 0.5, _loc(geom), manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE,
                    trial_ids=[0, 1])



def _cone_energy_args(case):
    """cone_energies arguments on a 96-point circle at horizon 0.5 (8 steps), one of them bad by case."""
    geom = make_grid(6.0, 96, 1.0)
    z0 = bump_state(geom, _CIRCLE)
    cone = LightCone(0.0, 1.0)
    windows = [cone_window(cone, geom.origin, geom.spacing, geom.npoints, m) for m in range(9)]
    fields = dict(manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE)
    references, batch = [None], dict(trial_ids=[0, 1])
    if case == "unstored reference":
        references = [None, solve_skeleton(z0, None, 0.5, _loc(geom), **fields, keep_states=False)]
    elif case == "short reference":
        references = [solve_skeleton(z0, None, 0.25, _loc(geom), **fields)]
    elif case == "batched reference":
        references = [None, solve_batch(z0, 0.0, 0.5, _loc(geom), **fields, trial_ids=[0, 1, 2], keep_states=True)]
    elif case == "short windows":
        windows = windows[:-1]
    elif case == "no trial ids":
        batch = dict(trial_ids=[])
    elif case == "no control columns":
        batch = dict(control_rates=np.zeros((8, 0, _BASIS.dim)))
    return (z0, 1e-2, 0.5, _loc(geom), windows, references), dict(fields, **batch)


_BAD_ARGUMENTS = {
    "unstored reference": "references[1] stores 0 states, not the 9 of steps 0..8",
    "short reference": "references[0] stores 5 states, not the 9 of steps 0..8",
    "batched reference": "references[1] is a batch of 3 paths, not a single Trajectory",
    "short windows": "windows gives 8 sections, not the 9 of steps 0..8",
    "no trial ids": "trial_ids gives no batch columns",
    "no control columns": "control_rates gives no batch columns",
}


@pytest.mark.parametrize("case", sorted(_BAD_ARGUMENTS))
def test_cone_energies_name_a_bad_argument_before_any_step(case):
    message = _BAD_ARGUMENTS[case]
    args, kwargs = _cone_energy_args(case)
    with patch.object(solver, "_Run", side_effect=AssertionError("a run started")):
        with pytest.raises(ValueError, match=re.escape(message)):
            cone_energies(*args, **kwargs)
    if case.startswith("no "):  # solve_batch's own check
        with pytest.raises(ValueError, match=re.escape(message)):
            solve_batch(args[0], 1e-2, 0.5, args[3], **kwargs)
    args, kwargs = _cone_energy_args("good")
    assert cone_energies(*args, **kwargs)[0][0].shape == (2, 9)


@settings(max_examples=15, deadline=None)
@given(
    kind=st.sampled_from(sorted(_BLOCK_CASES)),
    points=st.integers(64, 96),
    start=st.integers(1, 3),
    joins=st.dictionaries(st.integers(1, 6), st.integers(1, 3), min_size=1, max_size=4),
    seed=st.integers(0, 2**16),
)
@example(kind="sphere", points=64, start=1, joins={1: 2, 2: 1, 3: 2}, seed=0)  # step 1, consecutive steps
def test_a_batch_grown_at_its_join_steps_is_the_full_width_run(kind, points, start, joins, seed):
    # a column joined at step s with column 0's control rows before s is column 0 up to s, so the
    # grown run is the full-width run from step 0, whatever its column blocks
    manifold, diffusion = _BLOCK_CASES[kind]
    steps = 6
    geom = make_grid(6.0, points, steps * 6.0 / points)
    z = random_state(geom, manifold, stream(seed, 1))
    first = [0] * start + [s for s in sorted(joins) for _ in range(joins[s])]  # each column's first step
    rates = np.random.default_rng(seed).normal(scale=0.5, size=(steps, len(first), _BASIS.dim))
    for col, s in enumerate(first):
        rates[:s, col] = rates[:s, 0]
    kwargs = dict(eps=0.0, horizon=geom.horizon, loc=_loc(geom), manifold=manifold, basis=_BASIS,
                  diffusion=diffusion, control_rates=rates)
    full, full_seen = _reference_run(z, **kwargs)
    want, want_seen = _reference_run(z, joins, **kwargs)
    for (m, t, u, v), (_, _, wu, wv) in zip(want_seen, full_seen):  # the columns joined by step m
        width = sum(s <= m for s in first)
        assert np.array_equal(u, wu[:, :width]) and np.array_equal(v, wv[:, :width]), m
    for key in want.trace:
        assert np.array_equal(want.trace[key], full.trace[key]), key
    with patch.object(solver, "_MIN_BLOCK_CELLS", 1):  # None: one block per available CPU
        for threads in (1, 2, 3, None):
            got, seen = _blocked_solve(z, threads, _joins=joins, **kwargs)
            assert [m for m, *_ in seen] == list(range(steps + 1))
            for (m, t, u, v), (_, _, wu, wv) in zip(seen, want_seen):
                assert np.array_equal(u, wu) and np.array_equal(v, wv), (threads, m)
            for key in want.trace:
                assert np.array_equal(got.energy_trace[key], want.trace[key]), (threads, key)
            assert np.array_equal(got.metadata["k_init"], want.trace["k_level"][0]), threads
            assert np.array_equal(got.metadata["k_final"], want.trace["k_level"][-1]), threads


@settings(max_examples=20, deadline=None)
@given(
    data=st.data(),
    target=st.sampled_from(sorted(_BLOCK_CASES)),
    points=st.sampled_from([96, 192]),
    controlled=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_cone_energies_on_section_rows_are_the_whole_lattice_ones(data, target, points, controlled, seed):
    # the sweep reads each section's weighted rows and one row each side; the
    # reference observer takes the dense form over the whole lattice
    manifold, diffusion = _BLOCK_CASES[target]
    geom = make_grid(6.0, points, 1.0)
    n, dx, horizon = geom.npoints, geom.spacing, 0.25
    steps = round(horizon / dx)
    radius = data.draw(st.integers(steps + 2, (n - 1) // 2), label="radius cells")
    room = n - 1 - 2 * radius
    near = data.draw(st.integers(0, min(2, room)), label="rows from the edge")
    left = data.draw(st.sampled_from([near, room - near, room // 2]), label="left row")
    cone = LightCone(geom.origin + (left + radius) * dx, radius * dx)
    windows = [cone_window(cone, geom.origin, dx, n, m) for m in range(steps + 1)]
    z0 = random_state(geom, manifold, stream(seed, 5))
    fields = dict(manifold=manifold, basis=_BASIS, diffusion=diffusion)
    base = solve_skeleton(z0, None, horizon, _loc(geom), **fields, keep_states=True)
    if controlled:
        eps, batch = 0.0, dict(control_rates=np.random.default_rng(seed).normal(size=(steps, 3, _BASIS.dim)))
    else:
        eps, batch = 0.5, dict(trial_ids=[0, 1, 2])
    (e_self, e_diff), _ = cone_energies(z0, eps, horizon, _loc(geom), windows, [None, base],
                                        **fields, master_seed=seed, **batch)
    want_self, want_diff = np.zeros_like(e_self), np.zeros_like(e_diff)

    def observer(m, t, u, v):
        want_self[:, m] = dense_section_energy(u, v, windows[m], dx)
        ref = (base.u[m], base.v[m])
        want_diff[:, m] = dense_section_energy(u, v, windows[m], dx, ref)

    solve_batch(z0, eps, horizon, _loc(geom), **fields, master_seed=seed, keep_states=False,
                observer=observer, **batch)
    assert np.array_equal(e_self, want_self) and np.array_equal(e_diff, want_diff)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    npoints=st.one_of(st.integers(5, 400), st.sampled_from([3587, 7173])),
    width=st.integers(1, 16),
    ncomp=st.sampled_from([2, 3]),
    minus=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_section_energy_on_window_rows_is_the_dense_form(data, npoints, width, ncomp, minus, seed):
    # circle (2) and sphere (3) components; windows of at least 4 cells, some at a lattice edge
    i_lo = data.draw(st.one_of(st.just(0), st.integers(0, npoints - 5)), label="i_lo")
    i_hi = data.draw(st.one_of(st.just(npoints - 1), st.integers(i_lo + 4, npoints - 1)), label="i_hi")
    rng = np.random.default_rng(seed)
    dx = 12.0 / npoints
    u, v = rng.normal(size=(2, npoints, width, ncomp))
    ref = (rng.normal(size=(npoints, ncomp)), rng.normal(size=(npoints, ncomp))) if minus else None
    got = section_energy(u, v, (i_lo, i_hi), dx, ref)
    assert np.array_equal(got, dense_section_energy(u, v, (i_lo, i_hi), dx, ref))


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(sorted(_BLOCK_CASES)),
    width=st.integers(1, 6),
    at_edge=st.booleans(),
    controlled=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_core_row_drift_is_the_whole_lattice_drift(kind, width, at_edge, controlled, seed):
    # the integrator's refined step: the window reflects the section rows of
    # the stepped state in place, and the drift reads the core rows only
    manifold, diffusion = _BLOCK_CASES[kind]
    geom = make_grid(6.0, 96, 1.0)
    n, dx = geom.npoints, geom.spacing
    rng = np.random.default_rng(seed)
    z = random_state(geom, manifold, stream(seed, 7))
    shape = (n, width, manifold.ambient_dim)
    u = manifold.nearest_point(z.u.values[:, None, :] + 0.05 * rng.normal(size=shape))
    v = manifold.tangent_project_at(u, z.v.values[:, None, :] + rng.normal(size=u.shape))
    m = 0 if at_edge else int(rng.integers(3, 20))  # t = 0: the section reaches the lattice edge
    s = geom.half_width - m * dx
    dxf = 0.5 * dx
    fine = (2 * n - 1, width, manifold.ambient_dim)
    uf, vf = apply_arrays(solver._upsample(u, np.empty(fine)), solver._upsample(v, np.empty(fine)), dxf, 1)
    window_f = window_indices(geom.origin, dxf, len(uf), s - dxf)
    rows = section_rows(*window_f, len(uf), 1)
    assert (rows.start == 0) == at_edge
    theta = rng.choice([0.0, 0.3, 1.0], size=width)
    cfield = rng.normal(size=(len(uf), width)) if controlled else None
    ufe, vfe = uf.copy(), vf.copy()
    extend_array(ufe, *window_f, 2)
    extend_array(vfe, *window_f, 2)
    want = ref.whole_lattice_drift(ufe, vfe, dxf, theta[None, :, None], control_field=cfield, window=window_f)

    work = Scratch()
    lo, hi = window_f[0] - rows.start, window_f[1] - rows.start
    fields, weights, _ = solver._section(uf[rows], vf[rows], window_f, rows, dxf, work)
    assert np.array_equal(solver._weighted_sum(fields, weights), section_energy(ufe, vfe, window_f, dxf))
    ue, ux, _, ve, _ = fields
    core = slice(lo, hi + 1)
    got = solver._core_drift(manifold, ue[core], ve[core], ux[core], theta, window_f, np.full(fine, np.nan),
                             diffusion=diffusion, control_field=cfield, work=work)
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    public = drift_force(manifold, ufe, vfe, dxf, diffusion=diffusion, control_field=cfield, window=window_f)
    want = ref.whole_lattice_drift(ufe, vfe, dxf, 1.0, control_field=cfield, window=window_f)
    assert np.array_equal(public, want) and np.array_equal(np.signbit(public), np.signbit(want))


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(5, 300),
    width=st.integers(1, 8),
    ncomp=st.sampled_from([2, 3]),
    offset=st.sampled_from([-0.5, -1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 0.5, 1.5]),
    seed=st.integers(0, 2**16),
)
def test_midpoint_taper_is_the_exact_one(rows, width, ncomp, offset, seed):
    # norms at, just below and just above the level: the fast sum may skip
    # the exact one only where the taper is exactly 1 either way
    rng = np.random.default_rng(seed)
    lo = int(rng.integers(0, 2))
    hi = rows - 1 - int(rng.integers(0, 2))
    weights = solver._row_weights(rows, lo, hi, 0.05)
    fields = tuple(rng.normal(size=(rows, width, ncomp)) * 10.0 ** rng.integers(-3, 3) for _ in range(5))
    norm = np.sqrt(2.0 * solver._weighted_sum(fields, weights))
    k = np.maximum(1, np.round(norm / (1.0 + offset))).astype(int)
    fields = tuple(f * (k * (1.0 + offset) / norm)[None, :, None] for f in fields)
    exact = taper_factor(np.sqrt(2.0 * solver._weighted_sum(fields, weights)), k)
    got = solver._midpoint_taper(fields, weights, k, np.empty((rows, width, ncomp)))
    assert np.array_equal(got, exact)


@pytest.mark.parametrize("kind", sorted(_BLOCK_CASES))
def test_columns_renormalized_alone_match_their_width_one_runs(kind):
    # columns at rest never trigger renormalization, so the batch projects
    # the moving columns one at a time
    manifold, diffusion = _BLOCK_CASES[kind]
    geom = make_grid(6.0, 96, 1.0)
    z = constant_state(geom, manifold)
    steps = round(0.5 / geom.spacing)
    rates = np.zeros((steps, 4, _BASIS.dim))
    rates[:, 1] = 0.7
    rates[:, 3, 0] = -0.4
    fields = dict(manifold=manifold, basis=_BASIS, diffusion=diffusion, keep_states=True)
    batch = solve_batch(z, 0.0, 0.5, _loc(geom), control_rates=rates, **fields)
    assert np.array_equal(batch.u[-1][:, 0], z.u.values)
    for col in range(4):
        single = solve_batch(z, 0.0, 0.5, _loc(geom), control_rates=rates[:, col:col + 1], **fields)
        assert np.array_equal(batch.u[:, :, col], single.u[:, :, 0])
        assert np.array_equal(batch.v[:, :, col], single.v[:, :, 0])

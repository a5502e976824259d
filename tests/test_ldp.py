"""Tests for the rate functional and the two asymptotic-response probes."""
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geowave.energy import energy
from geowave.cli import run_command
from geowave.errors import AllZeroCounts, InsufficientTrials, OptimizerDiverged
from geowave.function_spaces import LightCone, State
from geowave.geometry import DiffusionField, ManifoldModel
from geowave import solver
from geowave.ldp import (
    _FD_STEP,
    RateOptions,
    _TerminalObjective,
    _fit_slope,
    rate_function,
    statement1_probe,
    statement2_probe,
    tail_estimate,
)
from geowave.noise import SpectralMeasure, build_basis
from geowave.solver import (
    Control,
    LocalizationParams,
    cone_window,
    solve_batch,
    solve_skeleton,
)
from geowave.states import bump_state, constant_state, make_grid, random_state

from dense_section import dense_section_energy
from forked_tally import Tally

_BASIS = build_basis(SpectralMeasure.default_three_atoms())
_CIRCLE = ManifoldModel.circle()
_Y_CIRCLE = DiffusionField.circle_rotation()


def _setup(points=96, horizon=0.5):
    geom = make_grid(6.0, points, 1.0)
    loc = LocalizationParams(radius=geom.half_width)
    cone = LightCone(0.0, 2.0 * horizon)
    return geom, loc, cone


def _solve_kwargs(loc):
    return dict(loc=loc, manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE)


def test_rate_of_the_uncontrolled_target_is_zero():
    geom, loc, cone = _setup()
    z0 = bump_state(geom, _CIRCLE)
    target = solve_skeleton(z0, None, 0.5, loc, manifold=_CIRCLE, basis=_BASIS,
                            diffusion=_Y_CIRCLE).final_state()
    res = rate_function(target, z0, 10.0, cone=cone, horizon=0.5,
                        **_solve_kwargs(loc))
    assert res.converged
    assert res.value == 0.0
    assert res.iterations == 0
    assert res.terminal_gap <= 1e-2


def test_rate_recovers_a_planted_control():
    geom, loc, cone = _setup()
    z0 = constant_state(geom, _CIRCLE)
    steps = round(0.5 / geom.spacing)
    rows = np.zeros((steps, _BASIS.dim))
    rows[:, 0] = 0.6
    planted = Control(rows, geom.spacing)
    cost = 0.5 * planted.squared_norm()
    target = solve_skeleton(z0, planted, 0.5, loc, manifold=_CIRCLE,
                            basis=_BASIS, diffusion=_Y_CIRCLE).final_state()
    opts = RateOptions(blocks=4)
    res = rate_function(target, z0, 10.0, opts, cone=cone, horizon=0.5,
                        **_solve_kwargs(loc))
    assert res.converged
    assert res.terminal_gap <= opts.gap_tol
    assert res.value <= 1.05 * cost
    # the certificate control reproduces the reported gap on the horizon section
    redo = solve_skeleton(z0, res.argmin, 0.5, loc, manifold=_CIRCLE,
                          basis=_BASIS, diffusion=_Y_CIRCLE).final_state()
    diff = State(redo.u.with_values(redo.u.values - target.u.values),
                 redo.v.with_values(redo.v.values - target.v.values))
    gap = math.sqrt(2.0 * energy(steps * geom.spacing, diff, cone, k=1))
    assert abs(gap - res.terminal_gap) < 1e-10


def _planted_problem(points, horizon, mode=0, amplitude=0.6):
    geom, loc, cone = _setup(points, horizon)
    z0 = bump_state(geom, _CIRCLE)
    steps = round(horizon / geom.spacing)
    rows = np.zeros((steps, _BASIS.dim))
    rows[:, mode] = amplitude
    target = solve_skeleton(z0, Control(rows, geom.spacing), horizon, loc, manifold=_CIRCLE,
                            basis=_BASIS, diffusion=_Y_CIRCLE).final_state()
    return z0, target, loc, cone, steps


def _full_width_jacobian(obj, theta, fd_step):
    """Every probe column integrated from t = 0 in one batch, and the base as its own solve."""
    def residuals(params):
        out = {}

        def observer(m, t, u, v):
            if m == obj.steps:
                out["diff"] = (u - obj.target[0][:, None, :], v - obj.target[1][:, None, :])

        solve_batch(obj.z0, 0.0, obj.steps * obj.dx, obj.loc, manifold=obj.manifold, basis=obj.basis,
                    diffusion=obj.diffusion, control_rates=obj.rates(params), observer=observer)
        return obj.residual_rows(*out["diff"])

    base = residuals(theta[:, None])[:, 0]
    probes = np.tile(theta[:, None], (1, obj.nparams))
    probes[np.arange(obj.nparams), np.arange(obj.nparams)] += fd_step
    return base, (residuals(probes) - base[:, None]) / fd_step


@pytest.mark.parametrize("blocks", [1, 2, 4])
def test_segmented_jacobian_equals_the_full_width_one_bitwise(blocks):
    z0, target, loc, cone, _ = _planted_problem(192, 0.5, mode=1, amplitude=0.8)
    obj = _TerminalObjective(target, z0, cone, horizon=0.5, loc=loc, manifold=_CIRCLE,
                             basis=_BASIS, diffusion=_Y_CIRCLE, opts=RateOptions(blocks=blocks))
    theta = np.random.default_rng(blocks).normal(scale=0.3, size=obj.nparams)
    want_base, want_jac = _full_width_jacobian(obj, theta, _FD_STEP)
    _, base, jac = obj.evaluate(theta, probes=True)
    assert np.array_equal(base, want_base)
    assert np.array_equal(jac, want_jac)
    assert np.any(jac != 0.0)


_CHAIN_CASES = {
    "circle": dict(manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE),
    "sphere": dict(manifold=ManifoldModel.sphere(), basis=_BASIS, diffusion=DiffusionField.sphere_axis_rotation()),
}


def _chain_problem(kind, points, seed, amplitude=0.6):
    """Data, a target reached by a constant control on one mode, and the solver keywords; horizon 0.5."""
    fields = _CHAIN_CASES[kind]
    geom, loc, cone = _setup(points, 0.5)
    z0 = random_state(geom, fields["manifold"], np.random.default_rng(seed))
    steps = round(0.5 / geom.spacing)
    rows = np.zeros((steps, _BASIS.dim))
    rows[:, seed % _BASIS.dim] = amplitude
    target = solve_skeleton(z0, Control(rows, geom.spacing), 0.5, loc, **fields).final_state()
    return z0, target, cone, dict(fields, loc=loc)


def _width_one_gap(z0, target, control, window, kwargs):
    """The terminal cone-section distance of a fresh width-1 solve of control; horizon 0.5."""
    redo = solve_skeleton(z0, control, 0.5, **kwargs).final_state()
    du, dv = (redo.u.values - target.u.values)[:, None], (redo.v.values - target.v.values)[:, None]
    return float(np.sqrt(2.0 * solver.section_energy(du, dv, window, z0.spacing)[0]))


@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from(sorted(_CHAIN_CASES)), points=st.sampled_from([96, 144, 192]),
       blocks=st.sampled_from([1, 2, 4]), seed=st.integers(0, 2**16))
def test_the_chain_gives_the_width_one_gap_and_the_full_width_jacobian_bitwise(kind, points, blocks, seed):
    z0, target, cone, kwargs = _chain_problem(kind, points, seed)
    obj = _TerminalObjective(target, z0, cone, horizon=0.5, opts=RateOptions(blocks=blocks), **kwargs)
    theta = np.random.default_rng(seed).normal(scale=0.3, size=obj.nparams)
    want_gap = _width_one_gap(z0, target, Control(obj.rates(theta[:, None])[:, 0], obj.dx), obj.window, kwargs)
    want_base, want_jac = _full_width_jacobian(obj, theta, _FD_STEP)
    gap, base, jac = obj.evaluate(theta, probes=True)
    assert gap == want_gap  # the chain's column 0
    assert np.array_equal(base, want_base) and np.array_equal(jac, want_jac)
    assert obj.evaluate(theta) == (want_gap, None, None)  # one width-1 solve


@settings(max_examples=4, deadline=None)
@given(kind=st.sampled_from(sorted(_CHAIN_CASES)), points=st.sampled_from([96, 144]),
       blocks=st.sampled_from([1, 2, 4]), seed=st.integers(0, 2**16), amplitude=st.floats(0.2, 0.9))
def test_the_terminal_gap_is_bitwise_a_fresh_solve_of_the_returned_control(kind, points, blocks, seed, amplitude):
    # no solve follows the Gauss-Newton loop: its last gap is the certificate
    z0, target, cone, kwargs = _chain_problem(kind, points, seed, amplitude)
    res = rate_function(target, z0, 10.0, RateOptions(blocks=blocks), cone=cone, horizon=0.5, **kwargs)
    window = cone_window(cone, z0.origin, z0.spacing, z0.u.npoints, res.argmin.coeffs.shape[0])
    assert res.terminal_gap == _width_one_gap(z0, target, res.argmin, window, kwargs)


def _rate_result(z0, target, cone, kwargs, blocks, carry):
    """rate_function with every evaluation carrying probes (True), only the Jacobians' own (False) or the gate deciding (None)."""
    evaluate, seen = _TerminalObjective.evaluate, []

    def forced(obj, params, probes=False):
        own = bool(seen) and np.array_equal(params, seen[-1])  # a Jacobian's own evaluation repeats the last params
        seen.append(params.copy())
        return evaluate(obj, params, probes if own else carry)

    with patch.object(_TerminalObjective, "evaluate", evaluate if carry is None else forced):
        return rate_function(target, z0, 10.0, RateOptions(blocks=blocks), cone=cone, horizon=0.5, **kwargs)


@settings(max_examples=6, deadline=None)
@given(kind=st.sampled_from(sorted(_CHAIN_CASES)), points=st.sampled_from([96, 144]),
       blocks=st.sampled_from([1, 2, 4]), seed=st.integers(0, 2**16), amplitude=st.floats(0.2, 0.9))
def test_rate_result_does_not_depend_on_which_gaps_carry_the_probes(kind, points, blocks, seed, amplitude):
    problem = _chain_problem(kind, points, seed, amplitude)
    want = _rate_result(*problem, blocks, None)
    for carry in (True, False):
        got = _rate_result(*problem, blocks, carry)
        assert (got.value, got.terminal_gap, got.iterations, got.converged) == \
            (want.value, want.terminal_gap, want.iterations, want.converged), carry
        assert np.array_equal(got.argmin.coeffs, want.argmin.coeffs), carry
        assert got.metadata == want.metadata, carry


@pytest.mark.parametrize("threads", [1, 2])
def test_integrator_work_per_gauss_newton_iteration(monkeypatch, tmp_path, threads):
    # rate_gn's size: 192 points, 32 steps, 4 blocks
    z0, target, loc, cone, steps = _planted_problem(192, 1.0, mode=1, amplitude=0.9)
    probe_steps, runs, chain_heads = [], [], []
    col_steps, col_heads = Tally(tmp_path / "steps"), Tally(tmp_path / "heads")  # forked blocks count too
    integrate, chain, drift, head = solver._integrate, _TerminalObjective._chain, solver._Run.drift, solver._Run.head

    def recording(obj, params, fd_step):
        probe_steps.append(fd_step)
        before = sum(col_heads.values())
        out = chain(obj, params, fd_step)
        chain_heads.append(sum(col_heads.values()) - before)
        return out

    def stepping(run, m):
        col_steps.append(run.u.shape[1])
        return drift(run, m)

    def heading(run, m):
        col_heads.append(run.u.shape[1])
        return head(run, m)

    monkeypatch.setattr(_TerminalObjective, "_chain", recording)
    monkeypatch.setattr(solver, "_integrate", lambda *args, **kwargs: runs.append(1) or integrate(*args, **kwargs))
    monkeypatch.setattr(solver._Run, "drift", stepping)
    monkeypatch.setattr(solver._Run, "head", heading)
    blocks, dim = 4, _BASIS.dim
    res = rate_function(target, z0, 10.0, RateOptions(blocks=blocks), cone=cone, horizon=1.0,
                        **_solve_kwargs(loc), threads=threads)
    assert res.converged and res.iterations > 1
    # plain width-1 solves at the start and at the predicted convergence, which is the
    # certificate; the first iteration runs its own chain, and every other evaluation
    # carries the probes the next iteration's Jacobian reads
    assert probe_steps == [None] + [_FD_STEP] * res.iterations + [None]
    assert len(runs) == len(probe_steps)
    # each evaluation is one integrator run, which heads each column at each step once, at any
    # thread count: its batch grows by block j's probes after the heads of s_j = 8 j, and they take
    # column 0's head there, so a probe chain makes 33 column-heads for column 0 and block 0's probes
    # and 32 - s_j for block j's: 33 * 6 + 5 * (24 + 16 + 8) = 438
    assert chain_heads == [steps + 1] + [438] * res.iterations + [steps + 1]
    # per iteration: the base column over every step and the probes of block j over steps s_j..steps
    per_iteration = steps + dim * steps * (blocks + 1) // 2
    assert sum(col_steps.values()) == 2 * steps + res.iterations * per_iteration
    # solves counts control evaluations: base, probes and gap per iteration, plus the
    # first gap and the certificate, although the certificate runs no solve of its own
    assert res.metadata["solves"] == 2 + res.iterations * (blocks * dim + 2)


@pytest.mark.parametrize("workload", ["rate_gn", "mc_batch"])
def test_rate_benchmark_smoke_run_is_correct(workload):
    # the benchmark's own checks at smoke size: for rate_gn the reference's solves, value
    # and gap and the certificate re-simulated from the written control; for mc_batch the
    # full-width observer's final pair and every column against its width-1 solve
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--smoke",
           "--seed", "0", "--seconds", "0", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=Path(__file__).resolve().parents[1], capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), proc.stdout


def test_off_manifold_target_is_unreachable():
    geom, loc, cone = _setup()
    z0 = constant_state(geom, _CIRCLE)
    bad = State(z0.u.with_values(z0.u.values * 1.7), z0.v)
    res = rate_function(bad, z0, 10.0, cone=cone, horizon=0.5, **_solve_kwargs(loc))
    assert res.value == math.inf
    assert not res.converged
    assert res.metadata["reason"] == "off-manifold target"


def test_non_finite_gauss_newton_step_is_a_divergence(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, np.nan))
    z0, target, loc, cone, _ = _planted_problem(96, 0.5)
    with pytest.raises(OptimizerDiverged, match="non-finite step"):
        rate_function(target, z0, 10.0, cone=cone, horizon=0.5, **_solve_kwargs(loc))
    cfg = tmp_path / "rate.cfg"
    cfg.write_text('manifold.kind = "circle"\ngrid.points = 96\ntime.horizon = 0.5\n')
    assert run_command(["rate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 4
    assert "runtime error: OptimizerDiverged" in capsys.readouterr().out


def test_rate_rejects_nonpositive_budget():
    geom, loc, cone = _setup()
    z0 = constant_state(geom, _CIRCLE)
    with pytest.raises(ValueError):
        rate_function(z0, z0, 0.0, cone=cone, horizon=0.5, **_solve_kwargs(loc))


def test_weak_oscillations_wash_out_but_constants_do_not():
    geom, loc, cone = _setup(points=192)
    z0 = bump_state(geom, _CIRCLE)
    rep = statement1_probe([2, 4, 8], z0, cone, horizon=0.5,
                           **_solve_kwargs(loc), tol=1e-1)
    assert rep.passed
    assert rep.metrics[-1] < 0.5 * rep.metrics[0]
    flat = statement1_probe([2, 4, 8], z0, cone, horizon=0.5,
                            **_solve_kwargs(loc), tol=1e-1,
                            perturbation="constant")
    assert not flat.passed
    assert flat.metrics[-1] > 1e-1
    with pytest.raises(ValueError):
        statement1_probe([2], z0, cone, horizon=0.5, **_solve_kwargs(loc),
                         perturbation="spike")


def test_noise_response_is_linear_in_eps():
    geom, loc, cone = _setup()
    z0 = bump_state(geom, _CIRCLE)
    rep = statement2_probe([1e-2, 1e-3, 1e-4], 30, 1e6, z0, cone, 17,
                           horizon=0.5, **_solve_kwargs(loc))
    assert rep.passed
    assert 0.7 <= rep.slope <= 1.3
    assert rep.metrics[0] > rep.metrics[1] > rep.metrics[2]
    assert rep.extra["tau_fraction"].max() == 0.0  # threshold never reached
    # fixed chunk membership makes the thread count invisible in the output
    rep4 = statement2_probe([1e-2, 1e-3, 1e-4], 30, 1e6, z0, cone, 17,
                            horizon=0.5, **_solve_kwargs(loc), threads=4)
    assert np.array_equal(rep.metrics, rep4.metrics)
    assert np.array_equal(rep.stderr, rep4.stderr)


def test_the_probes_take_solve_batchs_block_choice_by_default(monkeypatch):
    # called without threads, every fan-out splits as _column_blocks(None, ...) does: here two blocks
    monkeypatch.setattr(solver, "_MIN_BLOCK_CELLS", 1)
    monkeypatch.setattr(solver.os, "sched_getaffinity", lambda pid: {0, 1})
    integrate, blocks = solver._integrate, []

    def counting(u0, *args, **kwargs):
        run = integrate(u0, *args, **kwargs)
        if u0.shape[1] > 1:  # the probes' zero-noise reference paths are single columns
            blocks.append(run.nblocks)
        return run

    monkeypatch.setattr(solver, "_integrate", counting)
    geom, loc, cone = _setup()
    z0 = bump_state(geom, _CIRCLE)
    steps = round(0.5 / geom.spacing)
    windows = [cone_window(cone, geom.origin, geom.spacing, z0.u.npoints, m) for m in range(steps + 1)]
    calls = {
        "cone_energies": lambda **kw: solver.cone_energies(z0, 1e-2, 0.5, loc, windows, [None], manifold=_CIRCLE,
                                                           basis=_BASIS, diffusion=_Y_CIRCLE, trial_ids=range(4),
                                                           **kw),
        "statement1_probe": lambda **kw: statement1_probe([2, 4, 8], z0, cone, horizon=0.5, **_solve_kwargs(loc),
                                                          tol=1e-1, **kw),
        "statement2_probe": lambda **kw: statement2_probe([1e-2, 1e-3], 30, 1e6, z0, cone, 17, horizon=0.5,
                                                          **_solve_kwargs(loc), **kw),
        "tail_estimate": lambda **kw: tail_estimate(0.0, [1e-3, 1e-2], 30, z0, cone, 23, horizon=0.5,
                                                    **_solve_kwargs(loc), **kw),
    }
    for name, call in calls.items():
        blocks.clear()
        got = call()
        assert blocks and set(blocks) == {2}, name
        blocks.clear()
        want = call(threads=1)
        assert blocks and set(blocks) == {1}, name
        if name == "cone_energies":
            assert all(np.array_equal(a, b) for a, b in zip(got[0] + [got[1]], want[0] + [want[1]])), name
        else:
            for a, b in ((got.metrics, want.metrics), (got.stderr, want.stderr), (got.slope, want.slope)):
                assert np.array_equal(a, b), name


def test_statement2_requires_enough_trials():
    geom, loc, cone = _setup()
    z0 = bump_state(geom, _CIRCLE)
    with pytest.raises(InsufficientTrials):
        statement2_probe([1e-2], 5, 1e6, z0, cone, 17, horizon=0.5,
                         **_solve_kwargs(loc))


def test_tail_estimate_counts_exceedances():
    geom, loc, cone = _setup()
    z0 = bump_state(geom, _CIRCLE)
    rep = tail_estimate(0.0, [1e-3, 1e-2], 30, z0, cone, 23, horizon=0.5,
                        **_solve_kwargs(loc), rate_value=0.125)
    assert np.array_equal(rep.metrics, [1.0, 1.0])  # any noise beats delta=0
    assert np.all(rep.extra["eps_log_p"] == 0.0)
    assert rep.extra["gap_to_rate"] == 0.125
    with pytest.raises(AllZeroCounts):
        tail_estimate(1e9, [1e-3, 1e-2], 30, z0, cone, 23, horizon=0.5,
                      **_solve_kwargs(loc))
    with pytest.raises(ValueError):
        tail_estimate(-1.0, [1e-3], 30, z0, cone, 23, horizon=0.5,
                      **_solve_kwargs(loc))


# The per-step observers the probes ran before they became reductions over
# solver.cone_energies, kept as references: the probes must match them bitwise.
_SPHERE_FIELDS = dict(manifold=ManifoldModel.sphere(), basis=_BASIS, diffusion=DiffusionField.sphere_axis_rotation())


def _sphere_problem(seed):
    geom = make_grid(6.0, 96, 1.0)
    loc = LocalizationParams(radius=geom.half_width)
    z0 = random_state(geom, _SPHERE_FIELDS["manifold"], np.random.default_rng(seed))
    return z0, loc, LightCone(0.0, 2.0)


def _reference_statement1(n_list, z0, cone, horizon, loc, amplitude=0.3):
    dx = z0.spacing
    steps = round(horizon / dx)
    t_mid = (np.arange(steps) + 0.5) * dx
    rates = np.zeros((steps, len(n_list), _BASIS.dim))
    for col, n in enumerate(n_list):
        rates[:, col, 0] += amplitude * np.sin(2.0 * math.pi * n * t_mid / horizon)
    base_traj = solve_skeleton(z0, None, horizon, loc, **_SPHERE_FIELDS, keep_states=True)
    ball = cone_window(cone, z0.origin, dx, z0.u.npoints, 0)
    sup_d = np.zeros(len(n_list))

    def observer(m, t, u, v):
        ref = (base_traj.u[m], base_traj.v[m])
        np.maximum(sup_d, np.sqrt(2.0 * dense_section_energy(u, v, ball, dx, ref)), out=sup_d)

    solve_batch(z0, 0.0, horizon, loc, **_SPHERE_FIELDS, control_rates=rates, keep_states=False, observer=observer)
    return sup_d


def _reference_noisy(eps, trials, seed, z0, cone, horizon, loc, threshold=math.inf):
    """Per trial: the sup cone distance, the frozen sup energy, the crossing flag and the cone norm per step."""
    dx = z0.spacing
    base_traj = solve_skeleton(z0, None, horizon, loc, **_SPHERE_FIELDS, keep_states=True)
    windows = [cone_window(cone, z0.origin, dx, z0.u.npoints, m) for m in range(round(horizon / dx) + 1)]
    sup_d = np.zeros(trials)
    local_sup = np.zeros(trials)
    local_hit = np.zeros(trials, dtype=bool)
    norms = []

    def observer(m, t, u, v):
        e_diff = dense_section_energy(u, v, windows[m], dx, (base_traj.u[m], base_traj.v[m]))
        e_self = dense_section_energy(u, v, windows[m], dx)
        np.maximum(sup_d, np.sqrt(2.0 * e_diff), out=sup_d)
        live = ~local_hit
        np.maximum(local_sup, np.where(live, e_diff, -np.inf), out=local_sup)
        np.logical_or(local_hit, np.sqrt(2.0 * e_self) >= threshold, out=local_hit)
        norms.append(np.sqrt(2.0 * e_self))

    solve_batch(z0, eps, horizon, loc, **_SPHERE_FIELDS, master_seed=seed, trial_ids=list(range(trials)),
                keep_states=False, observer=observer)
    return sup_d, local_sup, local_hit, np.stack(norms, axis=1)


def test_statement1_matches_its_reference_observer():
    z0, loc, cone = _sphere_problem(3)
    rep = statement1_probe([2, 4, 8], z0, cone, horizon=1.0, loc=loc, **_SPHERE_FIELDS, tol=1e-1)
    assert np.array_equal(rep.metrics, _reference_statement1([2, 4, 8], z0, cone, 1.0, loc))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), where=st.floats(1e-3, 1.0))
def test_statement2_freeze_matches_its_reference_observer(seed, where):
    # at eps = 1 the noisy paths' cone norms climb above their common start;
    # a threshold between the start and the peak is first crossed past step 0
    eps_list, trials, horizon = [1.0, 1e-1], 30, 1.0
    z0, loc, cone = _sphere_problem(seed)
    norms = _reference_noisy(eps_list[0], trials, seed, z0, cone, 0.5 * horizon, loc)[3]
    threshold = norms[0, 0] + where * (norms.max() - norms[0, 0])
    rep = statement2_probe(eps_list, trials, threshold, z0, cone, seed, horizon=horizon, loc=loc,
                           **_SPHERE_FIELDS, threads=2)
    want_tau = []
    for i, eps in enumerate(eps_list):
        _, sup_e, hit, _ = _reference_noisy(eps, trials, seed, z0, cone, 0.5 * horizon, loc, threshold)
        assert np.array_equal(rep.extra["per_trial"][eps], sup_e)
        assert rep.metrics[i] == float(sup_e.mean())
        want_tau.append(float(hit.mean()))
    assert np.array_equal(rep.extra["tau_fraction"], want_tau)
    assert want_tau[0] > 0.0  # the trial with the peak norm crosses, so the freeze acts
    assert rep.slope is None and not rep.passed  # two levels fit no slope


def test_abscissae_too_close_for_a_line_fit_no_slope():
    # distinct, but one unit roundoff apart: polyfit's matrix is numerically of rank 1
    y = np.array([1.0, 2.0, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _fit_slope(np.array([2.0, 2.0, np.nextafter(2.0, 3.0)]), y) is None
        assert _fit_slope(np.array([1.0, 2.0, 4.0]), np.array([3.0, 6.0, 12.0])) == pytest.approx(1.0)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), rank=st.integers(0, 28))
def test_tail_matches_its_reference_observer(seed, rank):
    eps_list, trials, horizon = [1e-2, 1e-1], 30, 0.5
    z0, loc, cone = _sphere_problem(seed)
    sups = [_reference_noisy(eps, trials, seed, z0, cone, horizon, loc)[0] for eps in eps_list]
    delta = float(np.sort(sups[-1])[rank])  # one trial's distance: a one-ulp change moves the count
    rep = tail_estimate(delta, eps_list, trials, z0, cone, seed, horizon=horizon, loc=loc,
                        **_SPHERE_FIELDS, threads=3)
    assert np.array_equal(rep.metrics, [float((sup > delta).sum()) / trials for sup in sups])


def test_gap_to_rate_reads_the_smallest_eps_whatever_the_list_order():
    eps_list, trials, horizon, seed = [1e-2, 1e-1], 30, 0.5, 5
    z0, loc, cone = _sphere_problem(seed)
    # just below the largest distance at the smaller eps: one exceedance there, more at the larger
    delta = float(np.sort(_reference_noisy(eps_list[0], trials, seed, z0, cone, horizon, loc)[0])[-2])
    reps = [tail_estimate(delta, order, trials, z0, cone, seed, horizon=horizon, loc=loc, **_SPHERE_FIELDS,
                          rate_value=0.5) for order in (eps_list, eps_list[::-1])]
    p_small, p_large = reps[0].metrics
    assert 0.0 < p_small < p_large
    assert reps[0].extra["gap_to_rate"] == reps[1].extra["gap_to_rate"] == eps_list[0] * math.log(p_small) + 0.5

"""Mild-form integrators for the localized geometric wave system.

The time step equals the grid spacing, so the free evolution is the exact
lattice wave group.  One step applies

    z_{m+1} = S_dt (z_m + (0, noise)) + dt * down(S_{dt/2} F(t_mid, S_{dt/2} up(z_m)))

where F bundles the curvature drift and the control forcing, evaluated at the
temporal midpoint on a twice-refined lattice (second-order quadrature), and
the noise term uses the left-point state (Ito consistency).  Setting the noise
amplitude to zero skips the noise block and reproduces the deterministic
skeleton bitwise.

States are carried as arrays of shape (npoints, batch, ncomp); a batch is a
family of trajectories evolved in lock-step (Monte Carlo trials, finite
difference probes).  Elementwise kernels and axis-0 reductions keep each
column bitwise independent of its neighbours, so batching is purely a
throughput device.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BlowupDetected,
    ConeExhausted,
    DimensionMismatch,
    NonLatticeTime,
    OffManifoldInitialData,
)
from .function_spaces import LightCone, State, derivative1, derivative2, extend_array, smoothstep, window_indices
from .geometry import DiffusionField, ManifoldModel
from .noise import NoiseBasis, sample_increment
from .rng import stream
from .wave_group import GroupStep, apply_arrays, transport_velocity

__all__ = [
    "LocalizationParams",
    "Control",
    "Trajectory",
    "taper_factor",
    "window_norm",
    "curvature_force",
    "localized_drift",
    "drift_force",
    "state_defect",
    "cone_section_weights",
    "section_energy",
    "q_transform",
    "q_transform_derivative",
    "solve_skeleton",
    "solve_stochastic",
    "solve_batch",
    "run_trials",
    "trial_chunks",
    "blowup_times",
    "mild_residual",
]


# ---------------------------------------------------------------------------
# parameter and result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalizationParams:
    """Cone base radius and energy-cutoff levels for the localized maps.

    `k` fixes the taper level; None lets the solver start at twice the initial
    window norm and double on each crossing, up to `k_max`.
    """

    radius: float
    k: int | None = None
    k_max: int = 1024


@dataclass(frozen=True)
class Control:
    """Piecewise-constant-in-time forcing rate in noise-basis coordinates."""

    coeffs: np.ndarray  # (rows, dim)
    dt: float

    def __post_init__(self):
        coeffs = np.atleast_2d(np.asarray(self.coeffs, dtype=float))
        object.__setattr__(self, "coeffs", coeffs)
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("control coefficients must be finite")
        if self.dt <= 0:
            raise ValueError("control step must be positive")

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def rows(self) -> int:
        return self.coeffs.shape[0]

    def rate_at(self, t: float) -> np.ndarray:
        idx = min(int(t / self.dt + 1e-9), self.rows - 1)
        return self.coeffs[max(idx, 0)]

    def squared_norm(self) -> float:
        """Squared L2-in-time norm of the rate, sum dt*|row|^2."""
        return float(self.dt * (self.coeffs ** 2).sum())

    @classmethod
    def zeros(cls, rows: int, dim: int, dt: float) -> "Control":
        return cls(np.zeros((rows, dim)), dt)


@dataclass
class Trajectory:
    """A solved path: states on lattice times plus the per-step bookkeeping.

    energy_trace carries per-step arrays: "taper_norm" (window norm driving
    the taper), "taper" and "k_level".  noise_increments holds the raw Wiener
    coefficient rows (not scaled by sqrt(eps)).  For batched runs the arrays
    keep their batch axis and states is None unless requested.
    """

    times: np.ndarray
    states: list | None
    energy_trace: dict
    noise_increments: np.ndarray | None
    control: Control | None
    metadata: dict = field(default_factory=dict)

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    def final_state(self) -> State:
        if not self.states:
            raise ValueError("trajectory was run without state storage")
        return self.states[-1]


# ---------------------------------------------------------------------------
# localized fields
# ---------------------------------------------------------------------------

def taper_factor(norm, k):
    """1 below the cutoff level, linear ramp to 0 on [k, 2k], 0 beyond."""
    return np.clip(2.0 - np.asarray(norm, dtype=float) / np.asarray(k, dtype=float), 0.0, 1.0)


def curvature_force(manifold: ManifoldModel, u: np.ndarray, v: np.ndarray, ux: np.ndarray) -> np.ndarray:
    """Pointwise curvature term A_u(v,v) - A_u(u_x,u_x) via the collar extension."""
    flat = (-1, u.shape[-1])  # a C-ordered result, whatever the inputs' memory order
    return manifold.sff_perp_difference(u.reshape(flat), v.reshape(flat), ux.reshape(flat)).reshape(u.shape)


def _trapezoid_weights(i_lo: int, i_hi: int, npoints: int, spacing: float) -> np.ndarray:
    w = np.zeros(npoints)
    w[i_lo:i_hi + 1] = spacing
    w[i_lo] = w[i_hi] = 0.5 * spacing
    return w


def cone_section_weights(cone: LightCone, origin: float, spacing: float, npoints: int, m: int) -> np.ndarray:
    """Trapezoid weights of the cone section B(center, T - t) at t = m * spacing."""
    a, b = cone.interval(m * spacing)
    i_lo, i_hi = window_indices(origin - cone.center, spacing, npoints, 0.5 * (b - a))
    return _trapezoid_weights(i_lo, i_hi, npoints, spacing)


def section_energy(u: np.ndarray, v: np.ndarray, weights: np.ndarray, spacing: float) -> np.ndarray:
    """Half the squared H^2 x H^1 norm of batched (u, v) under `weights`, per column."""
    du = derivative1(u, spacing)
    d2u = derivative2(u, spacing)
    dv = derivative1(v, spacing)
    total = np.zeros(u.shape[1])
    for arr in (u, du, d2u, v, dv):
        total += np.einsum("i,ibc->b", weights, arr * arr)
    return 0.5 * total


def _extended(values: np.ndarray, i_lo: int, i_hi: int, order: int = 1) -> np.ndarray:
    out = values.copy()
    extend_array(out, i_lo, i_hi, order)
    return out


def _window(u: np.ndarray, v: np.ndarray, origin: float, spacing: float, s: float):
    """The window (-s, s): its index pair, the norm of (u, v) on it, and the copies.

    The copies are order-2 reflections of (u, v) built from window values only,
    and the norm is their H^2 x H^1 norm over the window, one value per column.
    Derivative stencils at the window boundary must not read cells outside the
    window: those carry lattice-edge junk of size O(1/dx) in the second
    derivative.  Order-2 reflection keeps the one-sided derivatives accurate.
    """
    n = u.shape[0]
    i_lo, i_hi = window_indices(origin, spacing, n, s)
    ue = _extended(u, i_lo, i_hi, 2)
    ve = _extended(v, i_lo, i_hi, 2)
    energy = section_energy(ue, ve, _trapezoid_weights(i_lo, i_hi, n, spacing), spacing)
    return (i_lo, i_hi), np.sqrt(2.0 * energy), ue, ve  # 2 * (0.5 * x) == x: the bare weighted norm


def window_norm(z: State, s: float) -> float:
    """H^2 x H^1 norm of a state over (-s, s), one-sided at the boundary.

    This is the norm driving the taper; it matches the per-step values the
    integrator records in ``energy_trace["taper_norm"]``.
    """
    return float(_window(z.u.values[:, None, :], z.v.values[:, None, :], z.origin, z.spacing, s)[1][0])


def drift_force(
    manifold: ManifoldModel | None,
    u: np.ndarray,
    v: np.ndarray,
    spacing: float,
    theta,
    *,
    diffusion: DiffusionField | None = None,
    control_field: np.ndarray | None = None,
    window: tuple[int, int] | None = None,
) -> np.ndarray:
    """The localized drift F = theta * (A_u(v,v) - A_u(u_x,u_x) + Y(u) * control_field).

    u and v have shape (npoints, ..., ncomp) and theta (the taper) broadcasts
    against them.  control_field is the control rate in physical space, shaped
    like u without its component axis.  With a window (i_lo, i_hi) both terms
    are reflection-extended outside it; without one they are local.  No
    manifold means no curvature term.
    """
    if manifold is None:
        force = np.zeros_like(v)
    else:
        force = curvature_force(manifold, u, v, derivative1(u, spacing))
    if window is not None:
        force = _extended(force, *window)
    if control_field is not None:
        y = diffusion(u.reshape(-1, u.shape[-1])).reshape(u.shape)
        if window is not None:
            y = _extended(y, *window)
        force = force + y * control_field[..., None]
    force *= theta
    return force


def localized_drift(t: float, z: State, loc: LocalizationParams, manifold: ManifoldModel, k: int | None = None) -> State:
    """Tapered, window-extended curvature drift as a state increment (0, F)."""
    r = loc.radius
    if t >= r:
        raise ConeExhausted(f"time {t} has exhausted the localization radius {r}")
    u, v = z.u.values, z.v.values
    window, norm, ue, ve = _window(u[:, None, :], v[:, None, :], z.origin, z.spacing, r - t)
    norm = norm[0]
    k_eff = k if k is not None else (loc.k if loc.k is not None else max(1, math.ceil(2 * norm)))
    theta = float(taper_factor(norm, k_eff))
    force = drift_force(manifold, ue[:, 0, :], ve[:, 0, :], z.spacing, theta, window=window)
    return State(z.u.with_values(np.zeros_like(u)), z.v.with_values(force))


def _radial_cutoff(x: np.ndarray, r: float) -> np.ndarray:
    """C^2 plateau: 1 on [-r, r], 0 outside (-2r, 2r)."""
    return 1.0 - smoothstep((np.abs(x) - r) / r)


def q_transform(z: State, loc: LocalizationParams, manifold: ManifoldModel) -> State:
    """Collar reflection composed with the plateau cutoff: (phi*Y(u), phi*Y'(u)v)."""
    phi = _radial_cutoff(z.u.x, loc.radius)[:, None]
    u, v = z.u.values, z.v.values
    new_u = phi * manifold.involution(u)
    new_v = phi * manifold.involution_jacobian(u, v)
    return State(z.u.with_values(new_u), z.v.with_values(new_v))


def q_transform_derivative(
    z: State, w: State, loc: LocalizationParams, manifold: ManifoldModel
) -> State:
    """Directional derivative of q_transform at z in the direction w."""
    phi = _radial_cutoff(z.u.x, loc.radius)[:, None]
    u, v = z.u.values, z.v.values
    w1, w2 = w.u.values, w.v.values
    first = phi * manifold.involution_jacobian(u, w1)
    second = phi * (manifold.involution_hessian(u, v, w1) + manifold.involution_jacobian(u, w2))
    return State(z.u.with_values(first), z.v.with_values(second))


# ---------------------------------------------------------------------------
# the integrator core
# ---------------------------------------------------------------------------

def _mode_field(coeffs: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """(B, dim) coefficients times (dim, n) modes, accumulated mode by mode.

    BLAS matmul picks different kernels for different batch widths, which
    breaks bitwise column/single agreement; the explicit fixed-order sum does
    not (dim is small, so this costs nothing).
    """
    out = np.zeros((coeffs.shape[0], modes.shape[1]))
    for j in range(modes.shape[0]):
        out += coeffs[:, j, None] * modes[j]
    return out


def _upsample(a: np.ndarray) -> np.ndarray:
    out = np.empty((2 * a.shape[0] - 1,) + a.shape[1:])
    out[::2] = a
    out[1::2] = 0.5 * (a[:-1] + a[1:])
    return out


def state_defect(manifold: ManifoldModel, u: np.ndarray, v: np.ndarray) -> str | None:
    """Why (u, v) is not a finite on-manifold position with tangent velocity, else None."""
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        return "data contain non-finite samples"  # NaN fails no tolerance test below
    flat_u = u.reshape(-1, u.shape[-1])
    flat_v = v.reshape(-1, v.shape[-1])
    res = float(manifold.constraint_residual(flat_u).max())
    if res > 1e-8:
        return f"position is off-manifold (residual {res:.3e})"
    proj = manifold.tangent_project_at(manifold.nearest_point(flat_u), flat_v)
    defect = float(np.abs(flat_v - proj).max())
    if defect > 1e-8 * (1.0 + float(np.abs(flat_v).max())):
        return f"velocity is not tangent (defect {defect:.3e})"
    return None


def _integrate(
    u0: np.ndarray,
    v0: np.ndarray,
    *,
    origin: float,
    spacing: float,
    manifold: ManifoldModel,
    loc: LocalizationParams,
    horizon: float,
    basis: NoiseBasis | None = None,
    diffusion: DiffusionField | None = None,
    eps: float = 0.0,
    control_rates: np.ndarray | None = None,  # (steps, B, dim)
    master_seed: int = 0,
    trial_ids=None,
    renormalize: bool = True,
    keep_states: bool = True,
    observer=None,
):
    n, nbatch, ncomp = u0.shape
    dx = spacing
    r = loc.radius
    steps = GroupStep.from_time(horizon, dx).shift_count
    if steps <= 0:
        raise ValueError(f"horizon {horizon} must cover at least one step of {dx}")
    if horizon >= r:
        raise ConeExhausted(f"horizon {horizon} reaches the localization radius {r}")
    defect = state_defect(manifold, u0, v0)
    if defect is not None:
        raise OffManifoldInitialData(f"initial {defect}")
    if eps < 0:
        raise ValueError(f"noise level must be nonnegative, got {eps}")

    needs_noise = eps > 0.0
    if needs_noise and (basis is None or diffusion is None):
        raise ValueError("stochastic runs need a noise basis and a diffusion field")
    if control_rates is not None:
        if basis is None or diffusion is None:
            raise ValueError("a control needs the noise basis and diffusion field it acts through")
        if control_rates.shape[0] < steps:
            raise DimensionMismatch(
                f"control provides {control_rates.shape[0]} rows for {steps} steps"
            )
        if control_rates.shape[2] != basis.dim:
            raise DimensionMismatch(
                f"control rows have dimension {control_rates.shape[2]}, basis has {basis.dim}"
            )
    if needs_noise and trial_ids is None:
        trial_ids = list(range(nbatch))

    x = origin + dx * np.arange(n)
    dxf = 0.5 * dx
    xf = origin + dxf * np.arange(2 * n - 1)
    modes_coarse = basis.evaluate(x) if needs_noise else None
    modes_fine = basis.evaluate(xf) if control_rates is not None else None

    u = u0.astype(float, copy=True)
    v = v0.astype(float, copy=True)

    # taper levels per batch column
    if loc.k is not None:
        k = np.full(nbatch, int(loc.k))
    else:
        k = np.maximum(1, np.ceil(2.0 * _window(u, v, origin, dx, r)[1])).astype(int)
    k_init = k.copy()

    times = dx * np.arange(steps + 1)
    trace_norm = np.zeros((steps + 1, nbatch))
    trace_taper = np.zeros((steps + 1, nbatch))
    trace_k = np.zeros((steps + 1, nbatch), dtype=int)
    states = [] if keep_states else None
    noise_log = np.zeros((steps, nbatch, basis.dim)) if needs_noise else None

    for m in range(steps + 1):
        t = m * dx
        s = r - t
        window, norm_m = _window(u, v, origin, dx, s)[:2]  # holding the copies raises peak memory
        finite = np.isfinite(norm_m)
        if not finite.all():  # a NaN norm fails every level test below and would run on
            b = int(np.nonzero(~finite)[0][0])
            raise BlowupDetected(f"window norm of column {b} is {norm_m[b]} at t={t}")

        crossing = norm_m >= k
        while np.any(crossing):
            k = np.where(crossing, 2 * k, k)
            if np.any(k > loc.k_max):
                b = int(np.nonzero(k > loc.k_max)[0][0])
                raise BlowupDetected(
                    f"window norm {norm_m[b]:.3e} exhausted cutoff levels up to {loc.k_max} at t={t}"
                )
            crossing = norm_m >= k
        theta = taper_factor(norm_m, k)

        trace_norm[m] = norm_m
        trace_taper[m] = theta
        trace_k[m] = k
        if observer is not None:
            observer(m, t, u, v)
        if keep_states:
            states.append((u.copy(), v.copy()))
        if m == steps:
            break

        # noise increment, left-point evaluation
        if needs_noise:
            for b in range(nbatch):
                noise_log[m, b] = sample_increment(basis, dx, stream(master_seed, trial_ids[b], m))
            wfield = _mode_field(noise_log[m], modes_coarse)  # (B, n)
            y_ext = _extended(diffusion(u.reshape(-1, ncomp)).reshape(u.shape), *window)
            v_star = v + (math.sqrt(eps) * theta)[None, :, None] * y_ext * wfield.T[:, :, None]
        else:
            v_star = v

        # midpoint drift + control on the refined lattice
        uf, vf = apply_arrays(_upsample(u), _upsample(v), dxf, 1)
        window_f, norm_mid, ufe, vfe = _window(uf, vf, origin, dxf, s - dxf)
        theta_mid = taper_factor(norm_mid, k)
        cfield = None if control_rates is None else _mode_field(control_rates[m], modes_fine).T
        force = drift_force(manifold, ufe, vfe, dxf, theta_mid[None, :, None], diffusion=diffusion,
                            control_field=cfield, window=window_f)
        fu, fv = transport_velocity(force, dxf)

        u, v = apply_arrays(u, v_star, dx, 1)
        fu *= dx
        u += fu
        fv *= dx
        v += fv

        if renormalize:
            # trigger per batch column and project the triggered columns; the
            # projection is elementwise, so a column's evolution is bitwise
            # independent of its neighbours
            hit = manifold.constraint_residual(u).max(axis=0) > 1e-12
            if hit.all():
                u = manifold.nearest_point(u)
                v = manifold.tangent_project_at(u, v)
            elif hit.any():
                u[:, hit] = manifold.nearest_point(u[:, hit])
                v[:, hit] = manifold.tangent_project_at(u[:, hit], v[:, hit])

    energy_trace = {"taper_norm": trace_norm, "taper": trace_taper, "k_level": trace_k}
    return times, states, energy_trace, noise_log, k_init, k


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _as_batch(z0: State) -> tuple[np.ndarray, np.ndarray]:
    return z0.u.values[:, None, :], z0.v.values[:, None, :]


def _single_trajectory(z0: State, control, horizon: float, loc: LocalizationParams, metadata: dict,
                       **kwargs) -> Trajectory:
    """One trajectory, solved as a batch of width one; kwargs go to _integrate."""
    steps = GroupStep.from_time(horizon, z0.spacing).shift_count
    u0, v0 = _as_batch(z0)
    times, raw_states, trace, noise_log, k_init, k_final = _integrate(
        u0, v0, origin=z0.origin, spacing=z0.spacing, loc=loc, horizon=horizon,
        control_rates=_control_rates(control, steps, z0.spacing, 1), **kwargs,
    )
    states = None
    if raw_states is not None:
        states = [
            State(z0.u.with_values(us[:, 0, :]), z0.v.with_values(vs[:, 0, :]))
            for us, vs in raw_states
        ]
    energy_trace = {key: arr[:, 0] for key, arr in trace.items()}
    metadata = dict(metadata, dt=z0.spacing, radius=loc.radius, renormalize=kwargs["renormalize"],
                    k_init=int(k_init[0]), k_final=int(k_final[0]))
    increments = None if noise_log is None else noise_log[:, 0, :]
    return Trajectory(times, states, energy_trace, increments, control, metadata)


def _control_rates(control: Control | None, steps: int, spacing: float, nbatch: int):
    if control is None:
        return None
    if abs(control.dt - spacing) > 1e-12 * (1 + spacing):
        raise NonLatticeTime(
            f"control step {control.dt} must equal the solver step {spacing}"
        )
    rates = control.coeffs[:steps][:, None, :]
    return np.broadcast_to(rates, (rates.shape[0], nbatch, rates.shape[2]))


def solve_skeleton(
    z0: State,
    control: Control | None,
    horizon: float,
    loc: LocalizationParams,
    *,
    manifold: ManifoldModel,
    basis: NoiseBasis | None = None,
    diffusion: DiffusionField | None = None,
    renormalize: bool = True,
    keep_states: bool = True,
    observer=None,
) -> Trajectory:
    """Deterministic controlled trajectory (the zero-noise solution map)."""
    return _single_trajectory(
        z0, control, horizon, loc, {"eps": 0.0, "seed": None, "trial_id": None},
        manifold=manifold, basis=basis, diffusion=diffusion, eps=0.0,
        renormalize=renormalize, keep_states=keep_states, observer=observer,
    )


def solve_stochastic(
    z0: State,
    eps: float,
    control: Control | None,
    horizon: float,
    loc: LocalizationParams,
    *,
    manifold: ManifoldModel,
    basis: NoiseBasis,
    diffusion: DiffusionField,
    master_seed: int = 0,
    trial_id: int = 0,
    renormalize: bool = True,
    keep_states: bool = True,
    observer=None,
) -> Trajectory:
    """One noisy trajectory; eps = 0 reproduces solve_skeleton bitwise."""
    return _single_trajectory(
        z0, control, horizon, loc,
        {"eps": float(eps), "seed": int(master_seed), "trial_id": int(trial_id)},
        manifold=manifold, basis=basis, diffusion=diffusion, eps=eps,
        master_seed=master_seed, trial_ids=[trial_id], renormalize=renormalize,
        keep_states=keep_states, observer=observer,
    )


def solve_batch(
    z0: State,
    eps: float,
    horizon: float,
    loc: LocalizationParams,
    *,
    manifold: ManifoldModel,
    basis: NoiseBasis | None = None,
    diffusion: DiffusionField | None = None,
    control: Control | None = None,
    control_rates: np.ndarray | None = None,
    master_seed: int = 0,
    trial_ids=None,
    renormalize: bool = True,
    keep_states: bool = False,
    observer=None,
) -> Trajectory:
    """Evolve a family of trajectories in lock-step from shared initial data.

    The family may differ in noise streams (trial_ids) or in per-column
    control rates (control_rates of shape (steps, B, dim)); each column is
    bitwise identical to the corresponding single-trajectory solve.  Batched
    results keep the batch axis in the traces and noise log.
    """
    steps = GroupStep.from_time(horizon, z0.spacing).shift_count
    if control_rates is None:
        nbatch = len(trial_ids) if trial_ids is not None else 1
        rates = _control_rates(control, steps, z0.spacing, nbatch)
    else:
        if control is not None:
            raise ValueError("pass either a shared control or per-column rates, not both")
        control_rates = np.asarray(control_rates, dtype=float)
        if control_rates.ndim != 3:
            raise DimensionMismatch("per-column control rates must have shape (steps, B, dim)")
        nbatch = control_rates.shape[1]
        rates = control_rates
    u0, v0 = _as_batch(z0)
    u0 = np.broadcast_to(u0, (u0.shape[0], nbatch, u0.shape[2]))
    v0 = np.broadcast_to(v0, (v0.shape[0], nbatch, v0.shape[2]))
    times, states, trace, noise_log, k_init, k_final = _integrate(
        u0, v0,
        origin=z0.origin, spacing=z0.spacing, manifold=manifold, loc=loc,
        horizon=horizon, basis=basis, diffusion=diffusion, eps=eps,
        control_rates=rates, master_seed=master_seed, trial_ids=trial_ids,
        renormalize=renormalize, keep_states=keep_states, observer=observer,
    )
    meta = {"eps": float(eps), "seed": int(master_seed), "trial_ids": trial_ids,
            "dt": z0.spacing, "radius": loc.radius, "renormalize": renormalize,
            "k_init": k_init, "k_final": k_final, "nbatch": nbatch}
    return Trajectory(times, states, trace, noise_log, control, meta)


def run_trials(ids, fn, threads: int) -> tuple:
    """Run fn over contiguous chunks of trial ids, one thread per chunk, at most `threads`.

    fn(chunk) returns a tuple of arrays with one row per id of the chunk; the
    chunks' rows are concatenated in id order.  Batch columns are bitwise
    independent, so a solve_batch-based fn gives the serial result for any
    thread count.
    """
    ids = list(ids)
    chunks = trial_chunks(ids, threads)
    if len(chunks) <= 1:
        parts = [fn(ids)]
    else:
        import concurrent.futures  # imported here, so only threaded runs pay for it

        with concurrent.futures.ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(fn, chunks))
    return tuple(np.concatenate(rows) for rows in zip(*parts))


def trial_chunks(ids, threads: int) -> list:
    """The contiguous chunks run_trials splits ids into: at most `threads`, one worker each."""
    ids = list(ids)
    size = max(1, -(-len(ids) // threads))
    return [ids[i:i + size] for i in range(0, len(ids), size)]


# ---------------------------------------------------------------------------
# trajectory diagnostics
# ---------------------------------------------------------------------------

def blowup_times(traj: Trajectory, loc: LocalizationParams, thresholds=None) -> list:
    """First lattice time each cutoff level is crossed, horizon if never."""
    norms = np.asarray(traj.energy_trace["taper_norm"])
    if norms.ndim != 1:
        raise ValueError("blowup_times expects a single-trajectory record")
    horizon = float(traj.times[-1])
    if thresholds is None:
        k0 = int(traj.metadata.get("k_init", 1))
        thresholds = [k0 * 2 ** i for i in range(12) if k0 * 2 ** i <= loc.k_max]
    out = []
    for k in thresholds:
        hits = np.nonzero(norms >= k)[0]
        out.append((int(k), float(traj.times[hits[0]]) if len(hits) else horizon))
    return out


def mild_residual(
    traj: Trajectory,
    loc: LocalizationParams,
    *,
    manifold: ManifoldModel,
    basis: NoiseBasis | None = None,
    diffusion: DiffusionField | None = None,
) -> float:
    """Defect of the stored path in the integral (mild) form of the dynamics.

    Re-assembles S_T z0 + integral of transported drift/control (trapezoid in
    time) + transported realized noise kicks, and returns the H^2 x H^1 window
    norm of the difference from the stored final state.  First-order in the
    step by construction (the solver's midpoint quadrature is re-done here at
    the lattice times).
    """
    if not traj.states:
        raise ValueError("mild_residual needs stored states")
    z0 = traj.states[0]
    dx = z0.spacing
    n = z0.u.npoints
    steps = traj.steps
    eps = float(traj.metadata.get("eps", 0.0))
    r = loc.radius
    if eps > 0 and traj.noise_increments is None:
        raise ValueError("stochastic residual needs the noise increment log")

    modes = basis.evaluate(z0.u.x) if basis is not None else None
    acc_u = np.zeros_like(z0.u.values)
    acc_v = np.zeros_like(z0.v.values)
    uu, vv = z0.u.values, z0.v.values
    for m in range(steps + 1):
        t = m * dx
        um, vm = traj.states[m].u.values, traj.states[m].v.values
        window = window_indices(z0.origin, dx, n, r - t)
        theta = float(traj.energy_trace["taper"][m])
        cfield = None if traj.control is None else traj.control.rate_at(t) @ modes
        force = drift_force(manifold, _extended(um, *window, 2), _extended(vm, *window, 2), dx, theta,
                            diffusion=diffusion, control_field=cfield, window=window)
        kick = dx * (0.5 if m in (0, steps) else 1.0) * force  # trapezoid weights in time
        if m == steps:
            acc_v = acc_v + kick  # the final-time field is not transported
            break
        if eps > 0:
            yext = theta * _extended(diffusion(um), *window)
            wfield = traj.noise_increments[m] @ modes
            kick = kick + math.sqrt(eps) * yext * wfield[:, None]
        acc_u, acc_v = apply_arrays(acc_u, acc_v + kick, dx, 1)
        uu, vv = apply_arrays(uu, vv, dx, 1)

    zt = traj.states[steps]
    du = zt.u.values - (uu + acc_u)
    dv = zt.v.values - (vv + acc_v)
    return float(_window(du[:, None, :], dv[:, None, :], z0.origin, dx, r - steps * dx)[1][0])

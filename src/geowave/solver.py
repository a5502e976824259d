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

A run takes every work array from one Scratch, sized during its first step
(or kept from an earlier run of the same caller), and the kernels write into
them, so a later step allocates only its new state pair (or nothing: with
stored states each state is computed in its row of the path).
Every run returns its last pair as Trajectory.final, stored path or not, so
an observer is for values of every step.  The pair an observer receives is
read-only and never written after the call, so observers may keep it
without copying.

Every solve steps its batch as contiguous column blocks (_integrate): one
block steps in the calling process, and a split (or a lone column with an
observer) steps every block in a forked child process that runs its columns
as one whole run and hands each state back through shared memory, while
the calling process copies out the states and observes them.  Any split
gives the same bits, because the columns are independent.  This is the
package's one trial fan-out.
"""
from __future__ import annotations

import copy
import math
import mmap
import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BlowupDetected,
    ConeExhausted,
    DimensionMismatch,
    NonLatticeTime,
    OffManifoldInitialData,
)
from .function_spaces import (
    GridFunction,
    LightCone,
    Scratch,
    State,
    derivative1,
    derivative2,
    extend_array,
    section_rows,
    window_indices,
)
from .geometry import DiffusionField, ManifoldModel
from .noise import NoiseBasis, sample_increment
from .rng import stream
from .wave_group import apply_arrays, lattice_steps, transport_velocity

__all__ = [
    "LocalizationParams",
    "Control",
    "Trajectory",
    "taper_factor",
    "window_norm",
    "curvature_force",
    "drift_force",
    "state_defect",
    "cone_window",
    "section_energy",
    "solve_skeleton",
    "solve_stochastic",
    "solve_batch",
    "cone_energies",
    "trial_chunks",
    "mild_residual",
]


# ---------------------------------------------------------------------------
# parameter and result types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalizationParams:
    """Cone base radius and the top energy-cutoff level for the localized maps.

    The solver starts each column's taper level at twice its initial window
    norm (at least 1) and doubles it on each crossing, up to `k_max`.
    """

    radius: float
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
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"control step must be positive and finite, got {self.dt}")

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    @property
    def rows(self) -> int:
        return self.coeffs.shape[0]

    def row(self, m: int) -> np.ndarray:
        """The rate of step m, the last row past the end: rows are read by step, not by time."""
        return self.coeffs[min(m, self.rows - 1)]

    def squared_norm(self) -> float:
        """Squared L2-in-time norm of the rate, sum dt*|row|^2."""
        return float(self.dt * (self.coeffs ** 2).sum())

    @classmethod
    def zeros(cls, rows: int, dim: int, dt: float) -> "Control":
        return cls(np.zeros((rows, dim)), dt)


@dataclass
class Trajectory:
    """A solved path: states on lattice times plus the per-step bookkeeping.

    u and v stack the states by step, shape (steps + 1, npoints, ncomp) on
    the lattice (origin, spacing); batched runs keep the batch axis before the
    components.  Both are None without state storage.  final is the (u, v)
    pair of the last step, stored path or not: a view of the last stored
    rows, or else the run's last pair, read-only like every observed pair;
    a batch keeps its batch axis there too.  energy_trace carries
    per-step arrays: "taper_norm" (the coarse window norm) and "k_level" (its
    taper level, always above it); metadata's "k_init" and "k_final" are
    copies of the first and last "k_level" rows.  noise_increments holds the
    raw Wiener coefficient rows (not scaled by sqrt(eps)).  Batched traces
    and noise logs keep their batch axis.
    """

    times: np.ndarray
    u: np.ndarray | None
    v: np.ndarray | None
    final: tuple
    origin: float
    spacing: float
    energy_trace: dict
    noise_increments: np.ndarray | None
    control: Control | None
    metadata: dict = field(default_factory=dict)

    @property
    def steps(self) -> int:
        return len(self.times) - 1

    def state(self, m: int) -> State:
        """The state of step m, a view of the stored rows; a batched path has no single state."""
        if self.u is None:
            raise ValueError("trajectory was run without state storage")
        return self._state(self.u[m], self.v[m])

    def final_state(self) -> State:
        """The state of the last step, read from final, so it needs no stored path."""
        return self._state(*self.final)

    def _state(self, u: np.ndarray, v: np.ndarray) -> State:
        if u.ndim == 3:
            raise ValueError(f"trajectory is a batch of {u.shape[1]} paths: read column b of step m "
                             f"as traj.u[m][:, b] and traj.v[m][:, b]")
        return State(GridFunction(self.origin, self.spacing, u), GridFunction(self.origin, self.spacing, v))


# ---------------------------------------------------------------------------
# localized fields
# ---------------------------------------------------------------------------

def taper_factor(norm, k):
    """1 below the cutoff level, linear ramp to 0 on [k, 2k], 0 beyond."""
    return np.clip(2.0 - np.asarray(norm, dtype=float) / np.asarray(k, dtype=float), 0.0, 1.0)


def curvature_force(manifold: ManifoldModel, u: np.ndarray, v: np.ndarray, ux: np.ndarray,
                    out: np.ndarray | None = None, work: Scratch | None = None) -> np.ndarray:
    """Pointwise curvature term A_u(v,v) - A_u(u_x,u_x) via the collar extension.

    The result is C-ordered whatever the inputs' memory order; out, when
    given, must not share memory with u, v or ux.
    """
    return manifold.sff_perp_difference(u, v, ux, out=out, work=work)


def cone_window(cone: LightCone, origin: float, spacing: float, npoints: int, m: int) -> tuple[int, int]:
    """Row indices (i_lo, i_hi) of the cone section B(center, T - t) at t = m * spacing."""
    a, b = cone.interval(m * spacing)
    return window_indices(origin - cone.center, spacing, npoints, 0.5 * (b - a))


def section_fields(u: np.ndarray, v: np.ndarray, spacing: float, out: tuple | None = None) -> tuple:
    """(u, Du, D^2u, v, Dv): the fields whose squares make the H^2 x H^1 section norm.

    out = three arrays shaped like u receive Du, D^2u and Dv.
    """
    du, d2u, dv = (None, None, None) if out is None else out
    return u, derivative1(u, spacing, du), derivative2(u, spacing, d2u), v, derivative1(v, spacing, dv)


def _row_weights(nrows: int, lo: int, hi: int, spacing: float) -> np.ndarray:
    """Trapezoid weights of rows lo..hi among nrows rows, zero elsewhere."""
    weights = np.zeros(nrows)
    weights[lo:hi + 1] = spacing
    weights[lo] = weights[hi] = 0.5 * spacing
    return weights


def _weighted_sum(fields: tuple, weights: np.ndarray, sq: np.ndarray | None = None) -> np.ndarray:
    """Half the weighted sum over rows of the squared batched fields, per column.

    sq, shaped like a field, is scratch for the squares.
    """
    total = np.zeros(fields[0].shape[1])
    for arr in fields:
        total += np.einsum("i,ibc->b", weights, np.multiply(arr, arr, out=sq))
    return 0.5 * total


def section_energy(u: np.ndarray, v: np.ndarray, window: tuple[int, int], spacing: float,
                   minus: tuple | None = None) -> np.ndarray:
    """Half the squared H^2 x H^1 norm of batched (u, v) on the window's rows, per column.

    Only rows i_lo - 1 .. i_hi + 1 are read: the second derivative on the
    window's rows is then the whole lattice's, and the trapezoid sum over the
    whole lattice only adds zero terms to this one.  That is bitwise for two-
    and three-component targets (a hypothesis property checks it); with one
    component einsum takes a contiguous kernel whose grouping follows the
    slice.  minus = (u_ref, v_ref), each (npoints, ncomp), is subtracted on
    those rows.
    """
    i_lo, i_hi = window
    rows = section_rows(i_lo, i_hi, u.shape[0], 1)
    u, v = u[rows], v[rows]
    if minus is not None:
        u = u - minus[0][rows, None, :]
        v = v - minus[1][rows, None, :]
    weights = _row_weights(len(u), i_lo - rows.start, i_hi - rows.start, spacing)
    return _weighted_sum(section_fields(u, v, spacing), weights)


def _extended(values: np.ndarray, i_lo: int, i_hi: int, order: int = 1) -> np.ndarray:
    out = values.copy()
    extend_array(out, i_lo, i_hi, order)
    return out


def _section(ue: np.ndarray, ve: np.ndarray, window: tuple[int, int], rows: slice, spacing: float,
             work: Scratch) -> tuple:
    """Reflect section rows ue, ve (order 2) about the window in place: (fields, weights, sq).

    ue, ve hold the lattice rows `rows` of window = (i_lo, i_hi); Du, D^2u, Dv and sq are f0..f3 (_Run).
    """
    lo, hi = window[0] - rows.start, window[1] - rows.start
    extend_array(ue, lo, hi, 2)
    extend_array(ve, lo, hi, 2)
    fields = section_fields(ue, ve, spacing, tuple(work.get(key, ue.shape) for key in ("f0", "f1", "f2")))
    return fields, _row_weights(len(ue), lo, hi, spacing), work.get("f3", ue.shape)


def _midpoint_taper(fields: tuple, weights: np.ndarray, k: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """taper_factor(norm, k) of the fields' weighted norm, per column.

    The taper is exactly 1 below the level.  Any two sums of the same
    nonnegative terms differ relatively by at most about the term count
    times the unit roundoff, far below 1e-9, so where a quick sum, field by
    field, puts every column's norm below (1 - 1e-9) * k, the exact
    grouping of _weighted_sum is not needed.  The quick sum is an einsum,
    not a matmul: the step makes no BLAS call, so its CPU use does not
    depend on how many threads BLAS may start.
    """
    nbatch = fields[0].shape[1]
    fast = np.zeros(fields[0][0].size)
    for arr in fields:
        fast += np.einsum("i,ij->j", weights, np.multiply(arr, arr, out=sq).reshape(len(weights), -1))
    if np.all(np.sqrt(fast.reshape(nbatch, -1).sum(axis=1)) < (1.0 - 1e-9) * k):
        return np.ones(nbatch)
    return taper_factor(np.sqrt(2.0 * _weighted_sum(fields, weights, sq)), k)


def _window(u: np.ndarray, v: np.ndarray, origin: float, spacing: float, s: float,
            work: Scratch | None = None):
    """The window (-s, s): its index pair and the norm of (u, v) on it.

    The norm is the H^2 x H^1 norm over the window of the order-2
    reflections of (u, v) built from window values only, one value per
    column.  Derivative stencils at the window boundary must not read cells
    outside the window: those carry lattice-edge junk of size O(1/dx) in
    the second derivative.  Order-2 reflection keeps the one-sided
    derivatives accurate.  Only the section rows section_rows(i_lo, i_hi,
    npoints, 1) are copied, into the work arrays f4, f5, and reflected.
    """
    work = Scratch() if work is None else work
    window = window_indices(origin, spacing, u.shape[0], s)
    rows = section_rows(*window, u.shape[0], 1)
    shape = (rows.stop - rows.start,) + u.shape[1:]
    ue, ve = work.get("f4", shape), work.get("f5", shape)
    np.copyto(ue, u[rows])
    np.copyto(ve, v[rows])
    energy = _weighted_sum(*_section(ue, ve, window, rows, spacing, work))
    return window, np.sqrt(2.0 * energy)  # 2 * (0.5 * x) == x: the bare weighted norm


def window_norm(z: State, s: float) -> float:
    """H^2 x H^1 norm of a state over (-s, s), one-sided at the boundary.

    This is the norm driving the taper levels; it matches the per-step values
    the integrator records in ``energy_trace["taper_norm"]``.
    """
    return float(_window(z.u.values[:, None, :], z.v.values[:, None, :], z.origin, z.spacing, s)[1][0])


def drift_force(
    manifold: ManifoldModel,
    u: np.ndarray,
    v: np.ndarray,
    spacing: float,
    *,
    diffusion: DiffusionField | None = None,
    control_field: np.ndarray | None = None,
    window: tuple[int, int] | None = None,
) -> np.ndarray:
    """The drift F = A_u(v,v) - A_u(u_x,u_x) + Y(u) * control_field at a lattice time.

    At a lattice time the taper is 1: the head lifts each level above the
    window norm (energy_trace).  u and v have shape (npoints, ..., ncomp).
    control_field is the control rate in physical space, shaped like u
    without its component axis.  With a window (i_lo, i_hi) both terms are
    reflection-extended outside it, so only the window's rows are read;
    without one they are local.
    """
    out = np.empty(u.shape)
    if window is None:
        return _core_drift(manifold, u, v, derivative1(u, spacing), 1.0, None, out,
                           diffusion=diffusion, control_field=control_field)
    i_lo, i_hi = window
    rows = section_rows(i_lo, i_hi, u.shape[0], 1)
    ux = derivative1(u[rows], spacing)[i_lo - rows.start:i_hi + 1 - rows.start]
    return _core_drift(manifold, u[i_lo:i_hi + 1], v[i_lo:i_hi + 1], ux, 1.0, window, out,
                       diffusion=diffusion, control_field=control_field)


def _core_drift(manifold: ManifoldModel, u: np.ndarray, v: np.ndarray, ux: np.ndarray, theta,
                window: tuple[int, int] | None, out: np.ndarray, *, diffusion: DiffusionField | None = None,
                control_field: np.ndarray | None = None, work: Scratch | None = None) -> np.ndarray:
    """theta * drift_force written into out, the whole lattice, from u, v and u_x on the window's rows.

    theta, the midpoint taper, is a scalar or one value per batch column.
    Both reflection extensions overwrite every row outside the window, so
    the window's rows are all the drift reads.  Without a window u, v and ux
    cover the lattice.
    """
    work = Scratch() if work is None else work
    core = out if window is None else out[window[0]:window[1] + 1]
    curvature_force(manifold, u, v, ux, out=core, work=work)
    if window is not None:
        extend_array(out, *window, 1)
    columns = [out[..., c] for c in range(out.shape[-1])]
    if control_field is not None:
        y = work.get("drift.y", out.shape)
        diffusion(u, out=y if window is None else y[window[0]:window[1] + 1], work=work)
        if window is not None:
            extend_array(y, *window, 1)
        tmp = work.get("drift.tmp", out.shape[:-1])
        for c, col in enumerate(columns):
            col += np.multiply(y[..., c], control_field, out=tmp)
    for col in columns:
        col *= theta
    return out


# ---------------------------------------------------------------------------
# the integrator core
# ---------------------------------------------------------------------------

def _mode_field(coeffs: np.ndarray, modes: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """(B, dim) coefficients times (dim, n) modes, accumulated mode by mode into out (B, n).

    BLAS matmul picks different kernels for different batch widths, which
    breaks bitwise column/single agreement; the explicit fixed-order sum does
    not (dim is small, so this costs nothing).  tmp, shaped like out, is scratch.
    """
    out.fill(0.0)
    for j in range(modes.shape[0]):
        out += np.multiply(coeffs[:, j, None], modes[j], out=tmp)
    return out


def _upsample(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    out[::2] = a
    mid = np.add(a[:-1], a[1:], out=out[1::2])
    mid *= 0.5
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


def _blowup(bad: np.ndarray, message) -> None:
    """Raise BlowupDetected(message(b)) for the first batch column b where bad holds."""
    if np.any(bad):
        raise BlowupDetected(message(int(np.nonzero(bad)[0][0])))


class _Run:
    """One integrator run from the states (u0, v0) of step 0, one method per step phase.

    Six refined-lattice work arrays carry a step in turns, a coarse-lattice
    array being the leading elements of one.  The plan:

        phase    f0      f1      f2      f3       f4        f5
        head     Du      D^2u    Dv      squares  u rows    v rows     coarse section (_section)
        kick     Y(u)                                                  kicked v: its own array
        drift    up(u)   up(v)   group-step work  stepped u stepped v  refined lattice
                 Du      D^2u    Dv      squares  u rows    v rows     refined section (_section)
                 fu      force   fv      transport work
        advance                          group-step work
    """

    def __init__(
        self,
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
        work: Scratch | None = None,
    ):
        n, nbatch = u0.shape[:2]
        steps = lattice_steps(horizon, spacing)
        if steps <= 0:
            raise ValueError(f"horizon {horizon} must cover at least one step of {spacing}")
        if horizon >= loc.radius:
            raise ConeExhausted(f"horizon {horizon} reaches the localization radius {loc.radius}")
        if (defect := state_defect(manifold, u0, v0)) is not None:
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

        self.origin, self.dx, self.manifold, self.loc = origin, spacing, manifold, loc
        self.basis, self.diffusion, self.eps, self.control_rates = basis, diffusion, eps, control_rates
        self.master_seed, self.trial_ids = master_seed, range(nbatch) if trial_ids is None else trial_ids
        self.renormalize, self.steps = renormalize, steps
        self.modes_coarse = basis.evaluate(origin + spacing * np.arange(n)) if needs_noise else None
        if control_rates is not None:
            self.modes_fine = basis.evaluate(origin + 0.5 * spacing * np.arange(2 * n - 1))

        # C order, as in a width-1 run, since section energies add in memory order;
        # a C-ordered input is not copied, so step 0 is a view, which _integrate makes read-only
        self.u = np.ascontiguousarray(u0, dtype=float).view()
        self.v = np.ascontiguousarray(v0, dtype=float).view()
        self.work = Scratch() if work is None else work  # a caller's, kept between its runs
        self.control_row = None  # the control rows the work array "control.field" holds
        self.offset = 0  # the first column's place in the batch (see block)

        self.times = spacing * np.arange(steps + 1)
        rows = (len(self.times), nbatch)
        self.trace = {"taper_norm": np.zeros(rows), "k_level": np.zeros(rows, dtype=int)}
        self.path_u = self.path_v = None
        if keep_states:  # each later state is computed in its own row
            self.path_u, self.path_v = np.empty((rows[0],) + self.u.shape), np.empty((rows[0],) + self.v.shape)
            self.path_u[0], self.path_v[0] = self.u, self.v
        self.noise_log = np.zeros((steps, nbatch, basis.dim)) if needs_noise else None

    def block(self, cols: slice, m: int, ring: list) -> "_Run":
        """Columns cols of this run at step m as a run of their own, with a fresh Scratch (a forked block's).

        Its state is a C-ordered copy of its columns, so its kernels walk
        contiguous rows (on strided column views of the wider array, a
        two-block run at mc_batch's size stepped 10-40% slower); the ring (a
        forked block's shared memory) holds its state of step m in pair
        m % len(ring).  Its rows of the traces and noise log are column views
        of this run's, so it writes those results, its taper levels among
        them, in place.  It takes its trial ids and control rates from this
        run's and names columns by their place in this run.
        """
        part = copy.copy(self)
        part.offset, part.work, part.control_row = cols.start, Scratch(), None
        part.u, part.v = ring[m % len(ring)]
        np.copyto(part.u, self.u[:, cols])
        np.copyto(part.v, self.v[:, cols])
        part.trial_ids = self.trial_ids[cols]
        if self.control_rates is not None:
            part.control_rates = self.control_rates[:, cols]
        part.trace = {key: arr[:, cols] for key, arr in self.trace.items()}
        if self.noise_log is not None:
            part.noise_log = self.noise_log[:, cols]
        return part

    def widen(self, count: int) -> None:
        """Add count columns copying column 0's state and trace rows so far, levels included (solve_batch's _joins)."""
        def grow(arr, axis):
            return np.concatenate([arr, np.repeat(arr.take([0], axis), count, axis)], axis)

        self.u, self.v = grow(self.u, 1), grow(self.v, 1)
        self.trace = {key: grow(arr, 1) for key, arr in self.trace.items()}

    def head(self, m: int) -> None:
        """Step m's coarse window norm and taper levels, written in row m of the traces.

        Row m of the levels starts as row m - 1 (step 0's as twice the norm,
        rounded up) and doubles in place where the norm reaches it, so each
        level ends above its column's norm, where the taper is exactly 1.
        """
        t = m * self.dx
        norm = _window(self.u, self.v, self.origin, self.dx, self.loc.radius - t, self.work)[1]
        # a NaN norm fails every level test below and would run on
        col = self.offset  # messages number the columns in the whole batch (see block)
        _blowup(~np.isfinite(norm), lambda b: f"window norm of column {col + b} is {norm[b]} at t={t}")
        top, row = self.loc.k_max, self.trace["k_level"][m]
        if m == 0:
            k = np.maximum(1.0, np.ceil(2.0 * norm))  # checked as a float, since past int64 its cast wraps
            _blowup(k > top, lambda b: f"starting taper level {k[b]:.0f} of column {col + b} exceeds the top level {top}")
            row[:] = k
        else:
            row[:] = self.trace["k_level"][m - 1]

        while np.any(crossing := norm >= row):
            np.multiply(row, 2, out=row, where=crossing)
            _blowup(row > top, lambda b: f"window norm {norm[b]:.3e} exhausted cutoff levels up to {top} at t={t}")

        self.trace["taper_norm"][m] = norm

    def kick(self, m: int) -> np.ndarray:
        """The velocity after step m's noise kick, evaluated at the left point (v itself without noise).

        The kick is extended outside the window of step m's head, (-s, s) for s = radius - m * dx.
        """
        if self.noise_log is None:
            return self.v
        u, work = self.u, self.work
        n, nbatch, ncomp = u.shape
        increments = self.noise_log[m]
        for b in range(nbatch):
            increments[b] = sample_increment(self.basis, self.dx, stream(self.master_seed, self.trial_ids[b], m))
        wfield = _mode_field(increments, self.modes_coarse, work.get("noise.field", (nbatch, n)),
                             work.get("noise.tmp", (nbatch, n))).T
        i_lo, i_hi = window_indices(self.origin, self.dx, n, self.loc.radius - m * self.dx)
        y = work.get("f0", u.shape)
        self.diffusion(u[i_lo:i_hi + 1], out=y[i_lo:i_hi + 1], work=work)
        extend_array(y, i_lo, i_hi, 1)
        scale = math.sqrt(self.eps)
        kick = work.get("noise.kick", (n, nbatch))
        v_star = work.get("v_star", u.shape)
        for c in range(ncomp):  # v + scale * y * wfield, one component column at a time
            part = np.multiply(scale, y[..., c], out=kick)
            part *= wfield
            np.add(self.v[..., c], part, out=v_star[..., c])
        return v_star

    def drift(self, m: int) -> tuple:
        """Step m's midpoint drift and control on the refined lattice, transported: (fu, fv), not yet times dt."""
        u, work, fine = self.u, self.work, (2 * self.u.shape[0] - 1,) + self.u.shape[1:]
        dxf = 0.5 * self.dx
        uf, vf = apply_arrays(_upsample(u, work.get("f0", fine)), _upsample(self.v, work.get("f1", fine)), dxf, 1,
                              out=(work.get("f4", fine), work.get("f5", fine)),
                              work=(work.get("f2", fine), work.get("f3", fine)))
        window = window_indices(self.origin, dxf, fine[0], self.loc.radius - m * self.dx - dxf)
        rows = section_rows(*window, fine[0], 1)
        fields, weights, sq = _section(uf[rows], vf[rows], window, rows, dxf, work)
        theta_mid = _midpoint_taper(fields, weights, self.trace["k_level"][m], sq)
        # the drift reads u, v and Du on the window's rows
        ue, ux, _, ve, _ = fields
        core = slice(window[0] - rows.start, window[1] + 1 - rows.start)
        force = _core_drift(self.manifold, ue[core], ve[core], ux[core], theta_mid, window, work.get("f1", fine),
                            diffusion=self.diffusion, control_field=self.control_field(m), work=work)
        return transport_velocity(force, dxf, out=(work.get("f0", u.shape), work.get("f2", u.shape)),
                                  tmp=work.get("f3", (u.shape[0] - 1,) + u.shape[1:]))

    def control_field(self, m: int) -> np.ndarray | None:
        """Step m's control rates of the columns run so far on the refined lattice, (fine points, B), or None.

        The field is rebuilt only when the rows' values change: rows that
        compare equal give the same field bitwise, since a zero of either
        sign adds nothing to _mode_field's sums.
        """
        if self.control_rates is None:
            return None
        shape = (self.u.shape[1], 2 * self.u.shape[0] - 1)
        field = self.work.get("control.field", shape)
        row = self.control_rates[m, :shape[0]]
        if self.control_row is None or not np.array_equal(row, self.control_row):
            _mode_field(row, self.modes_fine, field, self.work.get("control.tmp", shape))
            self.control_row = row
        return field.T

    def pair(self, m: int) -> tuple:
        """The arrays the state of step m is computed in: its rows of the stored path, or two new ones."""
        if self.path_u is None:
            return np.empty(self.u.shape), np.empty(self.u.shape)
        return self.path_u[m], self.path_v[m]

    def advance(self, m: int, v_star: np.ndarray, fu: np.ndarray, fv: np.ndarray, out: tuple) -> None:
        """The state of step m + 1 in the pair out: the coarse group step of (u, v_star) plus dt * (fu, fv), renormalized."""
        work, shape = self.work, self.u.shape
        u, v = apply_arrays(self.u, v_star, self.dx, 1, out=out, work=(work.get("f3", shape), work.get("f4", shape)))
        fu *= self.dx
        u += fu
        fv *= self.dx
        v += fv
        self.u, self.v = u, v
        if self.renormalize:
            # trigger per batch column and project the triggered columns; the
            # projection is elementwise, so a column's evolution is bitwise
            # independent of its neighbours
            residual = self.manifold.constraint_residual(u, out=work.get("renormalize", shape[:2]), work=work)
            hit = residual.max(axis=0) > 1e-12
            for b in [slice(None)] if hit.all() else np.flatnonzero(hit):
                self.manifold.nearest_point(u[:, b], out=u[:, b], work=work)
                self.manifold.tangent_project_at(u[:, b], v[:, b], out=v[:, b], work=work)


def _step(part: _Run, m: int, out: tuple) -> None:
    """Step m of one block: its state of step m + 1 in the pair out, then that step's head."""
    part.advance(m, part.kick(m), *part.drift(m), out)
    part.head(m + 1)


# The bytes a forked block's ring may take before it is cut to two slots: a
# narrow block gets up to 8 slots, so its child can run that many steps ahead
# of a slow observer (a skeleton solve's CSV snapshot comes every 8th step).
_RING_BYTES = 3 << 19  # 1.5 MiB


def _ring_slots(block: tuple) -> int:
    """The slots of a forked block's ring for states of shape block = (npoints, columns, ncomp)."""
    return max(2, min(8, _RING_BYTES // (2 * 8 * math.prod(block))))


class _Fork:
    """A column block stepped in a forked process from step start to step end (see _integrate).

    The child computes the state of step m in slot m % slots of a ring of
    _ring_slots slots in anonymous shared memory and writes one status byte
    per step, after that step's head, on a pipe: 0 when the step went well,
    1 followed by its pickled exception when it did not.  Before it
    overwrites a slot it reads the parent's acknowledgement that the slot's
    state was copied, so it runs at most slots steps past the last state
    the parent copied; the state of step start is the parent's already and
    needs none.  After the status of step end it sends its rows of the
    traces and the noise log and exits.
    """

    def __init__(self, run: _Run, cols: slice, start: int, end: int, others: list):
        self.cols, self.start, self.end = cols, start, end
        block = (run.u.shape[0], cols.stop - cols.start, run.u.shape[2])
        shape = (_ring_slots(block), 2) + block  # slot, u or v, block shape
        self.ring = np.frombuffer(mmap.mmap(-1, math.prod(shape) * 8), dtype=float).reshape(shape)
        fds = os.pipe()
        try:
            fds += os.pipe()
            self.pid = os.fork()
        except BaseException:  # no child: close the pipes, which nothing else will
            for fd in fds:
                os.close(fd)
            raise
        status_r, status_w, ack_r, ack_w = fds
        if self.pid == 0:
            try:  # the child: never the observer, never a flush of an inherited buffer
                for fd in [status_r, ack_w] + [fd for other in others for fd in (other.status.fileno(), other.ack)]:
                    os.close(fd)
                self._child(run, open(status_w, "wb"), ack_r)
            finally:
                os._exit(0)
        os.close(status_w)
        os.close(ack_r)
        self.status, self.ack = open(status_r, "rb"), ack_w

    def _child(self, run: _Run, status, ack: int) -> None:
        try:
            ring = [tuple(slot) for slot in self.ring]
            part = run.block(self.cols, self.start, ring)
            if self.start == 0:
                part.head(0)
                status.write(b"\0")
                status.flush()
            for m in range(self.start, self.end):
                if m >= self.start + len(ring) and not os.read(ack, 1):  # the state of step m + 1 - slots is copied
                    return  # the parent is gone
                _step(part, m, ring[(m + 1) % len(ring)])
                status.write(b"\0")
                status.flush()
            pickle.dump(({key: arr[self.start:self.end + 1] for key, arr in part.trace.items()},
                         None if part.noise_log is None else part.noise_log[self.start:self.end]), status)
        except Exception as exc:
            try:
                message = pickle.dumps(exc)
            except Exception:  # an exception that does not pickle goes as its class name and message
                message = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
            status.write(b"\1" + message)
        status.flush()

    def report(self, run: _Run, m: int, new: tuple | None = None) -> Exception | None:
        """The block's outcome of step m: None after copying its state into its columns of new, or its error.

        After step end its rows of the traces and the noise log go into
        run's, and the child is reaped.
        """
        if self.status.read(1) != b"\0":
            try:
                return pickle.load(self.status)
            except (EOFError, pickle.UnpicklingError):
                return RuntimeError(f"the column block {self.cols.start}..{self.cols.stop - 1} "
                                    f"ended without reporting step {m}")
        if new is not None:
            slot = self.ring[m % len(self.ring)]
            np.copyto(new[0][:, self.cols], slot[0])
            np.copyto(new[1][:, self.cols], slot[1])
            if m <= self.end - len(self.ring):  # the child overwrites this slot with the state of step m + slots
                os.write(self.ack, b"\0")
        if m == self.end:
            trace, noise = pickle.load(self.status)
            for key, arr in trace.items():
                run.trace[key][self.start:self.end + 1, self.cols] = arr
            if noise is not None:
                run.noise_log[self.start:self.end, self.cols] = noise
            self.reap()
        return None

    def reap(self, kill: bool = False) -> None:
        if self.pid is None:
            return
        if kill:
            os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.status.close()
        os.close(self.ack)
        self.pid = None


def _integrate(u0: np.ndarray, v0: np.ndarray, threads: int | None, joins: dict, observer=None, **kwargs) -> _Run:
    """Steps 0..horizon/spacing from (u0, v0) in the column blocks of _column_blocks; kwargs go to _Run.

    The run takes one of two layouts at step 0 and at each join.  One block
    (and no lone observed column) is the run itself, stepped in the calling
    process: each state is computed in the run's next pair (the stored
    path's row, or a new one), and nothing is copied or forked.  Otherwise,
    when the split gives several blocks, or the run is one column (a final
    width of 1, so no joins) with an observer, every block is a forked child
    process (_Fork) that steps its _Run.block as one whole run to the
    horizon or to the next join, and the calling process steps nothing: after
    each step it copies every child's state from its shared ring into the
    child's columns of the run's next pair, and a child steps on while the
    observer of an earlier step runs, up to its ring's slot count past that
    step.  A wider run that is one block stays in the calling process, where
    a traced run sees its steps.  At a join step m the children end after
    their heads of step m, send their rows of the traces and the noise log
    and are reaped; the run widens by joins[m] columns (_Run.widen) and
    takes its layout afresh, so a run may start in the calling process and
    fork at a join, and no head is computed twice.  The observer runs in the
    calling process between steps with the run's pair of step m, made
    read-only: no block reads it back.  The returned run's pair is that of
    the last step (Trajectory.final).  A block's error is raised once every
    block has finished that step; when several blocks fail in one step, the
    lowest block's error wins.  Every child is reaped before the call
    returns or raises, killed first if it has not ended.  Without os.fork
    every run is one block.
    """
    run = _Run(u0, v0, **kwargs)
    if not hasattr(os, "fork"):
        threads = 1
    width = u0.shape[1] + sum(joins.values())
    run.nblocks = len(_column_blocks(threads, u0.shape[0], width))
    lone = width == 1 and observer is not None and hasattr(os, "fork")
    forks = []

    def gather(m, new=None):
        """Every child's outcome of step m, in block order: the lowest block's error is raised."""
        errors = [err for child in forks if (err := child.report(run, m, new)) is not None]
        if errors:
            raise errors[0]

    try:
        for m in range(run.steps + 1):
            if m in joins:
                run.widen(joins[m])
            if m == 0 or m in joins:
                blocks = _column_blocks(threads, *run.u.shape[:2])
                end = min((j for j in joins if j > m), default=run.steps)
                forks = []
                if len(blocks) > 1 or lone:
                    for cols in blocks:
                        forks.append(_Fork(run, cols, m, end, forks))
                    if m == 0:
                        gather(0)
                elif m == 0:
                    run.head(0)
            run.u.flags.writeable = run.v.flags.writeable = False
            if observer is not None:
                observer(m, m * run.dx, run.u, run.v)
            if m < run.steps:
                new = run.pair(m + 1)
                if forks:
                    gather(m + 1, new)
                else:
                    _step(run, m, new)
                run.u, run.v = new
    finally:
        for child in forks:
            child.reap(kill=True)
    return run


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _as_batch(z0: State) -> tuple[np.ndarray, np.ndarray]:
    return z0.u.values[:, None, :], z0.v.values[:, None, :]


def _single_trajectory(z0: State, control, horizon: float, loc: LocalizationParams, metadata: dict,
                       **kwargs) -> Trajectory:
    """One trajectory, solved as a batch of width one in one block; kwargs go to _integrate."""
    u0, v0 = _as_batch(z0)
    run = _integrate(
        u0, v0, 1, {}, origin=z0.origin, spacing=z0.spacing, loc=loc, horizon=horizon,
        control_rates=_control_rates(control, z0.spacing), **kwargs,
    )
    u, v = (None, None) if run.path_u is None else (run.path_u[:, :, 0], run.path_v[:, :, 0])
    energy_trace = {key: arr[:, 0] for key, arr in run.trace.items()}
    metadata = dict(metadata, radius=loc.radius, renormalize=kwargs["renormalize"],
                    k_init=int(energy_trace["k_level"][0]), k_final=int(energy_trace["k_level"][-1]))
    increments = None if run.noise_log is None else run.noise_log[:, 0, :]
    return Trajectory(run.times, u, v, (run.u[:, 0], run.v[:, 0]), z0.origin, z0.spacing, energy_trace,
                      increments, control, metadata)


def _control_rates(control: Control | None, spacing: float):
    """The control's rows as rates of shape (rows, 1, dim); a run reads those of its steps."""
    if control is None:
        return None
    if abs(control.dt - spacing) > 1e-12 * (1 + spacing):
        raise NonLatticeTime(
            f"control step {control.dt} must equal the solver step {spacing}"
        )
    return control.coeffs[:, None, :]


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
    control_rates: np.ndarray | None = None,
    master_seed: int = 0,
    trial_ids=None,
    renormalize: bool = True,
    keep_states: bool = False,
    observer=None,
    threads: int | None = None,
    _joins: dict | None = None,
    _work: Scratch | None = None,
) -> Trajectory:
    """Evolve a family of trajectories in lock-step from shared initial data.

    The family may differ in noise streams (trial_ids) or in per-column
    control rates (control_rates of shape (steps, B, dim)); each column is
    bitwise identical to the corresponding single-trajectory solve.  Batched
    results keep the batch axis in final, the traces and the noise log.

    The B columns are stepped as the contiguous blocks trial_chunks(range(B),
    threads): one block in the calling process, several (or a lone column
    with an observer) each in a forked child process, see _integrate (one
    block without os.fork); every split gives the same bits.  threads=None takes the CPUs available to the process,
    lowered until every block holds at least _MIN_BLOCK_CELLS lattice points
    times columns (below that, blocks cost more than they save);
    metadata["threads"] is the number of blocks.  The observer runs in the
    calling process with the whole batch's pair of each step, read-only.

    _joins = {step: count}, private to the package, is for zero-noise runs
    without stored states (the noise log and a kept path have the start
    width): the run starts with B - sum(count) columns, and after the head
    of each step (1..steps) it adds that step's count columns as copies of
    column 0's state and trace rows, taper levels included.  A joined column
    whose control rows equal column 0's before its step is, from there on,
    bitwise that column of the full-width run; the observer sees each step's
    width, and metadata["threads"] counts the blocks of the final width.
    _work, also private, is a Scratch that a run stepped in the calling
    process takes its work arrays from: a caller making many solves in turn
    keeps them from run to run instead of faulting in fresh pages for each
    (a forked block faults in its own).
    """
    if control_rates is None:
        nbatch = len(trial_ids) if trial_ids is not None else 1
    else:
        control_rates = np.asarray(control_rates, dtype=float)
        if control_rates.ndim != 3:
            raise DimensionMismatch("per-column control rates must have shape (steps, B, dim)")
        nbatch = control_rates.shape[1]
        if trial_ids is not None and len(trial_ids) != nbatch:
            raise DimensionMismatch(
                f"{len(trial_ids)} trial ids for {nbatch} columns of control rates"
            )
    if nbatch < 1:
        raise ValueError(f"{'trial_ids' if control_rates is None else 'control_rates'} gives no batch columns")
    joins = _joins or {}
    u0, v0 = _as_batch(z0)
    u0 = np.broadcast_to(u0, (u0.shape[0], nbatch - sum(joins.values()), u0.shape[2]))
    v0 = np.broadcast_to(v0, u0.shape)
    kwargs = dict(origin=z0.origin, spacing=z0.spacing, manifold=manifold, loc=loc,
                  horizon=horizon, basis=basis, diffusion=diffusion, eps=eps,
                  control_rates=control_rates, master_seed=master_seed, trial_ids=trial_ids,
                  renormalize=renormalize, keep_states=keep_states, work=_work)
    run = _integrate(u0, v0, threads, joins, observer, **kwargs)
    meta = {"eps": float(eps), "seed": int(master_seed), "trial_ids": trial_ids,
            "radius": loc.radius, "renormalize": renormalize,
            "k_init": run.trace["k_level"][0].copy(), "k_final": run.trace["k_level"][-1].copy(),
            "nbatch": nbatch, "threads": run.nblocks}
    return Trajectory(run.times, run.path_u, run.path_v, (run.u, run.v), z0.origin, z0.spacing, run.trace,
                      run.noise_log, None, meta)


# The fewest lattice points x columns per block at which threads=None splits a
# batch: above where two blocks break even, pinned BLAS or not (README's table).
_MIN_BLOCK_CELLS = 12_000


def _column_blocks(threads: int | None, npoints: int, nbatch: int) -> list:
    """The column slices solve_batch steps nbatch columns of npoints points in (see its threads)."""
    if threads is None:
        threads = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        while threads > 1 and (npoints * min(map(len, trial_chunks(range(nbatch), threads)), default=0)
                               < _MIN_BLOCK_CELLS):
            threads -= 1
    return [slice(chunk[0], chunk[-1] + 1) for chunk in trial_chunks(range(nbatch), threads)]


def cone_energies(z0: State, eps: float, horizon: float, loc: LocalizationParams, windows, references, *,
                  manifold: ManifoldModel, basis: NoiseBasis, diffusion: DiffusionField, trial_ids=None,
                  control_rates: np.ndarray | None = None, master_seed: int = 0, renormalize: bool = True,
                  threads: int | None = None) -> tuple[list, np.ndarray]:
    """Cone-section energies of every batch column at every step, and the final positions.

    windows[m] is the section (i_lo, i_hi) of step m.  A reference is None
    (the column itself) or a single Trajectory with stored states (the column
    minus that path, step by step).  Returns one (B, steps + 1) array of
    section_energy values per reference and the final positions (B, npoints,
    ncomp).  The columns are noise trials (trial_ids) or control columns
    (control_rates of shape (steps, B, dim)), run as one solve_batch call in
    `threads` column blocks (None, the default: solve_batch's choice); without
    either the run is one column, trial 0, as in solve_batch.
    """
    steps = lattice_steps(horizon, z0.spacing)
    if len(windows) < steps + 1:
        raise ValueError(f"windows gives {len(windows)} sections, not the {steps + 1} of steps 0..{steps}")
    for i, ref in enumerate(references):
        if ref is not None and (ref.u is None or len(ref.u) < steps + 1):
            raise ValueError(f"references[{i}] stores {0 if ref.u is None else len(ref.u)} states, "
                             f"not the {steps + 1} of steps 0..{steps}")
        if ref is not None and ref.u.ndim == 4:  # section_energy would broadcast it against the batch
            raise ValueError(f"references[{i}] is a batch of {ref.u.shape[2]} paths, not a single Trajectory")
    if control_rates is None:
        nbatch = 1 if trial_ids is None else len(trial_ids)
    else:
        nbatch = np.shape(control_rates)[1]
    energies = np.zeros((len(references), nbatch, steps + 1))

    def observer(m, t, u, v):
        for e, ref in zip(energies, references):
            minus = None if ref is None else (ref.u[m], ref.v[m])
            e[:, m] = section_energy(u, v, windows[m], z0.spacing, minus)

    traj = solve_batch(z0, eps, horizon, loc, manifold=manifold, basis=basis, diffusion=diffusion,
                       control_rates=control_rates, master_seed=master_seed, trial_ids=trial_ids,
                       renormalize=renormalize, keep_states=False, observer=observer, threads=threads)
    return list(energies), traj.final[0].transpose(1, 0, 2)


def trial_chunks(ids, threads: int) -> list:
    """The contiguous chunks of ids that solve_batch steps as column blocks: at most `threads`, one process each."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    ids = list(ids)
    size = max(1, -(-len(ids) // threads))
    return [ids[i:i + size] for i in range(0, len(ids), size)]


# ---------------------------------------------------------------------------
# trajectory diagnostics
# ---------------------------------------------------------------------------

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
    the lattice times, where the taper is 1, so neither the drift nor the
    noise kicks are tapered).
    """
    if traj.u is None:
        raise ValueError("mild_residual needs stored states")
    z0 = traj.state(0)  # a batched path has none and raises
    dx, origin = traj.spacing, traj.origin
    n = traj.u.shape[1]
    steps = traj.steps
    eps = float(traj.metadata.get("eps", 0.0))
    r = loc.radius
    if eps > 0 and traj.noise_increments is None:
        raise ValueError("stochastic residual needs the noise increment log")

    modes = basis.evaluate(origin + dx * np.arange(n)) if basis is not None else None
    uu, vv = z0.u.values, z0.v.values
    acc_u, acc_v = np.zeros_like(uu), np.zeros_like(vv)
    for m in range(steps + 1):
        um, vm = traj.u[m], traj.v[m]
        window = window_indices(origin, dx, n, r - m * dx)
        cfield = None if traj.control is None else traj.control.row(m) @ modes
        force = drift_force(manifold, _extended(um, *window, 2), _extended(vm, *window, 2), dx,
                            diffusion=diffusion, control_field=cfield, window=window)
        kick = dx * (0.5 if m in (0, steps) else 1.0) * force  # trapezoid weights in time
        if m == steps:
            acc_v = acc_v + kick  # the final-time field is not transported
            break
        if eps > 0:
            yext = _extended(diffusion(um), *window)
            wfield = traj.noise_increments[m] @ modes
            kick = kick + math.sqrt(eps) * yext * wfield[:, None]
        acc_u, acc_v = apply_arrays(acc_u, acc_v + kick, dx, 1)
        uu, vv = apply_arrays(uu, vv, dx, 1)

    du = traj.u[steps] - (uu + acc_u)
    dv = traj.v[steps] - (vv + acc_v)
    return float(_window(du[:, None, :], dv[:, None, :], origin, dx, r - steps * dx)[1][0])

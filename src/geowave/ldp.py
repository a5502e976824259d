"""Rate-function evaluation and small-noise / weak-perturbation probes.

The rate of a target is half the squared control norm of the cheapest control
whose zero-noise trajectory reaches the target; it is computed variationally
over piecewise-constant controls with a penalty continuation.  The probe
routines measure the two convergence mechanisms behind the rate picture:
continuity of the zero-noise solution map under weakly-null control
perturbations, and linear-in-eps decay of the mean peak cone energy of the
noise-driven deviation from the zero-noise path.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AllZeroCounts,
    InsufficientTrials,
    OptimizerDiverged,
)
from .function_spaces import LightCone, Scratch, State
from .geometry import DiffusionField, ManifoldModel
from .noise import NoiseBasis
from .solver import (
    Control,
    LocalizationParams,
    _row_weights,
    cone_energies,
    cone_window,
    section_energy,
    section_fields,
    solve_batch,
    solve_skeleton,
    state_defect,
)
from .wave_group import lattice_steps

__all__ = [
    "RateOptions",
    "RateResult",
    "ConvergenceReport",
    "rate_function",
    "statement1_probe",
    "statement2_probe",
    "tail_estimate",
]


_LAMBDAS = (1e1, 1e2, 1e3, 1e4)  # penalty continuation schedule
_FD_STEP = 1e-5                   # forward-difference step
_MAX_ITER = 8                     # Gauss-Newton iterations per penalty stage


@dataclass(frozen=True)
class RateOptions:
    """Optimizer knobs for rate_function."""

    blocks: int = 8                      # temporal blocks of the control ansatz
    gap_tol: float = 1e-2                # accepted terminal distance


@dataclass
class RateResult:
    value: float
    argmin: Control
    terminal_gap: float
    iterations: int
    converged: bool
    metadata: dict = field(default_factory=dict)


@dataclass
class ConvergenceReport:
    """Aligned parameter/metric arrays from a convergence probe."""

    params: np.ndarray
    metrics: np.ndarray
    stderr: np.ndarray
    slope: float | None
    passed: bool
    extra: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# rate function
# ---------------------------------------------------------------------------

def _expand_rows(coeffs: np.ndarray, steps: int, blocks: int) -> np.ndarray:
    """Repeat (blocks, dim) block coefficients into (steps, dim) step rows."""
    reps = steps // blocks
    return np.repeat(coeffs, reps, axis=0)


class _TerminalObjective:
    """Map from flat control parameters to terminal cone-section residuals.

    A control evaluation runs zero-noise solves and samples the weighted
    difference to the target state on the cone section at the horizon; the
    squared residual norm equals the cone energy of the difference (doubled),
    so the penalty term is lam * |rho|^2.

    The forward-difference probes of the Jacobian ride in one solve with the
    path at the parameters: column 0 is that path, and a probe of block j
    has its control before s_j = j * steps / blocks, so up to s_j it is
    bitwise column 0 (batch columns are independent).  The solve's batch
    grows at the block starts (solve_batch's _joins): block j's dim probe
    columns join at s_j as copies of column 0's state and taper level, so
    the widths are 1 + dim, 1 + 2 dim, ..., 1 + blocks * dim.  Without
    probes the solve is width 1, and column 0 is bitwise that solve, so the
    gap does not depend on whether the probes ran.  `threads_used` is the
    most column blocks any solve started.
    """

    def __init__(self, target, z0, cone, *, horizon, loc, manifold, basis, diffusion, opts, threads=None):
        self.z0 = z0
        self.loc = loc
        self.manifold = manifold
        self.basis = basis
        self.diffusion = diffusion
        self.threads = threads
        self.dx = z0.spacing
        self.steps = lattice_steps(horizon, self.dx)
        self.dim = basis.dim
        self.blocks = opts.blocks
        if self.steps % self.blocks:
            raise ValueError(
                f"{self.blocks} control blocks do not divide {self.steps} steps"
            )
        self.nparams = self.blocks * self.dim
        self.threads_used = 1
        self.work = Scratch()  # for every solve: fresh work arrays per solve faulted in ~42k pages per rate_gn run

        self.target = (target.u.values, target.v.values)
        self.window = cone_window(cone, z0.origin, self.dx, z0.u.npoints, self.steps)
        # residual_rows weights every lattice row, zero outside the window:
        # on the window's rows alone jac.T @ jac groups its BLAS sums
        # differently, and the rate run's bytes move
        self.sqrt_weights = np.sqrt(_row_weights(z0.u.npoints, *self.window, self.dx))[:, None, None]

    def rates(self, params: np.ndarray) -> np.ndarray:
        """params (P, B) -> per-column control rates (steps, B, dim)."""
        nbatch = params.shape[1]
        rates = np.empty((self.steps, nbatch, self.dim))
        for b in range(nbatch):
            rates[:, b, :] = _expand_rows(params[:, b].reshape(self.blocks, self.dim), self.steps, self.blocks)
        return rates

    def residual_rows(self, du: np.ndarray, dv: np.ndarray) -> np.ndarray:
        """Terminal differences (n, B, ncomp) -> residual matrix (R, B); |col|^2 = 2*e_cone(diff)."""
        n, nbatch, ncomp = du.shape
        fields = section_fields(du, dv, self.dx)
        rows = np.empty((len(fields), n, ncomp, nbatch))
        for out, f in zip(rows, fields):
            np.multiply(self.sqrt_weights, f.transpose(0, 2, 1), out=out)
        return rows.reshape(-1, nbatch)

    def evaluate(self, params: np.ndarray, probes: bool = False) -> tuple:
        """(gap, base, jac): the terminal cone-section distance at params and, with probes,
        the residuals there and their forward-difference Jacobian (R, P); else None, None."""
        du, dv = self._chain(params, _FD_STEP if probes else None)
        gap = float(np.sqrt(2.0 * section_energy(du[:, :1], dv[:, :1], self.window, self.dx)[0]))
        if not probes:
            return gap, None, None
        rows = self.residual_rows(du, dv)
        base = np.ascontiguousarray(rows[:, 0])  # as a width-1 run's, for the BLAS products
        jac = np.subtract(rows[:, 1:], base[:, None])
        jac /= _FD_STEP
        return gap, base, jac

    def _chain(self, params: np.ndarray, fd_step: float | None) -> tuple:
        """Terminal differences (du, dv) of params in column 0 and, with an fd_step, of its probes after it."""
        columns, joins = params[:, None], None
        if fd_step is not None:
            columns = np.tile(columns, (1, 1 + self.nparams))
            columns[np.arange(self.nparams), np.arange(1, 1 + self.nparams)] += fd_step
            joins = {j * (self.steps // self.blocks): self.dim for j in range(1, self.blocks)}
        seen = []

        def observer(m, t, u, v):
            if m == self.steps:
                seen[:] = [u - self.target[0][:, None, :], v - self.target[1][:, None, :]]

        traj = solve_batch(
            self.z0, 0.0, self.steps * self.dx, self.loc,
            manifold=self.manifold, basis=self.basis, diffusion=self.diffusion,
            control_rates=self.rates(columns), keep_states=False, observer=observer, threads=self.threads,
            _joins=joins, _work=self.work,
        )
        self.threads_used = max(self.threads_used, traj.metadata["threads"])
        return seen


def rate_function(
    target: State,
    z0: State,
    budget: float,
    opts: RateOptions | None = None,
    *,
    cone: LightCone,
    horizon: float,
    loc: LocalizationParams,
    manifold: ManifoldModel,
    basis: NoiseBasis,
    diffusion: DiffusionField,
    threads: int | None = None,
) -> RateResult:
    """Half the squared norm of the cheapest control reaching the target state at the horizon.

    Minimizes 0.5*h.squared_norm() + lam*gap(h)^2 over piecewise-constant
    controls by Gauss-Newton on a forward-difference Jacobian of the residuals,
    continuing lam upward until the terminal gap passes opts.gap_tol; returns
    the +inf sentinel (converged=False) for unreachable targets or when every
    control within the budget misses the tolerance.  An evaluation after a
    step carries the next Jacobian's probes unless the linear model predicts
    convergence, |base - jac @ step| <= gap_tol; a wrong guess costs one
    width-1 solve, and the result is the same either way.  The first
    evaluation runs without probes.  The certificate is the last
    evaluation's gap, which is always at the returned control and bitwise a
    fresh solve of it, so no solve follows the loop.  metadata["solves"]
    counts control evaluations, not integrator calls: one per gap, the
    certificate's included, and 1 + blocks * dim per Jacobian read; probes
    no Jacobian reads are not counted.  Every solve steps its columns in
    `threads` blocks (solve_batch's; None: its choice), and
    metadata["threads"] is the most blocks any of them started.
    """
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    opts = opts or RateOptions()
    obj = _TerminalObjective(
        target, z0, cone, horizon=horizon, loc=loc,
        manifold=manifold, basis=basis, diffusion=diffusion, opts=opts, threads=threads,
    )
    dt_block = obj.dx * (obj.steps // opts.blocks)

    if state_defect(manifold, target.u.values, target.v.values) is not None:
        zero = Control.zeros(obj.steps, obj.dim, obj.dx)
        return RateResult(math.inf, zero, math.inf, 0, False, {"reason": "off-manifold target"})

    P = obj.nparams
    q_diag = np.full(P, dt_block)  # 0.5*h.squared_norm() = 0.5 * theta^T diag(dt_block) theta
    theta = np.zeros(P)
    iterations = 0
    gap, base, jac = obj.evaluate(theta)
    solves = 2  # the first gap and the certificate
    try:
        for lam in _LAMBDAS:
            for _ in range(_MAX_ITER):
                if gap <= opts.gap_tol:
                    break
                iterations += 1
                if jac is None:
                    gap, base, jac = obj.evaluate(theta, probes=True)
                solves += 1 + P
                grad = q_diag * theta + 2.0 * lam * (jac.T @ base)
                hess = np.diag(q_diag) + 2.0 * lam * (jac.T @ jac)
                hess[np.diag_indices_from(hess)] += 1e-12 * (1.0 + np.trace(hess) / P)
                step = np.linalg.solve(hess, grad)
                if not np.all(np.isfinite(step)):
                    raise OptimizerDiverged("non-finite step in the normal equations")
                theta = theta - step
                if not np.all(np.isfinite(theta)):
                    raise OptimizerDiverged("control parameters became non-finite")
                predicted = float(np.linalg.norm(base - jac @ step))
                gap, base, jac = obj.evaluate(theta, probes=predicted > opts.gap_tol)
                solves += 1
            if gap <= opts.gap_tol and float(0.5 * q_diag @ (theta * theta)) > budget:
                break  # feasible but over budget: larger lam only raises the cost
    except np.linalg.LinAlgError as err:
        raise OptimizerDiverged(f"normal equations unsolvable: {err}") from None

    rows = _expand_rows(theta.reshape(opts.blocks, obj.dim), obj.steps, opts.blocks)
    h = Control(rows, obj.dx)
    value = 0.5 * h.squared_norm()
    converged = gap <= opts.gap_tol and value <= budget  # gap, the certificate, is theta's own solve's
    if not converged:
        value = math.inf
    return RateResult(
        value, h, gap, iterations, converged,
        {"solves": solves, "blocks": opts.blocks, "threads": obj.threads_used},
    )


# ---------------------------------------------------------------------------
# convergence probes
# ---------------------------------------------------------------------------

def _fit_slope(x: np.ndarray, y: np.ndarray) -> float | None:
    good = (np.asarray(x) > 0) & (np.asarray(y) > 0)
    if good.sum() < 3:
        return None
    return float(np.polyfit(np.log(np.asarray(x)[good]), np.log(np.asarray(y)[good]), 1)[0])


def statement1_probe(
    n_list,
    z0: State,
    cone: LightCone,
    *,
    horizon: float,
    loc: LocalizationParams,
    manifold: ManifoldModel,
    basis: NoiseBasis,
    diffusion: DiffusionField,
    amplitude: float = 0.3,
    mode_index: int = 0,
    tol: float = 1e-2,
    perturbation: str = "oscillation",
) -> ConvergenceReport:
    """Continuity of the zero-noise solution map under weak-null perturbations.

    Perturbs the zero control by amplitude*sin(2*pi*n*t/T) on one noise mode
    (a family converging to zero weakly but not strongly) and records
    d_n = sup_{t<=T} of the product Sobolev distance between the perturbed and
    uncontrolled trajectories on the fixed ball of the supplied cone.  The "constant"
    perturbation (same energy, no oscillation) is the negative control: it
    must not decay.
    """
    dx = z0.spacing
    steps = lattice_steps(horizon, dx)
    dim = basis.dim
    n_list = list(n_list)
    nbatch = len(n_list)

    t_mid = (np.arange(steps) + 0.5) * dx
    rates = np.zeros((steps, nbatch, dim))  # the zero control, perturbed column by column below
    for col, n in enumerate(n_list):
        if perturbation == "oscillation":
            bump = amplitude * np.sin(2.0 * math.pi * n * t_mid / horizon)
        elif perturbation == "constant":
            bump = amplitude * np.ones(steps)
        else:
            raise ValueError(f"unknown perturbation {perturbation!r}")
        rates[:, col, mode_index] += bump

    base_traj = solve_skeleton(
        z0, None, horizon, loc,
        manifold=manifold, basis=basis, diffusion=diffusion, keep_states=True,
    )
    ball = cone_window(cone, z0.origin, dx, z0.u.npoints, 0)  # B(center, horizon)
    (e_diff,), _ = cone_energies(z0, 0.0, horizon, loc, [ball] * (steps + 1), [base_traj],
                                 manifold=manifold, basis=basis, diffusion=diffusion, control_rates=rates)
    sup_d = np.sqrt(2.0 * e_diff).max(axis=1, initial=0.0)
    decreasing = all(sup_d[i + 1] <= 1.05 * sup_d[i] for i in range(nbatch - 1))
    passed = decreasing and sup_d[-1] < tol
    return ConvergenceReport(
        params=np.asarray(n_list, dtype=float),
        metrics=sup_d,
        stderr=np.zeros(nbatch),
        slope=_fit_slope(np.asarray(n_list, dtype=float), sup_d),
        passed=passed,
        extra={"tol": tol, "amplitude": amplitude, "perturbation": perturbation},
    )


def statement2_probe(
    eps_list,
    trials: int,
    threshold: float,
    z0: State,
    cone: LightCone,
    master_seed: int,
    *,
    horizon: float,
    loc: LocalizationParams,
    manifold: ManifoldModel,
    basis: NoiseBasis,
    diffusion: DiffusionField,
    threads: int = 1,
) -> ConvergenceReport:
    """Mean peak cone energy of the noise-driven deviation, per noise level.

    For each eps, runs `trials` noisy paths against the uncontrolled zero-noise
    path, tracking sup_{t<=T/2} of the cone energy of the difference frozen at
    the first step where the noisy path's own cone norm sqrt(2 e) reaches the
    threshold: the crossing step still counts, later steps do not.
    extra["tau_fraction"] is the fraction of trials that cross.  Fits the
    log-log slope of the means (linear response means slope near 1).
    """
    if trials < 30:
        raise InsufficientTrials(f"need at least 30 trials, got {trials}")
    eps_list = list(eps_list)
    dx = z0.spacing
    t_half = 0.5 * horizon
    steps_half = lattice_steps(t_half, dx)
    base_traj = solve_skeleton(
        z0, None, t_half, loc,
        manifold=manifold, basis=basis, diffusion=diffusion, keep_states=True,
    )
    windows = [cone_window(cone, z0.origin, dx, z0.u.npoints, m) for m in range(steps_half + 1)]

    means = np.zeros(len(eps_list))
    errs = np.zeros(len(eps_list))
    tau_fraction = np.zeros(len(eps_list))
    per_trial = {}
    for i, eps in enumerate(eps_list):
        (e_self, e_diff), _ = cone_energies(
            z0, eps, t_half, loc, windows, [None, base_traj], manifold=manifold, basis=basis,
            diffusion=diffusion, trial_ids=range(trials), master_seed=master_seed, threads=threads,
        )
        crossed = np.sqrt(2.0 * e_self) >= threshold
        frozen = np.zeros_like(crossed)  # crossed at an earlier step
        frozen[:, 1:] = np.logical_or.accumulate(crossed, axis=1)[:, :-1]
        sup_e = np.where(frozen, -np.inf, e_diff).max(axis=1, initial=0.0)
        per_trial[eps] = sup_e
        means[i] = float(sup_e.mean())
        errs[i] = float(sup_e.std(ddof=1) / math.sqrt(trials))
        tau_fraction[i] = float(crossed.any(axis=1).mean())

    slope = _fit_slope(np.asarray(eps_list), means)
    decreasing = all(means[i + 1] < means[i] for i in range(len(means) - 1))
    passed = slope is not None and 0.7 <= slope <= 1.3 and decreasing
    return ConvergenceReport(
        params=np.asarray(eps_list, dtype=float),
        metrics=means,
        stderr=errs,
        slope=slope,
        passed=passed,
        extra={"tau_fraction": tau_fraction, "threshold": threshold,
               "trials": trials, "per_trial": per_trial},
    )


def tail_estimate(
    delta: float,
    eps_list,
    trials: int,
    z0: State,
    cone: LightCone,
    master_seed: int,
    *,
    horizon: float,
    loc: LocalizationParams,
    manifold: ManifoldModel,
    basis: NoiseBasis,
    diffusion: DiffusionField,
    rate_value: float | None = None,
    threads: int = 1,
) -> ConvergenceReport:
    """Monte Carlo exceedance probabilities of the sup-cone deviation.

    P-hat(eps) is the fraction of noisy paths whose sup-over-time cone distance
    from the uncontrolled zero-noise path exceeds delta; the eps*log(P-hat)
    sequence is the finite-noise analogue of the exponential decay rate.  With
    a rate_value, extra["gap_to_rate"] is eps*log(P-hat) + rate_value at the
    smallest eps whose P-hat is positive, whatever the order of eps_list.
    """
    if delta < 0:
        raise ValueError(f"event radius must be nonnegative, got {delta}")
    eps_list = list(eps_list)
    dx = z0.spacing
    steps = lattice_steps(horizon, dx)
    base_traj = solve_skeleton(
        z0, None, horizon, loc,
        manifold=manifold, basis=basis, diffusion=diffusion, keep_states=True,
    )
    windows = [cone_window(cone, z0.origin, dx, z0.u.npoints, m) for m in range(steps + 1)]

    p_hat = np.zeros(len(eps_list))
    errs = np.zeros(len(eps_list))
    eps_log_p = np.zeros(len(eps_list))
    for i, eps in enumerate(eps_list):
        (e_diff,), _ = cone_energies(
            z0, eps, horizon, loc, windows, [base_traj], manifold=manifold, basis=basis,
            diffusion=diffusion, trial_ids=range(trials), master_seed=master_seed, threads=threads,
        )
        sup_d = np.sqrt(2.0 * e_diff).max(axis=1, initial=0.0)
        count = int((sup_d > delta).sum())
        p = count / trials
        p_hat[i] = p
        errs[i] = math.sqrt(p * (1.0 - p) / trials)
        eps_log_p[i] = eps * math.log(p) if p > 0 else math.nan

    if not np.any(p_hat > 0):
        raise AllZeroCounts(
            f"no exceedances of delta={delta} at any noise level; shrink delta or raise eps"
        )
    if p_hat[int(np.argmax(eps_list))] == 0.0:
        warnings.warn(
            f"zero exceedance count at the largest noise level {max(eps_list)}; "
            "the tail table is unreliable there",
            stacklevel=2,
        )
    extra = {"delta": delta, "eps_log_p": eps_log_p, "trials": trials}
    if rate_value is not None:
        finite = [(eps, elp) for eps, elp in zip(eps_list, eps_log_p) if not math.isnan(elp)]
        extra["gap_to_rate"] = float(min(finite)[1] + rate_value) if finite else math.nan
    return ConvergenceReport(
        params=np.asarray(eps_list, dtype=float),
        metrics=p_hat,
        stderr=errs,
        slope=_fit_slope(np.asarray(eps_list), p_hat),
        passed=bool(np.any(p_hat > 0)),
        extra=extra,
    )

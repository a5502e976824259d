"""Cone-restricted energy functionals and a pathwise energy-inequality verifier.

The verifier replays a stored trajectory and checks, step by step, that the
transformed cone energy stays below the accumulated budget

    L(e(t)) <= L(e(0)) + int_0^t V + martingale + tol(dt),

where V collects the drift pairing, the Ito quadratic term and the
second-derivative correction of the transform L, and the martingale term is
assembled from the realized noise increments logged by the solver.  Everything
is a pure function of the stored states, so reports are reproducible and the
check parallelizes trivially over trajectories.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BlowupDetected, MissingIncrementLog
from .function_spaces import (
    GridFunction,
    LightCone,
    Quadrature,
    State,
    derivative1,
    integrate_samples,
    l2_inner,
    pointwise_dot,
    quadrature,
    section_rows,
    sobolev_sq,
)
from .geometry import DiffusionField, ManifoldModel
from .noise import NoiseBasis
from .solver import Trajectory, curvature_force, drift_force

__all__ = [
    "EnergyReport",
    "energy",
    "verify_energy_inequality",
    "verify_energy_transforms",
    "perpendicularity_defect",
]

_TRANSFORMS = {
    # L, L', L''
    "identity": (lambda e: e, lambda e: 1.0, lambda e: 0.0),
    "log1p": (lambda e: math.log1p(e), lambda e: 1.0 / (1.0 + e), lambda e: -1.0 / (1.0 + e) ** 2),
}


@dataclass
class EnergyReport:
    """Per-step energies against the accumulated inequality budget."""

    times: np.ndarray
    e_values: np.ndarray
    bound_values: np.ndarray
    violations: list  # [(t, gap)] where gap = L(e) - bound exceeds tol
    tol: float
    transform: str
    gaps: np.ndarray = None
    drift_integral: np.ndarray = None
    martingale: np.ndarray = None
    metadata: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return len(self.violations) == 0


def energy(t: float, z: State, cone: LightCone, k: int = 1) -> float:
    """Cone energy at time t: half the squared Sobolev pair norm on B(x0, T-t).

    k=1 pairs H^2 x H^1 (the solver's working norm); k=0 the lighter
    H^1 x L^2 version.
    """
    interval = cone.interval(t)
    if k not in (0, 1):
        raise ValueError(f"energy level k must be 0 or 1, got {k}")
    return 0.5 * (sobolev_sq(z.u, interval, k + 1) + sobolev_sq(z.v, interval, k))


def _derivative_ladder(values: np.ndarray, spacing: float) -> list[np.ndarray]:
    """[values, D values] with the package's central stencil: the H^1 pairing's fields."""
    return [values, derivative1(values, spacing)]


def _inner(a: np.ndarray, b: np.ndarray, plan: Quadrature, start: int) -> float:
    return integrate_samples(pointwise_dot(a, b)[:, 0], plan, start)


@dataclass
class _Ledger:
    """The transform-free part of the inequality, one entry per step.

    pairing is <u, v> + <v, f>_{H^1}, quad the Ito quadratic sum over modes of
    |g_j|^2_{H^1}, cross_sq the squared norm of the vector <v, g_j>_{H^1} and
    dm its product with the step's noise increment (steps entries; zeros
    without noise).
    """

    e: np.ndarray
    pairing: np.ndarray
    quad: np.ndarray
    cross_sq: np.ndarray
    dm: np.ndarray
    eps: float


class _PathLedger:
    """One path's ledger, fed its states one step at a time in step order, and its reports.

    Every entry reads its own step only, so a ledger fed a width-1 run's
    states by the run's observer is bitwise the replay of the same run
    stored (verify_energy_transforms).
    """

    def __init__(self, cone: LightCone, manifold, basis, diffusion, origin: float, spacing: float,
                 npoints: int, eps: float):
        self.cone, self.manifold, self.diffusion = cone, manifold, diffusion
        self.origin, self.dx, self.n, self.eps = origin, spacing, npoints, eps
        self.modes = basis.evaluate(origin + spacing * np.arange(npoints)) if basis is not None else None
        self.times, self.e, self.pairing, self.quad, self.cross_sq = [], [], [], [], []
        self.cross = []  # the cross vectors <v, g_j>_{H^1}, kept for dm when eps > 0

    def add(self, t: float, u: np.ndarray, v: np.ndarray, control_row: np.ndarray | None = None) -> None:
        """Append the entries of the state (u, v) at time t, driven by control_row."""
        dx, origin, n, modes = self.dx, self.origin, self.n, self.modes
        plan = quadrature(origin, dx, n, *self.cone.interval(t))
        rows = section_rows(plan.i0, plan.i1, n)
        self.times.append(t)
        self.e.append(energy(t, State(GridFunction(origin, dx, u), GridFunction(origin, dx, v)), self.cone))
        u, v = u[rows], v[rows]

        cfield = None if control_row is None else (control_row @ modes)[rows]
        f = drift_force(self.manifold, u, v, dx, diffusion=self.diffusion, control_field=cfield)

        v_ladder = _derivative_ladder(v, dx)
        f_ladder = _derivative_ladder(f, dx)
        pairing = _inner(u, v, plan, rows.start)
        pairing += sum(
            _inner(vl, fl, plan, rows.start) for vl, fl in zip(v_ladder, f_ladder)
        )
        self.pairing.append(pairing)

        if self.eps == 0.0:
            self.quad.append(0.0)
            self.cross_sq.append(0.0)
            return
        y = math.sqrt(self.eps) * self.diffusion(u)  # (rows, nc)
        quad = 0.0
        cross = np.zeros(len(modes))
        for j, mode in enumerate(modes[:, rows]):
            gj = y * mode[:, None]
            g_ladder = _derivative_ladder(gj, dx)
            for gl in g_ladder:
                quad += _inner(gl, gl, plan, rows.start)
            cross[j] = sum(
                _inner(vl, gl, plan, rows.start)
                for vl, gl in zip(v_ladder, g_ladder)
            )
        self.quad.append(quad)
        self.cross_sq.append(float((cross ** 2).sum()))
        self.cross.append(cross)

    def ledger(self, increments: np.ndarray | None = None) -> _Ledger:
        """The entries added so far; dm[m] = cross[m] @ increments[m] for every step but the last.

        increments are the run's noise rows, needed when eps > 0.
        """
        steps = len(self.times) - 1
        if self.eps == 0.0:
            dm = np.zeros(steps)
        else:
            dm = np.array([float(self.cross[m] @ increments[m]) for m in range(steps)])
        return _Ledger(np.array(self.e), np.array(self.pairing), np.array(self.quad), np.array(self.cross_sq),
                       dm, self.eps)

    def reports(self, transforms, increments: np.ndarray | None = None) -> dict[str, EnergyReport]:
        """One report per transform of the path added so far (increments as in ledger)."""
        ledger, times = self.ledger(increments), np.array(self.times)
        return {t: _report(times, ledger, t) for t in transforms}


def _report(times: np.ndarray, ledger: _Ledger, transform: str) -> EnergyReport:
    """Apply L, L' and L'' to the ledger of the path at `times`: the budget and its gaps under one transform."""
    L, Lp, Lpp = _TRANSFORMS[transform]
    steps = len(times) - 1
    e_vals = ledger.e
    V = np.zeros(steps + 1)
    dM = np.zeros(steps)
    dm = ledger.dm.tolist()
    rows = zip(e_vals.tolist(), ledger.pairing.tolist(), ledger.quad.tolist(), ledger.cross_sq.tolist())
    for m, (e, pairing, quad, cross_sq) in enumerate(rows):
        V[m] = Lp(e) * pairing + 0.5 * Lp(e) * quad + 0.5 * Lpp(e) * cross_sq
        if m < steps:
            dM[m] = Lp(e) * dm[m]
    bad = ~(np.isfinite(e_vals) & np.isfinite(V) & np.isfinite(np.append(dM, 0.0)))
    if bad.any():
        m = int(np.argmax(bad))
        raise BlowupDetected(f"energy budget is not finite at step {m}, t={float(times[m])} "
                             f"(e = {e_vals[m]}, V = {V[m]}, dM = {dM[m] if m < steps else 0.0})")

    dt = float(times[1] - times[0])
    drift_int = np.concatenate([[0.0], np.cumsum(0.5 * dt * (V[1:] + V[:-1]))])
    mart = np.concatenate([[0.0], np.cumsum(dM)])
    Le = np.array([L(e) for e in e_vals])
    bound = Le[0] + drift_int + mart
    gaps = Le - bound
    tol = 5.0 * dt * (1.0 + float(e_vals.max()))
    violations = [
        (float(times[m]), float(gaps[m])) for m in range(steps + 1) if gaps[m] > tol
    ]
    return EnergyReport(
        times=np.asarray(times, dtype=float),
        e_values=e_vals.copy(),
        bound_values=bound,
        violations=violations,
        tol=tol,
        transform=transform,
        gaps=gaps,
        drift_integral=drift_int,
        martingale=mart,
        metadata={"eps": ledger.eps},
    )


def verify_energy_transforms(
    traj: Trajectory,
    transforms,
    *,
    cone: LightCone,
    manifold: ManifoldModel,
    basis: NoiseBasis | None = None,
    diffusion: DiffusionField | None = None,
) -> dict[str, EnergyReport]:
    """Check the transformed energy inequality along one stored trajectory, once per transform.

    The energy is the H^2 x H^1 cone energy and the tolerance is
    5 * dt * (1 + max e).  The drift is rebuilt from the stored states
    (curvature force, plus the control forcing of step m's control row when
    the trajectory carries one); the noise operator is sqrt(eps) *
    diffusion(u) * mode.  Neither is tapered: at a lattice time every norm is
    below its taper level (drift_force).  On the verification cone the window
    extension is the identity, so every field is pointwise in u, v and their
    stencils.  Each step therefore builds its fields on the section's rows and
    SECTION_MARGIN rows each side only: D f, with f built from u_x, is exact
    from the third row in from a cut end and the quadrature reads one row past
    the section, so every report is bitwise the whole-lattice one.

    The array work runs once, into a transform-free ledger fed one stored
    state at a time (e, the drift pairing, the Ito quadratic term, the
    squared cross vector and its product with each noise increment); each
    transform is a scalar reduction of it.  A non-finite e, V or martingale
    increment raises BlowupDetected naming the step.
    """
    transforms = tuple(transforms)
    unknown = [t for t in transforms if t not in _TRANSFORMS]
    if unknown:
        raise ValueError(f"transform must be one of {sorted(_TRANSFORMS)}, got {unknown[0]!r}")
    if traj.u is None:
        raise ValueError("the verifier needs stored states")
    eps = float(traj.metadata.get("eps", 0.0))
    if eps > 0.0 and traj.noise_increments is None:
        raise MissingIncrementLog("stochastic verification needs the solver's increment log")
    if (eps > 0.0 or traj.control is not None) and (basis is None or diffusion is None):
        raise ValueError("noise or control verification needs the basis and diffusion field")
    ledger = _PathLedger(cone, manifold, basis, diffusion, traj.origin, traj.spacing, traj.u.shape[1], eps)
    for m in range(traj.steps + 1):
        z = traj.state(m)
        control_row = None if traj.control is None else traj.control.row(m)
        ledger.add(float(traj.times[m]), z.u.values, z.v.values, control_row)
    return ledger.reports(transforms, traj.noise_increments)


def verify_energy_inequality(
    traj: Trajectory,
    *,
    cone: LightCone,
    manifold: ManifoldModel,
    basis: NoiseBasis | None = None,
    diffusion: DiffusionField | None = None,
    transform: str = "identity",
) -> EnergyReport:
    """verify_energy_transforms under one transform: its report."""
    return verify_energy_transforms(traj, (transform,), cone=cone, manifold=manifold, basis=basis,
                                    diffusion=diffusion)[transform]


def perpendicularity_defect(z: State, t: float, cone: LightCone, manifold: ManifoldModel) -> float:
    """|<v, curvature force>| over the cone section: zero for tangent fields.

    The curvature term is normal to the manifold while v is tangent, so this
    inner product vanishes on on-manifold states up to stencil error.
    """
    interval = cone.interval(t)
    dx = z.spacing
    f = curvature_force(manifold, z.u.values, z.v.values, derivative1(z.u.values, dx))
    return abs(l2_inner(z.v, GridFunction(z.origin, dx, f), interval))

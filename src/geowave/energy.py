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

from .errors import MissingIncrementLog
from .function_spaces import (
    GridFunction,
    LightCone,
    State,
    derivative1,
    integrate_samples,
    l2_inner,
    pointwise_dot,
    sobolev_sq,
)
from .geometry import DiffusionField, ManifoldModel
from .noise import NoiseBasis
from .solver import Trajectory, curvature_force, drift_force

__all__ = [
    "EnergyReport",
    "energy",
    "verify_energy_inequality",
    "mean_energy_report",
    "gronwall_envelope",
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


def _derivative_ladder(values: np.ndarray, spacing: float, k: int) -> list[np.ndarray]:
    """[values, D values, .., D^k values] with the package's central stencils."""
    out = [values]
    for _ in range(k):
        out.append(derivative1(out[-1], spacing))
    return out


def _inner(a: np.ndarray, b: np.ndarray, origin: float, spacing: float, interval) -> float:
    return integrate_samples(pointwise_dot(a, b)[:, 0], origin, spacing, *interval)


def verify_energy_inequality(
    traj: Trajectory,
    *,
    cone: LightCone,
    manifold: ManifoldModel | None = None,
    basis: NoiseBasis | None = None,
    diffusion: DiffusionField | None = None,
    transform: str = "identity",
    k: int = 1,
    tol_factor: float = 5.0,
) -> EnergyReport:
    """Check the transformed energy inequality along one stored trajectory.

    The drift is rebuilt from the stored states (curvature force when a
    manifold is given, plus the control forcing when the trajectory carries
    one), scaled by the taper values recorded at run time; the noise operator
    is sqrt(eps) * taper * diffusion(u) * mode.  On the verification cone the
    window extension is the identity, so all fields are local.
    """
    if transform not in _TRANSFORMS:
        raise ValueError(f"transform must be one of {sorted(_TRANSFORMS)}, got {transform!r}")
    if not traj.states:
        raise ValueError("the verifier needs stored states")
    L, Lp, Lpp = _TRANSFORMS[transform]
    eps = float(traj.metadata.get("eps", 0.0))
    if eps > 0.0 and traj.noise_increments is None:
        raise MissingIncrementLog("stochastic verification needs the solver's increment log")
    if (eps > 0.0 or traj.control is not None) and (basis is None or diffusion is None):
        raise ValueError("noise or control verification needs the basis and diffusion field")

    z0 = traj.states[0]
    dx = z0.spacing
    x = z0.u.x
    origin = z0.origin
    steps = traj.steps
    taper = np.asarray(traj.energy_trace.get("taper", np.ones(steps + 1)), dtype=float)
    modes = basis.evaluate(x) if basis is not None else None
    sqeps = math.sqrt(eps)

    e_vals = np.zeros(steps + 1)
    V = np.zeros(steps + 1)
    dM = np.zeros(steps)
    for m in range(steps + 1):
        t = float(traj.times[m])
        z = traj.states[m]
        interval = cone.interval(t)
        u, v = z.u.values, z.v.values
        e = energy(t, z, cone, k)
        e_vals[m] = e
        th = float(taper[m])

        cfield = None if traj.control is None else traj.control.rate_at(t) @ modes
        f = drift_force(manifold, u, v, dx, th, diffusion=diffusion, control_field=cfield)

        v_ladder = _derivative_ladder(v, dx, k)
        f_ladder = _derivative_ladder(f, dx, k)
        pairing = _inner(u, v, origin, dx, interval)
        pairing += sum(
            _inner(vl, fl, origin, dx, interval) for vl, fl in zip(v_ladder, f_ladder)
        )

        quad = 0.0
        cross_sq = 0.0
        if eps > 0.0:
            y = (sqeps * th) * diffusion(u)  # (n, nc)
            cross = np.zeros(basis.dim)
            for j in range(basis.dim):
                gj = y * modes[j][:, None]
                g_ladder = _derivative_ladder(gj, dx, k)
                for gl in g_ladder:
                    quad += _inner(gl, gl, origin, dx, interval)
                cross[j] = sum(
                    _inner(vl, gl, origin, dx, interval)
                    for vl, gl in zip(v_ladder, g_ladder)
                )
            cross_sq = float((cross ** 2).sum())
            if m < steps:
                dM[m] = Lp(e) * float(cross @ traj.noise_increments[m])

        V[m] = Lp(e) * pairing + 0.5 * Lp(e) * quad + 0.5 * Lpp(e) * cross_sq

    dt = float(traj.times[1] - traj.times[0])
    drift_int = np.concatenate([[0.0], np.cumsum(0.5 * dt * (V[1:] + V[:-1]))])
    mart = np.concatenate([[0.0], np.cumsum(dM)])
    Le = np.array([L(e) for e in e_vals])
    bound = Le[0] + drift_int + mart
    gaps = Le - bound
    tol = tol_factor * dt * (1.0 + float(e_vals.max()))
    violations = [
        (float(traj.times[m]), float(gaps[m])) for m in range(steps + 1) if gaps[m] > tol
    ]
    return EnergyReport(
        times=np.asarray(traj.times, dtype=float),
        e_values=e_vals,
        bound_values=bound,
        violations=violations,
        tol=tol,
        transform=transform,
        gaps=gaps,
        drift_integral=drift_int,
        martingale=mart,
        metadata={"k": k, "eps": eps, "tol_factor": tol_factor},
    )


def mean_energy_report(reports: list[EnergyReport]) -> EnergyReport:
    """Average the pathwise curves; the martingale parts cancel in the mean.

    Violations are re-flagged on the averaged curves with the largest of the
    per-path tolerances.
    """
    if not reports:
        raise ValueError("need at least one report to average")
    times = reports[0].times
    for rep in reports[1:]:
        if len(rep.times) != len(times) or not np.allclose(rep.times, times):
            raise ValueError("reports cover different time grids")
    e_mean = np.mean([rep.e_values for rep in reports], axis=0)
    bound_mean = np.mean([rep.bound_values for rep in reports], axis=0)
    gaps = np.mean([rep.gaps for rep in reports], axis=0)
    tol = max(rep.tol for rep in reports)
    violations = [(float(t), float(g)) for t, g in zip(times, gaps) if g > tol]
    return EnergyReport(
        times=times,
        e_values=e_mean,
        bound_values=bound_mean,
        violations=violations,
        tol=tol,
        transform=reports[0].transform,
        gaps=gaps,
        drift_integral=np.mean([rep.drift_integral for rep in reports], axis=0),
        martingale=np.mean([rep.martingale for rep in reports], axis=0),
        metadata={"paths": len(reports), **reports[0].metadata},
    )


def gronwall_envelope(p0: float, rate_fn, quadrature_points: int = 513):
    """t -> p0 * exp(int_0^t rate), trapezoid quadrature on a fixed grid."""
    if p0 < 0:
        raise ValueError(f"envelope seed must be nonnegative, got {p0}")

    def envelope(t: float) -> float:
        if t == 0.0 or p0 == 0.0:
            return float(p0)
        s = np.linspace(0.0, t, quadrature_points)
        rates = np.array([rate_fn(si) for si in s], dtype=float)
        return float(p0 * math.exp(np.trapezoid(rates, s)))

    return envelope


def perpendicularity_defect(z: State, t: float, cone: LightCone, manifold: ManifoldModel) -> float:
    """|<v, curvature force>| over the cone section: zero for tangent fields.

    The curvature term is normal to the manifold while v is tangent, so this
    inner product vanishes on on-manifold states up to stencil error.
    """
    interval = cone.interval(t)
    dx = z.spacing
    f = curvature_force(manifold, z.u.values, z.v.values, derivative1(z.u.values, dx))
    return abs(l2_inner(z.v, GridFunction(z.origin, dx, f), interval))

"""Lattice geometry and canonical manifold-valued initial data.

The computational lattice covers [-W, W] where W exceeds domain_radius +
horizon by at least one cell, so that every light cone of interest is
shielded from the lattice edge by finite propagation speed.  Initial data are
built from angle fields, which keeps them exactly on the target manifold with
exactly tangent velocities.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .function_spaces import GridFunction, State
from .geometry import ManifoldModel

__all__ = [
    "GridGeometry",
    "make_grid",
    "constant_state",
    "rotating_state",
    "bump_state",
    "random_state",
    "twin_pair",
    "ROTATING_THETA0",
    "ROTATING_OMEGA",
]

ROTATING_THETA0 = 0.3
ROTATING_OMEGA = 1.0


@dataclass(frozen=True)
class GridGeometry:
    """Lattice sized for a spatial window of interest plus a time horizon."""

    domain_radius: float
    horizon: float
    spacing: float
    half_width: float

    @property
    def npoints(self) -> int:
        return 2 * round(self.half_width / self.spacing) + 1

    @property
    def origin(self) -> float:
        return -self.half_width

    @property
    def x(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.npoints)

    def grid_function(self, values: np.ndarray) -> GridFunction:
        return GridFunction(self.origin, self.spacing, values)

    def state(self, u: np.ndarray, v: np.ndarray) -> State:
        return State(self.grid_function(u), self.grid_function(v))


def make_grid(domain_radius: float, points: int, horizon: float) -> GridGeometry:
    """Lattice with spacing domain_radius/points, wide enough to outrun the horizon.

    The half width is the smallest lattice multiple strictly greater than
    domain_radius + horizon, which is exactly the localization radius the
    solver needs.
    """
    if points < 4:
        raise ValueError(f"points must be at least 4, got {points}")
    if horizon <= 0 or domain_radius <= 0:
        raise ValueError("domain_radius and horizon must be positive")
    dx = domain_radius / points
    cells = int(math.ceil((domain_radius + horizon) / dx - 1e-9)) + 1
    return GridGeometry(float(domain_radius), float(horizon), dx, cells * dx)


def _smooth_bump(s: np.ndarray) -> np.ndarray:
    """C-infinity bump on (-1, 1), 1 at the center, identically 0 outside."""
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def _angles_to_state(geom: GridGeometry, manifold: ManifoldModel, theta, phi, dtheta, dphi) -> State:
    """Map angle fields (and their time rates) to an on-manifold state.

    Circle targets use theta only; sphere targets use longitude theta and
    latitude phi.  Velocities are pushed forward through the chart, so they
    are tangent to round-off.
    """
    if manifold.kind == "circle":
        u = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        v = dtheta[:, None] * np.stack([-np.sin(theta), np.cos(theta)], axis=1)
    else:
        cos_p, sin_p = np.cos(phi), np.sin(phi)
        u = np.stack([np.cos(theta) * cos_p, np.sin(theta) * cos_p, sin_p], axis=1)
        e_theta = np.stack([-np.sin(theta) * cos_p, np.cos(theta) * cos_p, np.zeros_like(theta)], axis=1)
        e_phi = np.stack([-np.cos(theta) * sin_p, -np.sin(theta) * sin_p, cos_p], axis=1)
        v = dtheta[:, None] * e_theta + dphi[:, None] * e_phi
    return geom.state(u, v)


def constant_state(geom: GridGeometry, manifold: ManifoldModel, point=None) -> State:
    """The rest state sitting at a single manifold point."""
    if point is None:
        point = np.zeros(manifold.ambient_dim)
        point[0] = 1.0
    point = np.asarray(point, dtype=float)
    if point.shape != (manifold.ambient_dim,):
        raise DimensionMismatch(f"point has shape {point.shape}, ambient dim is {manifold.ambient_dim}")
    n = geom.npoints
    u = np.tile(point, (n, 1))
    return geom.state(u, np.zeros_like(u))


def rotating_state(
    geom: GridGeometry,
    manifold: ManifoldModel,
    theta0: float = ROTATING_THETA0,
    omega: float = ROTATING_OMEGA,
) -> State:
    """Spatially constant data rotating along a great circle at rate omega.

    The exact solution keeps u spatially constant with angle theta0 + omega*t
    (the curvature force reduces the equation to a circular oscillator), which
    makes this the closed-form benchmark for the solvers.
    """
    n = geom.npoints
    theta = np.full(n, float(theta0))
    zero = np.zeros(n)
    return _angles_to_state(geom, manifold, theta, zero, np.full(n, float(omega)), zero)


def bump_state(
    geom: GridGeometry,
    manifold: ManifoldModel,
    *,
    base_angle: float = 0.0,
    excursions=((0.4, 0.0, 1.5),),
    velocity_bumps=((0.3, 0.5, 1.2),),
) -> State:
    """Compactly supported smooth excursions around a constant base point.

    Each excursion / velocity bump is an (amplitude, center, width) triple
    applied to the angle fields, so the state is exactly on-manifold, exactly
    tangent, and quiescent near the lattice edge.
    """
    x = geom.x
    theta = np.full(geom.npoints, float(base_angle))
    phi = np.zeros(geom.npoints)
    dtheta = np.zeros(geom.npoints)
    dphi = np.zeros(geom.npoints)
    for i, (amp, center, width) in enumerate(excursions):
        target = phi if (manifold.ambient_dim == 3 and i % 2 == 1) else theta
        target += amp * _smooth_bump((x - center) / width)
    for i, (amp, center, width) in enumerate(velocity_bumps):
        target = dphi if (manifold.ambient_dim == 3 and i % 2 == 1) else dtheta
        target += amp * _smooth_bump((x - center) / width)
    return _angles_to_state(geom, manifold, theta, phi, dtheta, dphi)


def random_state(
    geom: GridGeometry,
    manifold: ManifoldModel,
    rng: np.random.Generator,
    *,
    n_bumps: int = 3,
    amplitude: float = 0.4,
    support_radius: float | None = None,
) -> State:
    """Random multi-bump on-manifold data supported well inside the lattice."""
    if support_radius is None:
        support_radius = 0.6 * geom.domain_radius
    def draw(n):
        amps = rng.uniform(-amplitude, amplitude, n)
        centers = rng.uniform(-0.7 * support_radius, 0.7 * support_radius, n)
        widths = rng.uniform(0.25 * support_radius, 0.3 * support_radius, n)
        return tuple(zip(amps, centers, widths))
    return bump_state(
        geom,
        manifold,
        base_angle=rng.uniform(0, 2 * math.pi),
        excursions=draw(n_bumps),
        velocity_bumps=draw(n_bumps),
    )


def twin_pair(
    geom: GridGeometry,
    manifold: ManifoldModel,
    rng: np.random.Generator,
    *,
    ball_center: float = 0.0,
    ball_radius: float = 2.0,
    margin: float = 0.25,
    far_amplitude: float = 0.5,
) -> tuple[State, State]:
    """Two on-manifold states agreeing on B(ball_center, ball_radius + margin).

    The second state differs from the first by angle-field bumps planted
    outside the agreement ball.  The margin keeps the perturbation front a few
    dozen cells away from the ball boundary, so the discrete stencil halo
    (which trails the exact unit-speed front by one cell per nonlinear
    evaluation, with factorially decaying amplitude) never pollutes the cone
    {|x - ball_center| <= ball_radius - t}.
    """
    base = random_state(geom, manifold, rng, support_radius=ball_radius)
    inner = ball_radius + margin
    outer_room = geom.half_width - inner
    if outer_room < 0.5:
        raise ValueError("lattice leaves no room outside the agreement ball")
    width = min(0.45 * outer_room, 1.0)
    centers = ball_center + np.array([1.0, -1.0]) * (inner + width + 0.1 * outer_room)
    x = geom.x
    dtheta_extra = np.zeros(geom.npoints)
    theta_extra = np.zeros(geom.npoints)
    for c in centers:
        theta_extra += far_amplitude * rng.uniform(0.5, 1.0) * _smooth_bump((x - c) / width)
        dtheta_extra += far_amplitude * rng.uniform(0.5, 1.0) * _smooth_bump((x - c) / width)

    # rotate the far region about the last axis and add tangent velocity there;
    # where both extra fields vanish the twin equals the base bitwise
    u, v = base.u.values, base.v.values
    c, s = np.cos(theta_extra), np.sin(theta_extra)
    u2 = u.copy()
    v2 = v.copy()
    u2[:, 0] = c * u[:, 0] - s * u[:, 1]
    u2[:, 1] = s * u[:, 0] + c * u[:, 1]
    v2[:, 0] = c * v[:, 0] - s * v[:, 1]
    v2[:, 1] = s * v[:, 0] + c * v[:, 1]
    axis_tangent = np.zeros_like(u2)
    axis_tangent[:, 0] = -u2[:, 1]
    axis_tangent[:, 1] = u2[:, 0]
    v2 = v2 + dtheta_extra[:, None] * axis_tangent
    twin = geom.state(u2, v2)
    return base, twin

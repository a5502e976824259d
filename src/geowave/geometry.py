"""Target-manifold geometry.

Unit circle in R^2 and unit sphere in R^3, in closed form.  The central
object is the radial reflection through the manifold, a smooth involution of
the tubular neighborhood whose first and second derivatives generate both
extensions of the second fundamental form used by the dynamics.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import OutsideTubularNeighborhood
from .function_spaces import pointwise_dot as _dot, smoothstep

__all__ = ["ManifoldModel", "DiffusionField"]

# Radial profile shared by the involution blend, the perpendicular extension
# and the shipped diffusion fields: 1 for d <= 0.75, C^2 down to 0 at d = 0.9.
_BLEND_LO = 0.75
_BLEND_HI = 0.9


def _bump(dist: np.ndarray) -> np.ndarray:
    return 1.0 - smoothstep((np.asarray(dist, dtype=float) - _BLEND_LO) / (_BLEND_HI - _BLEND_LO))


def _norm(q: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(q, q))


@dataclass(frozen=True)
class ManifoldModel:
    """The unit circle in R^2 ("circle") or the unit sphere in R^3 ("sphere").

    Every primitive is a closed form vectorized over leading axes.
    """

    kind: str
    ambient_dim: int
    tubular_radius: float = 0.75

    def __post_init__(self):
        if (self.kind, self.ambient_dim) not in (("circle", 2), ("sphere", 3)):
            raise ValueError(f"targets are the circle in R^2 and the sphere in R^3, not {self.kind!r} "
                             f"in R^{self.ambient_dim}")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def circle(cls, tubular_radius: float = 0.75) -> "ManifoldModel":
        return cls("circle", 2, tubular_radius)

    @classmethod
    def sphere(cls, tubular_radius: float = 0.75) -> "ManifoldModel":
        return cls("sphere", 3, tubular_radius)

    # -- pointwise primitives (vectorized over leading axes) -------------------

    def nearest_point(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        rho = _norm(q)
        return q / np.where(rho > 1e-300, rho, 1.0)

    def constraint_residual(self, q: np.ndarray) -> np.ndarray:
        """Distance to the manifold (unsigned)."""
        return np.abs(_norm(np.asarray(q, dtype=float))[..., 0] - 1.0)

    def tangent_project_at(self, p: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Tangent projection at the nearest manifold point of p (no checks)."""
        n_hat = self.nearest_point(p)
        return a - _dot(a, n_hat) * n_hat

    # -- involution -------------------------------------------------------------

    def involution(self, q: np.ndarray) -> np.ndarray:
        """Reflection through M, blended to the identity far away.

        q |-> (2 - |q|) q/|q| on the shell 0.25 <= |q| <= 1.75, glued to the
        identity by the radial C^2 profile.
        """
        q = np.asarray(q, dtype=float)
        rho = _norm(q)
        safe = np.where(rho > 1e-300, rho, 1.0)
        refl = (2.0 - rho) * q / safe
        psi = _bump(self.constraint_residual(q))[..., None]
        return q + psi * (refl - q)

    def involution_jacobian(self, q: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Derivative of the involution at q applied to a; q must be inside the tube."""
        q = np.asarray(q, dtype=float)
        res = self.constraint_residual(q)
        if np.any(res >= self.tubular_radius):
            raise OutsideTubularNeighborhood(
                f"distance {float(np.max(res)):.3e} >= tubular radius {self.tubular_radius}"
            )
        return self._jacobian_raw(q, np.asarray(a, dtype=float))

    def _jacobian_raw(self, q: np.ndarray, a: np.ndarray) -> np.ndarray:
        rho = _norm(q)
        safe = np.where(rho > 1e-300, rho, 1.0)
        q_hat = q / safe
        alpha = _dot(q_hat, a)
        jac0 = (2.0 / safe - 1.0) * a - (2.0 / safe) * alpha * q_hat
        d = np.abs(rho - 1.0)
        psi = _bump(d[..., 0])[..., None]
        dpsi = _bump_derivative(d[..., 0])[..., None] * np.sign(rho - 1.0)
        refl = (2.0 - rho) * q_hat
        return a + dpsi * alpha * (refl - q) + psi * (jac0 - a)

    def involution_hessian(self, q: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Bilinear second derivative of the involution at q in directions (a, b)."""
        q = np.asarray(q, dtype=float)
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if np.all(self.constraint_residual(q) <= _BLEND_LO - 0.01):
            # pure radial shell: closed form
            rho = _norm(q)
            q_hat = q / rho
            alpha = _dot(q_hat, a)
            beta = _dot(q_hat, b)
            ab = _dot(a, b)
            return -(2.0 / rho ** 2) * (beta * a + alpha * b + (ab - 3.0 * alpha * beta) * q_hat)
        # blend zone: central second differences, step 1e-4
        na = _norm(a)
        nb = _norm(b)
        ua = a / np.where(na > 0, na, 1.0)
        ub = b / np.where(nb > 0, nb, 1.0)
        h = 1e-4
        mixed = (
            self.involution(q + h * ua + h * ub)
            - self.involution(q + h * ua - h * ub)
            - self.involution(q - h * ua + h * ub)
            + self.involution(q - h * ua - h * ub)
        ) / (4.0 * h * h)
        return mixed * na * nb

    # -- extensions of the second fundamental form --------------------------------

    def extended_sff_A(self, q: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Involution-based extension: half the reflected Hessian at the mirror point."""
        q = np.asarray(q, dtype=float)
        ja = self._jacobian_raw(q, np.asarray(a, dtype=float))
        jb = self._jacobian_raw(q, np.asarray(b, dtype=float))
        return 0.5 * self.involution_hessian(self.involution(q), ja, jb)

    def extended_sff_perp(self, q: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Perpendicular extension: A at the nearest point on tangent parts, bumped off M.

        Normal-valued along M, smooth and compactly supported in q; agrees with
        extended_sff_A on M for tangent arguments.
        """
        q = np.asarray(q, dtype=float)
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        p = self.nearest_point(q)
        pa = self.tangent_project_at(q, a)
        pb = self.tangent_project_at(q, b)
        psi = _bump(self.constraint_residual(q))[..., None]
        return psi * (-_dot(pa, pb) * p)

    def sff_perp_difference(self, q: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """extended_sff_perp(q, a, a) - extended_sff_perp(q, b, b) in one pass.

        The norm, nearest point and bump are computed once instead of six
        times; every other operation is the one the two calls perform, in the
        same order, so the result is bitwise equal.
        """
        q = np.asarray(q, dtype=float)
        rho = _norm(q)
        p = q / np.where(rho > 1e-300, rho, 1.0)
        psi = _bump(np.abs(rho[..., 0] - 1.0))[..., None]
        pa = a - _dot(a, p) * p
        pb = b - _dot(b, p) * p
        out = psi * (-_dot(pa, pa) * p)
        out -= psi * (-_dot(pb, pb) * p)
        return out


def _bump_derivative(dist: np.ndarray) -> np.ndarray:
    """d/d(dist) of the radial profile (quintic ramp derivative)."""
    s = (np.asarray(dist, dtype=float) - _BLEND_LO) / (_BLEND_HI - _BLEND_LO)
    inside = (s > 0.0) & (s < 1.0)
    ds = np.where(inside, 30.0 * s * s * (s - 1.0) * (s - 1.0), 0.0)
    return -ds / (_BLEND_HI - _BLEND_LO)


# ---------------------------------------------------------------------------
# diffusion fields
# ---------------------------------------------------------------------------

def _quarter_turn(q: np.ndarray) -> np.ndarray:
    """(-q_2, q_1, 0, ..), faded to zero off the unit circle or sphere.

    On the circle this is p turned by 90 degrees; on the sphere it is the
    rotation about the third axis, e x p.
    """
    d = np.abs(_norm(q)[..., 0] - 1.0)
    psi = _bump(d)[..., None]
    out = np.zeros_like(q)
    out[..., 0] = -q[..., 1]
    out[..., 1] = q[..., 0]
    return psi * out


@dataclass(frozen=True)
class DiffusionField:
    """State-dependent noise coefficient q -> Y(q), tangent along M.

    evaluator is vectorized over leading axes; the field vanishes for
    |q| >= cutoff_radius and satisfies |Y(q)| <= bound_constant * (1 + |q|).
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    cutoff_radius: float
    bound_constant: float

    def __call__(self, q: np.ndarray) -> np.ndarray:
        return self.evaluator(np.asarray(q, dtype=float))

    @classmethod
    def sphere_axis_rotation(cls) -> "DiffusionField":
        """Rotation field about the third axis on the unit sphere: Y(p) = e x p."""
        return cls(_quarter_turn, cutoff_radius=1.0 + _BLEND_HI, bound_constant=1.0)

    @classmethod
    def circle_rotation(cls) -> "DiffusionField":
        """Quarter-turn field on the unit circle: Y(p) = p rotated by 90 degrees."""
        return cls(_quarter_turn, cutoff_radius=1.0 + _BLEND_HI, bound_constant=1.0)

    @classmethod
    def for_manifold(cls, manifold: ManifoldModel) -> "DiffusionField":
        return cls.circle_rotation() if manifold.kind == "circle" else cls.sphere_axis_rotation()

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
from .function_spaces import Scratch, pointwise_dot as _dot, smoothstep

__all__ = ["ManifoldModel", "DiffusionField"]

# Radial profile shared by the involution blend, the perpendicular extension
# and the shipped diffusion fields: 1 for d <= 0.75, C^2 down to 0 at d = 0.9.
_BLEND_LO = 0.75
_BLEND_HI = 0.9


def _bump(dist: np.ndarray, out: np.ndarray | None = None, work: Scratch | None = None) -> np.ndarray:
    """The radial profile at dist; out may be dist itself."""
    s = np.subtract(dist, _BLEND_LO, out=np.empty(np.shape(dist)) if out is None else out)
    s /= _BLEND_HI - _BLEND_LO
    return np.subtract(1.0, smoothstep(s, out=s, work=work), out=s)


def _norm(q: np.ndarray) -> np.ndarray:
    return np.sqrt(_dot(q, q))


# The kernels below take one scalar per point (a norm, a dot product, the
# bump) and apply it to each component column q[..., c] in turn, instead of
# broadcasting a (..., 1) factor over the component axis; each entry sees
# the operations of the broadcast form in the same order, so the bits agree.

def _dot_into(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """pointwise_dot(a, b)[..., 0] written into out, a0*b0 + a1*b1, then += a2*b2."""
    np.multiply(a[..., 0], b[..., 0], out=out)
    for c in range(1, a.shape[-1]):
        out += np.multiply(a[..., c], b[..., c], out=tmp)
    return out


def _radius_into(q: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """|q| per point, written into out."""
    return np.sqrt(_dot_into(q, q, out, tmp), out=out)


def _bump_unless_one(dist: np.ndarray, work: Scratch) -> np.ndarray | None:
    """The radial profile at dist, written over it, or None where it is 1.0 at every point.

    Up to _BLEND_LO the ramp's argument clips to +0.0 and the profile is
    exactly 1.0, and a product with 1.0 is its other factor bit for bit, so
    a caller given None skips the profile and its products.
    """
    if dist.size and dist.max() <= _BLEND_LO:  # a NaN fails the test
        return None
    return _bump(dist, out=dist, work=work)


def _divisor(rho: np.ndarray) -> np.ndarray:
    """np.where(rho > 1e-300, rho, 1.0), in place: a zero or NaN radius divides by 1."""
    np.copyto(rho, 1.0, where=~(rho > 1e-300))
    return rho


@dataclass(frozen=True)
class ManifoldModel:
    """The unit circle in R^2 ("circle") or the unit sphere in R^3 ("sphere").

    Every primitive is a closed form vectorized over leading axes.
    """

    kind: str
    tubular_radius = 0.75  # the involution's Jacobian is taken inside this distance

    def __post_init__(self):
        if self.kind not in ("circle", "sphere"):
            raise ValueError(f"targets are the circle in R^2 and the sphere in R^3, not {self.kind!r}")

    @property
    def ambient_dim(self) -> int:
        return 2 if self.kind == "circle" else 3

    # -- constructors ---------------------------------------------------------

    @classmethod
    def circle(cls) -> "ManifoldModel":
        return cls("circle")

    @classmethod
    def sphere(cls) -> "ManifoldModel":
        return cls("sphere")

    # -- pointwise primitives (vectorized over leading axes) -------------------

    def nearest_point(self, q: np.ndarray, out: np.ndarray | None = None,
                      work: Scratch | None = None) -> np.ndarray:
        """q / |q|, and q itself at the origin; out may be q itself."""
        q = np.asarray(q, dtype=float)
        work = Scratch() if work is None else work
        points = q.shape[:-1]
        safe = _divisor(_radius_into(q, work.get("nearest.rho", points), work.get("nearest.tmp", points)))
        out = np.empty(q.shape) if out is None else out
        for c in range(q.shape[-1]):
            np.divide(q[..., c], safe, out=out[..., c])
        return out

    def constraint_residual(self, q: np.ndarray, out: np.ndarray | None = None,
                            work: Scratch | None = None) -> np.ndarray:
        """Distance to the manifold (unsigned), one value per point."""
        q = np.asarray(q, dtype=float)
        work = Scratch() if work is None else work
        points = q.shape[:-1]
        res = _radius_into(q, np.empty(points) if out is None else out, work.get("residual.tmp", points))
        res -= 1.0
        return np.abs(res, out=res)

    def tangent_project_at(self, p: np.ndarray, a: np.ndarray, out: np.ndarray | None = None,
                           work: Scratch | None = None) -> np.ndarray:
        """Tangent projection at the nearest manifold point of p (no checks); out may be a itself."""
        a = np.asarray(a, dtype=float)
        work = Scratch() if work is None else work
        shape = np.broadcast_shapes(np.shape(p), a.shape)
        n_hat = self.nearest_point(np.broadcast_to(p, shape), work.get("project.normal", shape), work)
        tmp = work.get("project.tmp", shape[:-1])
        dot = _dot_into(a, n_hat, work.get("project.dot", shape[:-1]), tmp)
        out = np.empty(shape) if out is None else out
        for c in range(shape[-1]):
            np.subtract(a[..., c], np.multiply(dot, n_hat[..., c], out=tmp), out=out[..., c])
        return out

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

    def sff_perp_difference(self, q: np.ndarray, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None,
                            work: Scratch | None = None) -> np.ndarray:
        """extended_sff_perp(q, a, a) - extended_sff_perp(q, b, b) in one pass.

        The norm, nearest point and bump are computed once instead of six
        times; every other operation is the one the two calls perform, in the
        same order, so the result is bitwise equal.  The nearest point waits
        in out until the last pass, so out must not share memory with q, a
        or b.
        """
        q = np.asarray(q, dtype=float)
        work = Scratch() if work is None else work
        points, ncomp = q.shape[:-1], q.shape[-1]
        tmp, tmp2 = work.get("sff.tmp", points), work.get("sff.tmp2", points)
        rho = _radius_into(q, work.get("sff.rho", points), tmp)
        dist = np.subtract(rho, 1.0, out=work.get("sff.psi", points))
        psi = _bump_unless_one(np.abs(dist, out=dist), work)
        safe = _divisor(rho)
        p = np.empty(q.shape) if out is None else out
        for c in range(ncomp):
            np.divide(q[..., c], safe, out=p[..., c])
        # -|x - (x.p) p|^2 for x = a and x = b, the tangent part one column at a time
        neg_sq = []
        for x, key in ((a, "sff.neg_sq_a"), (b, "sff.neg_sq_b")):
            dot = _dot_into(x, p, work.get("sff.dot", points), tmp)
            acc = work.get(key, points)
            for c in range(ncomp):
                part = np.subtract(x[..., c], np.multiply(dot, p[..., c], out=tmp), out=tmp)
                if c == 0:
                    np.multiply(part, part, out=acc)
                else:
                    acc += np.multiply(part, part, out=tmp2)
            neg_sq.append(np.negative(acc, out=acc))
        for c in range(ncomp):
            pc = p[..., c]
            first = np.multiply(neg_sq[0], pc, out=tmp)
            second = np.multiply(neg_sq[1], pc, out=tmp2)
            if psi is not None:
                np.multiply(psi, first, out=first)
                np.multiply(psi, second, out=second)
            np.subtract(first, second, out=pc)
        return p


def _bump_derivative(dist: np.ndarray) -> np.ndarray:
    """d/d(dist) of the radial profile (quintic ramp derivative)."""
    s = (np.asarray(dist, dtype=float) - _BLEND_LO) / (_BLEND_HI - _BLEND_LO)
    inside = (s > 0.0) & (s < 1.0)
    ds = np.where(inside, 30.0 * s * s * (s - 1.0) * (s - 1.0), 0.0)
    return -ds / (_BLEND_HI - _BLEND_LO)


# ---------------------------------------------------------------------------
# diffusion fields
# ---------------------------------------------------------------------------

def _quarter_turn(q: np.ndarray, out: np.ndarray | None = None, work: Scratch | None = None) -> np.ndarray:
    """(-q_2, q_1, 0, ..), faded to zero off the unit circle or sphere.

    On the circle this is p turned by 90 degrees; on the sphere it is the
    rotation about the third axis, e x p.  out must not share memory with q.
    """
    work = Scratch() if work is None else work
    points = q.shape[:-1]
    dist = _radius_into(q, work.get("turn.psi", points), work.get("turn.tmp", points))
    dist -= 1.0
    psi = _bump_unless_one(np.abs(dist, out=dist), work)
    out = np.empty(q.shape) if out is None else out
    np.negative(q[..., 1], out=out[..., 0])
    if psi is None:
        out[..., 1] = q[..., 0]
        out[..., 2:] = 0.0
        return out
    np.multiply(psi, out[..., 0], out=out[..., 0])
    np.multiply(psi, q[..., 0], out=out[..., 1])
    for c in range(2, q.shape[-1]):
        np.multiply(psi, 0.0, out=out[..., c])  # psi * 0.0, not 0.0: a NaN psi stays NaN
    return out


@dataclass(frozen=True)
class DiffusionField:
    """State-dependent noise coefficient q -> Y(q), tangent along M.

    evaluator(q, out, work) is vectorized over leading axes and writes into
    out when it is given; the field vanishes for |q| >= cutoff_radius and
    satisfies |Y(q)| <= bound_constant * (1 + |q|).
    """

    evaluator: Callable[..., np.ndarray]
    cutoff_radius: float
    bound_constant: float

    def __call__(self, q: np.ndarray, out: np.ndarray | None = None,
                 work: Scratch | None = None) -> np.ndarray:
        return self.evaluator(np.asarray(q, dtype=float), out, work)

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

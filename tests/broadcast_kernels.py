"""The broadcast forms of the geometry kernels and of the drift, kept as references.

Each kernel applies its per-point scalar (a norm, a dot product, the bump) as
a (..., 1) factor broadcast over the component axis, and the drift builds
every term on the whole lattice before extending it, as geowave did before
its kernels moved to component columns and its drift to the window's rows.
The rewritten kernels must agree with these bit for bit.
"""
import numpy as np

from geowave.function_spaces import derivative1, extend_array, pointwise_dot

_BLEND_LO = 0.75
_BLEND_HI = 0.9


def smoothstep(s):
    s = np.clip(s, 0.0, 1.0)
    return s * s * s * (10.0 + s * (-15.0 + 6.0 * s))


def bump(dist):
    return 1.0 - smoothstep((np.asarray(dist, dtype=float) - _BLEND_LO) / (_BLEND_HI - _BLEND_LO))


def norm(q):
    return np.sqrt(pointwise_dot(q, q))


def nearest_point(q):
    rho = norm(q)
    return q / np.where(rho > 1e-300, rho, 1.0)


def constraint_residual(q):
    return np.abs(norm(q)[..., 0] - 1.0)


def tangent_project_at(p, a):
    n_hat = nearest_point(p)
    return a - pointwise_dot(a, n_hat) * n_hat


def sff_perp_difference(q, a, b):
    rho = norm(q)
    p = q / np.where(rho > 1e-300, rho, 1.0)
    psi = bump(np.abs(rho[..., 0] - 1.0))[..., None]
    pa = a - pointwise_dot(a, p) * p
    pb = b - pointwise_dot(b, p) * p
    out = psi * (-pointwise_dot(pa, pa) * p)
    out -= psi * (-pointwise_dot(pb, pb) * p)
    return out


def quarter_turn(q):
    d = np.abs(norm(q)[..., 0] - 1.0)
    psi = bump(d)[..., None]
    out = np.zeros_like(q)
    out[..., 0] = -q[..., 1]
    out[..., 1] = q[..., 0]
    return psi * out


def _extended(values, i_lo, i_hi, order=1):
    out = values.copy()
    extend_array(out, i_lo, i_hi, order)
    return out


def whole_lattice_drift(u, v, spacing, theta, *, control_field=None, window=None):
    """theta * (A_u(v,v) - A_u(u_x,u_x) + Y(u) * control_field) built on every row, then extended.

    Y is the quarter-turn field both shipped diffusion fields use; theta
    broadcasts against u.
    """
    flat = (-1, u.shape[-1])
    force = sff_perp_difference(u.reshape(flat), v.reshape(flat),
                                derivative1(u, spacing).reshape(flat)).reshape(u.shape)
    if window is not None:
        force = _extended(force, *window)
    if control_field is not None:
        y = quarter_turn(u.reshape(flat)).reshape(u.shape)
        if window is not None:
            y = _extended(y, *window)
        force = force + y * control_field[..., None]
    force *= theta
    return force

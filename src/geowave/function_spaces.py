"""Lattice function spaces.

Vector-valued samples on a uniform 1-d lattice, local Sobolev norms with
fractional end cells, light cones, Hestenes reflection extensions and the two
interpolation inequalities used by the well-posedness arguments.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import HorizonExceeded, IntervalOutsideGrid, UnsupportedOrder

__all__ = [
    "GridFunction",
    "State",
    "LightCone",
    "InterpolationReport",
    "sobolev_norm",
    "state_norm",
    "extend",
    "window_indices",
    "interpolation_check",
    "derivative1",
    "derivative2",
    "pointwise_dot",
]

_ALIGN_TOL = 1e-9


@dataclass(frozen=True)
class GridFunction:
    """Samples of an R^n-valued function on a uniform lattice.

    values has shape (npoints, ncomp); the sample at index i sits at
    origin + i*spacing.
    """

    origin: float
    spacing: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] < 4:
            raise ValueError("values must be (npoints >= 4, ncomp)")
        object.__setattr__(self, "values", vals)
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")

    # -- basic queries ------------------------------------------------------

    @property
    def npoints(self) -> int:
        return self.values.shape[0]

    @property
    def ncomp(self) -> int:
        return self.values.shape[1]

    @property
    def x(self) -> np.ndarray:
        return self.origin + self.spacing * np.arange(self.npoints)

    @property
    def right(self) -> float:
        return self.origin + self.spacing * (self.npoints - 1)

    def same_lattice(self, other: "GridFunction") -> bool:
        return (
            self.npoints == other.npoints
            and abs(self.origin - other.origin) <= _ALIGN_TOL * self.spacing
            and abs(self.spacing - other.spacing) <= _ALIGN_TOL * self.spacing
        )

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.origin, self.spacing, values)

    # -- arithmetic (new objects, shared lattice assumed) --------------------

    def __add__(self, other: "GridFunction") -> "GridFunction":
        return self.with_values(self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        return self.with_values(self.values - other.values)

    def __mul__(self, c: float) -> "GridFunction":
        return self.with_values(self.values * c)

    __rmul__ = __mul__


@dataclass(frozen=True)
class State:
    """Position/velocity pair (u, v) on a shared lattice."""

    u: GridFunction
    v: GridFunction

    def __post_init__(self):
        if not self.u.same_lattice(self.v):
            raise ValueError("u and v must share one lattice")

    @property
    def spacing(self) -> float:
        return self.u.spacing

    @property
    def origin(self) -> float:
        return self.u.origin

    def __sub__(self, other: "State") -> "State":
        return State(self.u - other.u, self.v - other.v)

    def copy(self) -> "State":
        return State(
            self.u.with_values(self.u.values.copy()),
            self.v.with_values(self.v.values.copy()),
        )


@dataclass(frozen=True)
class LightCone:
    """Backward light cone with apex at time `horizon` over `center`."""

    center: float
    horizon: float

    def interval(self, t: float) -> tuple[float, float]:
        if t >= self.horizon:
            raise HorizonExceeded(f"t={t} is not below the cone horizon {self.horizon}")
        rad = self.horizon - t
        return (self.center - rad, self.center + rad)


def pointwise_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product over the trailing component axis, which is kept with length 1.

    The products are added left to right, out = a0*b0 + a1*b1; out += a2*b2,
    which is bitwise equal to (a * b).sum(axis=-1, keepdims=True) and several
    times faster than a reduction over so short an axis.
    """
    prod = a * b
    if prod.shape[-1] == 1:
        return prod
    out = prod[..., :1] + prod[..., 1:2]
    for c in range(2, prod.shape[-1]):
        out += prod[..., c:c + 1]
    return out


# ---------------------------------------------------------------------------
# derivatives (second-order central, one-sided second-order at the ends)
# ---------------------------------------------------------------------------

def derivative1(values: np.ndarray, spacing: float) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * spacing)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * spacing)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * spacing)
    return out


def derivative2(values: np.ndarray, spacing: float) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    h2 = spacing * spacing
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h2
    return out


# ---------------------------------------------------------------------------
# interval quadrature
# ---------------------------------------------------------------------------

def _check_interval(f: GridFunction, a: float, b: float) -> tuple[float, float]:
    tol = _ALIGN_TOL * max(1.0, abs(a), abs(b)) + _ALIGN_TOL * f.spacing
    if b <= a:
        raise IntervalOutsideGrid(f"empty interval ({a}, {b})")
    if a < f.origin - tol or b > f.right + tol:
        raise IntervalOutsideGrid(
            f"interval ({a}, {b}) not inside lattice [{f.origin}, {f.right}]"
        )
    return max(a, f.origin), min(b, f.right)


def integrate_samples(samples: np.ndarray, origin: float, spacing: float, a: float, b: float) -> float:
    """Trapezoid integral of scalar samples over (a, b) with fractional end cells.

    Endpoint values off the lattice are linearly interpolated, which keeps the
    integral continuous in the interval endpoints.
    """
    w = np.asarray(samples, dtype=float)
    m = w.shape[0]
    pos_a = (a - origin) / spacing
    pos_b = (b - origin) / spacing
    i0 = int(math.ceil(pos_a - 1e-9))
    i1 = int(math.floor(pos_b + 1e-9))
    i0 = max(i0, 0)
    i1 = min(i1, m - 1)

    def interp(pos: float) -> float:
        j = min(max(int(math.floor(pos)), 0), m - 2)
        frac = pos - j
        return (1.0 - frac) * w[j] + frac * w[j + 1]

    if i1 < i0:  # interval inside a single cell
        return 0.5 * (b - a) * (interp(pos_a) + interp(pos_b))

    total = 0.0
    if i1 > i0:
        total = spacing * (w[i0:i1 + 1].sum() - 0.5 * (w[i0] + w[i1]))
    wa = (i0 - pos_a) * spacing
    if wa > 1e-14 * spacing:
        total += 0.5 * wa * (interp(pos_a) + w[i0])
    wb = (pos_b - i1) * spacing
    if wb > 1e-14 * spacing:
        total += 0.5 * wb * (w[i1] + interp(pos_b))
    return float(total)


def sobolev_sq(f: GridFunction, interval: tuple[float, float], order: int) -> float:
    """Squared H^order norm over the interval (sum over derivative orders)."""
    if order not in (0, 1, 2):
        raise UnsupportedOrder(f"order must be 0, 1 or 2, got {order}")
    a, b = _check_interval(f, *interval)
    total = integrate_samples(pointwise_dot(f.values, f.values)[:, 0], f.origin, f.spacing, a, b)
    if order >= 1:
        d1 = derivative1(f.values, f.spacing)
        total += integrate_samples(pointwise_dot(d1, d1)[:, 0], f.origin, f.spacing, a, b)
    if order == 2:
        d2 = derivative2(f.values, f.spacing)
        total += integrate_samples(pointwise_dot(d2, d2)[:, 0], f.origin, f.spacing, a, b)
    return float(total)


def sobolev_norm(f: GridFunction, interval: tuple[float, float], order: int) -> float:
    """H^order(a, b) norm of an R^n-valued grid function."""
    return math.sqrt(sobolev_sq(f, interval, order))


def l2_inner(f: GridFunction, g: GridFunction, interval: tuple[float, float]) -> float:
    a, b = _check_interval(f, *interval)
    integrand = pointwise_dot(f.values, g.values)[:, 0]
    return integrate_samples(integrand, f.origin, f.spacing, a, b)


def state_norm(z: State, interval: tuple[float, float], orders: tuple[int, int] = (2, 1)) -> float:
    """Plain product norm sqrt(|u|_{H^a}^2 + |v|_{H^b}^2) over an interval."""
    return math.sqrt(sobolev_sq(z.u, interval, orders[0]) + sobolev_sq(z.v, interval, orders[1]))


# ---------------------------------------------------------------------------
# reflection extension
# ---------------------------------------------------------------------------

# Coefficients a_i solving sum_i a_i (-lambda_i)^j = 1 for j = 0..k with
# reflection multipliers lambda = (1, .., k+1): continuity of the first k
# derivatives across the cut.
_REFLECTION = {
    0: (1.0,),
    1: (3.0, -2.0),
    2: (6.0, -8.0, 3.0),
}

# C^2 quintic ramp used for every cutoff in the package.
def smoothstep(s: np.ndarray) -> np.ndarray:
    s = np.clip(s, 0.0, 1.0)
    return s * s * s * (10.0 + s * (-15.0 + 6.0 * s))


def _edge_cutoff(sigma: np.ndarray) -> np.ndarray:
    """1 for sigma <= 1/4, C^2 down to 0 at sigma = 1/2 (sigma = offset / r)."""
    return 1.0 - smoothstep((sigma - 0.25) / 0.25)


@functools.lru_cache(maxsize=256)  # two widths a step (coarse and refined lattice): a 128-step solve
def _edge_profile(rho_cells: int) -> np.ndarray:
    """_edge_cutoff(j / rho_cells) at j = 1, 2, .. while it is positive; built once per core width.

    Past its support, j >= rho_cells / 2, the ramp argument clips to 1 and
    the cutoff is exactly +0.0.  Below it the quintic ramp stays at least
    about 10 * (4 / rho_cells)^3 under 1, so the positive values form one
    leading run (checked for every core width up to 40000 cells).  The array
    is read-only, since every window of that width shares it.
    """
    chi = _edge_cutoff(np.arange(1, rho_cells // 2 + 2) / rho_cells)
    chi = chi[:np.count_nonzero(chi > 0.0)]
    chi.setflags(write=False)
    return chi


def extend_array(values: np.ndarray, i_lo: int, i_hi: int, order: int) -> None:
    """In-place reflection extension of `values` outside the core [i_lo, i_hi].

    The core half-width in cells is rho = (i_hi - i_lo) / 2; cells beyond the
    core receive the Hestenes reflection times the C^2 edge cutoff, identically
    zero past half the core width.  Cells outside the array are simply absent
    (the lattice edge truncates the far tail, which lives outside every
    quantity of interest).
    """
    if order not in _REFLECTION:
        raise UnsupportedOrder(f"extension order must be 0, 1 or 2, got {order}")
    coeffs = _REFLECTION[order]
    rho_cells = (i_hi - i_lo) // 2
    if rho_cells <= 0:
        raise IntervalOutsideGrid("extension core is empty")
    chi = _edge_profile(rho_cells)

    # each side as a view running away from the core: cell j (1, 2, ..) of
    # the right side is i_hi + j, of the left side i_lo - j
    right = values[i_hi + 1:]
    left = values[i_lo - 1::-1] if i_lo > 0 else values[:0]
    for side, edge, step in ((right, i_hi, -1), (left, i_lo, 1)):
        live = min(len(chi), len(side))
        acc = np.zeros((live,) + values.shape[1:])
        for lam, a in enumerate(coeffs, start=1):
            acc += a * values[edge + step * lam::step * lam][:live]  # the cells edge + step * lam * j
        side[:live] = chi[:live].reshape((-1,) + (1,) * (acc.ndim - 1)) * acc
        side[live:] = 0.0


def window_indices(origin: float, spacing: float, npoints: int, s: float) -> tuple[int, int]:
    """Lattice indices of -s and +s; both must be lattice points at least 4 cells apart."""
    lo = (-s - origin) / spacing
    hi = (s - origin) / spacing
    i_lo, i_hi = round(lo), round(hi)
    if abs(lo - i_lo) > 1e-6 or abs(hi - i_hi) > 1e-6:
        raise IntervalOutsideGrid(f"window (+-{s}) is not lattice-aligned")
    if i_lo < 0 or i_hi > npoints - 1 or i_hi - i_lo < 4:
        raise IntervalOutsideGrid(f"window (+-{s}) does not fit the lattice")
    return i_lo, i_hi


def extend(f: GridFunction, r: float, order: int) -> GridFunction:
    """Extension from (-r, r) to the line: equals f on the core, 0 outside (-2r, 2r).

    The input lattice must contain lattice points at both -r and +r; samples
    outside the core are ignored (restriction semantics).  The result lives on
    a lattice covering [-2r, 2r] with the same spacing and phase.
    """
    if order not in _REFLECTION:
        raise UnsupportedOrder(f"extension order must be 0, 1 or 2, got {order}")
    dx = f.spacing
    i_lo, i_hi = window_indices(f.origin, dx, f.npoints, r)
    core = f.values[i_lo:i_hi + 1]
    pad = int(math.ceil(r / dx - 1e-9))  # reaches at least -2r on the left
    m_out = (i_hi - i_lo) + 2 * pad + 1
    out = np.zeros((m_out, f.ncomp))
    out[pad:pad + (i_hi - i_lo) + 1] = core
    extend_array(out, pad, pad + (i_hi - i_lo), order)
    return GridFunction(-r - pad * dx, dx, out)


# ---------------------------------------------------------------------------
# interpolation inequalities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterpolationReport:
    variant: str
    lhs: float
    rhs: float
    holds: bool
    constant: float | None = None


def interpolation_check(u: GridFunction, interval: tuple[float, float], variant: str) -> InterpolationReport:
    """Check |u|_sup^2 against the two product bounds.

    variant "standard": |u|_inf^2 <= k_e^2 |u|_{L^2(I)} |u|_{H^1(I)} with
    k_e = 2 max(1, 1/sqrt(|I|)).  variant "gn": the full-line bound
    |u|_inf^2 <= |u|_{L^2}^2 + 2 |u|_{L^2} |u'|_{L^2}; meaningful when u decays
    inside the interval.
    """
    a, b = _check_interval(u, *interval)
    x = u.x
    mask = (x >= a - 1e-12) & (x <= b + 1e-12)
    sup_sq = float((u.values[mask] ** 2).sum(axis=1).max())
    l2 = math.sqrt(integrate_samples((u.values ** 2).sum(axis=1), u.origin, u.spacing, a, b))
    d1 = derivative1(u.values, u.spacing)
    d1_l2 = math.sqrt(integrate_samples((d1 ** 2).sum(axis=1), u.origin, u.spacing, a, b))
    if variant == "standard":
        h1 = math.sqrt(l2 * l2 + d1_l2 * d1_l2)
        k_e = 2.0 * max(1.0, 1.0 / math.sqrt(b - a))
        rhs = k_e * k_e * l2 * h1
        return InterpolationReport("standard", sup_sq, rhs, sup_sq <= rhs * (1 + 1e-12) + 1e-15, k_e)
    if variant == "gn":
        rhs = l2 * l2 + 2.0 * l2 * d1_l2
        return InterpolationReport("gn", sup_sq, rhs, sup_sq <= rhs * (1 + 1e-12) + 1e-15, None)
    raise ValueError(f"unknown variant {variant!r}")

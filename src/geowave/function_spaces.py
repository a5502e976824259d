"""Lattice function spaces.

Vector-valued samples on a uniform 1-d lattice, local Sobolev norms with
fractional end cells, light cones and Hestenes reflection extensions.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import HorizonExceeded, IntervalOutsideGrid, UnsupportedOrder

__all__ = [
    "GridFunction",
    "State",
    "LightCone",
    "extend",
    "window_indices",
    "Quadrature",
    "quadrature",
    "section_rows",
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

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        """Pointwise difference on a shared lattice (assumed, not checked)."""
        return self.with_values(self.values - other.values)


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


class Scratch:
    """Work arrays kept from call to call, so that a loop's kernels stop reallocating them.

    get(key, shape) returns a C-ordered float array of that shape: the
    leading elements of one flat buffer per key, which only grows.  Arrays
    under one key share memory, so a kernel keeps to its own keys, and one
    Scratch serves one run in one process.
    """

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def get(self, key: str, shape) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(key)
        if flat is None or flat.size < size:
            flat = self._flat[key] = np.empty(size)
        return flat[:size].reshape(shape)


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

def derivative1(values: np.ndarray, spacing: float, out: np.ndarray | None = None) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v) if out is None else out
    body = np.subtract(v[2:], v[:-2], out=out[1:-1])
    body /= 2.0 * spacing
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * spacing)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * spacing)
    return out


def derivative2(values: np.ndarray, spacing: float, out: np.ndarray | None = None) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    h2 = spacing * spacing
    out = np.empty_like(v) if out is None else out
    body = np.multiply(2.0, v[1:-1], out=out[1:-1])  # (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    np.subtract(v[2:], body, out=body)
    body += v[:-2]
    body /= h2
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


# Rows a cone section's fields are built on past its whole rows.  On a slice,
# D f with f built from u_x (the energy verifier's deepest field) is exact
# from the third row in from a cut end, and integrate_samples reads one row
# past the whole rows; four rows cover both with one to spare.
SECTION_MARGIN = 4


class Quadrature(NamedTuple):
    """integrate_samples' plan for (a, b) on a lattice of npoints rows.

    pos_a and pos_b are the ends in cells from the lattice origin, and i0..i1
    the rows inside them (a cell fraction of 1e-9 counts as inside).
    """

    a: float
    b: float
    spacing: float
    pos_a: float
    pos_b: float
    i0: int
    i1: int
    npoints: int


def quadrature(origin: float, spacing: float, npoints: int, a: float, b: float) -> Quadrature:
    """The plan for (a, b) on the npoints-row lattice whose row 0 sits at origin."""
    pos_a = (a - origin) / spacing
    pos_b = (b - origin) / spacing
    i0 = max(int(math.ceil(pos_a - 1e-9)), 0)
    i1 = min(int(math.floor(pos_b + 1e-9)), npoints - 1)
    return Quadrature(a, b, spacing, pos_a, pos_b, i0, i1, npoints)


def section_rows(i0: int, i1: int, npoints: int, margin: int = SECTION_MARGIN) -> slice:
    """Rows i0 - margin .. i1 + margin, clamped to the lattice.

    A stencil over the slice equals the stencil over the lattice except at
    the slice's cut ends, and each stencil applied on top of another moves
    that disagreement one row further in; where the slice ends at the
    lattice edge, its one-sided stencil is the lattice's own.
    """
    return slice(max(i0 - margin, 0), min(i1 + margin, npoints - 1) + 1)


def integrate_samples(samples: np.ndarray, quad: Quadrature, start: int = 0) -> float:
    """Trapezoid integral of scalar samples over (quad.a, quad.b) with fractional end cells.

    Endpoint values off the lattice are linearly interpolated, which keeps the
    integral continuous in the interval endpoints.  samples hold rows start,
    start + 1, .. of the lattice, at least one row past each end of
    quad.i0..quad.i1.  The plan measures the ends from the lattice origin, so
    a slice's integral is bitwise the whole lattice's; measured from the
    slice's first row instead, the end-cell widths would change by roundoff.
    """
    w = np.asarray(samples, dtype=float)
    a, b, spacing, pos_a, pos_b, i0, i1, m = quad

    def interp(pos: float) -> float:
        j = min(max(int(math.floor(pos)), 0), m - 2)
        frac = pos - j
        return (1.0 - frac) * w[j - start] + frac * w[j + 1 - start]

    if i1 < i0:  # interval inside a single cell
        return 0.5 * (b - a) * (interp(pos_a) + interp(pos_b))

    total = 0.0
    if i1 > i0:
        total = spacing * (w[i0 - start:i1 + 1 - start].sum() - 0.5 * (w[i0 - start] + w[i1 - start]))
    wa = (i0 - pos_a) * spacing
    if wa > 1e-14 * spacing:
        total += 0.5 * wa * (interp(pos_a) + w[i0 - start])
    wb = (pos_b - i1) * spacing
    if wb > 1e-14 * spacing:
        total += 0.5 * wb * (w[i1 - start] + interp(pos_b))
    return float(total)


def sobolev_sq(f: GridFunction, interval: tuple[float, float], order: int) -> float:
    """Squared H^order norm over the interval (sum over derivative orders).

    Only the interval's rows and SECTION_MARGIN rows each side are read:
    the quadrature reads one row past its whole rows and the second
    derivative there one row further, so the result is bitwise the
    whole-lattice one.
    """
    if order not in (0, 1, 2):
        raise UnsupportedOrder(f"order must be 0, 1 or 2, got {order}")
    quad = quadrature(f.origin, f.spacing, f.npoints, *_check_interval(f, *interval))
    rows = section_rows(quad.i0, quad.i1, f.npoints)
    vals = f.values[rows]

    def integral(g: np.ndarray) -> float:
        return integrate_samples(pointwise_dot(g, g)[:, 0], quad, rows.start)

    total = integral(vals)
    if order >= 1:
        total += integral(derivative1(vals, f.spacing))
    if order == 2:
        total += integral(derivative2(vals, f.spacing))
    return float(total)


def l2_inner(f: GridFunction, g: GridFunction, interval: tuple[float, float]) -> float:
    quad = quadrature(f.origin, f.spacing, f.npoints, *_check_interval(f, *interval))
    return integrate_samples(pointwise_dot(f.values, g.values)[:, 0], quad)


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

def smoothstep(s: np.ndarray, out: np.ndarray | None = None, work: Scratch | None = None) -> np.ndarray:
    """C^2 quintic ramp used for every cutoff in the package.

    s * s * s * (10.0 + s * (-15.0 + 6.0 * s)) of s clipped to [0, 1], one
    operation at a time in that order; out may be s itself.
    """
    s = np.clip(s, 0.0, 1.0, out=np.empty(np.shape(s)) if out is None else out)
    work = Scratch() if work is None else work
    poly = np.multiply(6.0, s, out=work.get("smoothstep.poly", s.shape))
    np.add(-15.0, poly, out=poly)
    np.multiply(s, poly, out=poly)
    np.add(10.0, poly, out=poly)
    cube = np.multiply(s, s, out=work.get("smoothstep.cube", s.shape))
    cube *= s
    return np.multiply(cube, poly, out=s)


def _edge_cutoff(sigma: np.ndarray) -> np.ndarray:
    """1 for sigma <= 1/4, C^2 down to 0 at sigma = 1/2 (sigma = offset / r)."""
    return 1.0 - smoothstep((sigma - 0.25) / 0.25)


@functools.lru_cache(maxsize=256)  # a default-scale noisy solve (256 steps): 513 misses, 1025 hits, ~20 us a miss
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
    if not (math.isfinite(lo) and math.isfinite(hi)):  # a subnormal spacing overflows the quotient
        raise IntervalOutsideGrid(f"window (+-{s}) does not fit the lattice")
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


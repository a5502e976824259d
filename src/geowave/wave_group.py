"""The 1-D linear wave group realized exactly on the lattice.

With unit propagation speed and time steps that are integer multiples of the
grid spacing, the d'Alembert solution is a combination of pure lattice shifts
plus a cumulative quadrature of the velocity.  The cumulative sum is taken
along the two index-parity chains (C[i+1] = C[i-1] + 2*dx*v[i]) so that it is
an exact right inverse of the central difference; this makes the group law,
time reversal, finite propagation speed, and homogeneous-energy conservation
hold to round-off rather than to quadrature accuracy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPadding, NonLatticeTime
from .function_spaces import State, derivative1, derivative2

__all__ = ["GroupStep", "apply_group", "apply_arrays", "generator", "midpoint_cumulative", "transport_velocity"]


@dataclass(frozen=True)
class GroupStep:
    """A group time expressed as a whole number of lattice cells."""

    shift_count: int
    spacing: float

    @classmethod
    def from_time(cls, t: float, spacing: float) -> "GroupStep":
        ratio = t / spacing
        nearest = round(ratio)
        if abs(ratio - nearest) > 1e-9 * (1.0 + abs(ratio)):
            raise NonLatticeTime(f"time {t} is not a lattice multiple of spacing {spacing}")
        return cls(int(nearest), float(spacing))

    @property
    def time(self) -> float:
        return self.shift_count * self.spacing


def _shift(values: np.ndarray, count: int) -> np.ndarray:
    """Translate rows by `count` cells, extending past the ends by the edge rows.

    Out-of-range indices are mapped to the outermost in-range index of the same
    parity.  For arrays whose edge bands are constant this is plain clamping;
    for the antiderivative chains, whose two parity chains settle on slightly
    different constants, it preserves the pattern exactly.
    """
    n = len(values)
    m = np.arange(n) + count
    over = (n - 1) - ((m - (n - 1)) % 2)
    under = m % 2
    idx = np.where(m > n - 1, over, np.where(m < 0, under, m))
    return values[idx]


def midpoint_cumulative(values: np.ndarray, spacing: float) -> np.ndarray:
    """Antiderivative samples C with C[i+1] - C[i-1] = 2*dx*values[i] exactly.

    The two parity chains are anchored at C[0] = 0 and a trapezoid seed for
    C[1]; the defining recursion makes the central difference of C reproduce
    `values` exactly away from the ends.
    """
    v = np.asarray(values, dtype=float)
    out = np.zeros_like(v)
    n = len(v)
    if n >= 2:
        out[1] = 0.5 * spacing * (v[0] + v[1])
    even = 2.0 * spacing * np.cumsum(v[1::2], axis=0)
    out[2::2] = even[: len(out[2::2])]
    odd = 2.0 * spacing * np.cumsum(v[2::2], axis=0)
    out[3::2] = out[1] + odd[: len(out[3::2])]
    return out


def _padding_defect(z: State, band: int) -> float:
    """How far the state is from being quiescent on the two edge bands.

    Quiescent means: velocity zero and position constant, so that clamped
    shifts act on the band exactly like shifts of the infinite lattice.
    """
    u, v = z.u.values, z.v.values
    left_u = np.abs(u[:band] - u[0]).max() if band > 0 else 0.0
    right_u = np.abs(u[-band:] - u[-1]).max() if band > 0 else 0.0
    left_v = np.abs(v[:band]).max() if band > 0 else 0.0
    right_v = np.abs(v[-band:]).max() if band > 0 else 0.0
    return max(left_u, right_u, left_v, right_v)


def _unit_step(s: np.ndarray, d: np.ndarray, count: int) -> np.ndarray:
    """0.5 * (S s + S' s) + 0.5 * (S d - S' d) for the shifts S, S' by count = +-1 and -count.

    Interior rows read their two neighbours through slices.  On the edge rows
    _shift's parity rule sends both shifts to the same row, index 1 on the
    left and n - 2 on the right, so those two rows read it twice.  Every entry
    is computed by the operations of the gathered form, so the result is
    bitwise equal to it.
    """
    ahead, behind = (slice(2, None), slice(None, -2)) if count == 1 else (slice(None, -2), slice(2, None))
    out = np.empty(s.shape)  # C order, as a gather returns: later reductions add in memory order
    body = out[1:-1]
    np.add(s[ahead], s[behind], out=body)
    body *= 0.5
    diff = d[ahead] - d[behind]
    diff *= 0.5
    body += diff
    edge = [1, -2]
    out[[0, -1]] = 0.5 * (s[edge] + s[edge]) + 0.5 * (d[edge] - d[edge])
    return out


def apply_arrays(u: np.ndarray, v: np.ndarray, spacing: float, count: int):
    """Array-level group step by `count` cells; returns the new (u, v) pair."""
    du = derivative1(u, spacing)
    cum = midpoint_cumulative(v, spacing)
    if abs(count) == 1 and len(u) >= 3:
        return _unit_step(u, cum, count), _unit_step(v, du, count)

    up, um = _shift(u, count), _shift(u, -count)
    cp, cm = _shift(cum, count), _shift(cum, -count)
    dp, dm = _shift(du, count), _shift(du, -count)
    vp, vm = _shift(v, count), _shift(v, -count)

    new_u = 0.5 * (up + um) + 0.5 * (cp - cm)
    new_v = 0.5 * (dp - dm) + 0.5 * (vp + vm)
    return new_u, new_v


def transport_velocity(force: np.ndarray, spacing: float):
    """Rows 0, 2, 4, .. of apply_arrays(zeros_like(force), force, spacing, 1), bitwise.

    The group step by one cell of a pure velocity field, on a refined lattice
    (an odd number of rows), read on the rows it shares with the coarse
    lattice.  Those rows need only the odd rows of the field and of its
    midpoint antiderivative; the zero position and its derivative contribute
    0.5 * (0 + 0) = +0.0, which is added so that zeros keep their sign.
    """
    f_odd = force[1::2]
    c_odd = np.empty(f_odd.shape)  # rows 1, 3, .. of midpoint_cumulative(force, spacing)
    c_odd[0] = 0.5 * spacing * (force[0] + force[1])
    c_odd[1:] = c_odd[0] + 2.0 * spacing * np.cumsum(force[2:-1:2], axis=0)

    def even_rows(odd, combine):
        out = np.empty((len(odd) + 1,) + odd.shape[1:])
        combine(odd[1:], odd[:-1], out=out[1:-1])
        out[[0, -1]] = combine(odd[[0, -1]], odd[[0, -1]])  # _shift's parity rule at the edges
        out *= 0.5
        out += 0.0
        return out

    return even_rows(c_odd, np.subtract), even_rows(f_odd, np.add)


def apply_group(z: State, t: float, *, strict: bool = True) -> State:
    """Evolve a position/velocity pair by the free wave flow for a lattice time.

    With `strict` the state must be quiescent (constant position, zero
    velocity) on edge bands wide enough for the shifts, so the result is exact
    on the whole lattice; pass strict=False when only a central region
    shielded by finite propagation speed is of interest.
    """
    dx = z.spacing
    step = GroupStep.from_time(t, dx)
    j = step.shift_count
    n = z.u.npoints
    if abs(j) >= n - 2:
        raise InsufficientPadding(f"shift by {j} cells exceeds the {n}-point lattice")
    if strict:
        band = abs(j) + 2
        if 2 * band >= n:
            raise InsufficientPadding(f"shift by {j} cells leaves no interior on {n} points")
        scale = 1.0 + max(np.abs(z.u.values).max(), np.abs(z.v.values).max())
        defect = _padding_defect(z, band)
        if defect > 1e-9 * scale:
            raise InsufficientPadding(
                f"state is not quiescent within {band} cells of the lattice edge "
                f"(defect {defect:.3e})"
            )

    new_u, new_v = apply_arrays(z.u.values, z.v.values, dx, j)
    return State(z.u.with_values(new_u), z.v.with_values(new_v))


def generator(z: State) -> State:
    """Time derivative of the free flow: position rate v, velocity rate u_xx."""
    lap = derivative2(z.u.values, z.spacing)
    return State(z.u.with_values(z.v.values.copy()), z.v.with_values(lap))

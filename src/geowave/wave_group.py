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

import numpy as np

from .errors import InsufficientPadding, NonLatticeTime
from .function_spaces import State, derivative1

__all__ = ["lattice_steps", "apply_group", "apply_arrays", "midpoint_cumulative", "transport_velocity"]


def lattice_steps(t: float, spacing: float) -> int:
    """The time t as a whole number of lattice steps of `spacing`."""
    ratio = t / spacing
    nearest = round(ratio)
    if abs(ratio - nearest) > 1e-9 * (1.0 + abs(ratio)):
        raise NonLatticeTime(f"time {t} is not a lattice multiple of spacing {spacing}")
    return int(nearest)


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


def midpoint_cumulative(values: np.ndarray, spacing: float, out: np.ndarray | None = None) -> np.ndarray:
    """Antiderivative samples C with C[i+1] - C[i-1] = 2*dx*values[i] exactly.

    The two parity chains are anchored at C[0] = 0 and a trapezoid seed for
    C[1]; the defining recursion makes the central difference of C reproduce
    `values` exactly away from the ends.  Each chain is 2*dx times a running
    sum, written into its rows of out.
    """
    v = np.asarray(values, dtype=float)
    if out is None:
        out = np.zeros_like(v)
    else:
        out[:2] = 0.0
    n = len(v)
    if n >= 2:
        out[1] = 0.5 * spacing * (v[0] + v[1])
    even = out[2::2]
    np.cumsum(v[1::2][:len(even)], axis=0, out=even)
    even *= 2.0 * spacing
    odd = out[3::2]
    np.cumsum(v[2::2][:len(odd)], axis=0, out=odd)
    odd *= 2.0 * spacing
    np.add(out[1], odd, out=odd)
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


def _unit_step(s: np.ndarray, d: np.ndarray, count: int, out: np.ndarray | None = None,
               tmp: np.ndarray | None = None) -> np.ndarray:
    """0.5 * (S s + S' s) + 0.5 * (S d - S' d) for the shifts S, S' by count = +-1 and -count.

    Interior rows read their two neighbours through slices.  On the edge rows
    _shift's parity rule sends both shifts to the same row, index 1 on the
    left and n - 2 on the right, so those two rows read it twice.  Every entry
    is computed by the operations of the gathered form, so the result is
    bitwise equal to it.  tmp, shaped like s, is scratch.
    """
    ahead, behind = (slice(2, None), slice(None, -2)) if count == 1 else (slice(None, -2), slice(2, None))
    if out is None:
        out = np.empty(s.shape)  # C order, as a gather returns: later reductions add in memory order
    body = np.add(s[ahead], s[behind], out=out[1:-1])
    body *= 0.5
    diff = np.subtract(d[ahead], d[behind], out=None if tmp is None else tmp[1:-1])
    diff *= 0.5
    body += diff
    edge = [1, -2]
    out[[0, -1]] = 0.5 * (s[edge] + s[edge]) + 0.5 * (d[edge] - d[edge])
    return out


def apply_arrays(u: np.ndarray, v: np.ndarray, spacing: float, count: int, out: tuple | None = None,
                 work: tuple | None = None):
    """Array-level group step by `count` cells; returns the new (u, v) pair.

    out = (new_u, new_v) receives the pair, and work = (du, cum) the
    derivative of u and the antiderivative of v; all four are shaped like u.
    The unit step uses new_v and then cum as scratch, so none of them may
    share memory with u or v.
    """
    du = derivative1(u, spacing, out=None if work is None else work[0])
    cum = midpoint_cumulative(v, spacing, out=None if work is None else work[1])
    new_u, new_v = (None, None) if out is None else out
    if abs(count) == 1 and len(u) >= 3:
        new_u = _unit_step(u, cum, count, out=new_u, tmp=new_v)
        return new_u, _unit_step(v, du, count, out=new_v, tmp=cum)

    up, um = _shift(u, count), _shift(u, -count)
    cp, cm = _shift(cum, count), _shift(cum, -count)
    dp, dm = _shift(du, count), _shift(du, -count)
    vp, vm = _shift(v, count), _shift(v, -count)

    pair = (0.5 * (up + um) + 0.5 * (cp - cm), 0.5 * (dp - dm) + 0.5 * (vp + vm))
    if out is None:
        return pair
    for dest, src in zip(out, pair):
        dest[...] = src
    return out


def transport_velocity(force: np.ndarray, spacing: float, out: tuple | None = None,
                       tmp: np.ndarray | None = None):
    """Rows 0, 2, 4, .. of apply_arrays(zeros_like(force), force, spacing, 1), bitwise.

    The group step by one cell of a pure velocity field, on a refined lattice
    (an odd number of rows), read on the rows it shares with the coarse
    lattice.  Those rows need only the odd rows of the field and of its
    midpoint antiderivative; the zero position and its derivative contribute
    0.5 * (0 + 0) = +0.0, which is added so that zeros keep their sign.
    out = (fu, fv) receives the pair; tmp, with one row fewer, is scratch.
    """
    f_odd = force[1::2]
    # rows 1, 3, .. of midpoint_cumulative(force, spacing)
    c_odd = np.empty(f_odd.shape) if tmp is None else tmp
    c_odd[0] = 0.5 * spacing * (force[0] + force[1])
    tail = np.cumsum(force[2:-1:2], axis=0, out=c_odd[1:])
    tail *= 2.0 * spacing
    np.add(c_odd[0], tail, out=tail)

    def even_rows(odd, combine, dest):
        dest = np.empty((len(odd) + 1,) + odd.shape[1:]) if dest is None else dest
        combine(odd[1:], odd[:-1], out=dest[1:-1])
        dest[[0, -1]] = combine(odd[[0, -1]], odd[[0, -1]])  # _shift's parity rule at the edges
        dest *= 0.5
        dest += 0.0
        return dest

    fu, fv = (None, None) if out is None else out
    return even_rows(c_odd, np.subtract, fu), even_rows(f_odd, np.add, fv)


def apply_group(z: State, t: float) -> State:
    """Evolve a position/velocity pair by the free wave flow for a lattice time.

    The state must be quiescent (constant position, zero velocity) on edge
    bands wide enough for the shifts, so the result is exact on the whole
    lattice.
    """
    dx = z.spacing
    j = lattice_steps(t, dx)
    n = z.u.npoints
    if abs(j) >= n - 2:
        raise InsufficientPadding(f"shift by {j} cells exceeds the {n}-point lattice")
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


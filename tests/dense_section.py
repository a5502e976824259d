"""The whole-lattice form of a cone-section energy, kept as the reference for solver.section_energy.

It weights every lattice row by the section's trapezoid weights (zero outside
the window) and builds the fields over the whole lattice.
"""
import numpy as np

from geowave.function_spaces import derivative1, derivative2


def dense_section_energy(u, v, window, spacing, minus=None):
    """Half the squared H^2 x H^1 norm of batched (u, v) on the window, summed over every row."""
    if minus is not None:
        u = u - minus[0][:, None, :]
        v = v - minus[1][:, None, :]
    i_lo, i_hi = window
    w = np.zeros(u.shape[0])
    w[i_lo:i_hi + 1] = spacing
    w[i_lo] = w[i_hi] = 0.5 * spacing
    total = np.zeros(u.shape[1])
    for arr in (u, derivative1(u, spacing), derivative2(u, spacing), v, derivative1(v, spacing)):
        total += np.einsum("i,ibc->b", w, arr * arr)
    return 0.5 * total

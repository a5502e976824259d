"""Spatially homogeneous noise from an atomic symmetric spectral measure.

An atom at frequency x > 0 with weight w contributes the orthonormal pair
sqrt(w) cos(x .), sqrt(w) sin(x .); an atom at 0 contributes the constant
sqrt(w).  Cylindrical increments are i.i.d. N(0, dt) coefficients on these
modes, so the field covariance is dt * sum_j w_j cos(x_j (x - y)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyMeasure, NonpositiveDt, QuadratureNotConverged

__all__ = [
    "SpectralMeasure",
    "NoiseBasis",
    "build_basis",
    "covariance_kernel",
    "sample_increment",
    "hs_embedding_norm",
]


@dataclass(frozen=True)
class SpectralMeasure:
    """Symmetric atomic measure given by half-line atoms [(x_j >= 0, w_j >= 0)].

    An atom at x > 0 stands for the symmetric pair at +-x carrying w/2 each.
    """

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((float(x), float(w)) for x, w in self.atoms)
        for x, w in atoms:
            if x < 0:
                raise ValueError(f"atom frequency must be >= 0, got {x}")
            if w < 0:
                raise ValueError(f"atom weight must be >= 0, got {w}")
        object.__setattr__(self, "atoms", atoms)

    @classmethod
    def default_three_atoms(cls) -> "SpectralMeasure":
        return cls(((0.0, 0.5), (1.0, 0.3), (2.5, 0.2)))


@dataclass(frozen=True)
class NoiseBasis:
    """Orthonormal real modes of the reproducing kernel space of the measure."""

    frequencies: np.ndarray  # (dim,)
    kinds: np.ndarray        # (dim,) 0 const, 1 cos, 2 sin
    amplitudes: np.ndarray   # (dim,) sqrt(weight)

    @property
    def dim(self) -> int:
        return len(self.frequencies)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Mode matrix of shape (dim, len(x))."""
        x = np.asarray(x, dtype=float)
        out = np.empty((self.dim, x.size))
        for i in range(self.dim):
            if self.kinds[i] == 0:
                out[i] = self.amplitudes[i]
            elif self.kinds[i] == 1:
                out[i] = self.amplitudes[i] * np.cos(self.frequencies[i] * x)
            else:
                out[i] = self.amplitudes[i] * np.sin(self.frequencies[i] * x)
        return out


def build_basis(measure: SpectralMeasure) -> NoiseBasis:
    if not measure.atoms:
        raise EmptyMeasure("spectral measure has no atoms")
    freqs, kinds, amps = [], [], []
    for x, w in measure.atoms:
        amp = math.sqrt(w)
        if x == 0.0:
            freqs.append(0.0)
            kinds.append(0)
            amps.append(amp)
        else:
            freqs.extend([x, x])
            kinds.extend([1, 2])
            amps.extend([amp, amp])
    return NoiseBasis(np.asarray(freqs), np.asarray(kinds, dtype=int), np.asarray(amps))


def covariance_kernel(measure: SpectralMeasure, lag: np.ndarray) -> np.ndarray:
    """Stationary field covariance sum_j w_j cos(x_j * lag)."""
    lag = np.asarray(lag, dtype=float)
    out = np.zeros_like(lag)
    for x, w in measure.atoms:
        out = out + w * np.cos(x * lag)
    return out


def sample_increment(basis: NoiseBasis, dt: float, rng: np.random.Generator) -> np.ndarray:
    """Cylindrical increment over a step of length dt: i.i.d. N(0, dt) mode coefficients."""
    if dt <= 0:
        raise NonpositiveDt(f"dt must be positive, got {dt}")
    return rng.normal(0.0, math.sqrt(dt), size=basis.dim)


# ---------------------------------------------------------------------------
# Hilbert-Schmidt diagnostics
# ---------------------------------------------------------------------------

def _weighted_h2_sq(mode_freq: float, mode_kind: int, amp: float, halfwidth: float, samples: int) -> float:
    """integral (1+xi^2)^2 |F(e^{-x^2/2} mode)(xi)|^2 dxi, unitary convention, via FFT."""
    n = samples
    dx = 2.0 * halfwidth / n
    x = -halfwidth + dx * np.arange(n)
    g = np.exp(-0.5 * x * x)
    if mode_kind == 0:
        g = amp * g
    elif mode_kind == 1:
        g = amp * g * np.cos(mode_freq * x)
    else:
        g = amp * g * np.sin(mode_freq * x)
    spectrum = np.fft.fft(g) * dx / math.sqrt(2.0 * math.pi)
    # undo the phase of the shifted origin so |.| is unaffected (it is), and
    # integrate the weighted modulus over the frequency grid
    xi = 2.0 * math.pi * np.fft.fftfreq(n, dx)
    dxi = 2.0 * math.pi / (n * dx)
    return float(((1.0 + xi * xi) ** 2 * np.abs(spectrum) ** 2).sum() * dxi)


def hs_embedding_norm(measure: SpectralMeasure, *, halfwidth: float = 40.0, samples: int = 4096) -> float:
    """Squared Hilbert-Schmidt norm of the kernel-space embedding into weighted H^2.

    Sums the weighted-H^2 masses of the basis modes against the Gaussian weight
    w(x) = exp(-x^2); refuses to answer if halving the frequency step moves the
    result by more than 1%.
    """
    basis = build_basis(measure)

    def total(L: float, n: int) -> float:
        return sum(
            _weighted_h2_sq(basis.frequencies[i], int(basis.kinds[i]), basis.amplitudes[i], L, n)
            for i in range(basis.dim)
        )

    coarse = total(halfwidth, samples)
    fine = total(2.0 * halfwidth, 2 * samples)
    if fine == 0.0 and coarse == 0.0:
        return 0.0
    if abs(fine - coarse) > 0.01 * max(abs(fine), 1e-300):
        raise QuadratureNotConverged(
            f"halving the frequency step moved the result from {coarse} to {fine}"
        )
    return fine


"""Spatially homogeneous noise: spectral atoms, finite mode basis, sampling."""
import math

import numpy as np
import pytest

from geowave.errors import EmptyMeasure, NonpositiveDt, QuadratureNotConverged
from geowave.noise import (
    SpectralMeasure,
    build_basis,
    covariance_kernel,
    hs_embedding_norm,
    sample_increment,
)
from geowave.rng import stream

# frozen oracle: for a unit atom at frequency zero the embedding mode is the
# plain Gaussian window, whose squared weighted-H^2 mass is 11*sqrt(pi)/4
_UNIT_ATOM_HS = 4.8742480899901687


def test_default_measure_atoms():
    mu = SpectralMeasure.default_three_atoms()
    assert mu.atoms == ((0.0, 0.5), (1.0, 0.3), (2.5, 0.2))


def test_measure_validation():
    with pytest.raises(EmptyMeasure):
        build_basis(SpectralMeasure(()))
    with pytest.raises(ValueError):
        SpectralMeasure(((1.0, -0.1),))
    with pytest.raises(ValueError):
        SpectralMeasure(((-1.0, 0.1),))


def test_basis_dimension_and_orthogonality():
    mu = SpectralMeasure.default_three_atoms()
    basis = build_basis(mu)
    assert basis.dim == 5  # one constant mode plus cos/sin per positive atom
    # modes at a point reproduce the kernel at zero lag: sum of weights
    x = np.zeros(1)
    modes = basis.evaluate(x)
    assert abs((modes ** 2).sum() - 1.0) < 1e-14


def test_kernel_reproduction_identity():
    mu = SpectralMeasure.default_three_atoms()
    basis = build_basis(mu)
    x = np.linspace(-4.0, 4.0, 9)
    modes = basis.evaluate(x)
    gram = modes.T @ modes
    want = covariance_kernel(mu, x[:, None] - x[None, :])
    assert np.abs(gram - want).max() < 1e-12


def test_covariance_kernel_closed_form():
    mu = SpectralMeasure(((0.0, 0.5), (2.0, 0.25)))
    lag = np.array([0.0, math.pi / 4.0])
    got = covariance_kernel(mu, lag)
    assert abs(got[0] - 0.75) < 1e-15
    assert abs(got[1] - (0.5 + 0.25 * math.cos(math.pi / 2.0))) < 1e-15


def test_increment_variance_and_independence():
    basis = build_basis(SpectralMeasure.default_three_atoms())
    rng = stream(0, 555)
    dt = 0.05
    n = 20000
    coeffs = np.stack([sample_increment(basis, dt, rng) for _ in range(n)])
    var = coeffs.var(axis=0, ddof=1)
    sigma = dt * math.sqrt(2.0 / (n - 1))
    assert np.abs(var - dt).max() < 5.0 * sigma
    mean_sigma = math.sqrt(dt / n)
    assert np.abs(coeffs.mean(axis=0)).max() < 5.0 * mean_sigma
    cross = (coeffs[:, 0] * coeffs[:, 1]).mean()
    assert abs(cross) < 5.0 * dt / math.sqrt(n)


def test_increment_rejects_bad_dt():
    basis = build_basis(SpectralMeasure.default_three_atoms())
    with pytest.raises(NonpositiveDt):
        sample_increment(basis, 0.0, stream(0, 1))


def test_field_stationary_variance():
    mu = SpectralMeasure.default_three_atoms()
    basis = build_basis(mu)
    rng = stream(0, 556)
    dt = 0.1
    modes = basis.evaluate(-2.0 + 0.5 * np.arange(9))
    n = 20000
    fields = np.stack([sample_increment(basis, dt, rng) @ modes for _ in range(n)])
    var = fields.var(axis=0, ddof=1)
    k0 = float(covariance_kernel(mu, np.zeros(1))[0]) * dt
    sigma = k0 * math.sqrt(2.0 / (n - 1))
    assert np.abs(var - k0).max() < 5.0 * sigma


def test_hs_embedding_norm_frozen_value():
    got = hs_embedding_norm(SpectralMeasure(((0.0, 1.0),)))
    assert abs(got - _UNIT_ATOM_HS) / _UNIT_ATOM_HS < 1e-2
    # quadrature stability: refining the grid moves the answer < 1 percent
    full = hs_embedding_norm(SpectralMeasure.default_three_atoms())
    finer = hs_embedding_norm(SpectralMeasure.default_three_atoms(), samples=8192)
    assert abs(finer - full) / full < 1e-2


def test_hs_embedding_norm_flags_divergent_quadrature():
    # an extreme atom frequency cannot be resolved by a short coarse grid
    bad = SpectralMeasure(((200.0, 1.0),))
    with pytest.raises(QuadratureNotConverged):
        hs_embedding_norm(bad, halfwidth=2.0, samples=32)


def test_sampling_is_reproducible_by_stream_path():
    basis = build_basis(SpectralMeasure.default_three_atoms())
    a = sample_increment(basis, 0.2, stream(42, 7, 3))
    b = sample_increment(basis, 0.2, stream(42, 7, 3))
    c = sample_increment(basis, 0.2, stream(42, 7, 4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)

"""Lattice Sobolev machinery: quadrature, derivatives, cone norms, extensions."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geowave.energy import energy
from geowave.errors import HorizonExceeded, IntervalOutsideGrid, UnsupportedOrder
from geowave.function_spaces import (
    GridFunction,
    LightCone,
    State,
    derivative1,
    derivative2,
    _edge_cutoff,
    extend,
    extend_array,
    integrate_samples,
    interpolation_check,
    l2_inner,
    smoothstep,
    sobolev_norm,
    sobolev_sq,
    state_norm,
)

# frozen oracle: the H^1 norm of sin on (0, 2*pi) is sqrt(2*pi)
_SIN_H1 = 2.5066282746310002


def _sine(n=4096):
    dx = 2.0 * math.pi / n
    x = dx * np.arange(n + 1)
    return GridFunction(0.0, dx, np.sin(x)), dx


def test_gridfunction_validation():
    with pytest.raises(ValueError):
        GridFunction(0.0, 0.1, np.zeros(3))
    with pytest.raises(ValueError):
        GridFunction(0.0, -0.1, np.zeros(8))
    f = GridFunction(-1.0, 0.5, np.arange(5.0))
    assert f.npoints == 5 and f.ncomp == 1
    assert f.right == 1.0
    assert np.allclose(f.x, [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_integrate_samples_linear_exact():
    # trapezoid is exact on affine integrands, including fractional end cells
    dx = 0.125
    x = -1.0 + dx * np.arange(17)
    vals = 2.0 * x + 3.0
    got = integrate_samples(vals, -1.0, dx, -0.3, 0.8)
    want = (0.8 ** 2 - 0.3 ** 2) + 3.0 * 1.1
    assert abs(got - want) < 1e-13


def test_sobolev_rejects_interval_outside_grid():
    f = GridFunction(0.0, 0.1, np.zeros(9))
    with pytest.raises(IntervalOutsideGrid):
        sobolev_sq(f, (-0.5, 0.3), 0)
    with pytest.raises(IntervalOutsideGrid):
        sobolev_sq(f, (0.5, 0.2), 0)


def test_derivatives_exact_on_quadratics():
    dx = 0.2
    x = dx * np.arange(30)
    vals = (1.5 + 0.5 * x - 2.0 * x * x)[:, None]
    d1 = derivative1(vals, dx)
    d2 = derivative2(vals, dx)
    assert np.abs(d1[:, 0] - (0.5 - 4.0 * x)).max() < 1e-11
    assert np.abs(d2[:, 0] + 4.0).max() < 1e-10


def test_derivative_convergence_rate():
    errs = []
    for n in (128, 256):
        dx = 2.0 * math.pi / n
        x = dx * np.arange(n + 1)
        d1 = derivative1(np.sin(x)[:, None], dx)[:, 0]
        errs.append(np.abs(d1 - np.cos(x)).max())
    assert errs[1] < 0.3 * errs[0]  # second order, including the one-sided ends


def test_sobolev_sine_oracle():
    f, _ = _sine()
    got = sobolev_norm(f, (0.0, 2.0 * math.pi), 1)
    assert abs(got - _SIN_H1) < 1e-5
    # H^0 is the plain L^2 norm: sqrt(pi) for sine over a full period
    assert abs(sobolev_norm(f, (0.0, 2.0 * math.pi), 0) - math.sqrt(math.pi)) < 1e-6


def test_sobolev_sq_additive_in_orders():
    f, _ = _sine()
    iv = (0.5, 5.5)
    h2 = sobolev_sq(f, iv, 2)
    h1 = sobolev_sq(f, iv, 1)
    l2 = sobolev_sq(f, iv, 0)
    assert h1 > l2 and h2 > h1
    d2 = derivative2(f.values, f.spacing)
    extra = integrate_samples((d2 ** 2).sum(axis=1), f.origin, f.spacing, *iv)
    assert abs((h2 - h1) - extra) < 1e-12 * max(1.0, h2)


def test_l2_inner_matches_norm():
    f, _ = _sine()
    iv = (0.0, 2.0 * math.pi)
    assert abs(l2_inner(f, f, iv) - sobolev_sq(f, iv, 0)) < 1e-14
    g = GridFunction(f.origin, f.spacing, 2.0 * f.values)
    assert abs(l2_inner(f, g, iv) - 2.0 * sobolev_sq(f, iv, 0)) < 1e-12


def test_light_cone_norm_definition():
    f, dx = _sine(1024)
    z = State(f, GridFunction(f.origin, dx, np.cos(f.x)))
    cone = LightCone(math.pi, 2.0)
    got = energy(0.5, z, cone, k=1)
    iv = cone.interval(0.5)
    want = 0.5 * (sobolev_sq(z.u, iv, 2) + sobolev_sq(z.v, iv, 1))
    assert got == want
    assert iv == (math.pi - 1.5, math.pi + 1.5)
    with pytest.raises(HorizonExceeded):
        cone.interval(2.0)


def test_state_norm_matches_components():
    f, dx = _sine(512)
    z = State(f, f)
    iv = (1.0, 4.0)
    want = math.sqrt(sobolev_sq(f, iv, 2) + sobolev_sq(f, iv, 1))
    assert abs(state_norm(z, iv) - want) < 1e-14


def test_smoothstep_profile():
    assert smoothstep(np.array([-1.0]))[0] == 0.0
    assert smoothstep(np.array([2.0]))[0] == 1.0
    assert abs(smoothstep(np.array([0.5]))[0] - 0.5) < 1e-15
    s = np.linspace(0, 1, 101)
    vals = smoothstep(s)
    assert np.all(np.diff(vals) >= 0)


def _quadratic_grid():
    dx = 0.05
    x = -2.0 + dx * np.arange(81)
    return GridFunction(-2.0, dx, 1.0 + 2.0 * x - 3.0 * x * x), x


def test_extend_core_restriction():
    f, x = _quadratic_grid()
    ext = extend(f, 1.0, order=2)
    xe = ext.x
    core = np.abs(xe) <= 1.0 + 1e-12
    orig = np.interp(xe[core], x, f.values[:, 0])
    assert np.abs(ext.values[core, 0] - orig).max() < 1e-12
    assert np.abs(ext.values[np.abs(xe) >= 2.0 - 1e-12]).max() == 0.0


def test_extend_order2_reproduces_quadratics_in_band():
    f, _ = _quadratic_grid()
    ext = extend(f, 1.0, order=2)
    xe = ext.x
    band = np.abs(xe) <= 1.24  # inside the band the edge cutoff is identically 1
    want = 1.0 + 2.0 * xe[band] - 3.0 * xe[band] ** 2
    assert np.abs(ext.values[band, 0] - want).max() < 1e-12


def test_extend_order1_reproduces_affine():
    dx = 0.05
    x = -2.0 + dx * np.arange(81)
    f = GridFunction(-2.0, dx, 0.7 - 1.3 * x)
    ext = extend(f, 1.0, order=1)
    band = np.abs(ext.x) <= 1.24
    assert np.abs(ext.values[band, 0] - (0.7 - 1.3 * ext.x[band])).max() < 1e-12


def test_extend_order0_continuity():
    f, _ = _quadratic_grid()
    ext = extend(f, 1.0, order=0)
    jump = np.abs(np.diff(ext.values[:, 0])).max()
    inner = np.abs(np.diff(f.values[:, 0])).max()
    assert jump < 4.0 * inner  # no O(1) seam at the cut


def test_extend_rejects_bad_requests():
    f, _ = _quadratic_grid()
    with pytest.raises(UnsupportedOrder):
        extend(f, 1.0, order=3)
    with pytest.raises(IntervalOutsideGrid):
        extend(f, 3.0, order=1)
    with pytest.raises(IntervalOutsideGrid):
        extend(f, 1.005, order=1)  # off-lattice core endpoint


def _masked_extension(values, i_lo, i_hi, coeffs):
    """The reflection extension with its cutoff profile and live cells rebuilt per side."""
    m = values.shape[0]
    rho = (i_hi - i_lo) // 2
    for count, rows, sources in ((m - 1 - i_hi, slice(i_hi + 1, None), lambda lam, j: i_hi - lam * j),
                                 (i_lo, slice(i_lo - 1, None, -1), lambda lam, j: i_lo + lam * j)):
        if count <= 0:
            continue
        j = np.arange(1, count + 1)
        chi = _edge_cutoff(j / rho)
        acc = np.zeros((count,) + values.shape[1:])
        live = chi > 0.0
        for lam, a in enumerate(coeffs, start=1):
            acc[live] += a * values[sources(lam, j[live])]
        values[rows] = chi.reshape((-1,) + (1,) * (acc.ndim - 1)) * acc


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), npoints=st.integers(5, 120), lo=st.floats(0.0, 1.0),
       width=st.floats(0.0, 1.0), order=st.sampled_from([0, 1, 2]), batch=st.integers(1, 3))
def test_extension_with_cached_profiles_is_bitwise_the_masked_one(seed, npoints, lo, width, order, batch):
    i_lo = int(lo * (npoints - 5))
    i_hi = i_lo + 4 + int(width * (npoints - 5 - i_lo))
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((npoints, batch, 3)) * 10.0 ** rng.integers(-6, 7, size=(npoints, batch, 3))
    got, want = values.copy(), values.copy()
    extend_array(got, i_lo, i_hi, order)
    _masked_extension(want, i_lo, i_hi, {0: (1.0,), 1: (3.0, -2.0), 2: (6.0, -8.0, 3.0)}[order])
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_interpolation_bounds_hold_for_random_fields():
    rng = np.random.default_rng(0)
    dx = 0.02
    x = -3.0 + dx * np.arange(301)
    for trial in range(25):
        coeffs = rng.standard_normal(4)
        vals = sum(c * np.sin((k + 1) * x) for k, c in enumerate(coeffs))
        vals = vals * np.exp(-x * x)
        u = GridFunction(-3.0, dx, vals)
        for variant in ("standard", "gn"):
            rep = interpolation_check(u, (-3.0, 3.0), variant)
            assert rep.holds, f"trial {trial}, {variant}: {rep.lhs} > {rep.rhs}"
    with pytest.raises(ValueError):
        interpolation_check(u, (-3.0, 3.0), "nope")

"""Tests for the exact lattice realization of the free wave flow."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geowave.errors import InsufficientPadding, NonLatticeTime
from geowave.function_spaces import GridFunction, State, derivative1
from geowave.wave_group import (
    _shift,
    apply_arrays,
    apply_group,
    lattice_steps,
    midpoint_cumulative,
    transport_velocity,
)

_DX = 1.0 / 64.0


def _lattice(npoints=513):
    return -4.0 + _DX * np.arange(npoints)


def _windowed_state(rng, ncomp=1):
    """Random smooth state supported in |x| <= 2 on the [-4, 4] lattice.

    The wide quiescent margin keeps every shift in these tests strict-safe.
    """
    x = _lattice()
    window = np.where(np.abs(x) < 2.0, np.cos(np.pi * x / 4.0) ** 2, 0.0)
    u = np.zeros((len(x), ncomp))
    v = np.zeros((len(x), ncomp))
    for c in range(ncomp):
        for k in range(1, 4):
            u[:, c] += rng.normal() * np.sin(k * x) + rng.normal() * np.cos(k * x)
            v[:, c] += rng.normal() * np.sin(k * x + 0.5)
        u[:, c] *= window
        v[:, c] *= window
    uf = GridFunction(-4.0, _DX, u)
    return State(uf, uf.with_values(v))


def _state_gap(a, b):
    return max(
        float(np.abs(a.u.values - b.u.values).max()),
        float(np.abs(a.v.values - b.v.values).max()),
    )


def _free_energy(z):
    du = np.gradient(z.u.values, z.spacing, axis=0)
    return float((du ** 2 + z.v.values ** 2).sum() * z.spacing)


def test_group_step_from_time():
    steps = lattice_steps(0.75, _DX)
    assert type(steps) is int and steps == 48
    assert steps * _DX == 0.75
    assert lattice_steps(-0.5, _DX) == -32
    assert lattice_steps(0.0, _DX) == 0


def test_group_step_rejects_non_lattice_time():
    with pytest.raises(NonLatticeTime):
        lattice_steps(0.7501, _DX)


def test_midpoint_cumulative_inverts_central_difference():
    rng = np.random.default_rng(3)
    for _ in range(5):
        v = rng.normal(size=201)
        cum = midpoint_cumulative(v, _DX)
        central = (cum[2:] - cum[:-2]) / (2.0 * _DX)
        assert np.abs(central - v[1:-1]).max() < 1e-12
    assert cum[0] == 0.0


def test_group_law():
    rng = np.random.default_rng(11)
    for _ in range(4):
        z = _windowed_state(rng, ncomp=2)
        once = apply_group(apply_group(z, 0.25), 0.5)
        whole = apply_group(z, 0.75)
        assert _state_gap(once, whole) < 1e-12


def test_time_reversibility():
    rng = np.random.default_rng(12)
    for _ in range(4):
        z = _windowed_state(rng)
        back = apply_group(apply_group(z, 0.5), -0.5)
        assert _state_gap(back, z) < 1e-12


def test_free_energy_conserved():
    rng = np.random.default_rng(13)
    for _ in range(4):
        z = _windowed_state(rng)
        e0 = _free_energy(z)
        for t in (0.25, 0.5, 1.0):
            assert abs(_free_energy(apply_group(z, t)) - e0) / e0 < 1e-10


def test_finite_speed_exactly_zero_outside_cone():
    x = _lattice()
    u = np.where(np.abs(x) < 1.0, np.cos(np.pi * x / 2.0) ** 2, 0.0)
    uf = GridFunction(-4.0, _DX, u)
    z = State(uf, uf.with_values(np.zeros_like(u)))
    moved = apply_group(z, 0.5)
    outside = np.abs(x) > 1.5 + _DX / 2.0
    assert np.abs(moved.u.values[outside]).max() == 0.0
    assert np.abs(moved.v.values[outside]).max() == 0.0
    # something did propagate into the annulus 1 < |x| < 1.5
    ring = (np.abs(x) > 1.0 + _DX) & (np.abs(x) < 1.5 - _DX)
    assert np.abs(moved.u.values[ring]).max() > 1e-3


def test_right_mover_is_a_pure_shift():
    # with v = -D1 u the d'Alembert combination collapses to u(x - t)
    x = _lattice()
    u = np.where(np.abs(x) < 1.5, np.exp(-1.0 / np.maximum(1.0 - (x / 1.5) ** 2, 1e-12)), 0.0)
    v = -derivative1(u[:, None], _DX)
    uf = GridFunction(-4.0, _DX, u)
    z = State(uf, uf.with_values(v))
    j = 32  # t = 0.5
    moved = apply_group(z, 0.5)
    assert np.abs(moved.u.values[j:, 0] - u[:-j]).max() < 1e-12
    assert np.abs(moved.v.values[j:] - v[:-j]).max() < 1e-12


def test_apply_arrays_matches_apply_group():
    rng = np.random.default_rng(14)
    z = _windowed_state(rng, ncomp=3)
    nu, nv = apply_arrays(z.u.values, z.v.values, _DX, 16)
    moved = apply_group(z, 16 * _DX)
    assert np.array_equal(nu, moved.u.values)
    assert np.array_equal(nv, moved.v.values)


def test_generator_returns_rates():
    # the central time difference of the group is its generator: position rate v, velocity rate u_xx
    x = _lattice(129)
    u = (1.0 + 0.5 * x + 0.25 * x ** 2)[:, None]  # exact discrete second derivative 0.5
    v = np.sin(x)[:, None]
    ahead_u, ahead_v = apply_arrays(u, v, _DX, 1)
    back_u, back_v = apply_arrays(u, v, _DX, -1)
    assert np.abs((ahead_u - back_u)[1:-1] / (2.0 * _DX) - v[1:-1]).max() < 1e-12
    assert np.abs((ahead_v - back_v)[1:-1] / (2.0 * _DX) - 0.5).max() < 1e-9


def test_strict_mode_rejects_busy_edges():
    x = _lattice()
    uf = GridFunction(-4.0, _DX, np.sin(x))
    z = State(uf, uf.with_values(np.zeros_like(x)))
    with pytest.raises(InsufficientPadding):
        apply_group(z, 0.5)


def test_oversized_shift_raises():
    rng = np.random.default_rng(15)
    z = _windowed_state(rng)
    with pytest.raises(InsufficientPadding):
        apply_group(z, 9.0)


def _gathered_step(u, v, spacing, count):
    """The group step written with _shift gathers for every count."""
    du = derivative1(u, spacing)
    cum = midpoint_cumulative(v, spacing)
    new_u = 0.5 * (_shift(u, count) + _shift(u, -count)) + 0.5 * (_shift(cum, count) - _shift(cum, -count))
    new_v = 0.5 * (_shift(du, count) - _shift(du, -count)) + 0.5 * (_shift(v, count) + _shift(v, -count))
    return new_u, new_v


def _bits_equal(a, b):
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


def _rough(rng, shape):
    """Normal samples over many decades, with some exact zeros of either sign."""
    out = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, size=shape)
    zeros = rng.random(shape) < 0.1
    out[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
    return out


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 40), batch=st.one_of(st.none(), st.integers(1, 4)),
       count=st.sampled_from([1, -1]))
def test_unit_step_on_slices_is_bitwise_the_gathered_step(seed, n, batch, count):
    rng = np.random.default_rng(seed)
    shape = (n, 3) if batch is None else (n, batch, 3)
    u, v = _rough(rng, shape), _rough(rng, shape)
    if batch is not None:
        # a batch broadcast from one column and copied keeps the batch axis outermost in memory
        u, v = (np.broadcast_to(a[:, :1], a.shape).astype(float, copy=True) for a in (u, v))
    got, want = apply_arrays(u, v, _DX, count), _gathered_step(u, v, _DX, count)
    assert _bits_equal(got[0], want[0]) and _bits_equal(got[1], want[1])
    # the memory order too: reductions over the result add in that order
    assert got[0].flags.c_contiguous and got[1].flags.c_contiguous


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 30), batch=st.integers(1, 4))
def test_force_transport_is_bitwise_the_group_step_of_a_velocity(seed, n, batch):
    rng = np.random.default_rng(seed)
    force = _rough(rng, (2 * n - 1, batch, 3))  # a refined lattice
    fu, fv = transport_velocity(force, _DX)
    want_u, want_v = apply_arrays(np.zeros_like(force), force, _DX, 1)
    assert _bits_equal(fu, want_u[::2]) and _bits_equal(fv, want_v[::2])


def _random_lattice_state(rng, npoints, pad):
    """Random smooth data on `npoints` cells, quiescent on `pad` cells at each end."""
    x = np.linspace(-1.0, 1.0, npoints - 2 * pad)
    core_u = sum(rng.normal() * np.cos(k * np.pi * x / 2.0) ** 2 * np.cos(k * x) for k in range(1, 4))
    core_v = sum(rng.normal() * np.cos(np.pi * x / 2.0) ** 2 * np.sin(k * x) for k in range(1, 4))
    u = np.zeros((npoints, 2))
    v = np.zeros((npoints, 2))
    u[pad:npoints - pad, 0] = core_u * np.cos(np.pi * x / 2.0) ** 2
    u[pad:npoints - pad, 1] = rng.normal()  # a constant offset: quiescent on the bands
    u[:pad, 1] = u[-pad:, 1] = u[pad, 1]
    v[pad:npoints - pad, 1] = core_v
    dx = rng.choice([1.0 / 16.0, 1.0 / 32.0, 1.0 / 64.0])
    uf = GridFunction(-dx * (npoints // 2), dx, u)
    return State(uf, uf.with_values(v))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), core=st.integers(16, 100), a=st.integers(-8, 8), b=st.integers(-8, 8))
def test_group_law_and_reversibility_on_random_lattices(seed, core, a, b):
    rng = np.random.default_rng(seed)
    pad = 2 * (abs(a) + abs(b)) + 4  # every shift below, and the one after it, stays strict-safe
    z = _random_lattice_state(rng, core + 2 * pad, pad)
    dx = z.spacing
    composed = apply_group(apply_group(z, a * dx), b * dx)
    assert _state_gap(composed, apply_group(z, (a + b) * dx)) < 1e-12
    assert _state_gap(apply_group(apply_group(z, a * dx), -a * dx), z) < 1e-12

"""Tests for cone energies and the pathwise inequality verifier."""
import numpy as np
import pytest

from geowave.energy import (
    energy,
    perpendicularity_defect,
    verify_energy_inequality,
)
from geowave.errors import MissingIncrementLog
from geowave.function_spaces import LightCone, State
from geowave.geometry import DiffusionField, ManifoldModel
from geowave.noise import SpectralMeasure, build_basis
from geowave.rng import stream
from geowave.solver import LocalizationParams, solve_skeleton, solve_stochastic
from geowave.states import bump_state, constant_state, make_grid, rotating_state

_BASIS = build_basis(SpectralMeasure.default_three_atoms())
_CIRCLE = ManifoldModel.circle()
_Y_CIRCLE = DiffusionField.circle_rotation()
_CONE = LightCone(0.0, 2.0)


def _loc(geom):
    return LocalizationParams(radius=geom.half_width)


def _skeleton(geom, z, horizon=0.25):
    return solve_skeleton(z, None, horizon, _loc(geom), manifold=_CIRCLE,
                          basis=_BASIS, diffusion=_Y_CIRCLE, keep_states=True)


def test_energy_frozen_values_for_constant_and_rotating_data():
    geom = make_grid(6.0, 96, 1.0)
    z = constant_state(geom, _CIRCLE)
    # |u| = 1, v = 0: half the interval length at either level
    assert abs(energy(0.5, z, _CONE, k=1) - 1.5) < 1e-12
    assert abs(energy(0.5, z, _CONE, k=0) - 1.5) < 1e-12
    zr = rotating_state(geom, _CIRCLE, omega=2.0)
    want = 0.5 * 3.0 * (1.0 + 4.0)
    assert abs(energy(0.5, zr, _CONE, k=1) - want) < 1e-10


def test_energy_rejects_bad_level():
    geom = make_grid(6.0, 96, 1.0)
    with pytest.raises(ValueError):
        energy(0.0, constant_state(geom, _CIRCLE), _CONE, k=2)


def test_skeleton_path_satisfies_inequality_under_both_transforms():
    geom = make_grid(6.0, 96, 1.0)
    traj = _skeleton(geom, bump_state(geom, _CIRCLE))
    for transform in ("identity", "log1p"):
        rep = verify_energy_inequality(traj, cone=_CONE, manifold=_CIRCLE,
                                       transform=transform)
        assert rep.passed
        assert rep.violations == []
        assert rep.transform == transform
        assert len(rep.times) == traj.steps + 1
        assert rep.gaps.max() <= rep.tol


def test_stochastic_path_satisfies_inequality():
    geom = make_grid(6.0, 96, 1.0)
    z = bump_state(geom, _CIRCLE)
    traj = solve_stochastic(z, 1e-2, None, 0.25, _loc(geom), manifold=_CIRCLE,
                            basis=_BASIS, diffusion=_Y_CIRCLE, master_seed=3,
                            keep_states=True)
    rep = verify_energy_inequality(traj, cone=_CONE, manifold=_CIRCLE,
                                   basis=_BASIS, diffusion=_Y_CIRCLE)
    assert rep.passed
    assert rep.metadata["eps"] == 1e-2
    # the martingale part must actually be active on a noisy path
    assert np.abs(rep.martingale).max() > 0.0


def test_stochastic_verification_requires_increment_log_and_operators():
    geom = make_grid(6.0, 96, 1.0)
    z = bump_state(geom, _CIRCLE)
    traj = solve_stochastic(z, 1e-2, None, 0.25, _loc(geom), manifold=_CIRCLE,
                            basis=_BASIS, diffusion=_Y_CIRCLE, master_seed=3,
                            keep_states=True)
    with pytest.raises(ValueError):
        verify_energy_inequality(traj, cone=_CONE, manifold=_CIRCLE)
    traj.noise_increments = None
    with pytest.raises(MissingIncrementLog):
        verify_energy_inequality(traj, cone=_CONE, manifold=_CIRCLE,
                                 basis=_BASIS, diffusion=_Y_CIRCLE)


def test_verifier_needs_stored_states_and_known_transform():
    geom = make_grid(6.0, 96, 1.0)
    traj = solve_skeleton(bump_state(geom, _CIRCLE), None, 0.25, _loc(geom),
                          manifold=_CIRCLE, basis=_BASIS, diffusion=_Y_CIRCLE,
                          keep_states=False)
    with pytest.raises(ValueError):
        verify_energy_inequality(traj, cone=_CONE, manifold=_CIRCLE)
    full = _skeleton(geom, bump_state(geom, _CIRCLE))
    with pytest.raises(ValueError):
        verify_energy_inequality(full, cone=_CONE, manifold=_CIRCLE, transform="sqrt")


def test_tolerance_halves_with_the_step():
    tols = []
    for pts in (96, 192):
        geom = make_grid(6.0, pts, 1.0)
        rep = verify_energy_inequality(_skeleton(geom, bump_state(geom, _CIRCLE)),
                                       cone=_CONE, manifold=_CIRCLE)
        tols.append(rep.tol)
    assert 0.4 < tols[1] / tols[0] < 0.6


def test_perpendicularity_defect_vanishes_for_tangent_fields():
    geom = make_grid(6.0, 192, 1.0)
    z = bump_state(geom, _CIRCLE)
    assert perpendicularity_defect(z, 0.25, _CONE, _CIRCLE) < 1e-10
    radial = State(z.u, z.v.with_values(z.u.values.copy()))
    assert perpendicularity_defect(radial, 0.25, _CONE, _CIRCLE) > 1e-3

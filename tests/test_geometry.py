"""Target-manifold calculus: projections, the reflection involution, and the
extended second fundamental form."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geowave.errors import OutsideTubularNeighborhood
from geowave.geometry import DiffusionField, ManifoldModel, _dot, _norm
from geowave.solver import curvature_force


def _manifold_points(man, rng, count=48):
    raw = rng.standard_normal((count, man.ambient_dim)) + 0.1
    return man.nearest_point(raw)


def _tangents(man, p, rng):
    return man.tangent_project_at(p, rng.standard_normal(p.shape))


def test_nearest_point_projects_and_is_idempotent():
    rng = np.random.default_rng(0)
    for man in (ManifoldModel.circle(), ManifoldModel.sphere()):
        q = rng.standard_normal((64, man.ambient_dim)) * 1.5 + 0.2
        p = man.nearest_point(q)
        assert man.constraint_residual(p).max() < 1e-12
        assert np.abs(man.nearest_point(p) - p).max() < 1e-12
        # for round targets the projection is radial
        assert np.abs(p - q / np.linalg.norm(q, axis=1, keepdims=True)).max() < 1e-12


def test_only_the_round_targets_exist():
    assert ManifoldModel("circle", 2) == ManifoldModel.circle()
    for kind, dim in (("torus", 3), ("circle", 3), ("sphere", 2)):
        with pytest.raises(ValueError, match="circle in R\\^2 and the sphere in R\\^3"):
            ManifoldModel(kind, dim)


def test_constraint_residual_is_distance():
    man = ManifoldModel.sphere()
    q = np.array([[0.0, 0.0, 1.3], [0.5, 0.0, 0.0]])
    res = man.constraint_residual(q)
    assert abs(res[0] - 0.3) < 1e-14
    assert abs(res[1] - 0.5) < 1e-14


def test_tangent_projection_properties():
    rng = np.random.default_rng(1)
    for man in (ManifoldModel.circle(), ManifoldModel.sphere()):
        p = _manifold_points(man, rng)
        a = rng.standard_normal(p.shape)
        t = man.tangent_project_at(p, a)
        assert np.abs((t * p).sum(axis=1)).max() < 1e-12
        assert np.abs(man.tangent_project_at(p, t) - t).max() < 1e-13
        assert np.abs(man.tangent_project_at(p, p)).max() < 1e-12


def test_involution_is_involutive_on_tube():
    rng = np.random.default_rng(2)
    for man in (ManifoldModel.circle(), ManifoldModel.sphere()):
        p = _manifold_points(man, rng)
        s = rng.uniform(-0.6, 0.6, (len(p), 1)) * man.tubular_radius
        q = p + s * p  # radial offsets: the normal is the point itself
        assert np.abs(man.involution(man.involution(q)) - q).max() < 1e-10
        assert np.abs(man.involution(p) - p).max() < 1e-12


def test_involution_swaps_sides_of_the_manifold():
    man = ManifoldModel.sphere()
    q = np.array([[0.0, 0.0, 1.2]])
    r = man.involution(q)
    assert np.abs(r - np.array([[0.0, 0.0, 0.8]])).max() < 1e-12


def test_involution_fades_to_identity_far_away():
    man = ManifoldModel.circle()
    q = np.array([[2.5, 0.0], [0.05, 0.0]])
    assert np.abs(man.involution(q) - q).max() < 1e-14


def test_involution_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    for man in (ManifoldModel.circle(), ManifoldModel.sphere()):
        p = _manifold_points(man, rng, count=16)
        q = p + rng.uniform(-0.4, 0.4, (len(p), 1)) * man.tubular_radius * p
        a = rng.standard_normal(q.shape)
        h = 1e-6
        fd = (man.involution(q + h * a) - man.involution(q - h * a)) / (2.0 * h)
        got = man.involution_jacobian(q, a)
        assert np.abs(got - fd).max() < 1e-6


def test_involution_jacobian_signs_on_manifold():
    rng = np.random.default_rng(4)
    for man in (ManifoldModel.circle(), ManifoldModel.sphere()):
        p = _manifold_points(man, rng, count=16)
        t = _tangents(man, p, rng)
        assert np.abs(man.involution_jacobian(p, t) - t).max() < 1e-9
        assert np.abs(man.involution_jacobian(p, p) + p).max() < 1e-9


def test_involution_jacobian_outside_tube_raises():
    man = ManifoldModel.sphere()
    with pytest.raises(OutsideTubularNeighborhood):
        man.involution_jacobian(np.array([[0.0, 0.0, 2.0]]), np.eye(3)[:1])


def test_involution_hessian_matches_finite_differences():
    rng = np.random.default_rng(5)
    man = ManifoldModel.sphere()
    p = _manifold_points(man, rng, count=8)
    a = rng.standard_normal(p.shape)
    b = rng.standard_normal(p.shape)
    h = 1e-4
    fd = (
        man.involution(p + h * a + h * b)
        - man.involution(p + h * a - h * b)
        - man.involution(p - h * a + h * b)
        + man.involution(p - h * a - h * b)
    ) / (4.0 * h * h)
    got = man.involution_hessian(p, a, b)
    assert np.abs(got - fd).max() < 1e-5


def test_sff_closed_form_on_round_targets():
    # frozen example: on S^2 at the north pole, A(e1, e1) = -e3
    man = ManifoldModel.sphere()
    p = np.array([[0.0, 0.0, 1.0]])
    e1 = np.array([[1.0, 0.0, 0.0]])
    got = man.extended_sff_perp(p, e1, e1)
    assert np.abs(got - np.array([[0.0, 0.0, -1.0]])).max() < 1e-12

    rng = np.random.default_rng(6)
    for man in (ManifoldModel.circle(), ManifoldModel.sphere()):
        p = _manifold_points(man, rng)
        xi = _tangents(man, p, rng)
        eta = _tangents(man, p, rng)
        want = -(xi * eta).sum(axis=1, keepdims=True) * p
        assert np.abs(man.extended_sff_perp(p, xi, eta) - want).max() < 1e-12


def test_sff_extension_is_even_and_compactly_supported():
    rng = np.random.default_rng(7)
    man = ManifoldModel.sphere()
    p = _manifold_points(man, rng, count=16)
    q = p + rng.uniform(-0.5, 0.5, (len(p), 1)) * man.tubular_radius * p
    a = rng.standard_normal(q.shape)
    b = rng.standard_normal(q.shape)
    left = man.extended_sff_perp(q, a, b)
    right = man.extended_sff_perp(man.involution(q), a, b)
    assert np.abs(left - right).max() < 1e-10
    far = np.array([[0.0, 0.0, 3.0]])
    assert np.abs(man.extended_sff_perp(far, far, far)).max() == 0.0


def test_sff_extensions_agree_on_manifold():
    rng = np.random.default_rng(8)
    man = ManifoldModel.circle()
    p = _manifold_points(man, rng, count=16)
    xi = _tangents(man, p, rng)
    eta = _tangents(man, p, rng)
    a_ext = man.extended_sff_A(p, xi, eta)
    perp = man.extended_sff_perp(p, xi, eta)
    assert np.abs(a_ext - perp).max() < 1e-4  # A-form uses FD Hessian pieces


def test_diffusion_fields_are_tangent_and_bounded():
    rng = np.random.default_rng(9)
    # frozen example: the sphere axis field sends e1 to e2
    ys = DiffusionField.sphere_axis_rotation()
    assert np.abs(ys(np.array([1.0, 0.0, 0.0])) - np.array([0.0, 1.0, 0.0])).max() < 1e-15
    for man in (ManifoldModel.circle(), ManifoldModel.sphere()):
        yf = DiffusionField.for_manifold(man)
        p = _manifold_points(man, rng)
        vals = yf(p)
        assert np.abs((vals * p).sum(axis=1)).max() < 1e-12
        norms = np.sqrt((vals ** 2).sum(axis=1))
        assert norms.max() <= yf.bound_constant * (1.0 + 1.0) + 1e-12
        far = 2.5 * p
        assert np.abs(yf(far)).max() == 0.0


def _wide_normals(seed, shape):
    """Normal samples scaled over many decades, so additions round in every way."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, size=shape)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), batch=st.one_of(st.none(), st.integers(1, 5)),
       ncomp=st.sampled_from([2, 3]))
def test_component_dot_and_norm_are_bitwise_the_reduction(seed, n, batch, ncomp):
    shape = (n, ncomp) if batch is None else (n, batch, ncomp)
    a, b = _wide_normals(seed, shape), _wide_normals(seed + 1, shape)
    assert np.array_equal(_dot(a, b), (a * b).sum(axis=-1, keepdims=True))
    assert np.array_equal(_norm(a), np.sqrt((a * a).sum(axis=-1, keepdims=True)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), batch=st.integers(1, 4),
       kind=st.sampled_from(["circle", "sphere"]))
def test_fused_curvature_force_is_bitwise_the_two_extensions(seed, n, batch, kind):
    man = ManifoldModel.circle() if kind == "circle" else ManifoldModel.sphere()
    rng = np.random.default_rng(seed)
    shape = (n, batch, man.ambient_dim)
    # radii on and off the manifold: inside the bump, in its ramp, past it, and at the origin
    radius = rng.choice([1.0, 1.0 + 1e-9, 0.4, 0.2, 1.8, 1.95, 3.0, 0.0], size=(n, batch, 1))
    u = man.nearest_point(rng.standard_normal(shape)) * radius
    v, ux = _wide_normals(seed + 1, shape), _wide_normals(seed + 2, shape)
    flat = (-1, man.ambient_dim)
    want = (man.extended_sff_perp(u.reshape(flat), v.reshape(flat), v.reshape(flat))
            - man.extended_sff_perp(u.reshape(flat), ux.reshape(flat), ux.reshape(flat)))
    got = curvature_force(man, u, v, ux)
    assert got.shape == shape
    assert np.array_equal(got.reshape(flat), want)
    assert np.array_equal(np.signbit(got.reshape(flat)), np.signbit(want))

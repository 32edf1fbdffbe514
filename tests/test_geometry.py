import numpy as np
import pytest

from carleman import ScalarField, VectorField, build_grid, integrate_dmu, integrate_interior


def test_unit_square_grid_spacings():
    g = build_grid([0, 0], [1, 1], [17, 17], 0.0, 1.0, 33)
    assert g.domain.spacings == (1 / 16, 1 / 16)
    assert g.dt == pytest.approx(1 / 32)


def test_degenerate_three_node_grid():
    g = build_grid([0], [1], [3], 0.0, 1.0, 3)
    assert g.domain.spacings == (0.5,)


def test_empty_extent_rejected():
    with pytest.raises(ValueError, match="empty extent"):
        build_grid([0], [0], [5], 0.0, 1.0, 5)


def test_too_few_nodes_rejected():
    with pytest.raises(ValueError):
        build_grid([0], [1], [2], 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        build_grid([0], [1], [5], 0.0, 1.0, 2)


def test_interior_integral_constants():
    g = build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 9)
    assert integrate_interior(np.ones(g.shape), g) == pytest.approx(1.0, abs=1e-12)
    g2 = build_grid([0, 0], [2, 3], [9, 9], 0.0, 1.0, 9)
    assert integrate_interior(np.ones(g2.shape), g2) == pytest.approx(6.0, abs=1e-12)


def test_interior_integral_linear():
    g = build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 9)
    f = np.broadcast_to(g.space_points[..., 0][..., None], g.shape).copy()
    assert integrate_interior(f, g) == pytest.approx(0.5, abs=1e-12)


def test_quadrature_exact_for_multilinear():
    g = build_grid([0, 0], [1, 2], [5, 7], 0.0, 1.0, 5)
    x = g.space_points
    f = (2.0 + x[..., 0])[..., None] * (1.0 + g.times)
    exact = (2.0 + 0.5) * 2.0 * (1.0 + 0.5)  # per-axis affine factors
    # int over x2 in (0,2) of 1 dx2 = 2; affine-per-axis integrand is exact
    assert integrate_interior(f, g) == pytest.approx(exact, rel=1e-12)


def test_quadrature_second_order_refinement():
    def err(nodes, nt):
        g = build_grid([0, 0], [1, 1], [nodes, nodes], 0.0, 1.0, nt)
        x = g.space_points
        f = np.sin(np.pi * x[..., 0])[..., None] * np.sin(np.pi * g.times)
        exact = (2.0 / np.pi) * 1.0 * (2.0 / np.pi)
        return abs(integrate_interior(f, g) - exact)

    e1, e2 = err(9, 9), err(17, 17)
    assert 3.5 <= e1 / e2 <= 4.5


def test_dmu_unit_square():
    g = build_grid([0, 0], [1, 1], [17, 17], 0.0, 1.0, 17)
    assert integrate_dmu(np.ones(g.shape), g) == pytest.approx(6.0, abs=1e-12)
    assert integrate_dmu(np.zeros(g.shape), g) == 0.0


def test_dmu_caps_only_cube():
    # indicator of the two time caps on the unit cube: analytic value 2.0;
    # the lateral quadrature picks the cap levels up with weight dt/2, an
    # O(dt) quadrature tail that halves under time refinement
    def value(nt):
        g = build_grid([0, 0, 0], [1, 1, 1], [5, 5, 5], 0.0, 1.0, nt)
        vals = np.zeros(g.shape)
        vals[..., 0] = 1.0
        vals[..., -1] = 1.0
        return integrate_dmu(vals, g), g.dt

    v1, dt1 = value(5)
    v2, dt2 = value(9)
    assert abs(v1 - 2.0) <= 6.05 * dt1
    assert abs(v2 - 2.0) == pytest.approx(0.5 * abs(v1 - 2.0), rel=1e-9)


def test_dmu_additivity():
    g = build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 9)
    rng = np.random.default_rng(5)
    g1 = rng.normal(size=g.shape)
    g2 = rng.normal(size=g.shape)
    total = integrate_dmu(g1 + g2, g)
    split = integrate_dmu(g1, g) + integrate_dmu(g2, g)
    assert total == pytest.approx(split, rel=1e-12, abs=1e-12)


def test_missing_cap_data_rejected():
    g = build_grid([0, 0], [1, 1], [5, 5], 0.0, 1.0, 5)
    vals = np.ones(g.shape)
    vals[2, 2, 0] = np.nan
    with pytest.raises(ValueError, match="cap"):
        integrate_dmu(vals, g)


def test_every_boundary_node_has_one_owner_face():
    g = build_grid([0, 0], [1, 1], [7, 7], 0.0, 1.0, 5)
    owner = g.owner_face
    assert np.all(owner[g.boundary_mask] >= 0)
    assert np.all(owner[~g.boundary_mask] == -1)
    # corner (0,0) lies on faces 0 and 2; lowest wins
    assert owner[0, 0] == 0
    assert owner[0, -1] == 0
    assert owner[-1, 0] == 1


def test_face_normals_are_unit_axis_vectors():
    g = build_grid([0, 0, 0], [1, 1, 1], [4, 4, 4], 0.0, 1.0, 4)
    for f in range(g.num_faces):
        nu = g.face_normal(f)
        assert np.sum(np.abs(nu)) == 1.0


def test_scalar_field_validation():
    g = build_grid([0], [1], [5], 0.0, 1.0, 5)
    ScalarField(np.zeros(g.space_shape), g)
    ScalarField(np.zeros(g.shape), g)
    with pytest.raises(ValueError):
        ScalarField(np.zeros((4,)), g)
    with pytest.raises(ValueError, match="non-finite"):
        ScalarField(np.full(g.space_shape, np.nan), g)


def test_vector_field_validation():
    g = build_grid([0, 0], [1, 1], [5, 5], 0.0, 1.0, 5)
    VectorField(np.zeros(g.space_shape + (2,)), g)
    with pytest.raises(ValueError):
        VectorField(np.zeros((5, 4, 2)), g)


def test_face_geometry_cached_and_read_only(unit_square_grid):
    g = unit_square_grid
    for f in range(g.num_faces):
        assert g.face_mask(f) is g.face_mask(f)
        assert g.face_weights(f) is g.face_weights(f)
        with pytest.raises(ValueError, match="read-only"):
            g.face_mask(f)[0, 0] = False
        with pytest.raises(ValueError, match="read-only"):
            g.face_weights(f)[0, 0] = 1.0
    assert np.allclose(g.lateral_weights[g.boundary_mask].sum(), 4.0)

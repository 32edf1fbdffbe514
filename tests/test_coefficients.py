import numpy as np
import pytest

from carleman import (
    MatrixField,
    OrthogonalMap,
    build_grid,
    certify_ellipticity,
    eval_with_derivatives,
    rotate_field,
)
from carleman.coefficients import symmetric_eigenvalues
from carleman.polynomials import poly_from_table


@pytest.fixture
def grid2():
    return build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 5)


def test_identity_eval_and_derivatives():
    field = MatrixField.identity(2)
    a, da, d2a = eval_with_derivatives(field, [0.3, 0.7])
    assert np.allclose(a, np.eye(2))
    assert np.all(da == 0.0)
    assert np.all(d2a == 0.0)


def test_scalar_affine_point_values():
    field = MatrixField.scalar_affine(2, 1.0, [0.1, 0.0])
    a, da, _ = eval_with_derivatives(field, [0.5, 0.0])
    assert np.allclose(a, 1.05 * np.eye(2))
    assert da[0, 0, 0] == pytest.approx(0.1)
    assert da[1, 1, 0] == pytest.approx(0.1)
    assert da[0, 1, 0] == 0.0


def test_constant_field_has_zero_derivatives():
    field = MatrixField.constant(np.diag([2.0, 0.5]))
    _, da, d2a = eval_with_derivatives(field, [0.1, 0.9])
    assert np.all(da == 0.0) and np.all(d2a == 0.0)


def test_point_outside_domain_rejected(grid2):
    field = MatrixField.identity(2, domain=grid2.domain)
    with pytest.raises(ValueError, match="outside"):
        eval_with_derivatives(field, [2.0, 0.0])


def test_analytic_derivatives_match_finite_differences():
    rng = np.random.default_rng(21)
    fields = [
        MatrixField.identity(2),
        MatrixField.constant(np.array([[2.0, 0.3], [0.3, 1.0]])),
        MatrixField.scalar_affine(2, 1.0, [0.1, -0.05]),
        MatrixField.from_tables(
            2,
            {
                (0, 0): [((0, 0), 1.5), ((2, 0), 0.2)],
                (0, 1): [((1, 1), 0.1)],
                (1, 1): [((0, 0), 1.0), ((0, 3), 0.05)],
            },
        ),
    ]
    step = 1e-5
    for field in fields:
        for _ in range(5):
            x = rng.uniform(0.1, 0.9, size=2)
            da = field.first_derivatives(x)
            for p in range(2):
                e = np.zeros(2)
                e[p] = step
                fd = (field(x + e) - field(x - e)) / (2 * step)
                assert np.max(np.abs(da[..., p] - fd)) < 1e-6


def test_symmetry_is_exact():
    field = MatrixField.from_tables(
        3,
        {
            (0, 1): [((1, 0, 0), 0.3)],
            (0, 0): [((0, 0, 0), 2.0)],
            (1, 1): [((0, 0, 0), 1.0)],
            (2, 2): [((0, 0, 0), 1.0)],
            (1, 2): [((0, 0, 1), -0.2)],
        },
    )
    pts = np.random.default_rng(0).uniform(-1, 1, size=(50, 3))
    vals = field(pts)
    assert np.max(np.abs(vals - np.swapaxes(vals, -1, -2))) == 0.0


def test_degree_cap_enforced():
    with pytest.raises(ValueError, match="degree"):
        MatrixField.from_tables(2, {(0, 0): [((4, 0), 1.0)]})


def test_closed_form_eigenvalues_match_lapack():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        m = rng.normal(size=(40, n, n))
        sym = 0.5 * (m + np.swapaxes(m, -1, -2))
        ours = symmetric_eigenvalues(sym)
        ref = np.linalg.eigvalsh(sym)
        assert np.max(np.abs(ours - ref)) < 1e-10


def test_certify_identity(grid2):
    field = MatrixField.identity(2, domain=grid2.domain)
    rep = certify_ellipticity(field, grid2)
    assert rep.kappa_estimate == pytest.approx(1.0)


def test_certify_constant_diag(grid2):
    field = MatrixField.constant(np.diag([2.0, 0.5]), domain=grid2.domain)
    rep = certify_ellipticity(field, grid2)
    assert rep.kappa_estimate == pytest.approx(2.0)
    assert rep.lambda_min == pytest.approx(0.5)


def test_certify_scalar_affine(grid2):
    field = MatrixField.scalar_affine(2, 1.0, [0.1, 0.0], domain=grid2.domain)
    rep = certify_ellipticity(field, grid2)
    assert rep.lambda_min == pytest.approx(1.0)
    assert rep.lambda_max == pytest.approx(1.1)
    assert rep.kappa_estimate == pytest.approx(1.1)


def test_certify_tolerances(grid2):
    field = MatrixField.constant(np.diag([2.0, 0.5]), domain=grid2.domain)
    rep = certify_ellipticity(field, grid2, kappa_tolerance=1.5)
    assert not rep.passed
    rep2 = certify_ellipticity(field, grid2, kappa_tolerance=2.5, m_tolerance=10.0)
    assert rep2.passed


def test_rotation_examples():
    ident = MatrixField.identity(2)
    rot = OrthogonalMap.rotation_2d(0.7)
    rotated = rotate_field(ident, rot)
    pts = np.random.default_rng(1).uniform(-1, 1, size=(20, 2))
    assert np.allclose(rotated(pts), np.broadcast_to(np.eye(2), (20, 2, 2)), atol=1e-12)

    diag = MatrixField.constant(np.diag([2.0, 0.5]))
    quarter = OrthogonalMap.rotation_2d(np.pi / 2)
    swapped = rotate_field(diag, quarter)
    assert np.allclose(swapped(np.zeros(2)), np.diag([0.5, 2.0]), atol=1e-12)


def test_rotation_preserves_spectrum_and_kappa():
    grid = build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 3)
    field = MatrixField.scalar_affine(2, 1.0, [0.1, 0.0], domain=grid.domain)
    rot = OrthogonalMap.rotation_2d(np.pi / 2)
    rotated = rotate_field(field, rot)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(100, 2))
    e_rot = np.linalg.eigvalsh(rotated(pts))
    e_src = np.linalg.eigvalsh(field(rot.inverse_apply(pts)))
    assert np.max(np.abs(e_rot - e_src)) < 1e-10

    rep_src = certify_ellipticity(field, grid)
    grid_rot = build_grid([-1, 0], [0, 1], [9, 9], 0.0, 1.0, 3)
    rep_rot = certify_ellipticity(rotated, grid_rot)
    assert rep_rot.kappa_estimate == pytest.approx(rep_src.kappa_estimate, abs=1e-10)


def test_non_orthogonal_map_rejected():
    with pytest.raises(ValueError, match="orthogonal"):
        OrthogonalMap(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_polynomial_family_from_tables_roundtrip():
    field = MatrixField.from_tables(
        2, {(0, 0): [((0, 0), 1.0)], (1, 1): [((1, 0), 0.5), ((0, 0), 2.0)]}
    )
    x = np.array([0.4, 0.9])
    expected = np.array([[1.0, 0.0], [0.0, 2.0 + 0.2]])
    assert np.allclose(field(x), expected)
    assert field.entry(0, 1) is field.entry(1, 0)


def test_from_tables_asymmetric_entries_rejected():
    with pytest.raises(ValueError, match="differ"):
        tables = {
            (0, 1): poly_from_table(2, [((1, 0), 1.0)]),
            (1, 0): poly_from_table(2, [((0, 1), 1.0)]),
            (0, 0): poly_from_table(2, [((0, 0), 1.0)]),
            (1, 1): poly_from_table(2, [((0, 0), 1.0)]),
        }
        MatrixField(2, tables)


def test_higher_derivative_tables_built_on_first_use():
    g = build_grid([0, 0, 0], [1, 1, 1], [5, 5, 5], 0.0, 1.0, 3)
    field = MatrixField.scalar_affine(3, 2.0, [0.1, -0.2, 0.3], domain=g.domain)
    assert "_d2" not in vars(field) and "_d3" not in vars(field)
    field(g.space_points)
    field.first_derivatives(g.space_points)
    assert "_d2" not in vars(field) and "_d3" not in vars(field)
    rep = certify_ellipticity(field, g)
    assert rep.passed
    assert "_d3" in vars(field) and field._d3 is field._d3

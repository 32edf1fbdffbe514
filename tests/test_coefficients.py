import itertools

import numpy as np
import pytest

from carleman import (
    MatrixField,
    build_grid,
    certify_ellipticity,
)
from carleman.coefficients import symmetric_eigenvalues
from carleman.polynomials import poly_from_table
import per_call
import reference_eigenvalues


@pytest.fixture
def grid2():
    return build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 5)


def test_identity_eval_and_derivatives():
    field = MatrixField.identity(2)
    x = np.array([0.3, 0.7])
    assert np.allclose(field(x), np.eye(2))
    assert np.all(field.first_derivatives(x) == 0.0)
    assert field.higher_derivative_sup(x) == 0.0


def test_scalar_affine_point_values():
    field = MatrixField.scalar_affine(2, 1.0, [0.1, 0.0])
    x = np.array([0.5, 0.0])
    a, da = field(x), field.first_derivatives(x)
    assert np.allclose(a, 1.05 * np.eye(2))
    assert da[0, 0, 0] == pytest.approx(0.1)
    assert da[1, 1, 0] == pytest.approx(0.1)
    assert da[0, 1, 0] == 0.0


def test_constant_field_has_zero_derivatives():
    field = MatrixField.constant(np.diag([2.0, 0.5]))
    x = np.array([0.1, 0.9])
    assert np.all(field.first_derivatives(x) == 0.0)
    assert field.higher_derivative_sup(x) == 0.0


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
    assert vals.shape == (3, 3, 50)
    assert np.max(np.abs(vals - np.swapaxes(vals, 0, 1))) == 0.0


def test_samples_are_entry_planar():
    """``field(pts)[k, l]`` is entry (k, l) evaluated on its own, and the
    derivative, gradient and Hessian samples put their component axes first."""
    field = MatrixField.from_tables(3, {
        (0, 0): [((0, 0, 0), 2.0), ((1, 0, 2), 0.3)],
        (0, 2): [((0, 1, 0), -0.4), ((1, 1, 1), 0.1)],
        (1, 1): [((0, 0, 0), 1.0), ((2, 0, 0), 0.2)],
        (2, 2): [((0, 0, 0), 1.5)],
    })
    pts = np.random.default_rng(4).uniform(-1, 1, size=(7, 5, 3))
    a, da = field(pts), field.first_derivatives(pts)
    assert a.shape == (3, 3, 7, 5) and da.shape == (3, 3, 3, 7, 5)
    assert a.flags.c_contiguous and da.flags.c_contiguous
    h = poly_from_table(3, [((2, 1, 0), 0.7), ((0, 0, 2), -1.1)])
    grad, hess = h.eval_gradient(pts), h.eval_hessian(pts)
    for k in range(3):
        assert np.array_equal(grad[k], h.diff(k)(pts))
        for l in range(3):
            assert np.array_equal(a[k, l], field.entries[k][l](pts))
            assert np.array_equal(hess[k, l], h.diff(k).diff(l)(pts))
            for p in range(3):
                assert np.array_equal(da[k, l, p], field.entries[k][l].diff(p)(pts))


def test_degree_cap_enforced():
    with pytest.raises(ValueError, match="degree"):
        MatrixField.from_tables(2, {(0, 0): [((4, 0), 1.0)]})


def test_closed_form_eigenvalues_match_lapack():
    rng = np.random.default_rng(7)
    for n in (1, 2, 3):
        m = rng.normal(size=(40, n, n))
        sym = 0.5 * (m + np.swapaxes(m, -1, -2))
        ours = symmetric_eigenvalues(np.moveaxis(sym, 0, -1))
        ref = np.linalg.eigvalsh(sym).T
        assert np.max(np.abs(ours - ref)) < 1e-10


@pytest.mark.parametrize("shape", [(), (1,), (40,), (6, 7), (3, 4, 5)])
def test_eigenvalues_3x3_match_out_of_place_form(shape):
    """The in-place 3x3 branch gives the bits of the out-of-place one, at
    nodes with p == 0 (A = c I) too."""
    rng = np.random.default_rng(11)
    for scale in (1e-3, 1.0, 1e3):
        m = rng.normal(size=(3, 3) + shape) * scale
        m = m + np.swapaxes(m, 0, 1)
        flat = rng.random(shape) < 0.3
        for k, l in itertools.product(range(3), repeat=2):
            m[k, l, ...][flat] = 2.5 * (k == l)
        ours = symmetric_eigenvalues(m)
        theirs = reference_eigenvalues.eigenvalues_3x3(m)
        assert ours.shape == theirs.shape == (3,) + shape
        assert ours.tobytes() == theirs.tobytes()


def test_certify_identity(grid2):
    field = MatrixField.identity(2, domain=grid2.domain)
    rep = per_call.ellipticity(field, grid2)
    assert rep.kappa_estimate == pytest.approx(1.0)


def test_certify_constant_diag(grid2):
    field = MatrixField.constant(np.diag([2.0, 0.5]), domain=grid2.domain)
    rep = per_call.ellipticity(field, grid2)
    assert rep.kappa_estimate == pytest.approx(2.0)
    assert rep.lambda_min == pytest.approx(0.5)


def test_certify_scalar_affine(grid2):
    field = MatrixField.scalar_affine(2, 1.0, [0.1, 0.0], domain=grid2.domain)
    rep = per_call.ellipticity(field, grid2)
    assert rep.lambda_min == pytest.approx(1.0)
    assert rep.lambda_max == pytest.approx(1.1)
    assert rep.kappa_estimate == pytest.approx(1.1)


def test_certify_tolerances(grid2):
    field = MatrixField.constant(np.diag([2.0, 0.5]), domain=grid2.domain)
    rep = per_call.ellipticity(field, grid2, kappa_tolerance=1.5)
    assert not rep.passed
    rep2 = per_call.ellipticity(field, grid2, kappa_tolerance=2.5, m_tolerance=10.0)
    assert rep2.passed


def test_rotation_preserves_spectrum_and_kappa():
    """A(x) = (1 + 0.1 x1) I turned a quarter counter-clockwise, y = (-x2, x1),
    is (1 + 0.1 y2) I on the turned box: same spectrum at matching points and
    the same certified kappa."""
    grid = build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 3)
    field = MatrixField.scalar_affine(2, 1.0, [0.1, 0.0], domain=grid.domain)
    grid_rot = build_grid([-1, 0], [0, 1], [9, 9], 0.0, 1.0, 3)
    rotated = MatrixField.scalar_affine(2, 1.0, [0.0, 0.1], domain=grid_rot.domain)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1, 1, size=(100, 2))
    e_rot = symmetric_eigenvalues(rotated(pts))
    e_src = symmetric_eigenvalues(field(np.stack([pts[:, 1], -pts[:, 0]], axis=-1)))
    assert np.max(np.abs(e_rot - e_src)) < 1e-10

    rep_src = per_call.ellipticity(field, grid)
    rep_rot = per_call.ellipticity(rotated, grid_rot)
    assert rep_rot.kappa_estimate == pytest.approx(rep_src.kappa_estimate, abs=1e-10)


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
    rep = per_call.ellipticity(field, g)
    assert rep.passed
    assert "_d3" in vars(field) and field._d3 is field._d3


def _stacked_m_estimate(field, pts):
    """The derivative sup as it was computed from stacked tensors: the max of
    |A| and of the full first derivative tensor, then a running max over every
    second and third derivative of every entry."""
    n = field.n
    sup = float(np.max(np.abs(field(pts))))
    sup = max(sup, float(np.max(np.abs(field.first_derivatives(pts)))))
    for order in (2, 3):
        for k, l, *axes in itertools.product(range(n), repeat=2 + order):
            if l < k:
                continue
            poly = field.entry(k, l)
            for p in axes:
                poly = poly.diff(p)
            sup = max(sup, float(np.max(np.abs(poly(pts)))))
    return sup


def test_m_estimate_equals_stacked_tensor_max():
    """``certify_ellipticity`` takes m as a running max over the entry
    derivatives; it is bitwise the max over the stacked derivative tensors."""
    rng = np.random.default_rng(5)
    u = rng.uniform(0.5, 1.0, size=10)
    cubic_3d = MatrixField.from_tables(3, {
        (0, 0): [((0, 0, 0), 1.0), ((1, 0, 0), 0.1 * u[0]), ((0, 1, 1), 0.05 * u[1])],
        (1, 1): [((0, 0, 0), 1.0), ((0, 1, 0), 0.1 * u[2]), ((2, 0, 0), 0.05 * u[3])],
        (2, 2): [((0, 0, 0), 1.0), ((0, 0, 1), 0.1 * u[4]), ((1, 1, 1), 0.05 * u[5])],
        (0, 1): [((0, 0, 0), 0.05 * u[6]), ((0, 0, 1), 0.03 * u[7])],
        (0, 2): [((1, 0, 0), 0.03 * u[8])],
        (1, 2): [((0, 0, 0), 0.02 * u[9]), ((1, 1, 0), 0.02)],
    })
    small = build_grid([-0.3, -0.2], [0.3, 0.25], [11, 7], 0.0, 1.0, 3)
    one = {(0, 0): [((0, 0), 1.0)], (1, 1): [((0, 0), 1.0)]}
    # the largest |d^j a_kl| is of order j = 0, 1, 2 (mixed, off-diagonal), 3
    cases = [
        (MatrixField.identity(2), small, 1.0),
        (MatrixField.scalar_affine(1, 1.0, [5.0]), build_grid([-0.1], [0.1], [17], 0.0, 1.0, 3),
         5.0),
        (MatrixField.from_tables(2, {**one, (0, 1): [((0, 0), 0.1), ((1, 1), 3.0)]}), small, 3.0),
        (MatrixField.from_tables(2, {**one, (1, 1): [((0, 0), 1.0), ((0, 3), -0.7)]}), small,
         4.2),
        (cubic_3d, build_grid([-1, -1, -1], [1, 1, 1], [9, 9, 9], 0.0, 1.0, 3), None),
    ]
    for field, grid, expected in cases:
        m = per_call.ellipticity(field, grid).m_estimate
        assert m == _stacked_m_estimate(field, grid.space_points)
        if expected is not None:
            assert m == pytest.approx(expected, rel=1e-12)

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carleman import (
    MatrixField,
    build_grid,
    flatten_and_certify_hypersurface,
    theta_decomposition,
)
from carleman.polynomials import Polynomial, poly_from_table
from carleman.pseudoconvex import _apply_map, theta_scan, upsilon_theta
import per_call
import reference_theta
from reference_theta import node_major


def lambda_tensor(a_vals, da_vals):
    """Lambda[..., k, l, m] = -sum_p d_p a_{kl} a_{pm} + 2 sum_p a_{kp} d_p a_{lm}
    from A values and first derivatives; ``da_vals[..., k, l, p]`` holds d_p a_{kl}."""
    first = np.einsum("...klp,...pm->...klm", da_vals, a_vals)
    second = np.einsum("...kp,...lmp->...klm", a_vals, da_vals)
    return -first + 2.0 * second


def fd_lambda_tensor(field, x, step=1e-6):
    """Independent assembly of Lambda from matrix evaluations only."""
    n = field.n
    x = np.asarray(x, dtype=float)
    a = field(x)
    da = np.empty((n, n, n))
    for p in range(n):
        e = np.zeros(n)
        e[p] = step
        da[..., p] = (field(x + e) - field(x - e)) / (2 * step)
    lam = np.empty((n, n, n))
    for k in range(n):
        for l in range(n):
            for m in range(n):
                lam[k, l, m] = -sum(da[k, l, p] * a[p, m] for p in range(n)) + 2 * sum(
                    a[k, p] * da[l, m, p] for p in range(n)
                )
    return lam


SCALAR_AFFINE = MatrixField.scalar_affine(2, 1.0, [0.1, 0.0])
QUAD_WEIGHT = Polynomial.squared_distance([-1.0, 0.0], scale=0.5)


def closed_form_upsilon(x, x0=(-1.0, 0.0)):
    """Example closed form for a(x) I: -a (grad a | x-x0) I + 2a grad_a ox (x-x0)."""
    x = np.asarray(x, dtype=float)
    a = 1.0 + x[0] / 10.0
    grad_a = np.array([0.1, 0.0])
    d = x - np.asarray(x0)
    return -a * np.dot(grad_a, d) * np.eye(2) + 2.0 * a * np.outer(grad_a, d)


def test_theta_identity_field_is_twice_hessian():
    rng = np.random.default_rng(42)
    field = MatrixField.identity(2)
    for _ in range(20):
        table = {}
        for _k in range(5):
            powers = tuple(int(v) for v in rng.integers(0, 3, size=2))
            table[powers] = float(rng.normal())
        h = Polynomial(2, table)
        x = rng.uniform(-1, 1, size=2)
        dec = theta_decomposition(field, h, x)
        assert np.max(np.abs(dec.Upsilon)) == 0.0
        assert np.allclose(dec.Theta, 2.0 * h.eval_hessian(x), atol=1e-12)


def test_theta_pinned_point_value():
    dec = theta_decomposition(SCALAR_AFFINE, QUAD_WEIGHT, [0.5, 0.0])
    assert np.allclose(dec.Upsilon, np.diag([0.1575, -0.1575]), atol=1e-12)
    assert np.allclose(dec.Theta, np.diag([2.3625, 2.0475]), atol=1e-12)


def test_upsilon_matches_closed_form_and_fd_assembly():
    rng = np.random.default_rng(9)
    for _ in range(100):
        x = rng.uniform(0.0, 1.0, size=2)
        dec = theta_decomposition(SCALAR_AFFINE, QUAD_WEIGHT, x)
        assert np.max(np.abs(dec.Upsilon - closed_form_upsilon(x))) < 1e-10
        lam_fd = fd_lambda_tensor(SCALAR_AFFINE, x)
        ups_fd = np.einsum("klm,m->kl", lam_fd, QUAD_WEIGHT.eval_gradient(x))
        assert np.max(np.abs(dec.Upsilon - ups_fd)) < 1e-6


def test_theta_zero_for_linear_weight():
    field = MatrixField.identity(2)
    h = poly_from_table(2, [((1, 0), 1.0), ((0, 1), -2.0)])
    dec = theta_decomposition(field, h, [0.2, 0.4])
    assert np.max(np.abs(dec.Theta)) == 0.0


def test_theta_assembly_identity_random_points():
    rng = np.random.default_rng(31)
    fields = [
        SCALAR_AFFINE,
        MatrixField.from_tables(
            2,
            {
                (0, 0): [((0, 0), 1.2), ((0, 2), 0.1)],
                (0, 1): [((1, 0), 0.05)],
                (1, 1): [((0, 0), 0.9), ((1, 1), 0.07)],
            },
        ),
    ]
    h = Polynomial.squared_distance([0.3, -0.2], scale=0.5)
    for field in fields:
        pts = rng.uniform(-1, 1, size=(100, 2))
        ups, theta = per_call.theta(field, h, pts)
        a = field(pts)
        hess = h.eval_hessian(pts)
        rebuilt = 2.0 * np.einsum("kp...,pq...,ql...->kl...", a, hess, a) + ups
        assert np.max(np.abs(theta - rebuilt)) < 1e-12


def test_quadratic_form_sees_only_symmetric_part():
    rng = np.random.default_rng(13)
    pts = rng.uniform(0, 1, size=(10, 2))
    _, theta = per_call.theta(SCALAR_AFFINE, QUAD_WEIGHT, pts)
    for i in range(10):
        sym = 0.5 * (theta[..., i] + theta[..., i].T)
        for _ in range(10):
            xi = rng.normal(size=2)
            assert xi @ theta[..., i] @ xi == pytest.approx(xi @ sym @ xi, abs=1e-12)


def test_lambda_structural_symmetries():
    """The two Lambda summands inherit the coefficient symmetry separately:
    the (d_p a_{kl}) a_{pm} part is (k,l)-symmetric, the a_{kp} d_p a_{lm}
    part is (l,m)-symmetric.  The full tensor is not (k,l)-symmetric for
    variable fields (the affine example is a counterexample)."""
    rng = np.random.default_rng(17)
    field = SCALAR_AFFINE
    pts = rng.uniform(0, 1, size=(25, 2))
    a = node_major(field(pts), 2)
    da = node_major(field.first_derivatives(pts), 3)
    first = np.einsum("...klp,...pm->...klm", da, a)
    second = np.einsum("...kp,...lmp->...klm", a, da)
    assert np.max(np.abs(first - np.swapaxes(first, -3, -2))) == 0.0
    assert np.max(np.abs(second - np.swapaxes(second, -2, -1))) == 0.0
    lam = lambda_tensor(a, da)
    assert np.max(np.abs(lam - np.swapaxes(lam, -3, -2))) > 1e-3


def test_certify_quadratic_weight_identity_field():
    grid = build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 3)
    field = MatrixField.identity(2, domain=grid.domain)
    cert = per_call.pseudoconvex(field, QUAD_WEIGHT, grid)
    assert cert.passed
    assert cert.kappa == pytest.approx(2.0, abs=1e-14)


def test_certify_scalar_affine_nodewise_bound():
    grid = build_grid([0, 0], [1, 1], [17, 17], 0.0, 1.0, 3)
    field = MatrixField.scalar_affine(2, 1.0, [0.1, 0.0], domain=grid.domain)
    h = Polynomial.squared_distance([-1.0, 0.5], scale=0.5)
    cert = per_call.pseudoconvex(field, h, grid)
    assert cert.passed
    pts = grid.space_points.reshape(-1, 2)
    dist = np.linalg.norm(pts - np.array([-1.0, 0.5]), axis=-1)
    bound = np.min(1.0 * (2.0 * 1.0 - 3.0 * 0.1 * dist))
    assert cert.kappa >= bound - 1e-12


def test_certify_constant_weight_fails_on_gradient():
    grid = build_grid([0, 0], [1, 1], [5, 5], 0.0, 1.0, 3)
    field = MatrixField.identity(2, domain=grid.domain)
    cert = per_call.pseudoconvex(field, Polynomial.constant(2, 3.0), grid)
    assert not cert.passed
    assert cert.grad_min == 0.0


def test_certify_rotation_compatibility():
    """The certificate of (A, h) on the unit square equals that of the inputs
    turned a quarter counter-clockwise, y = (-x2, x1): A(x) = (1 + 0.1 x1) I
    becomes (1 + 0.1 y2) I and the center (-1, 0.5) of h becomes (-0.5, -1)."""
    field = MatrixField.scalar_affine(2, 1.0, [0.1, 0.0])
    h = Polynomial.squared_distance([-1.0, 0.5], scale=0.5)
    grid = build_grid([0, 0], [1, 1], [13, 13], 0.0, 1.0, 3)
    rotated = MatrixField.scalar_affine(2, 1.0, [0.0, 0.1])
    grid_rot = build_grid([-1, 0], [0, 1], [13, 13], 0.0, 1.0, 3)
    h_rot = Polynomial.squared_distance([-0.5, -1.0], scale=0.5)
    c1 = per_call.pseudoconvex(field, h, grid)
    c2 = per_call.pseudoconvex(rotated, h_rot, grid_rot)
    assert c2.kappa == pytest.approx(c1.kappa, abs=1e-6)


def test_certify_empty_grid_rejected():
    field = MatrixField.identity(2)
    with pytest.raises(ValueError, match="empty"):
        per_call.pseudoconvex(field, QUAD_WEIGHT, np.zeros((0, 2)))


# -- flattening --------------------------------------------------------------


def test_flatten_identity_flat_surface():
    field = MatrixField.identity(2)
    chart, cert = flatten_and_certify_hypersurface(field, Polynomial(1, {}), 0.5)
    assert np.allclose(chart.transported(np.zeros(2)), np.eye(2), atol=1e-12)
    assert cert.passed
    assert chart.jacobian_bound_ok
    # quadratic-form bound at the origin: (Theta(0) xi | xi) >= 4 |xi|^2
    assert chart.theta_origin_min_eig == pytest.approx(4.0, abs=1e-8)


def test_flatten_entries_match_displayed_convention():
    field = MatrixField.identity(3)
    surface = poly_from_table(2, [((2, 0), 0.25)])  # theta(x') = x1^2/4
    chart, _ = flatten_and_certify_hypersurface(field, surface, 0.25)
    rng = np.random.default_rng(3)
    for _ in range(20):
        y = rng.uniform(-0.2, 0.2, size=3)
        got = chart.transported(y)
        g = np.array([0.5 * y[0] - 2.0 * y[0], -2.0 * y[1]])  # d_k theta - 2 y_k
        expected = np.eye(3)
        expected[0, 2] = expected[2, 0] = g[0]
        expected[1, 2] = expected[2, 1] = g[1]
        expected[2, 2] = g @ g + 1.0
        assert np.max(np.abs(got - expected)) < 1e-12


def test_flatten_curved_surface_passes_on_small_chart():
    field = MatrixField.identity(2)
    surface = poly_from_table(1, [((2,), 0.25)])  # x'^2 / 4
    chart, cert = flatten_and_certify_hypersurface(field, surface, 1.0)
    assert cert.passed
    assert chart.jacobian_bound_ok
    # quadratic-form lower bound survives on the shrunken chart
    assert cert.kappa > 0.0


def test_flatten_inverse_roundtrip():
    field = MatrixField.identity(2)
    surface = poly_from_table(1, [((2,), 0.25)])
    chart, _ = flatten_and_certify_hypersurface(field, surface, 0.5)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-chart.radius, chart.radius, size=(40, 2))
    roundtrip = _apply_map(chart.inverse_map, _apply_map(chart.forward_map, pts))
    assert np.max(np.abs(roundtrip - pts)) < 1e-12


def test_flatten_requires_centered_surface():
    field = MatrixField.identity(2)
    with pytest.raises(ValueError, match="vanish"):
        flatten_and_certify_hypersurface(field, poly_from_table(1, [((0,), 1.0)]), 0.5)
    with pytest.raises(ValueError, match="gradient"):
        flatten_and_certify_hypersurface(field, poly_from_table(1, [((1,), 1.0)]), 0.5)


def test_flatten_jacobian_bound_shrinks_radius():
    field = MatrixField.identity(2)
    chart, _ = flatten_and_certify_hypersurface(field, Polynomial(1, {}), 4.0)
    # |2 x'| must stay small for the bound; radius 4 has to shrink
    assert chart.halvings >= 1
    assert chart.jacobian_min_quadform >= 0.5 - 1e-12


def test_theta_dimension_mismatch_rejected():
    field = MatrixField.identity(3)
    with pytest.raises(ValueError, match="variables"):
        theta_decomposition(field, QUAD_WEIGHT, [0.1, 0.2, 0.3])


def test_flatten_chart_too_curved_at_radius_floor():
    # the Jacobian bound needs radius <= 1/2; twenty halvings of 1e6 (the largest
    # radius a config may give) leave 0.95
    field = MatrixField.identity(2)
    with pytest.raises(ValueError, match="chart too curved"):
        flatten_and_certify_hypersurface(field, Polynomial(1, {}), 1e6)


_COEFF = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def _field_weight_points(draw):
    """A random symmetric field of total degree <= 3, a random cubic h and
    random points, in n = 1..3 variables."""
    n = draw(st.integers(1, 3))
    monomials = [p for p in itertools.product(range(4), repeat=n) if sum(p) <= 3]

    def table():
        powers = draw(st.lists(st.sampled_from(monomials), min_size=1, max_size=5, unique=True))
        return [(p, draw(_COEFF)) for p in powers]

    field = MatrixField.from_tables(n, {(k, l): table() for k in range(n) for l in range(k, n)})
    h = poly_from_table(n, table())
    seed = draw(st.integers(0, 2**32 - 1))
    pts = np.random.default_rng(seed).uniform(-1.5, 1.5, size=(40, n))
    return field, h, pts


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_field_weight_points())
def test_contracted_upsilon_matches_lambda_contraction(case):
    """Upsilon computed without Lambda equals Lambda contracted with grad h
    to 1e-13 of the size of its summands, at stacked points and at one point."""
    field, h, pts = case
    n = field.n
    a, da, g = field(pts), field.first_derivatives(pts), h.eval_gradient(pts)
    ref = np.einsum("...klm,...m->...kl", lambda_tensor(node_major(a, 2), node_major(da, 3)),
                    node_major(g, 1))
    scale = n * n * np.max(np.abs(da)) * np.max(np.abs(a)) * np.max(np.abs(g))
    ups, _ = upsilon_theta(a, da, g, h.eval_hessian(pts))
    assert np.max(np.abs(node_major(ups, 2) - ref)) <= 1e-13 * max(scale, 1e-300)
    ups0, _ = upsilon_theta(a[..., 0], da[..., 0], g[..., 0], h.eval_hessian(pts[0]))
    assert np.max(np.abs(ups0 - ref[0])) <= 1e-13 * max(scale, 1e-300)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(_field_weight_points())
def test_planar_theta_matches_frozen_matmul(case):
    """The entry-planar Upsilon and Theta agree with the frozen node-major
    ``matmul`` kernel to 1e-13 of the size of their summands, on the stack
    and at each single point; the point decomposition reads the same Theta
    and the same min eigenvalue of sym(Theta) as the scan, bit for bit."""
    field, h, pts = case
    n = field.n
    sample = (field(pts), field.first_derivatives(pts), h.eval_gradient(pts), h.eval_hessian(pts))
    a, da, g, hess = sample
    ma = np.max(np.abs(a))
    scale = n * n * ma * (np.max(np.abs(da)) * np.max(np.abs(g)) + ma * np.max(np.abs(hess)))
    tol = 1e-13 * max(scale, 1e-300)
    ups, theta = upsilon_theta(*sample)
    assert ups.shape == theta.shape == (n, n, len(pts))
    ref_ups, ref_theta = reference_theta.upsilon_theta(
        *(node_major(x, x.ndim - 1) for x in sample))
    assert np.max(np.abs(node_major(ups, 2) - ref_ups)) <= tol
    assert np.max(np.abs(node_major(theta, 2) - ref_theta)) <= tol
    smin, gnorm = theta_scan(*sample)
    assert np.array_equal(gnorm, np.sqrt(np.sum(node_major(g, 1) ** 2, axis=-1)))
    for i in range(0, len(pts), 7):
        ups_i, theta_i = upsilon_theta(*(x[..., i] for x in sample))
        assert np.max(np.abs(theta_i - ref_theta[i])) <= tol
        dec = theta_decomposition(field, h, pts[i])
        assert np.array_equal(dec.Theta, theta[..., i]) and np.array_equal(dec.Upsilon, ups[..., i])
        assert np.array_equal(ups_i, ups[..., i]) and np.array_equal(theta_i, theta[..., i])
        assert dec.theta_sym_min == smin[i]

import numpy as np
import pytest

from carleman import (
    MatrixField,
    RiemannianField,
    build_grid,
    riemannian_identity_residual,
)
from carleman.operators import LowerOrderCoeffs, assemble_operator, green_residual
from carleman.polynomials import Polynomial, poly_from_table
from conftest import interior_bump_space, interior_bump_spacetime, sine_mode
import reference_theta
from reference_theta import node_major
import per_call


@pytest.fixture
def grid2():
    return build_grid([0, 0], [1, 1], [17, 17], 0.0, 1.0, 17)


def inner(arr, grid, margin=1):
    return arr[tuple(slice(margin, -margin) for _ in range(grid.n))]


# -- stencils ------------------------------------------------------------------


def test_elliptic_quadratic_exact(grid2):
    field = MatrixField.identity(2, domain=grid2.domain)
    u = grid2.space_points[..., 0] ** 2
    out = per_call.apply("elliptic", field, None, u, grid2)
    assert np.max(np.abs(inner(out, grid2) - 2.0)) < 1e-11


def test_stencil_exact_per_axis_quadratics_constant_field(grid2):
    field = MatrixField.constant(np.array([[2.0, 0.4], [0.4, 1.0]]), domain=grid2.domain)
    x = grid2.space_points
    u = (1.0 + x[..., 0] + x[..., 0] ** 2) * (2.0 - x[..., 1] + 0.5 * x[..., 1] ** 2)
    out = per_call.laplacian(field, u, grid2)
    # exact second derivatives of the separable polynomial
    f0 = 1.0 + x[..., 0] + x[..., 0] ** 2
    f1 = 2.0 - x[..., 1] + 0.5 * x[..., 1] ** 2
    exact = 2.0 * (2.0 * f1) + 1.0 * (1.0 * f0) + 2 * 0.4 * (1 + 2 * x[..., 0]) * (
        -1 + x[..., 1]
    )
    assert np.max(np.abs(inner(out - exact, grid2))) < 1e-11


def test_wave_dalembert_mode_residual_decays():
    # equal spacings make the discrete mode cancel exactly; keep dt != h so
    # the O(h^2 + dt^2) truncation is visible and halves by ~4
    def residual(nodes):
        g = build_grid([0], [1], [nodes], 0.0, 1.0, 2 * nodes)
        field = MatrixField.identity(1, domain=g.domain)
        x = g.space_points[..., 0]
        u = np.sin(np.pi * x)[:, None] * np.sin(np.pi * g.times)
        out = per_call.apply("wave", field, None, u, g)
        return np.max(np.abs(out[1:-1, 1:-1]))

    r1, r2 = residual(33), residual(65)
    assert r1 < 0.05
    assert 3.0 < r1 / r2 < 5.0


def test_wave_dalembert_equal_spacing_cancels_exactly():
    g = build_grid([0], [1], [33], 0.0, 1.0, 33)
    field = MatrixField.identity(1, domain=g.domain)
    x = g.space_points[..., 0]
    u = np.sin(np.pi * x)[:, None] * np.sin(np.pi * g.times)
    out = per_call.apply("wave", field, None, u, g)
    assert np.max(np.abs(out[1:-1, 1:-1])) < 1e-11


def test_parabolic_constant_with_zero_order(grid2):
    field = MatrixField.identity(2, domain=grid2.domain)
    lower = LowerOrderCoeffs(kind="parabolic", zero=3.0)
    u = np.ones(grid2.shape)
    out = per_call.apply("parabolic", field, lower, u, grid2)
    assert np.max(np.abs(inner(out, grid2)[..., 1:-1] - 3.0)) < 1e-12


def test_kind_coefficient_mismatch_rejected(grid2):
    field = MatrixField.identity(2, domain=grid2.domain)
    lower = LowerOrderCoeffs(kind="wave", time=1.0)
    with pytest.raises(ValueError, match="wave"):
        per_call.apply("elliptic", field, lower, np.ones(grid2.space_shape), grid2)
    with pytest.raises(ValueError):
        LowerOrderCoeffs(kind="elliptic", time=1.0)


def test_flux_stencil_discrete_self_adjointness(grid2):
    field = MatrixField.from_tables(
        2,
        {
            (0, 0): [((0, 0), 1.5), ((1, 0), 0.2)],
            (0, 1): [((0, 1), 0.1)],
            (1, 1): [((0, 0), 1.0), ((0, 1), 0.3)],
        },
        domain=grid2.domain,
    )
    rng = np.random.default_rng(4)
    u = np.zeros(grid2.space_shape)
    v = np.zeros(grid2.space_shape)
    u[3:-3, 3:-3] = rng.normal(size=u[3:-3, 3:-3].shape)
    v[3:-3, 3:-3] = rng.normal(size=v[3:-3, 3:-3].shape)
    lu = per_call.laplacian(field, u, grid2)
    lv = per_call.laplacian(field, v, grid2)
    defect = abs(float(np.sum(lu * v)) - float(np.sum(u * lv)))
    scale = max(1.0, abs(float(np.sum(lu * v))))
    assert defect / scale < 1e-11


def test_nonfinite_input_rejected(grid2):
    field = MatrixField.identity(2, domain=grid2.domain)
    u = np.ones(grid2.space_shape)
    u[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        per_call.apply("elliptic", field, None, u, grid2)


# -- conjugation ------------------------------------------------------------------


@pytest.fixture
def wave_weight_setup():
    g = build_grid([0, 0], [1, 1], [17, 17], -1.0, 1.0, 17)
    field = MatrixField.scalar_affine(2, 1.0, [0.1, 0.0], domain=g.domain)
    spec = per_call.example_weight([-0.5, 0.5], 0.0, 0.25, 0.0, g, lam=2.0)
    return g, field, spec


def test_wave_a_equals_chi_route(wave_weight_setup):
    g, field, spec = wave_weight_setup
    cc = per_call.coeffs(spec, field, "wave", 3.0, g)
    alt = cc.tau**2 * spec.lam**2 * cc.phi**2 * cc.chi
    assert np.max(np.abs(cc.a - alt)) <= 1e-10 * np.max(np.abs(cc.a))


def test_wave_b_cross_check(wave_weight_setup):
    g, field, spec = wave_weight_setup
    cc = per_call.coeffs(spec, field, "wave", 3.0, g)
    pts = g.space_points
    hess0 = spec.psi0.eval_hessian(pts)
    grad0 = spec.psi0.eval_gradient(pts)
    av = field(pts)
    dav = field.first_derivatives(pts)
    lap_psi0 = np.einsum("kl...,kl...->...", av, hess0) + np.einsum(
        "klk...,l...->...", dav, grad0
    )
    lw_psi = lap_psi0[..., None] - spec.psi1.dtt
    alt = -cc.tau * spec.lam**2 * cc.phi * cc.chi - cc.tau * spec.lam * cc.phi * lw_psi
    assert np.max(np.abs(cc.b - alt)) <= 1e-10 * np.max(np.abs(cc.b))


def test_zero_time_profile_kills_d(wave_weight_setup):
    g, field, _ = wave_weight_setup
    spec = per_call.example_weight([-0.5, 0.5], 0.0, 0.0, 0.0, g, lam=2.0)
    cc = per_call.coeffs(spec, field, "wave", 2.0, g)
    assert np.max(np.abs(cc.d)) == 0.0


def test_elliptic_coefficients_hand_value():
    # A = I, psi = x1, lambda = 1: Delta phi = phi, so b = -2 tau phi, c = tau phi
    g = build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 3)
    field = MatrixField.identity(2, domain=g.domain)
    spec_psi0 = poly_from_table(2, [((1, 0), 1.0)])
    from carleman.weights import TimeProfile, WeightSpec

    spec = WeightSpec(psi0=spec_psi0, psi1=TimeProfile.zero(), shift=0.0, lam=1.0)
    cc = per_call.coeffs(spec, field, "elliptic", 2.5, g)
    phi = np.exp(g.space_points[..., 0])
    assert np.allclose(cc.b, -2.0 * 2.5 * phi, atol=1e-12)
    assert np.allclose(cc.c, 2.5 * phi, atol=1e-12)
    assert np.allclose(cc.a, 2.5**2 * phi**2, atol=1e-12)


def test_conjugation_rejects_bad_tau(wave_weight_setup):
    g, field, spec = wave_weight_setup
    with pytest.raises(ValueError, match="tau"):
        per_call.coeffs(spec, field, "wave", 0.0, g)


def test_conjugation_warns_on_inadmissible(wave_weight_setup):
    g, field, spec = wave_weight_setup
    bad = per_call.example_weight([-0.5, 0.5], 0.0, 5.0, 0.0, g, lam=2.0)
    adm = per_call.admissibility(bad, field, g, "wave",
                                 ellipticity=per_call.ellipticity(field, g))
    with pytest.warns(UserWarning, match="not admissible"):
        per_call.coeffs(bad, field, "wave", 2.0, g, admissibility=adm)


def test_conjugation_residual_zero_field(wave_weight_setup):
    g, field, spec = wave_weight_setup
    assert per_call.conjugation(np.zeros(g.shape), spec, field, "wave", 2.0, g) == 0.0


def test_conjugation_residual_support_check(wave_weight_setup):
    g, field, spec = wave_weight_setup
    u = np.ones(g.shape)
    with pytest.raises(ValueError, match="margin"):
        per_call.conjugation(u, spec, field, "wave", 2.0, g)


@pytest.mark.parametrize("kind", ["wave", "parabolic", "schrodinger", "elliptic"])
def test_conjugation_residual_second_order(kind):
    res = []
    for nodes in (17, 33):
        if kind == "elliptic":
            g = build_grid([0, 0], [1, 1], [nodes, nodes], 0.0, 1.0, 3)
        else:
            g = build_grid([0, 0], [1, 1], [nodes, nodes], -1.0, 1.0, nodes)
        field = MatrixField.scalar_affine(2, 1.0, [0.1, 0.0], domain=g.domain)
        gamma = 0.0 if kind == "elliptic" else 0.25
        spec = per_call.example_weight([-0.5, 0.5], 0.0, gamma, 0.0, g, lam=1.0)
        u = interior_bump_space(g) if kind == "elliptic" else interior_bump_spacetime(g)
        res.append(per_call.conjugation(u, spec, field, kind, 2.0, g))
    assert 3.0 <= res[0] / res[1] <= 5.0


# -- structural identities ----------------------------------------------------------


def test_green_zero_v_is_exact(grid2):
    field = MatrixField.identity(2, domain=grid2.domain)
    u = grid2.space_points[..., 0] ** 2
    assert per_call.green(u, np.zeros(grid2.space_shape), field, grid2) == 0.0


def test_green_first_order_example():
    vals = []
    for nodes in (17, 33):
        g = build_grid([0, 0], [1, 1], [nodes, nodes], 0.0, 1.0, 3)
        field = MatrixField.identity(2, domain=g.domain)
        u = g.space_points[..., 0] ** 2
        v = g.space_points[..., 1]
        vals.append(per_call.green(u, v, field, g))
    assert vals[0] < 0.5
    assert vals[1] < 0.6 * vals[0]  # at least first order


def test_green_zero_trace_v_drops_boundary_term():
    g = build_grid([0, 0], [1, 1], [17, 17], 0.0, 1.0, 3)
    field = MatrixField.scalar_affine(2, 1.0, [0.1, 0.05], domain=g.domain)
    u = np.sin(np.pi * g.space_points[..., 0]) * np.cos(0.5 * np.pi * g.space_points[..., 1])
    v = sine_mode(g, (1, 1))
    # with v = 0 on the boundary the defect reduces to interior consistency
    r = per_call.green(u, v, field, g)
    assert r < 0.02


def test_riemannian_identity_exact_for_identity_field():
    g = build_grid([0, 0, 0], [1, 1, 1], [9, 9, 9], 0.0, 1.0, 3)
    field = MatrixField.identity(3, domain=g.domain)
    u = np.sin(np.pi * g.space_points[..., 0])
    assert per_call.riemannian(field, u, g) <= 1e-12


def test_riemannian_constant_diag_exact():
    g = build_grid([0, 0, 0], [1, 1, 1], [9, 9, 9], 0.0, 1.0, 3)
    field = MatrixField.constant(np.diag([1.0, 1.0, 4.0]), domain=g.domain)
    u = np.sin(np.pi * g.space_points[..., 0])
    assert per_call.riemannian(field, u, g) <= 1e-11


def test_riemannian_variable_second_order():
    vals = []
    for nodes in (9, 17):
        g = build_grid([0, 0, 0], [1, 1, 1], [nodes] * 3, 0.0, 1.0, 3)
        field = MatrixField.scalar_affine(3, 1.0, [0.2, 0.0, 0.1], domain=g.domain)
        u = sine_mode(g, (1, 1, 1))
        vals.append(per_call.riemannian(field, u, g))
    assert 3.0 <= vals[0] / vals[1] <= 5.0


def test_riemannian_rejects_low_dimension():
    g = build_grid([0, 0], [1, 1], [5, 5], 0.0, 1.0, 3)
    field = MatrixField.identity(2, domain=g.domain)
    with pytest.raises(ValueError, match="metric exponent undefined for n=2"):
        per_call.riemannian(field, np.ones(g.space_shape), g)


def test_riemannian_metric_structure():
    g = build_grid([0, 0, 0], [1, 1, 1], [5, 5, 5], 0.0, 1.0, 3)
    field = MatrixField.constant(np.diag([1.0, 1.0, 4.0]), domain=g.domain)
    metric = RiemannianField(*per_call.field_sample(field, g.space_points))
    # sqrt|g| = |det A|^(1/(n-2)) = 4 for n = 3
    assert np.allclose(metric.sqrt_det_g, 4.0)
    g_metric = metric.sqrt_det_g[..., None, None] * np.linalg.inv(node_major(metric.a_vals, 2))
    eigs = np.linalg.eigvalsh(g_metric)
    assert np.all(eigs > 0)


def test_riemannian_cofactors_match_the_batched_inverse():
    """det A and the Jacobi gradient from the 3 x 3 cofactors agree with
    ``numpy.linalg.det`` and ``trace(A^-1 d_p A)`` to rounding, for random
    symmetric A of either sign of det A."""
    rng = np.random.default_rng(9)
    a = rng.normal(size=(200, 3, 3))
    a = a + np.swapaxes(a, -1, -2)
    da = rng.normal(size=(200, 3, 3, 3))
    da = da + np.swapaxes(da, 1, 2)
    metric = RiemannianField(np.moveaxis(a, 0, -1), np.moveaxis(da, 0, -1))
    det = np.linalg.det(a)
    assert np.any(det < 0) and np.any(det > 0)
    assert np.all(np.abs(metric.det_a - det) <= 1e-13 * np.abs(det))
    ddet = det[:, None] * np.einsum("...lk,...klp->...p", np.linalg.inv(a), da)
    expected = -np.abs(det)[:, None] ** -2.0 * np.sign(det)[:, None] * ddet
    got = metric.inv_scale_gradient().T
    assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))


def test_riemannian_residual_evaluates_a_once_beyond_the_assembly(monkeypatch):
    """The residual and its metric read the node sample of A they are given:
    A is evaluated once, for that sample, beyond the assembly."""
    g = build_grid([0, 0, 0], [1, 1, 1], [7, 7, 7], 0.0, 1.0, 3)
    field = MatrixField.scalar_affine(3, 1.0, [0.2, 0.0, 0.1], domain=g.domain)
    calls = []
    call = MatrixField.__call__
    monkeypatch.setattr(MatrixField, "__call__", lambda f, x: calls.append(1) or call(f, x))
    mat = assemble_operator(field, None, g)
    assembly = len(calls)
    a, da = field(g.space_points), field.first_derivatives(g.space_points)
    riemannian_identity_residual(a, da, mat, sine_mode(g, (1, 1, 1)), g)
    assert len(calls) - assembly == assembly + 1


def test_magnetic_zero_b_exact(grid2):
    field = MatrixField.identity(2, domain=grid2.domain)
    u = sine_mode(grid2, (1, 1))
    zero_b = [Polynomial(2, {}), Polynomial(2, {})]
    assert per_call.magnetic(field, zero_b, u, grid2) <= 1e-12


def test_magnetic_constant_b_nearly_exact():
    # constant coefficients commute with the centered stencil, so the
    # product-rule defect vanishes to rounding (well inside <= C h^2)
    g = build_grid([0, 0], [1, 1], [17, 17], 0.0, 1.0, 3)
    field = MatrixField.identity(2, domain=g.domain)
    b = [Polynomial.constant(2, 0.7), Polynomial.constant(2, -0.3)]
    u = sine_mode(g, (1, 2)).astype(complex)
    assert per_call.magnetic(field, b, u, g) < 1e-12


def test_magnetic_variable_b_second_order():
    vals = []
    for nodes in (17, 33):
        g = build_grid([0, 0], [1, 1], [nodes, nodes], 0.0, 1.0, 3)
        field = MatrixField.scalar_affine(2, 1.0, [0.1, 0.0], domain=g.domain)
        b = [Polynomial.coordinate(2, 1), Polynomial.coordinate(2, 0) * 0.5]
        x = g.space_points
        u = sine_mode(g, (1, 1)) * np.exp(1j * 2 * x[..., 0])
        vals.append(per_call.magnetic(field, b, u, g))
    assert 3.0 <= vals[0] / vals[1] <= 5.0


def test_magnetic_unit_field_reduction():
    # u = 1 kills the gradient terms; the composed form matches the
    # zero-order reduction (-|b|^2 + i div(A b)) u to second order
    g = build_grid([0, 0], [1, 1], [33, 33], 0.0, 1.0, 3)
    field = MatrixField.scalar_affine(2, 1.0, [0.1, 0.0], domain=g.domain)
    b = [Polynomial.coordinate(2, 1), Polynomial.coordinate(2, 0) * 0.5]
    u = np.ones(g.space_shape, dtype=complex)
    assert per_call.magnetic(field, b, u, g) < 5e-3


def _variable_table(n):
    """A(x) = (1 + 0.3 x_k) on the diagonal, 0.1 x_k x_l off it."""
    def mono(*axes):
        return tuple(sum(1 for a in axes if a == p) for p in range(n))

    tables = {(k, k): [(mono(), 1.0), (mono(k), 0.3)] for k in range(n)}
    for k in range(n):
        for l in range(n):
            if k != l:
                tables[(k, l)] = [(mono(k, l), 0.1)]
    return tables


@pytest.mark.parametrize("n", [1, 2, 3])
def test_magnetic_residual_matches_frozen_nested_laplacian(n):
    from reference_magnetic import magnetic_expansion_residual as frozen

    g = build_grid([0.0] * n, [1.0] * n, [11, 9, 7][:n], 0.0, 1.0, 3)
    field = MatrixField.from_tables(n, _variable_table(n), domain=g.domain)
    u = sine_mode(g, (1, 2, 1)[:n]) * np.exp(1j * g.space_points[..., 0])
    coords = [Polynomial.coordinate(n, (ax + 1) % n) for ax in range(n)]
    for b in (coords, [Polynomial(n, {})] * n):
        assert per_call.magnetic(field, b, u, g) == frozen(field, b, u, g)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_planar_sums_equal_the_frozen_einsums(n):
    """The sums over planes that replaced the einsums of the weight pieces,
    the A-norm of grad psi0, the Gamma+ flux and the Green and Riemannian
    residuals give the einsums' floats: they add in the einsums' order."""
    from carleman.coefficients import quad_form
    from carleman.operators import _spatial_weight_pieces
    from carleman.solvers import gamma_plus

    g = build_grid([0.0] * n, [1.0] * n, [13, 11, 9][:n], 0.0, 1.0, 3)
    field = MatrixField.from_tables(n, _variable_table(n), domain=g.domain)
    rng = np.random.default_rng(n)
    monomials = [m for m in np.ndindex(*(4,) * n) if sum(m) <= 3]
    psi0 = poly_from_table(n, [(m, float(rng.normal())) for m in monomials])
    pts = g.space_points
    a, da = field(pts), field.first_derivatives(pts)
    grad, hess = psi0.eval_gradient(pts), psi0.eval_hessian(pts)
    old = [node_major(a, 2), node_major(da, 3), node_major(grad, 1), node_major(hess, 2)]
    assert np.array_equal(quad_form(grad, a, grad), reference_theta.grad_sq_a(old[2], old[0]))
    gsq, lap, a_grad = _spatial_weight_pieces(a, da, grad, hess)
    ref = reference_theta.spatial_weight_pieces(*old)
    assert np.array_equal(gsq, ref[0]) and np.array_equal(lap, ref[1])
    assert np.array_equal(node_major(a_grad, 1), ref[2])
    masks = gamma_plus(a, grad, g).face_masks
    assert all(np.array_equal(m, r) for m, r in
               zip(masks, reference_theta.gamma_plus_masks(old[0], old[2], g)))
    mat = assemble_operator(field, None, g)
    u = sine_mode(g, (1, 2, 1)[:n])
    assert green_residual(u, u**2, a, mat, g) == reference_theta.green_residual(
        u, u**2, old[0], mat, g)
    if n == 3:
        assert riemannian_identity_residual(a, da, mat, u, g) == (
            reference_theta.riemannian_identity_residual(old[0], old[1], mat, u, g))


def test_lower_order_declared_bound_validated():
    g = build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 5)
    ok = LowerOrderCoeffs(kind="elliptic", space=(0.5, 0.5), zero=1.0, bound=1.0)
    ok.validate_bound(g)
    too_big = LowerOrderCoeffs(
        kind="elliptic", space=(Polynomial.coordinate(2, 0) * 3.0,), zero=0.0, bound=1.0
    )
    with pytest.raises(ValueError, match="bound"):
        too_big.validate_bound(g)

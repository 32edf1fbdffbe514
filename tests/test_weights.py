import math

import numpy as np
import pytest

from carleman import (
    MatrixField,
    build_grid,
    make_example_weight,
    ucp_region_certificate,
)
from carleman.polynomials import Polynomial
from carleman.weights import (
    COND_WAVE_CONE,
    COND_WAVE_CURVATURE,
    TimeProfile,
    UCPGeometry,
    WeightSpec,
)
import per_call


@pytest.fixture
def wave_setup():
    grid = build_grid([0, 0], [1, 1], [17, 17], -1.0, 1.0, 33)
    field = MatrixField.identity(2, domain=grid.domain)
    ell = per_call.ellipticity(field, grid)
    return grid, field, ell


# -- example weight ------------------------------------------------------------


def test_example_weight_no_shift_needed(unit_square_grid):
    spec = make_example_weight([-1.0, 0.0], 0.0, 0.0, 0.0, unit_square_grid)
    assert spec.shift == 0.0
    assert spec.min_psi(unit_square_grid) >= 0.0


def test_example_weight_minimal_shift(unit_square_grid):
    g = unit_square_grid  # t in (-1, 1)
    spec = make_example_weight([-1.0, 0.0], 0.0, -0.25, 0.0, g)
    min_sq = float(np.min(np.sum((g.space_points - np.array([-1.0, 0.0])) ** 2, axis=-1)))
    expected = max(0.0, 0.125 - min_sq / 2.0)
    assert spec.shift == pytest.approx(expected, abs=2e-9)
    assert spec.min_psi(g) >= 0.0


def test_example_weight_interior_center_rejected(unit_square_grid):
    with pytest.raises(ValueError, match="inside"):
        make_example_weight([0.5, 0.5], 0.0, 0.0, 0.0, unit_square_grid)


# -- admissibility ---------------------------------------------------------------


def test_elliptic_admissibility_quadratic_weight(wave_setup):
    grid, field, ell = wave_setup
    spec = make_example_weight([-1.0, 0.5], 0.0, 0.0, 0.0, grid)
    rep = per_call.admissibility(spec, field, grid, "elliptic", ellipticity=ell)
    assert rep.passed


def test_wave_admissibility_canonical_pass(wave_setup):
    grid, field, ell = wave_setup
    spec = make_example_weight([-0.5, 0.5], 0.0, 0.25, 0.0, grid, lam=2.0)
    rep = per_call.admissibility(spec, field, grid, "wave", ellipticity=ell)
    assert rep.passed
    assert rep.kappa == pytest.approx(2.0)
    # delta equals the grid minimum of the squared bracket: (d^2 - s^2 g^2)^2
    assert rep.delta == pytest.approx((0.25 - 0.0625) ** 2)


def test_wave_admissibility_gamma_at_twice_bound_fails(wave_setup):
    grid, field, ell = wave_setup
    d = 0.5
    sigma = 1.0
    kappa, vk = 2.0, 1.0
    gamma = 2.0 * min(d / sigma, kappa / (4.0 * vk))
    spec = make_example_weight([-0.5, 0.5], 0.0, gamma, 0.0, grid, lam=2.0)
    rep = per_call.admissibility(spec, field, grid, "wave", ellipticity=ell)
    assert not rep.passed
    codes = rep.codes()
    assert COND_WAVE_CURVATURE in codes
    if d**2 <= sigma**2 * gamma**2:
        assert COND_WAVE_CONE in codes


def test_wave_admissibility_monotone_in_gamma(wave_setup):
    grid, field, ell = wave_setup
    gammas = [0.05, 0.1, 0.2, 0.4, 0.8]
    passes = []
    for gamma in gammas:
        spec = make_example_weight([-0.5, 0.5], 0.0, gamma, 0.0, grid, lam=2.0)
        passes.append(per_call.admissibility(spec, field, grid, "wave", ellipticity=ell).passed)
    for small, big in zip(passes, passes[1:]):
        if big:
            assert small


def test_wave_admissibility_requires_ellipticity_report(wave_setup):
    grid, field, _ = wave_setup
    spec = make_example_weight([-0.5, 0.5], 0.0, 0.25, 0.0, grid)
    with pytest.raises(ValueError, match="ellipticity"):
        per_call.admissibility(spec, field, grid, "wave")


def test_schrodinger_admissibility_uses_pseudoconvexity(wave_setup):
    grid, field, ell = wave_setup
    spec = make_example_weight([-0.5, 0.5], 0.0, 0.0, 0.0, grid)
    rep = per_call.admissibility(spec, field, grid, "schrodinger", ellipticity=ell)
    assert rep.passed and rep.kappa == pytest.approx(2.0)


def test_delta_consistency_with_independent_scan(wave_setup):
    grid, field, ell = wave_setup
    spec = make_example_weight([-0.5, 0.5], 0.0, 0.25, 0.0, grid, lam=2.0)
    rep = per_call.admissibility(spec, field, grid, "wave", ellipticity=ell)
    grads = spec.psi0.eval_gradient(grid.space_points)
    gsq = np.sum(grads**2, axis=0)
    dt = spec.psi1.dt(grid.times)
    bracket = gsq[..., None] - dt**2
    assert rep.delta == float(np.min(bracket**2))


# -- observability weight -----------------------------------------------------------


def test_observability_threshold_arithmetic():
    # alpha = 1/2, delta0 = 1/4, m = 5/2: max(0.25^-1, 80^2) = 6400
    # on (0, sqrt(5) - 1/2) with x0 = -1/2: sup |x - x0|^2/2 = 5/2
    grid = build_grid([0], [2.23606797749979 - 0.5], [9], 0.0, 6500.0, 9)
    psi0 = Polynomial.squared_distance([-0.5], scale=0.5)
    field = MatrixField.identity(1, domain=grid.domain)
    spec, thr = per_call.observability_weight(psi0, 0.5, 6500.0, 30.0, field, grid)
    assert thr.delta0 == pytest.approx(0.25)
    assert thr.m_sup == pytest.approx(2.5)
    assert thr.t_alpha == pytest.approx(6400.0)


def test_observability_checks_above_threshold():
    grid = build_grid([0, 0], [1, 1], [9, 9], 0.0, 1601.0, 9)
    field = MatrixField.identity(2, domain=grid.domain)
    psi0 = Polynomial.squared_distance([-0.5, 0.5], scale=0.5)
    spec, thr = per_call.observability_weight(psi0, 0.5, 1601.0, 11.0, field, grid)
    assert thr.t_alpha == pytest.approx(1600.0)
    assert all(thr.checks.values())
    assert spec.min_psi(grid) >= 0.0


def test_observability_checks_fail_below_threshold():
    grid = build_grid([0, 0], [1, 1], [9, 9], 0.0, 800.0, 9)
    field = MatrixField.identity(2, domain=grid.domain)
    psi0 = Polynomial.squared_distance([-0.5, 0.5], scale=0.5)
    _, thr = per_call.observability_weight(psi0, 0.5, 800.0, 8.0, field, grid)
    assert not all(thr.checks.values())
    assert not thr.checks["outer-band-upper-bound"]


def test_observability_rejects_bad_alpha():
    grid = build_grid([0, 0], [1, 1], [5, 5], 0.0, 1.0, 5)
    field = MatrixField.identity(2, domain=grid.domain)
    psi0 = Polynomial.squared_distance([-0.5, 0.5], scale=0.5)
    for alpha in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError, match="alpha"):
            per_call.observability_weight(psi0, alpha, 1.0, 0.0, field, grid)


# -- UCP region certificate -----------------------------------------------------------


def make_geom(c=1.0, eps=0.1, t_span=3.0):
    return UCPGeometry(
        center=(0.0, 0.0), c=c, r=c / 2, r0=c / 2, rho0=c / 8, rho1=c / 4,
        eps=eps, t_span=t_span,
    )


def test_ucp_pinned_exponents():
    cert = ucp_region_certificate(make_geom(), 1.0, 0.0)
    assert cert.exponents == pytest.approx((0.425, 0.4, 0.40625))
    assert cert.c0 == pytest.approx(1.5296, abs=1e-4)
    assert cert.c1 == pytest.approx(1.4918, abs=1e-4)
    assert cert.c2 == pytest.approx(1.5012, abs=1e-4)
    assert cert.passed
    assert cert.time_threshold_ok


def test_ucp_below_time_threshold_fails():
    cert = ucp_region_certificate(make_geom(t_span=2.0), 1.0, 0.0)
    assert not cert.passed
    assert any("24*eps/c" in msg for msg in cert.failed_comparisons)


def test_ucp_eps_to_zero_degenerates_margin():
    cert = ucp_region_certificate(make_geom(eps=1e-12, t_span=3.0), 1.0, 0.0)
    assert cert.margins[0] == pytest.approx(0.0, abs=1e-9)


def test_ucp_too_small_time_rejected():
    with pytest.raises(ValueError, match="2\\*eps/c"):
        ucp_region_certificate(make_geom(t_span=0.1), 1.0, 0.0)


def test_ucp_shift_covariance():
    base = ucp_region_certificate(make_geom(), 1.5, 0.0)
    for s in (1.0, 10.0):
        shifted = ucp_region_certificate(make_geom(), 1.5, s)
        factor = math.exp(1.5 * s)
        assert shifted.c0 == pytest.approx(base.c0 * factor, rel=1e-12)
        assert shifted.c1 == pytest.approx(base.c1 * factor, rel=1e-12)
        assert shifted.c2 == pytest.approx(base.c2 * factor, rel=1e-12)
        assert shifted.passed == base.passed


def test_ucp_separation_monotone_in_lambda():
    margins = []
    for lam in (1.0, 2.0, 4.0):
        cert = ucp_region_certificate(make_geom(), lam, 0.0)
        margins.append(cert.margins)
    for (a0, b0), (a1, b1) in zip(margins, margins[1:]):
        assert a1 > a0
        assert b1 > b0


def test_ucp_gamma_definition():
    geom = make_geom(c=1.0, t_span=3.0)
    assert geom.gamma == pytest.approx(1.0 / 12.0)


def test_ucp_geometry_radii_validated():
    with pytest.raises(ValueError, match="radii"):
        UCPGeometry(center=(0.0,), c=1.0, r=0.5, r0=0.5, rho0=0.3, rho1=0.2,
                    eps=0.1, t_span=1.0)


# -- weight spec basics ----------------------------------------------------------------


def test_weight_lambda_positive_required():
    with pytest.raises(ValueError, match="lambda"):
        WeightSpec(
            psi0=Polynomial.squared_distance([0.0]), psi1=TimeProfile.zero(),
            shift=0.0, lam=0.0,
        )


def test_time_profile_derivatives():
    p = TimeProfile.quadratic(0.5, 1.0)  # 0.25 (t+1)^2
    assert p(1.0) == pytest.approx(1.0)
    assert p.dt(1.0) == pytest.approx(1.0)
    assert p.dtt == pytest.approx(0.5)
    obs = TimeProfile.observability(0.5, 4.0)
    assert obs(2.0) == pytest.approx(0.0)
    assert obs.dtt == pytest.approx(-2.0 * 4.0 ** (-1.5))


def test_observability_rejects_nonpositive_time():
    grid = build_grid([0, 0], [1, 1], [5, 5], 0.0, 1.0, 5)
    field = MatrixField.identity(2, domain=grid.domain)
    psi0 = Polynomial.squared_distance([-0.5, 0.5], scale=0.5)
    with pytest.raises(ValueError, match="positive"):
        per_call.observability_weight(psi0, 0.5, -1.0, 0.0, field, grid)


def test_admissibility_unknown_kind_rejected(unit_square_grid):
    field = MatrixField.identity(2, domain=unit_square_grid.domain)
    spec = make_example_weight([-1.0, 0.0], 0.0, 0.0, 0.0, unit_square_grid)
    with pytest.raises(ValueError, match="kind"):
        per_call.admissibility(spec, field, unit_square_grid, "hyperbolic")

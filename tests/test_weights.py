import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carleman import MatrixField, build_grid, ucp_region_certificate
from carleman.coefficients import EllipticityReport
from carleman.polynomials import Polynomial
from carleman.weights import (
    COND_WAVE_CONE,
    COND_WAVE_CURVATURE,
    TimeProfile,
    UCPGeometry,
    WeightSpec,
    check_admissibility,
    make_observability_weight,
)
import per_call
import reference_weights


@pytest.fixture
def wave_setup():
    grid = build_grid([0, 0], [1, 1], [17, 17], -1.0, 1.0, 33)
    field = MatrixField.identity(2, domain=grid.domain)
    ell = per_call.ellipticity(field, grid)
    return grid, field, ell


# -- example weight ------------------------------------------------------------


def test_example_weight_no_shift_needed(unit_square_grid):
    spec = per_call.example_weight([-1.0, 0.0], 0.0, 0.0, 0.0, unit_square_grid)
    assert spec.shift == 0.0
    assert per_call.min_psi(spec, unit_square_grid) >= 0.0


def test_example_weight_minimal_shift(unit_square_grid):
    g = unit_square_grid  # t in (-1, 1)
    spec = per_call.example_weight([-1.0, 0.0], 0.0, -0.25, 0.0, g)
    min_sq = float(np.min(np.sum((g.space_points - np.array([-1.0, 0.0])) ** 2, axis=-1)))
    expected = max(0.0, 0.125 - min_sq / 2.0)
    assert spec.shift == pytest.approx(expected, abs=2e-9)
    assert per_call.min_psi(spec, g) >= 0.0


def test_example_weight_interior_center_rejected(unit_square_grid):
    with pytest.raises(ValueError, match="inside"):
        per_call.example_weight([0.5, 0.5], 0.0, 0.0, 0.0, unit_square_grid)


# -- admissibility ---------------------------------------------------------------


def test_elliptic_admissibility_quadratic_weight(wave_setup):
    grid, field, ell = wave_setup
    spec = per_call.example_weight([-1.0, 0.5], 0.0, 0.0, 0.0, grid)
    rep = per_call.admissibility(spec, field, grid, "elliptic", ellipticity=ell)
    assert rep.passed


def test_wave_admissibility_canonical_pass(wave_setup):
    grid, field, ell = wave_setup
    spec = per_call.example_weight([-0.5, 0.5], 0.0, 0.25, 0.0, grid, lam=2.0)
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
    spec = per_call.example_weight([-0.5, 0.5], 0.0, gamma, 0.0, grid, lam=2.0)
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
        spec = per_call.example_weight([-0.5, 0.5], 0.0, gamma, 0.0, grid, lam=2.0)
        passes.append(per_call.admissibility(spec, field, grid, "wave", ellipticity=ell).passed)
    for small, big in zip(passes, passes[1:]):
        if big:
            assert small


def test_wave_admissibility_requires_ellipticity_report(wave_setup):
    grid, field, _ = wave_setup
    spec = per_call.example_weight([-0.5, 0.5], 0.0, 0.25, 0.0, grid)
    with pytest.raises(ValueError, match="ellipticity"):
        per_call.admissibility(spec, field, grid, "wave")


def test_schrodinger_admissibility_uses_pseudoconvexity(wave_setup):
    grid, field, ell = wave_setup
    spec = per_call.example_weight([-0.5, 0.5], 0.0, 0.0, 0.0, grid)
    rep = per_call.admissibility(spec, field, grid, "schrodinger", ellipticity=ell)
    assert rep.passed and rep.kappa == pytest.approx(2.0)


def test_delta_consistency_with_independent_scan(wave_setup):
    grid, field, ell = wave_setup
    spec = per_call.example_weight([-0.5, 0.5], 0.0, 0.25, 0.0, grid, lam=2.0)
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
    assert per_call.min_psi(spec, grid) >= 0.0


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


# -- the bracket and the bands from the space and time samples ------------------------


class _Sampled:
    """A stand-in for psi0 with given values on the nodes."""

    nvars = 1

    def __init__(self, values):
        self.values = values

    def __call__(self, points):
        return self.values.copy()


def _duck_grid(count: int, t_obs: float, nt: int):
    """Space nodes 0..count-1 on a line and nt levels of [0, t_obs], one node
    and one level included (a built grid needs three of each)."""
    return SimpleNamespace(space_points=np.arange(float(count))[:, None], t1=0.0, t2=t_obs,
                           nt=nt, times=np.linspace(0.0, t_obs, nt))


def _sample(g):
    """A, dA, grad psi0 and hess psi0 on a line with |grad psi0|_A^2 = g."""
    count = g.size
    return (g.reshape(1, 1, count), np.zeros((1, 1, 1, count)), np.ones((1, count)),
            np.zeros((1, 1, count)))


# varkappa = 1: the (2.2) check reads it, the (2.1) bracket does not
_ELLIPTICITY = EllipticityReport(kappa_estimate=1.0, m_estimate=0.0, lambda_min=1.0,
                                 lambda_max=1.0, passed=True, kappa_tolerance=np.inf,
                                 m_tolerance=np.inf)


def _wave_admissibility(psi1, sample, grid):
    """The wave-kind admissibility report of psi1 on a line sample."""
    spec = WeightSpec(psi0=Polynomial.squared_distance([-1.0]), psi1=psi1, shift=1.0, lam=1.0)
    a, da, grad, hess = sample
    return check_admissibility(spec, a, da, spec.psi0(grid.space_points), grad, hess, grid,
                               "wave", ellipticity=_ELLIPTICITY)


def _outcome(call, *args):
    """What ``call(*args)`` returns, or the ValueError or ArithmeticError it
    raises (a tiny delta0 overflows the first threshold)."""
    try:
        return call(*args)
    except (ValueError, ArithmeticError) as exc:
        return exc


@st.composite
def _weight_cases(draw):
    """The observability profile on 1..12 or 8k + 1 levels of [0, T] and
    1..24 nodes with space values of |grad psi0|_A^2 and of psi0.

    The gradient values lie above, below or across the values e = (dt psi1)^2
    on the levels: ties with e, float neighbours of e, repeats of earlier
    values and uniform draws, so the bracket keeps either sign or takes both,
    with zeros.  The psi0 values sit at and next to 0, T^alpha/128, the
    outer-band bound T^alpha/32, twice it and T^alpha/4, up to a drawn top
    value; one of them may sit next to the nonnegativity tolerance -1e-12."""
    alpha = draw(st.sampled_from([0.25, 0.5, 0.75]))
    t_obs = draw(st.sampled_from([0.5, 1.0, 3.0, 16.0, 1601.0]))
    # 8k + 1 levels put times on the band edges 3T/8 and 5T/8
    count = draw(st.integers(1, 24))
    nt = draw(st.one_of(st.integers(1, 12), st.sampled_from([9, 17, 25, 33])))
    grid = _duck_grid(count, t_obs, nt)
    e = TimeProfile.observability(alpha, t_obs).dt(grid.times) ** 2
    side = draw(st.sampled_from(["above", "across", "below"]))
    span = {"above": (np.max(e), 2.0 * np.max(e) + 1.0), "across": (0.0, 2.0 * np.max(e) + 1.0),
            "below": (0.0, np.min(e))}[side]
    steps = {"above": [np.inf], "across": [-np.inf, np.inf], "below": [-np.inf]}[side]
    kinds = draw(st.lists(st.sampled_from(["tie", "step", "uniform", "repeat"]), min_size=1,
                          unique=True))
    g = []
    for _ in range(count):
        kind = draw(st.sampled_from(kinds))
        if kind == "repeat" and g:
            g.append(draw(st.sampled_from(g)))
        elif kind in ("uniform", "repeat"):
            g.append(draw(st.floats(*map(float, span))))
        else:
            tie = float({"above": np.max(e), "below": np.min(e)}.get(
                side, e[draw(st.integers(0, nt - 1))]))
            g.append(tie if kind == "tie" else float(np.nextafter(tie, draw(st.sampled_from(steps)))))
    bound = t_obs**alpha / 32.0
    bases = [0.0, bound / 4.0, bound, 2.0 * bound, 8.0 * bound]
    top = draw(st.integers(0, 4))
    s = [bases[top]] + [draw(st.sampled_from(bases[: top + 1])) for _ in range(count - 1)]
    s = [float(np.nextafter(v, draw(st.sampled_from([v, np.inf] + [-np.inf] * (v > 0.0)))))
         for v in s]
    if count > 1 and draw(st.booleans()):
        # a nonnegative sup of psi0: a negative one makes the second threshold complex
        s[draw(st.integers(1, count - 1))] = float(
            np.nextafter(-1e-12, draw(st.sampled_from([-np.inf, -1e-12, np.inf]))))
    # a large shift rounds psi coarser than the bands' 1e-12 tolerance
    shift = draw(st.sampled_from([0.0, -1.0, 1e-3, 0.5, 1e4, 1e6]))
    return alpha, t_obs, grid, np.array(g), np.array(s), shift


def _edge_case(alpha, t_obs, nt, shift):
    """psi0 at the nonnegativity tolerance with levels on the band edges: the
    inner-band check fails by rounding."""
    return (alpha, t_obs, _duck_grid(2, t_obs, nt), np.array([100.0, 200.0]),
            np.array([-1e-12, t_obs**alpha / 32.0]), shift)


# A fixed draw of 100 examples in tier-1; the "ci" profile of tests/conftest.py
# draws 2000 of the same fixed sequence.
@settings(max_examples=settings.default.max_examples, derandomize=True, deadline=None)
@given(_weight_cases())
@example(_edge_case(0.25, 3.0, 25, 0.0))
@example(_edge_case(0.5, 0.5, 9, 0.5))
def test_weight_checks_match_space_time_arrays(case):
    """delta, the (2.1) minimum and witness node, the three observability
    checks, T_alpha and the auto-shift equal those of the (space x time)
    arrays bit for bit."""
    alpha, t_obs, grid, g, s, shift = case
    a, _, grad, _ = sample = _sample(g)

    psi1 = TimeProfile.observability(alpha, t_obs)
    adm = _wave_admissibility(psi1, sample, grid)
    bmin, space_idx, delta = reference_weights.bracket(g, psi1, grid.times)
    assert repr(adm.delta) == repr(delta)
    cone = [v for v in adm.violations if v.code == COND_WAVE_CONE]
    if bmin <= 0.0:
        assert repr((cone[0].witness_value, cone[0].witness_node)) == \
            repr((bmin, (float(space_idx),)))
    else:
        assert not cone

    psi0 = _Sampled(s)
    ours = _outcome(make_observability_weight, psi0, alpha, t_obs, shift, a, s, grad, grid)
    theirs = _outcome(reference_weights.observability_weight, psi0, alpha, t_obs, shift, a,
                      grad, grid)
    assert repr(ours) == repr(theirs)


def test_weight_checks_overflow_where_the_arrays_did():
    """Under the commands' error state a bracket square or a psi sum that
    overflowed on some space-time node still raises, with the same message."""
    grid = _duck_grid(2, 1.0, 5)
    psi1 = TimeProfile.observability(0.5, 1.0)
    huge = _sample(np.array([1.0, 1e200]))
    cases = [
        (lambda: _wave_admissibility(psi1, huge, grid),
         lambda: reference_weights.bracket(huge[0].reshape(-1), psi1, grid.times)),
    ]
    for values, shift, sample in (([0.5, 1.0], 0.0, huge),
                                  ([0.5, 1.7e308], 1e308, _sample(np.ones(2)))):
        psi0 = _Sampled(np.array(values))
        ours = (psi0, 0.5, 1.0, shift, sample[0], psi0.values, sample[2], grid)
        theirs = (psi0, 0.5, 1.0, shift, sample[0], sample[2], grid)
        cases.append((lambda args=ours: make_observability_weight(*args),
                      lambda args=theirs: reference_weights.observability_weight(*args)))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for ours, theirs in cases:
            with pytest.raises(FloatingPointError) as expected:
                theirs()
            with pytest.raises(FloatingPointError, match=str(expected.value)):
                ours()


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
    spec = per_call.example_weight([-1.0, 0.0], 0.0, 0.0, 0.0, unit_square_grid)
    with pytest.raises(ValueError, match="kind"):
        per_call.admissibility(spec, field, unit_square_grid, "hyperbolic")

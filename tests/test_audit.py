import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carleman import (
    MatrixField,
    build_grid,
    certify_ellipticity,
    check_admissibility,
    integrate_dmu,
    make_example_weight,
    negative_control,
    sweep_audit,
)
from carleman.audit import (
    INEQUALITY_KINDS,
    _window,
    compare_refinement,
    default_ensemble,
    evaluate_sides,
)
from carleman.geometry import separable, sine_profile
from carleman.operators import LowerOrderCoeffs
from carleman.solvers import gamma_plus
from conftest import interior_bump_spacetime, interior_bump_space
from reference_sides import reference_sides


@pytest.fixture
def canonical():
    grid = build_grid([0, 0], [1, 1], [17, 17], -1.0, 1.0, 33)
    field = MatrixField.identity(2, domain=grid.domain)
    spec = make_example_weight([-0.5, 0.5], 0.0, 0.25, 0.0, grid, lam=2.0)
    return grid, field, spec


def test_zero_field_gives_zero_sides(canonical):
    grid, field, spec = canonical
    side = evaluate_sides(np.zeros(grid.shape), spec, field, None, "wave_full", 4.0, grid)
    assert side.lhs_interior == 0.0
    assert side.rhs_total == 0.0
    assert side.ratio == float("inf")


def test_interior_bump_has_no_boundary_terms(canonical):
    grid, field, spec = canonical
    u = interior_bump_spacetime(grid)
    side = evaluate_sides(u, spec, field, None, "wave_full", 4.0, grid)
    # one-sided boundary gradients see the sub-1e-17 tail of the bump, so
    # the boundary term is "zero" at the rounding floor, not bitwise
    assert side.rhs_boundary_dmu <= 1e-15 * side.lhs_interior
    assert side.lhs_interior > 0.0
    assert side.rhs_source > 0.0


def test_sides_deterministic_and_order_independent(canonical):
    grid, field, spec = canonical
    # fixed product mode vanishing on the lateral boundary and to second
    # order at the caps, evaluated at tau = 8, lambda = 2
    x = grid.space_points
    t_hat = (grid.times - grid.t1) / (grid.t2 - grid.t1)
    u = (np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1]))[..., None] * np.sin(
        np.pi * t_hat
    ) ** 2
    first = evaluate_sides(u, spec, field, None, "wave_full", 8.0, grid)
    second = evaluate_sides(u.copy(), spec, field, None, "wave_full", 8.0, grid)
    assert first.ratio == second.ratio  # bit identical
    # independent evaluation order: integrate with transposed reductions
    phi = spec.phi_values(grid)
    env = np.exp(2.0 * 8.0 * (phi - np.max(phi)))
    lam = spec.lam
    from carleman.operators import gradient_space, gradient_time

    grad = gradient_space(u, grid)
    dtu = gradient_time(u, grid)
    dens = 8.0**3 * lam**4 * phi**3 * np.abs(u) ** 2 + 8.0 * lam * phi * (
        np.sum(np.abs(grad) ** 2, axis=-1) + np.abs(dtu) ** 2
    )
    w = grid.space_weights[..., None] * grid.time_weights
    alt = float(np.sum((env * dens * w).T))
    assert alt == pytest.approx(first.lhs_interior, rel=1e-13)


@st.composite
def _windowed_modes(draw):
    """A windowed sine mode (wavenumbers 1-4 per axis and in time) on a
    coarser copy of the canonical grid, vanishing on all of dQ."""
    grid = build_grid([0, 0], [1, 1], [13, 13], -1.0, 1.0, 17)
    ks = [draw(st.integers(1, 4)) for _ in range(grid.n)]
    kt = draw(st.integers(1, 4))
    u = separable(grid, [sine_profile(k) for k in ks], sine_profile(kt)) * _window(grid, False)
    return grid, u


@settings(max_examples=50, derandomize=True, deadline=None)
@given(
    _windowed_modes(),
    st.floats(0.25, 16.0),
    st.integers(-8, 8),
    st.floats(0.5, 1.0),
)
def test_scaling_law_exact(case, tau, power, mantissa):
    grid, u = case
    field = MatrixField.identity(2, domain=grid.domain)
    spec = make_example_weight([-0.5, 0.5], 0.0, 0.25, 0.0, grid, lam=2.0)
    one = evaluate_sides(u, spec, field, None, "wave_full", tau, grid)
    # a power of two scales every product exactly
    two = evaluate_sides(2.0**power * u, spec, field, None, "wave_full", tau, grid)
    assert two.lhs_interior == 4.0**power * one.lhs_interior
    assert two.rhs_source == 4.0**power * one.rhs_source
    assert two.rhs_boundary_dmu == 4.0**power * one.rhs_boundary_dmu
    assert two.ratio == one.ratio
    c = mantissa * 2.0**power
    scaled = evaluate_sides(c * u, spec, field, None, "wave_full", tau, grid)
    assert scaled.lhs_interior == pytest.approx(c**2 * one.lhs_interior, rel=1e-13)
    assert scaled.ratio == pytest.approx(one.ratio, rel=1e-13)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_windowed_modes(), st.floats(0.05, 1.0))
def test_normalization_leaves_ratio_unchanged(case, tau):
    """Both sides recomputed without the exp(-2 tau phi_max) normalization."""
    from carleman.operators import apply_operator, gradient_space, gradient_time

    grid, u = case
    field = MatrixField.identity(2, domain=grid.domain)
    spec = make_example_weight([-0.5, 0.5], 0.0, 0.25, 0.0, grid, lam=2.0)
    side = evaluate_sides(u, spec, field, None, "wave_full", tau, grid)
    phi = spec.phi_values(grid)
    lam = spec.lam
    env = np.exp(2.0 * tau * phi)
    energy = np.sum(gradient_space(u, grid) ** 2, axis=-1) + gradient_time(u, grid) ** 2
    w = grid.space_weights[..., None] * grid.time_weights
    lhs_raw = float(np.sum(env * (tau**3 * lam**4 * phi**3 * u**2 + tau * lam * phi * energy) * w))
    lu = apply_operator("wave", field, None, u, grid)
    rhs_raw = float(np.sum(env * lu**2 * w)) + integrate_dmu(
        env * (tau**3 * lam**3 * phi**3 * u**2 + tau * lam * phi * energy), grid
    )
    assert rhs_raw / lhs_raw == pytest.approx(side.ratio, rel=1e-12)


def test_positivity_for_nonzero_members(canonical):
    grid, field, spec = canonical
    for u in default_ensemble(grid, 3, count=6):
        side = evaluate_sides(u, spec, field, None, "wave_full", 2.0, grid)
        assert side.lhs_interior > 0.0


def test_vacuous_ensemble_reported(canonical):
    grid, field, spec = canonical
    report = sweep_audit(
        [np.zeros(grid.shape)], spec, field, None, "wave_full", [2.0], [1.0], grid
    )
    assert report.vacuous


def test_ensemble_members_vanish_on_boundary(canonical):
    grid, _, _ = canonical
    for u in default_ensemble(grid, 11, count=20):
        assert np.max(np.abs(u[grid.boundary_mask, :])) == 0.0
        assert np.max(np.abs(u[..., 0])) == 0.0
        assert np.max(np.abs(u[..., -1])) == 0.0
        assert np.max(np.abs(u)) == pytest.approx(1.0)


def test_sweep_reports_thresholds(canonical):
    grid, field, spec = canonical
    ens = default_ensemble(grid, 5, count=6)
    report = sweep_audit(
        ens, spec, field, None, "wave_full", [2.0, 4.0], [1.0, 2.0], grid
    )
    assert report.tau_star == 2.0
    assert report.lam_star == 1.0
    assert np.all(report.aleph_emp > 0.0)
    assert report.aleph_overall is not None


def _variable_field(grid):
    """Non-diagonal polynomial A(x), uniformly elliptic on the unit square."""
    entries = {
        (0, 0): [((0, 0), 1.0), ((1, 0), 0.5)],
        (1, 1): [((0, 0), 1.2), ((0, 1), 0.3)],
        (0, 1): [((1, 1), 0.1)],
        (1, 0): [((1, 1), 0.1)],
    }
    return MatrixField.from_tables(2, entries, domain=grid.domain)


@pytest.mark.parametrize("variable", [False, True], ids=["identity", "variable-A"])
@pytest.mark.parametrize("kind", INEQUALITY_KINDS)
def test_sweep_matches_per_cell_reference(canonical, kind, variable):
    grid, field, spec = canonical
    if variable:
        field = _variable_field(grid)
    eq_kind = kind.split("_")[0]
    lower = None
    if kind == "wave_lower_order":
        lower = LowerOrderCoeffs(kind="wave", space=(1.0, 0.5), time=1.0, zero=1.0)
    ens = default_ensemble(
        grid, 3, count=4, complex_fields=eq_kind == "schrodinger", spatial=eq_kind == "elliptic"
    )
    taus, lams = [2.0, 16.0, 64.0], [1.0, 4.0]
    report = sweep_audit(ens, spec, field, lower, kind, taus, lams, grid)
    mask = gamma_plus(field, spec.psi0, grid)
    ref = np.empty_like(report.ratios)
    for i, tau in enumerate(taus):
        for j, lam in enumerate(lams):
            for m, u in enumerate(ens):
                wspec = spec.with_lambda(lam)
                ref[i, j, m] = reference_sides(u, wspec, field, lower, kind, tau, grid, mask).ratio
    assert np.array_equal(np.isinf(report.ratios), np.isinf(ref))
    assert np.isinf(ref).any() and np.isfinite(ref).any()
    finite = np.isfinite(ref)
    assert np.allclose(report.ratios[finite], ref[finite], rtol=1e-12, atol=0.0)
    # the one-cell entry point agrees side by side, not only in the ratio
    one = evaluate_sides(ens[1], spec.with_lambda(4.0), field, lower, kind, 16.0, grid, mask)
    old = reference_sides(ens[1], spec.with_lambda(4.0), field, lower, kind, 16.0, grid, mask)
    for part in ("lhs_interior", "rhs_source", "rhs_boundary_dmu", "rhs_boundary_sigma_plus"):
        assert getattr(one, part) == pytest.approx(getattr(old, part), rel=1e-12, abs=0.0)


def test_sweep_peak_memory_within_one_side_evaluation():
    # the sweep keeps one member's densities at a time: over 6 members and 9
    # cells its peak is that of a single evaluate_sides call, up to a few kB
    # of Python and numpy bookkeeping (the ratio table, numpy's small-block
    # cache), far below one more grid-sized array
    grid = build_grid([0, 0], [1, 1], [33, 33], -1.0, 1.0, 33)
    field = MatrixField.identity(2, domain=grid.domain)
    spec = make_example_weight([-0.5, 0.5], 0.0, 0.25, 0.0, grid, lam=2.0)
    ens = default_ensemble(grid, 5, count=6)
    args = (spec, field, None, "wave_full")
    evaluate_sides(ens[0], *args, 2.0, grid)  # fill the grid's cached geometry

    def peak(call) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    one = peak(lambda: evaluate_sides(ens[0], *args, 2.0, grid))
    sweep = peak(lambda: sweep_audit(ens, *args, [2.0, 4.0, 8.0], [1.0, 2.0, 4.0], grid))
    assert sweep <= one + ens[0].nbytes / 16


def test_refinement_drift_headline_stable(canonical):
    grid, field, spec = canonical
    taus, lams = [2.0, 4.0], [1.0]
    ens = default_ensemble(grid, 5, count=8)
    coarse = sweep_audit(ens, spec, field, None, "wave_full", taus, lams, grid)
    fine_grid = build_grid([0, 0], [1, 1], [33, 33], -1.0, 1.0, 33)
    fine_field = MatrixField.identity(2, domain=fine_grid.domain)
    fine_spec = make_example_weight([-0.5, 0.5], 0.0, 0.25, 0.0, fine_grid, lam=2.0)
    fine = sweep_audit(
        default_ensemble(fine_grid, 5, count=8), fine_spec, fine_field, None,
        "wave_full", taus, lams, fine_grid,
    )
    drift, stable = compare_refinement(coarse, fine)
    assert stable
    assert drift.shape == (2, 1)


# -- boundary kinds ---------------------------------------------------------------


def test_wave_boundary_kind_accepts_windowed_fields(canonical):
    grid, field, spec = canonical
    u = interior_bump_spacetime(grid)
    mask = gamma_plus(field, spec.psi0, grid)
    side = evaluate_sides(u, spec, field, None, "wave_boundary", 4.0, grid, mask)
    assert side.rhs_boundary_dmu == 0.0
    # compact support: the discrete trace only sees the sub-1e-17 bump tail
    assert side.rhs_boundary_sigma_plus <= 1e-15 * side.lhs_interior
    assert side.lhs_interior > 0.0


def test_wave_boundary_kind_rejects_nonvanishing(canonical):
    grid, field, spec = canonical
    mask = gamma_plus(field, spec.psi0, grid)
    u = np.ones(grid.shape)
    with pytest.raises(ValueError, match="lateral"):
        evaluate_sides(u, spec, field, None, "wave_boundary", 4.0, grid, mask)
    # vanishing laterally but not at the caps
    v = np.zeros(grid.shape)
    v[5:-5, 5:-5, :] = 1.0
    with pytest.raises(ValueError, match="cap"):
        evaluate_sides(v, spec, field, None, "wave_boundary", 4.0, grid, mask)


def test_wave_boundary_kind_rejects_cap_velocity(canonical):
    grid, field, spec = canonical
    mask = gamma_plus(field, spec.psi0, grid)
    u = np.zeros(grid.shape)
    t = (grid.times - grid.t1) / (grid.t2 - grid.t1)
    space = interior_bump_space(grid)
    u = space[..., None] * np.sin(np.pi * t)  # first-order vanishing at caps
    with pytest.raises(ValueError, match="time derivative"):
        evaluate_sides(u, spec, field, None, "wave_boundary", 4.0, grid, mask)


def test_parabolic_and_schrodinger_kinds_run(canonical):
    grid, field, _ = canonical
    spec = make_example_weight([-0.5, 0.5], 0.0, 0.0, 0.0, grid, lam=1.0)
    u = interior_bump_spacetime(grid)
    mask = gamma_plus(field, spec.psi0, grid)
    for kind in ("parabolic_full", "schrodinger_full"):
        side = evaluate_sides(u.astype(complex), spec, field, None, kind, 2.0, grid)
        assert side.lhs_interior > 0.0 and np.isfinite(side.rhs_total)
    for kind in ("parabolic_boundary", "schrodinger_boundary"):
        side = evaluate_sides(u.astype(complex), spec, field, None, kind, 2.0, grid, mask)
        assert side.lhs_interior > 0.0


def test_single_param_kind_weights_by_tau(canonical):
    grid, field, spec = canonical
    u = interior_bump_spacetime(grid)
    tau = 4.0
    side = evaluate_sides(u, spec, field, None, "wave_single_param", tau, grid)
    assert side.lhs_interior > 0.0
    # the source side carries the extra tau factor of the one-parameter bound
    other = evaluate_sides(u, spec, field, None, "wave_full", tau, grid)
    assert side.rhs_source == pytest.approx(tau * other.rhs_source, rel=1e-12)


def test_elliptic_kind_spatial_fields(canonical):
    grid, field, _ = canonical
    spec = make_example_weight([-1.0, 0.5], 0.0, 0.0, 0.0, grid, lam=1.0)
    u = interior_bump_space(grid)
    side = evaluate_sides(u, spec, field, None, "elliptic", 2.0, grid)
    assert side.lhs_interior > 0.0
    assert side.rhs_boundary_dmu <= 1e-15 * side.lhs_interior  # compact support


def test_lower_order_terms_reduce_ratio(canonical):
    grid, field, spec = canonical
    from carleman.operators import LowerOrderCoeffs

    ens = default_ensemble(grid, 5, count=6)
    plain = sweep_audit(ens, spec, field, None, "wave_full", [8.0], [2.0], grid)
    lower = LowerOrderCoeffs(kind="wave", space=(1.0, 1.0), time=1.0, zero=1.0)
    with_lower = sweep_audit(
        ens, spec, field, lower, "wave_lower_order", [8.0], [2.0], grid
    )
    assert with_lower.aleph_emp[0, 0] > 0.0
    # lower-order terms enlarge the source, shifting the per-member ratios;
    # the audit still certifies a positive constant
    assert np.isfinite(with_lower.aleph_emp[0, 0])


# -- negative controls ----------------------------------------------------------------


def test_negative_control_stamps_report(canonical):
    grid, field, _ = canonical
    ell = certify_ellipticity(field, grid)
    bad = make_example_weight([-0.5, 0.5], 0.0, 10.0 * 0.5, 0.0, grid, lam=2.0)
    adm = check_admissibility(bad, field, grid, "wave", ellipticity=ell)
    assert not adm.passed
    ens = default_ensemble(grid, 5, count=4)
    report = negative_control(
        ens, bad, field, None, "wave_full", [2.0], [1.0], grid, adm
    )
    assert report.stamp == "INADMISSIBLE WEIGHT: exploratory"
    assert "(2.2)" in report.admissibility_codes
    assert "(2.1)" in report.admissibility_codes


def test_negative_control_rejects_admissible(canonical):
    grid, field, spec = canonical
    ell = certify_ellipticity(field, grid)
    adm = check_admissibility(spec, field, grid, "wave", ellipticity=ell)
    assert adm.passed
    with pytest.raises(ValueError, match="sweep_audit"):
        negative_control([np.zeros(grid.shape)], spec, field, None, "wave_full",
                         [2.0], [1.0], grid, adm)


def test_overflow_is_reported_with_cell():
    grid = build_grid([0, 0], [1, 1], [9, 9], -1.0, 1.0, 9)
    field = MatrixField.identity(2, domain=grid.domain)
    spec = make_example_weight([-0.5, 0.5], 0.0, 0.25, 0.0, grid, lam=200.0)
    u = interior_bump_spacetime(grid)
    with pytest.raises(OverflowError, match="tau"):
        evaluate_sides(u, spec, field, None, "wave_full", 4.0, grid)


def test_sweep_rejects_empty_ensemble(canonical):
    grid, field, spec = canonical
    with pytest.raises(ValueError, match="nonempty"):
        sweep_audit([], spec, field, None, "wave_full", [2.0], [1.0], grid)


def test_unknown_inequality_kind_rejected(canonical):
    grid, field, spec = canonical
    with pytest.raises(ValueError, match="kind"):
        evaluate_sides(np.zeros(grid.shape), spec, field, None, "wave_weird", 2.0, grid)


def test_sweep_overflow_names_the_cell():
    grid = build_grid([0, 0], [1, 1], [9, 9], -1.0, 1.0, 9)
    field = MatrixField.identity(2, domain=grid.domain)
    spec = make_example_weight([-0.5, 0.5], 0.0, 0.25, 0.0, grid, lam=2.0)
    ens = [interior_bump_spacetime(grid)]
    with pytest.raises(OverflowError, match=r"tau=4\.0, lambda=200\.0"):
        sweep_audit(ens, spec, field, None, "wave_full", [4.0], [1.0, 200.0], grid)


@pytest.mark.parametrize("kind", ["wave_boundary", "parabolic_boundary", "schrodinger_boundary"])
def test_sweep_boundary_kinds_reject_nonvanishing(canonical, kind):
    grid, field, spec = canonical
    good = interior_bump_spacetime(grid)
    with pytest.raises(ValueError, match=r"lateral boundary \(\d+ nodes\)"):
        sweep_audit([good, np.ones(grid.shape)], spec, field, None, kind, [2.0], [1.0], grid)
    capped = np.zeros(grid.shape)
    capped[5:-5, 5:-5, :] = 1.0
    with pytest.raises(ValueError, match=r"time cap \(level 0\)"):
        sweep_audit([capped], spec, field, None, kind, [2.0], [1.0], grid)


def test_sweep_rejects_empty_or_nonpositive_parameters(canonical):
    grid, field, spec = canonical
    ens = [interior_bump_spacetime(grid)]
    with pytest.raises(ValueError, match="at least one"):
        sweep_audit(ens, spec, field, None, "wave_full", [], [1.0], grid)
    with pytest.raises(ValueError, match="positive"):
        sweep_audit(ens, spec, field, None, "wave_full", [2.0], [0.0], grid)

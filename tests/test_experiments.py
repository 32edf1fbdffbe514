import numpy as np
import pytest

from carleman import (
    MatrixField,
    SchrodingerData,
    WaveData,
    build_grid,
    observability_experiment,
    solve_evolution,
    worst_case_ratio,
)
from carleman.experiments import CheckFailedError, trace_norm_sigma_plus
from carleman.polynomials import Polynomial, poly_from_table
from carleman.solvers import HeatData, dirichlet_seminorm_sq, gamma_plus
from carleman.weights import make_observability_weight
from conftest import sine_mode


def wave_grid_1d(nodes, t_final=2.0, cfl_frac=0.5):
    h = 1.0 / (nodes - 1)
    nt = int(np.ceil(t_final / (cfl_frac * 0.9 * h))) + 1
    return build_grid([0.0], [1.0], [nodes], 0.0, t_final, nt)


PSI0_1D = Polynomial.squared_distance([-0.5], scale=0.5)


@pytest.fixture
def validation_1d():
    g = wave_grid_1d(128)
    field = MatrixField.identity(1, domain=g.domain)
    x = g.space_points[..., 0]
    datum = WaveData(u0=np.sin(np.pi * x), u1=np.zeros_like(x))
    return g, field, datum


def test_wave_validation_ratio(validation_1d):
    g, field, datum = validation_1d
    report = observability_experiment(
        "wave", field, PSI0_1D, 0.5, 2.0, [datum], g
    )
    sample = report.samples[0]
    assert sample.ratio == pytest.approx(2.0**-0.5, rel=0.02)
    assert report.gamma_plus_description.startswith("face 1")
    assert report.aleph_emp == sample.ratio


def test_zero_data_flagged_not_dropped(validation_1d):
    g, field, datum = validation_1d
    zero = WaveData(u0=np.zeros(g.space_shape), u1=np.zeros(g.space_shape))
    report = observability_experiment(
        "wave", field, PSI0_1D, 0.5, 2.0, [datum, zero], g
    )
    flags = [s.flag for s in report.samples]
    assert "zero observation" in flags
    assert len(report.samples) == 2
    assert report.aleph_emp is not None


def test_threshold_bookkeeping_matches_weights_module(validation_1d):
    g, field, datum = validation_1d
    report = observability_experiment("wave", field, PSI0_1D, 0.5, 2.0, [datum], g)
    _, thr = make_observability_weight(PSI0_1D, 0.5, 2.0, 1.0, field, g)
    assert report.t_alpha == thr.t_alpha
    from carleman import certify_ellipticity, certify_pseudoconvex

    ell = certify_ellipticity(field, g)
    cert = certify_pseudoconvex(field, PSI0_1D, g)
    expected_secondary = (8.0 * ell.kappa_estimate / cert.kappa) ** (1.0 / 1.5)
    assert report.t_secondary == pytest.approx(expected_secondary, rel=1e-12)
    assert report.t_required == max(report.t_alpha, report.t_secondary)
    assert report.t_required_min_variant == min(report.t_alpha, report.t_secondary)
    assert report.flags  # combination discrepancy is flagged
    assert not report.threshold_ok
    assert "t_alpha" in report.threshold_explanation  # names the failing bound


def test_scale_invariance_of_ratios(validation_1d):
    g, field, datum = validation_1d
    scaled = WaveData(u0=3.0 * datum.u0, u1=3.0 * datum.u1)
    r1 = observability_experiment("wave", field, PSI0_1D, 0.5, 2.0, [datum], g)
    r2 = observability_experiment("wave", field, PSI0_1D, 0.5, 2.0, [scaled], g)
    assert r2.samples[0].ratio == pytest.approx(r1.samples[0].ratio, rel=1e-12)


def test_trace_norm_monotone_in_observation_time(validation_1d):
    _, field, _ = validation_1d
    norms = []
    for t_final in (1.0, 2.0, 3.0):
        g = wave_grid_1d(96, t_final=t_final)
        f = MatrixField.identity(1, domain=g.domain)
        x = g.space_points[..., 0]
        state = solve_evolution(
            "wave", f, None, WaveData(np.sin(np.pi * x), np.zeros_like(x)), t_final, g
        )
        mask = gamma_plus(f, PSI0_1D, g)
        norms.append(trace_norm_sigma_plus(state, mask))
    assert norms[0] <= norms[1] + 1e-12
    assert norms[1] <= norms[2] + 1e-12


def test_2d_ensemble_ratios_finite_and_stable():
    def run(nodes):
        h = 1.0 / (nodes - 1)
        nt = int(np.ceil(2.3 / (0.45 * h / np.sqrt(2.0)))) + 1
        g = build_grid([0, 0], [1, 1], [nodes, nodes], 0.0, 2.3, nt)
        field = MatrixField.identity(2, domain=g.domain)
        psi0 = Polynomial.squared_distance([-0.5, 0.5], scale=0.5)
        ensemble = [
            WaveData(u0=sine_mode(g, (1 + m % 2, 1 + (m + 1) % 2)),
                     u1=np.zeros(g.space_shape))
            for m in range(3)
        ]
        rep = observability_experiment("wave", field, psi0, 0.5, 2.3, ensemble, g)
        assert all(s.ratio is not None and np.isfinite(s.ratio) for s in rep.samples)
        return rep.aleph_emp

    coarse, fine = run(17), run(33)
    assert abs(fine - coarse) / coarse < 0.5


def test_heat_final_and_schrodinger_kinds_run():
    g = build_grid([0, 0], [1, 1], [17, 17], 0.0, 0.4, 81)
    field = MatrixField.identity(2, domain=g.domain)
    psi0 = Polynomial.squared_distance([-0.5, 0.5], scale=0.5)
    heat_rep = observability_experiment(
        "heat_final", field, psi0, 0.5, 0.4,
        [HeatData(u0=sine_mode(g, (1, 1)))], g,
    )
    assert heat_rep.samples[0].ratio is not None
    schro_rep = observability_experiment(
        "schrodinger", field, psi0, 0.5, 0.4,
        [SchrodingerData(u0=sine_mode(g, (1, 2)).astype(complex))], g,
    )
    assert schro_rep.samples[0].ratio is not None
    assert not heat_rep.threshold_ok  # far below the alpha threshold


# -- worst case -------------------------------------------------------------------


def test_worst_case_single_iteration_is_definitional(validation_1d):
    g, field, datum = validation_1d
    report = observability_experiment("wave", field, PSI0_1D, 0.5, 2.0, [datum], g)
    wc = worst_case_ratio("wave", field, PSI0_1D, 2.0, g, 1, seed_data=datum)
    assert wc.ratio == pytest.approx(report.samples[0].ratio, abs=1e-12)


def test_worst_case_dominates_single_mode(validation_1d):
    g, field, datum = validation_1d
    wc = worst_case_ratio("wave", field, PSI0_1D, 2.0, g, 6, seed_data=datum)
    assert wc.ratio >= 2.0**-0.5 * (1.0 - 0.02)


def test_worst_case_iterates_nondecreasing():
    g = build_grid([0, 0], [1, 1], [13, 13], 0.0, 2.2,
                   int(np.ceil(2.2 / (0.45 / 12 / np.sqrt(2)))) + 1)
    field = MatrixField.identity(2, domain=g.domain)
    psi0 = Polynomial.squared_distance([-0.5, 0.5], scale=0.5)
    wc = worst_case_ratio("wave", field, psi0, 2.2, g, 10)
    diffs = np.diff(wc.ratios)
    assert np.all(diffs >= -1e-9 * np.asarray(wc.ratios[:-1]))


def test_worst_case_unobservable_flag():
    g = wave_grid_1d(64, t_final=1.0)
    field = MatrixField.identity(1, domain=g.domain)
    const = Polynomial.constant(1, 1.0)
    x = g.space_points[..., 0]
    wc = worst_case_ratio(
        "wave", field, const, 1.0, g, 3,
        seed_data=WaveData(np.sin(np.pi * x), np.zeros_like(x)), validate=False,
    )
    assert wc.flag == "unobservable"
    assert wc.ratio == float("inf")


def test_worst_case_requires_pseudoconvex_weight(validation_1d):
    g, field, datum = validation_1d
    with pytest.raises(ValueError, match="pseudo-convex"):
        worst_case_ratio("wave", field, Polynomial.constant(1, 1.0), 2.0, g, 2,
                         seed_data=datum)


def test_non_pseudoconvex_weight_is_a_failed_check(validation_1d):
    g, field, datum = validation_1d
    concave = poly_from_table(1, [((0,), 2.75), ((1,), -1.0), ((2,), -1.0)])
    with pytest.raises(CheckFailedError, match=r"not pseudo-convex .*kappa="):
        worst_case_ratio("wave", field, concave, 2.0, g, 2, seed_data=datum)
    with pytest.raises(CheckFailedError, match=r"not pseudo-convex .*kappa="):
        observability_experiment("wave", field, concave, 0.5, 2.0, [datum], g)


def test_experiment_requires_nonempty_ensemble(validation_1d):
    g, field, _ = validation_1d
    with pytest.raises(ValueError, match="nonempty"):
        observability_experiment("wave", field, PSI0_1D, 0.5, 2.0, [], g)


# -- block solves against the sequential path -----------------------------------


def _shipped_1d():
    g = build_grid([0.0], [1.0], [129], 0.0, 2.0, 1025)
    return g, Polynomial.squared_distance([-0.5], scale=0.5), 6, None


def _wave_41():
    g = build_grid([0, 0], [1, 1], [41, 41], 0.0, 2.0, 129)
    return g, Polynomial.squared_distance([-0.5, 0.5], scale=0.5), 6, None


def _climbing_13():
    # from this random seed the first iteration accepts its second trial
    # (shift 4 lam), though the third has the larger quotient; the second
    # iteration accepts none
    g = build_grid([0, 0], [1, 1], [13, 13], 0.0, 2.2,
                   int(np.ceil(2.2 / (0.45 / 12 / np.sqrt(2)))) + 1)
    rng = np.random.default_rng(1)
    seed = WaveData(rng.normal(size=g.space_shape), rng.normal(size=g.space_shape))
    return g, Polynomial.squared_distance([-0.5, 0.5], scale=0.5), 8, seed


@pytest.mark.parametrize("case", [_shipped_1d, _wave_41, _climbing_13],
                         ids=["shipped-1d", "wave-41", "climbing-13"])
def test_worst_case_block_climb_matches_sequential(case):
    """The block climb makes the sequential climb's choices: same ratios,
    flag, convergence and iteration count, and the same best datum."""
    from reference_worst_case import reference_worst_case

    g, psi0, iterations, seed = case()
    field = MatrixField.identity(g.n, domain=g.domain)
    got = worst_case_ratio("wave", field, psi0, g.t2, g, iterations, seed_data=seed)
    ref = reference_worst_case(field, psi0, g.t2, g, iterations, seed_data=seed)
    assert (got.ratios, got.flag, got.converged, got.iterations_run) == (
        ref.ratios, ref.flag, ref.converged, ref.iterations_run)
    assert got.ratio == ref.ratio
    assert len(got.ratios) == (2 if seed is not None else 1)
    assert got.data.u0.tobytes() == ref.data.u0.tobytes()
    assert got.data.u1.tobytes() == ref.data.u1.tobytes()


@pytest.mark.parametrize("kind", ["wave", "schrodinger", "heat_final"])
def test_ensemble_block_matches_member_solves(kind):
    """One block solve of the ensemble gives each member's quotient as its own
    ``solve_evolution`` does: bit for bit for wave and Schrodinger, to 1e-12
    relative for the heat final state."""
    g = build_grid([0, 0], [1, 1], [17, 17], 0.0, 0.5, 41)
    field = MatrixField.identity(2, domain=g.domain)
    psi0 = Polynomial.squared_distance([-0.5, 0.5], scale=0.5)
    modes = [(1, 1), (2, 1), (1, 3), (3, 2)]
    if kind == "wave":
        ensemble = [WaveData(sine_mode(g, m), sine_mode(g, m[::-1])) for m in modes]
    elif kind == "schrodinger":
        ensemble = [SchrodingerData(sine_mode(g, m).astype(complex)) for m in modes]
    else:
        ensemble = [HeatData(sine_mode(g, m)) for m in modes]
    report = observability_experiment(kind, field, psi0, 0.5, g.t2, ensemble, g,
                                      validate=False)
    mask = gamma_plus(field, psi0, g)
    solve_kind = {"heat_final": "heat"}.get(kind, kind)
    for sample, datum in zip(report.samples, ensemble, strict=True):
        state = solve_evolution(solve_kind, field, None, datum, g.t2, g)
        level = state.u[..., -1] if kind == "heat_final" else datum.u0
        dn = float(np.sqrt(dirichlet_seminorm_sq(level, field, g)))
        if kind == "wave":
            dn = float(np.sqrt(dn**2 + np.sum(np.abs(datum.u1) ** 2 * g.space_weights)))
        tr = trace_norm_sigma_plus(state, mask)
        if kind == "heat_final":
            assert sample.data_norm == pytest.approx(dn, rel=1e-12, abs=0.0)
            assert sample.trace_norm == pytest.approx(tr, rel=1e-12, abs=0.0)
        else:
            assert (sample.data_norm, sample.trace_norm) == (dn, tr)

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carleman import (
    HeatData,
    MatrixField,
    SchrodingerData,
    WaveData,
    build_grid,
    energy_equivalence_check,
    gamma_plus,
    smoothing_bound_check,
    solve_block,
    solve_evolution,
)
from carleman.operators import (
    LowerOrderCoeffs,
    apply_operator,
    assemble_operator,
    gradient_time,
    laplacian_flux,
)
from carleman.polynomials import Polynomial, poly_from_table
from carleman.solvers import _check_dirichlet, _upper_band, cfl_limit, dirichlet_seminorm_sq
from conftest import interior_bump_space, sine_mode
from reference_leapfrog import reference_wave
from reference_march import reference_evolution
from reference_trapezoid import reference_heat, reference_schrodinger
from reference_stencil import spatial_operator


def wave_grid_1d(nodes, t_final=2.0, cfl_frac=0.5):
    h = 1.0 / (nodes - 1)
    dt = cfl_frac * 0.9 * h
    nt = int(np.ceil(t_final / dt)) + 1
    return build_grid([0.0], [1.0], [nodes], 0.0, t_final, nt)


def test_wave_standing_mode_oracle():
    g = wave_grid_1d(128)
    field = MatrixField.identity(1, domain=g.domain)
    x = g.space_points[..., 0]
    state = solve_evolution(
        "wave", field, None, WaveData(np.sin(np.pi * x), np.zeros_like(x)), 2.0, g
    )
    exact = np.sin(np.pi * x)[:, None] * np.cos(np.pi * g.times)
    assert np.max(np.abs(state.u - exact)) < 1e-3


def test_wave_trace_matches_separated_solution():
    g = wave_grid_1d(256)
    field = MatrixField.identity(1, domain=g.domain)
    x = g.space_points[..., 0]
    state = solve_evolution(
        "wave", field, None, WaveData(np.sin(np.pi * x), np.zeros_like(x)), 2.0, g
    )
    expected = -np.pi * np.cos(np.pi * g.times)
    got = state.traces[1][0]
    assert np.max(np.abs(got - expected)) < 2e-2


def test_wave_cfl_violation_reports_admissible_step():
    g = build_grid([0.0], [1.0], [64], 0.0, 1.0, 5)
    field = MatrixField.identity(1, domain=g.domain)
    with pytest.raises(ValueError, match="CFL") as err:
        solve_evolution("wave", field, None,
                        WaveData(np.zeros(64), np.zeros(64)), 1.0, g)
    assert "nt" in str(err.value)


def test_wave_energy_drift_second_order_in_dt():
    field = MatrixField.identity(1)

    def drift(cfl_frac):
        g = wave_grid_1d(128, t_final=2.0, cfl_frac=cfl_frac)
        f = MatrixField.identity(1, domain=g.domain)
        x = g.space_points[..., 0]
        state = solve_evolution(
            "wave", f, None, WaveData(np.sin(np.pi * x), np.zeros_like(x)), 2.0, g
        )
        e2 = state.energy.values**2
        return np.max(np.abs(e2 - e2[0])) / e2[0]

    d1, d2 = drift(0.5), drift(0.25)
    assert 3.0 <= d1 / d2 <= 5.0


def test_wave_with_zero_order_term_stays_bounded():
    g = wave_grid_1d(64, t_final=1.0)
    field = MatrixField.identity(1, domain=g.domain)
    x = g.space_points[..., 0]
    lower = LowerOrderCoeffs(kind="wave", zero=1.0)
    state = solve_evolution(
        "wave", field, lower, WaveData(np.sin(np.pi * x), np.zeros_like(x)), 1.0, g
    )
    rep = energy_equivalence_check(state)
    assert np.isfinite(rep.ratio_max) and rep.ratio_max < 10.0


def test_energy_equivalence_standing_mode():
    g = wave_grid_1d(256)
    field = MatrixField.identity(1, domain=g.domain)
    x = g.space_points[..., 0]
    state = solve_evolution(
        "wave", field, None, WaveData(np.sin(np.pi * x), np.zeros_like(x)), 2.0, g
    )
    rep = energy_equivalence_check(state)
    assert 1.0 - 1e-3 <= rep.ratio_min <= rep.ratio_max <= 1.0 + 1e-3


def test_energy_equivalence_zero_data_rejected():
    g = wave_grid_1d(32, t_final=0.5)
    field = MatrixField.identity(1, domain=g.domain)
    state = solve_evolution(
        "wave", field, None, WaveData(np.zeros(32), np.zeros(32)), 0.5, g
    )
    with pytest.raises(ValueError, match="zero initial energy"):
        energy_equivalence_check(state)


def test_dirichlet_values_exactly_zero():
    g = build_grid([0, 0], [1, 1], [17, 17], 0.0, 0.5, 65)
    field = MatrixField.identity(2, domain=g.domain)
    state = solve_evolution(
        "wave", field, None, WaveData(sine_mode(g, (1, 2)), np.zeros(g.space_shape)),
        0.5, g,
    )
    assert np.max(np.abs(state.u[g.boundary_mask, :])) == 0.0


def test_heat_zero_data_zero_solution():
    g = build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 9)
    field = MatrixField.identity(2, domain=g.domain)
    state = solve_evolution("heat", field, None, HeatData(np.zeros(g.space_shape)), 1.0, g)
    assert np.max(np.abs(state.u)) == 0.0


def test_heat_decays_like_first_eigenvalue():
    g = build_grid([0.0], [1.0], [65], 0.0, 0.1, 101)
    field = MatrixField.identity(1, domain=g.domain)
    x = g.space_points[..., 0]
    state = solve_evolution("heat", field, None, HeatData(np.sin(np.pi * x)), 0.1, g)
    expected = np.exp(-np.pi**2 * 0.1) * np.sin(np.pi * x)
    assert np.max(np.abs(state.u[..., -1] - expected)) < 2e-3


def test_heat_mild_solution_bound():
    g = build_grid([0, 0], [1, 1], [17, 17], 0.0, 0.5, 33)
    field = MatrixField.identity(2, domain=g.domain)
    rng = np.random.default_rng(12)
    u0 = sine_mode(g, (1, 1))
    f = 0.5 * np.sin(3.0 * g.times) * sine_mode(g, (2, 1))[..., None]
    state = solve_evolution("heat", field, None, HeatData(u0, source=f), 0.5, g)
    w = g.space_weights
    norm_f = np.sqrt(np.sum(np.abs(f) ** 2 * w[..., None], axis=(0, 1)))
    l1_norm = float(np.sum(norm_f * g.time_weights))
    bound = (state.energy.values[0] + l1_norm) * 1.01
    assert np.max(state.energy.values) <= bound


def test_schrodinger_norm_conserved():
    g = build_grid([0, 0], [1, 1], [17, 17], 0.0, 0.3, 301)
    field = MatrixField.identity(2, domain=g.domain)
    u0 = sine_mode(g, (1, 2)) * np.exp(1j * 2.0 * g.space_points[..., 0])
    state = solve_evolution("schrodinger", field, None, SchrodingerData(u0), 0.3, g)
    drift = np.max(np.abs(state.energy.values - state.energy.values[0]))
    assert drift / state.energy.values[0] <= 1e-10


def test_solver_grid_time_interval_validated():
    g = build_grid([0.0], [1.0], [17], 0.5, 1.0, 17)
    field = MatrixField.identity(1, domain=g.domain)
    with pytest.raises(ValueError, match="time interval"):
        solve_evolution("heat", field, None, HeatData(np.zeros(17)), 0.5, g)


def test_assembled_operator_matches_apply():
    g = build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 3)
    field = MatrixField.from_tables(
        2,
        {
            (0, 0): [((0, 0), 1.5), ((1, 0), 0.2)],
            (0, 1): [((0, 1), 0.1)],
            (1, 1): [((0, 0), 1.0)],
        },
        domain=g.domain,
    )
    lower = LowerOrderCoeffs(kind="elliptic", space=(0.3, -0.1), zero=2.0)
    mat = assemble_operator(field, lower, g)
    u = np.random.default_rng(3).normal(size=g.space_shape)  # non-zero on the boundary
    expected = spatial_operator(field, lower, u, g)
    assert np.max(np.abs(mat @ u.reshape(-1) - expected.reshape(-1))) < 1e-11
    assert np.max(np.abs(apply_operator("elliptic", field, lower, u, g) - expected)) < 1e-11
    assert mat.shape == (81, 81) and mat.dtype == np.float64
    assert not np.any(np.diff(mat.indptr)[g.boundary_mask.reshape(-1)])
    complex_zero = LowerOrderCoeffs(kind="elliptic", zero=2.0j)
    assert assemble_operator(field, complex_zero, g).dtype == np.complex128


# -- leapfrog on the assembled operator vs the frozen stencil leapfrog -------------


_VARIABLE_2D = {
    (0, 0): [((0, 0), 1.0), ((1, 0), 0.5)],
    (1, 1): [((0, 0), 1.2), ((0, 1), 0.3)],
    (0, 1): [((1, 1), 0.1)],
}


def _wave_case(case):
    n, nodes, tables, lower = 2, [13, 11], None, None
    if case == "1d":
        n, nodes = 1, [33]
    elif case == "3d":
        n, nodes = 3, [7, 6, 7]
    elif case == "variable-A":
        tables = _VARIABLE_2D
    elif case == "lower-order":
        tables = _VARIABLE_2D
        lower = LowerOrderCoeffs(
            kind="wave",
            space=(0.3, poly_from_table(2, [((0, 0), -0.2), ((1, 1), 0.4)])),
            time=poly_from_table(2, [((0, 0), 0.5), ((1, 0), -0.3)]),
            zero=-1.5,
        )
    probe = build_grid([0.0] * n, [1.0] * n, nodes, 0.0, 0.6, 3)
    field = (
        MatrixField.identity(n, domain=probe.domain)
        if tables is None
        else MatrixField.from_tables(n, tables, domain=probe.domain)
    )
    nt = int(np.ceil(0.6 / cfl_limit(field, probe))) + 2
    g = build_grid([0.0] * n, [1.0] * n, nodes, 0.0, 0.6, nt)
    u0 = sine_mode(g, [1 + ax for ax in range(n)])
    u1 = interior_bump_space(g)
    source = None
    if case == "source":
        rng = np.random.default_rng(5)
        source = rng.normal(size=g.shape)
    if case == "complex":
        u0 = u0 * (1.0 + 0.5j)
        u1 = 1j * u1
    return field, lower, WaveData(u0, u1, source=source), g


@pytest.mark.parametrize(
    "case", ["1d", "2d", "3d", "variable-A", "lower-order", "source", "complex"]
)
def test_wave_matches_stencil_leapfrog(case):
    field, lower, data, g = _wave_case(case)
    state = solve_evolution("wave", field, lower, data, 0.6, g)
    u, velocity, traces, energies = reference_wave(field, lower, data, g)
    assert state.u.dtype == u.dtype
    pairs = [(state.u, u), (state.velocity, velocity), (state.energy.values, energies)]
    pairs += list(zip(state.traces, traces))
    for got, ref in pairs:
        assert got.shape == ref.shape
        scale = np.max(np.abs(ref))
        assert scale > 0.0
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale
    assert np.max(np.abs(state.u[g.boundary_mask, :])) == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "lower",
    [
        LowerOrderCoeffs(kind="wave", zero=5j),
        LowerOrderCoeffs(kind="wave", time=0.5j),
        LowerOrderCoeffs(kind="wave", space=(0.5j, 0.0)),
        LowerOrderCoeffs(kind="wave", zero=2.0, time=0.3),
    ],
    ids=["complex-zero", "complex-time", "complex-space", "real"],
)
def test_wave_complex_lower_order_terms_keep_the_imaginary_part(lower):
    """Real data with complex lower-order coefficients evolve in complex
    arithmetic: the scheme satisfies its own equation on every interior level."""
    g = build_grid([0, 0], [1, 1], [17, 17], 0.0, 1.0, 65)
    field = MatrixField.identity(2, domain=g.domain)
    u0 = sine_mode(g, (1, 2))
    state = solve_evolution("wave", field, lower, WaveData(u0, np.zeros_like(u0)), 1.0, g)
    residual = apply_operator("wave", field, lower, state.u, g)[..., 1:-1]
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(state.u)) / g.dt**2


def test_wave_rejects_singular_time_coefficient():
    g = wave_grid_1d(17, t_final=0.5)
    field = MatrixField.identity(1, domain=g.domain)
    lower = LowerOrderCoeffs(kind="wave", time=2.0 / g.dt)
    x = g.space_points[..., 0]
    with pytest.raises(ValueError, match="singular"):
        solve_evolution("wave", field, lower, WaveData(np.sin(np.pi * x), 0 * x), 0.5, g)


@pytest.mark.parametrize("case", ["1d", "3d", "variable-A", "source", "complex", "time-only"])
def test_wave_energy_matches_the_dirichlet_seminorm(case):
    """Without first- and zero-order terms the wave energy takes its Dirichlet
    form from the stepping operator; it equals the one of
    ``dirichlet_seminorm_sq`` bit for bit."""
    field, lower, data, g = _wave_case("2d" if case == "time-only" else case)
    if case == "time-only":
        lower = LowerOrderCoeffs(kind="wave", time=0.4)
    state = solve_evolution("wave", field, lower, data, 0.6, g)
    kinetic = np.sum(np.abs(state.velocity) ** 2 * g.space_weights[..., None],
                     axis=tuple(range(g.n)))
    expected = np.sqrt(dirichlet_seminorm_sq(state.u, field, g) + kinetic)
    assert np.array_equal(state.energy.values, expected)


def test_wave_solve_assembles_the_operator_once(monkeypatch):
    from carleman import operators, solvers

    calls = []

    def counting(*args):
        calls.append(args)
        return assemble_operator(*args)

    monkeypatch.setattr(operators, "assemble_operator", counting)
    monkeypatch.setattr(solvers, "assemble_operator", counting)
    field, _, data, g = _wave_case("2d")
    solve_evolution("wave", field, None, data, 0.6, g)
    assert len(calls) == 1


def test_traces_and_norms_taken_at_once_match_per_level():
    from carleman.solvers import _face_trace

    g = build_grid([0, 0, 0], [1, 1, 1], [6, 5, 7], 0.0, 1.0, 4)
    u = np.random.default_rng(2).normal(size=g.shape)
    state = solve_evolution(
        "heat", MatrixField.identity(3, domain=g.domain), None, HeatData(u[..., 0]), 1.0, g
    )
    for f in range(g.num_faces):
        levels = [_face_trace(state.u[..., m], g, f).reshape(-1) for m in range(g.nt)]
        assert np.array_equal(state.traces[f], np.stack(levels, axis=-1))
    norms = [np.sqrt(np.sum(state.u[..., m] ** 2 * g.space_weights)) for m in range(g.nt)]
    assert np.allclose(state.energy.values, norms, rtol=1e-14, atol=0.0)


# -- trapezoid rule vs the frozen heat and Schrodinger steppers ----------------------


def _assert_matches_trapezoid_reference(kind, field, lower, data, g):
    """Bit-for-bit agreement of levels, traces and L2 norms with the frozen
    per-kind solver."""
    state = solve_evolution(kind, field, lower, data, g.t2, g)
    reference = reference_heat if kind == "heat" else reference_schrodinger
    u, traces, norms = reference(field, lower, data, g)
    assert state.velocity is None and state.energy.kind == "l2"
    pairs = [(state.u, u), (state.energy.values, norms)]
    pairs += list(zip(state.traces, traces, strict=True))
    for got, ref in pairs:
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("case", ["heat-source", "heat-complex", "schrodinger-zero"])
def test_trapezoid_matches_frozen_steppers(case):
    g = build_grid([0, 0], [1, 1], [13, 11], 0.0, 0.4, 17)
    field = MatrixField.from_tables(2, _VARIABLE_2D, domain=g.domain)
    rng = np.random.default_rng(8)
    u0 = sine_mode(g, (1, 2)) + 0.1 * rng.normal(size=g.space_shape)
    if case == "heat-source":
        data, kind, lower = HeatData(u0, source=rng.normal(size=g.shape)), "heat", None
    elif case == "heat-complex":
        data, kind = HeatData(u0 * (1.0 - 0.5j)), "heat"
        lower = LowerOrderCoeffs(kind="parabolic", space=(0.3, -0.2), zero=1.5)
    else:
        data, kind = SchrodingerData(u0), "schrodinger"
        lower = LowerOrderCoeffs(kind="schrodinger", zero=-3.0)
    _assert_matches_trapezoid_reference(kind, field, lower, data, g)


_small = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def _trapezoid_cases(draw):
    kind = draw(st.sampled_from(["heat", "schrodinger"]))
    n = draw(st.integers(1, 2))
    nodes = [draw(st.integers(4, 9)) for _ in range(n)]
    g = build_grid([0.0] * n, [1.0] * n, nodes, 0.0, draw(st.floats(0.05, 1.0)),
                   draw(st.integers(3, 7)))
    diag = [draw(st.floats(0.5, 2.0)) for _ in range(n)]
    field = MatrixField.constant(np.diag(diag), domain=g.domain)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    u0 = rng.normal(size=g.space_shape)
    if draw(st.booleans()):
        u0 = u0 + 1j * rng.normal(size=g.space_shape)
    lower = None
    if draw(st.booleans()):
        scalar = st.one_of(_small, st.builds(complex, _small, _small))
        lower = LowerOrderCoeffs(
            kind="parabolic" if kind == "heat" else "schrodinger",
            space=tuple(draw(scalar) for _ in range(n)) if draw(st.booleans()) else (),
            zero=draw(scalar),
        )
    if kind == "schrodinger":
        return kind, field, lower, SchrodingerData(u0), g
    source = rng.normal(size=g.shape) if draw(st.booleans()) else None
    return kind, field, lower, HeatData(u0, source=source), g


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_trapezoid_cases())
def test_trapezoid_matches_frozen_steppers_property(case):
    """Heat and Schrodinger share one trapezoid rule, c = 1 or i, and it
    reproduces the frozen per-kind solvers bit for bit on random 1D/2D grids,
    data, sources and lower-order terms."""
    _assert_matches_trapezoid_reference(*case)


# -- assembled operator: properties over random coefficients -------------------------


_coeff = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def _polynomials(draw, n: int):
    powers = [(0,) * n] + [tuple(int(i == ax) for i in range(n)) for ax in range(n)]
    powers.append(tuple([1] * n) if n > 1 else (2,))
    return poly_from_table(n, [(p, draw(_coeff)) for p in powers])


@st.composite
def _operator_cases(draw, lower_terms: bool = True):
    n = draw(st.integers(1, 3))
    nodes = [draw(st.integers(4, 7)) for _ in range(n)]
    g = build_grid([0.0] * n, [1.0] * n, nodes, 0.0, 1.0, draw(st.integers(3, 5)))
    entries = {(k, k): draw(_polynomials(n)) for k in range(n)}
    for k in range(n):
        for l in range(k + 1, n):
            if draw(st.booleans()):
                entries[(k, l)] = draw(_polynomials(n))
    field = MatrixField.from_entry_polys(n, entries, domain=g.domain)
    maybe_poly = st.one_of(_coeff, st.builds(complex, _coeff, _coeff), _polynomials(n))
    lower = None
    if lower_terms and draw(st.booleans()):
        lower = LowerOrderCoeffs(
            kind="parabolic",
            space=tuple(draw(maybe_poly) for _ in range(n)),
            zero=draw(maybe_poly),
        )
    space_time = lower_terms and draw(st.booleans())
    seed = draw(st.integers(0, 2**16))
    return g, field, lower, space_time, seed


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_operator_cases())
def test_assembled_operator_matches_apply_property(case):
    """The assembled operator, ``laplacian_flux`` and ``apply_operator`` agree
    with the frozen slicing stencil on fields that do not vanish on the
    boundary, spatial or space-time."""
    g, field, lower, space_time, seed = case
    u = np.random.default_rng(seed).normal(size=g.shape if space_time else g.space_shape)
    expected = spatial_operator(field, lower, u, g)
    tol = 1e-12 * max(1.0, np.max(np.abs(expected)))

    mat = assemble_operator(field, lower, g)
    via_matrix = (mat @ u.reshape(mat.shape[0], -1)).reshape(u.shape)
    assert np.max(np.abs(via_matrix - expected)) <= tol
    if lower is None:
        assert np.max(np.abs(laplacian_flux(field, u, g) - expected)) <= tol
    if space_time:
        applied = apply_operator("parabolic", field, lower, u, g) + gradient_time(u, g)
        inner = (slice(1, -1),) * g.n + (slice(1, -1),)
        assert np.max(np.abs(applied[inner] - expected[inner])) <= tol
    else:
        elliptic = None if lower is None else dataclasses.replace(lower, kind="elliptic")
        assert np.max(np.abs(apply_operator("elliptic", field, elliptic, u, g) - expected)) <= tol


@settings(max_examples=50, derandomize=True, deadline=None)
@given(_operator_cases(lower_terms=False))
def test_assembled_operator_exactly_symmetric(case):
    """For every (symmetric) A without lower-order terms the interior block
    equals its transpose bit for bit."""
    g, field, _, _, _ = case
    idx = np.flatnonzero(~g.boundary_mask)
    block = assemble_operator(field, None, g)[idx][:, idx]
    assert (block - block.T).nnz == 0


# -- boundary masks -------------------------------------------------------------


def test_gamma_plus_1d_right_endpoint():
    g = build_grid([0.0], [1.0], [17], 0.0, 1.0, 5)
    field = MatrixField.identity(1, domain=g.domain)
    psi0 = Polynomial.squared_distance([-0.5], scale=0.5)
    mask = gamma_plus(field, psi0, g)
    assert not mask.face_masks[0].any()
    assert mask.face_masks[1].all()


def test_gamma_plus_linear_weight_right_face():
    g = build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 5)
    field = MatrixField.identity(2, domain=g.domain)
    psi0 = poly_from_table(2, [((1, 0), 1.0)])
    mask = gamma_plus(field, psi0, g)
    assert not mask.face_masks[0].any()  # x low
    assert mask.face_masks[1].all()  # x high
    assert not mask.face_masks[2].any() and not mask.face_masks[3].any()


def test_gamma_plus_constant_weight_empty():
    g = build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 5)
    field = MatrixField.identity(2, domain=g.domain)
    mask = gamma_plus(field, Polynomial.constant(2, 1.0), g)
    assert mask.is_empty
    assert mask.describe() == "empty"


# -- smoothing bound -------------------------------------------------------------


def test_smoothing_bound_below_envelope():
    g = build_grid([0, 0], [1, 1], [17, 17], 0.0, 1.0, 3)
    field = MatrixField.identity(2, domain=g.domain)
    rep = smoothing_bound_check(field, g, np.geomspace(1e-4, 1.0, 40))
    assert rep.aleph0_emp <= rep.envelope + 1e-9
    assert rep.envelope == pytest.approx((2 * np.e) ** -0.5)


def test_smoothing_bound_sharp_at_optimal_time():
    g = build_grid([0, 0], [1, 1], [17, 17], 0.0, 1.0, 3)
    field = MatrixField.identity(2, domain=g.domain)
    probe = smoothing_bound_check(field, g, [0.01])
    t_star = 1.0 / (2.0 * probe.argmax_mu)
    rep = smoothing_bound_check(field, g, [t_star])
    assert rep.aleph0_emp == pytest.approx((2 * np.e) ** -0.5, abs=1e-9)


def test_smoothing_bound_brute_force_oracle():
    # per-eigenvalue maximum over t of sqrt(t mu) exp(-t mu) is (2e)^(-1/2)
    mus = np.array([3.0, 11.0, 42.0])
    ts = np.geomspace(1e-4, 10.0, 20001)
    vals = np.sqrt(ts[:, None] * mus[None, :]) * np.exp(-ts[:, None] * mus[None, :])
    assert np.max(vals) == pytest.approx((2 * np.e) ** -0.5, abs=1e-7)


def test_smoothing_bound_rejects_empty_samples():
    g = build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 3)
    field = MatrixField.identity(2, domain=g.domain)
    with pytest.raises(ValueError, match="empty"):
        smoothing_bound_check(field, g, [])


@pytest.mark.parametrize("samples", [[[0.1], 0.2], 0.1, ["a"]],
                         ids=["ragged", "scalar", "non-numeric"])
def test_smoothing_bound_rejects_samples_that_are_not_numbers(samples):
    g = build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 3)
    field = MatrixField.identity(2, domain=g.domain)
    with pytest.raises(ValueError, match="^t_samples must be a sequence of numbers$"):
        smoothing_bound_check(field, g, samples)


@pytest.mark.parametrize("samples", [[0.1, np.nan], [np.inf, 0.1]], ids=["nan", "inf"])
def test_smoothing_bound_rejects_non_finite_samples(samples):
    g = build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 3)
    field = MatrixField.identity(2, domain=g.domain)
    with pytest.raises(ValueError, match="finite"):
        smoothing_bound_check(field, g, samples)


def test_smoothing_bound_rejects_two_dimensional_samples():
    g = build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 3)
    field = MatrixField.identity(2, domain=g.domain)
    with pytest.raises(ValueError, match="one-dimensional"):
        smoothing_bound_check(field, g, np.full((2, 3), 0.1))


def _smoothing_case(case):
    nodes = {"1d": [65], "2d": [17, 17], "9x33": [9, 33], "33x9": [33, 9],
             "variable-A": [13, 11], "3d": [7, 7, 7]}[case]
    n = len(nodes)
    g = build_grid([0.0] * n, [1.0] * n, nodes, 0.0, 1.0, 3)
    if case == "variable-A":
        return MatrixField.from_tables(2, _VARIABLE_2D, domain=g.domain), g
    return MatrixField.identity(n, domain=g.domain), g


@pytest.mark.parametrize("case", ["1d", "2d", "9x33", "33x9", "variable-A", "3d"])
def test_smoothing_bound_matches_dense_eigensolve(case):
    """The band reduction (1-D, 2-D) and the dense route (3-D) agree with a
    dense eigensolve of the interior -Delta_A, and repeat exactly."""
    field, g = _smoothing_case(case)
    idx = np.flatnonzero(~g.boundary_mask)
    mu = np.linalg.eigvalsh(-assemble_operator(field, None, g)[idx][:, idx].toarray())
    mu = mu[mu > 0.0]
    t = np.geomspace(1e-5, 1.0, 40) * np.exp(0.1 * np.random.default_rng(7).normal(size=40))
    vals = np.sqrt(t[:, None]) * np.sqrt(mu[None, :]) * np.exp(-t[:, None] * mu[None, :])
    it, im = np.unravel_index(int(np.argmax(vals)), vals.shape)

    rep = smoothing_bound_check(field, g, t)
    assert rep.aleph0_emp == pytest.approx(vals[it, im], rel=1e-12)
    assert rep.argmax_mu == pytest.approx(mu[im], rel=1e-12)
    assert rep.argmax_t == t[it]
    assert rep.num_eigenvalues == mu.size == idx.size
    assert repr(smoothing_bound_check(field, g, t)) == repr(rep)
    if g.n == 3:  # the same dense call
        assert rep.aleph0_emp == vals[it, im] and rep.argmax_mu == mu[im]


@pytest.mark.parametrize("case, width", [("1d", 1), ("2d", 15), ("9x33", 7), ("33x9", 7),
                                         ("variable-A", 10)])
def test_smoothing_band_numbers_the_longest_axis_slowest(case, width):
    """Half-bandwidth: the unknowns over the longest interior axis, plus 1
    with an off-diagonal entry of A."""
    field, g = _smoothing_case(case)
    idx = np.flatnonzero(~g.boundary_mask)
    band = _upper_band(-assemble_operator(field, None, g)[idx][:, idx], g)
    assert band.shape == (width + 1, idx.size)


def test_smoothing_bound_rejects_large_grids():
    g = build_grid([0, 0], [1, 1], [100, 100], 0.0, 1.0, 3)
    field = MatrixField.identity(2, domain=g.domain)
    with pytest.raises(ValueError, match="dense"):
        smoothing_bound_check(field, g, [0.1])


def test_cfl_limit_uses_spectral_bound():
    g = build_grid([0, 0], [1, 1], [17, 17], 0.0, 1.0, 5)
    ident = MatrixField.identity(2, domain=g.domain)
    stiff = MatrixField.constant(np.diag([4.0, 4.0]), domain=g.domain)
    assert cfl_limit(stiff, g) == pytest.approx(cfl_limit(ident, g) / 2.0)


def test_heat_manufactured_source_solution():
    # u = sin(pi x) e^{-t} solves Delta u - du/dt = -(pi^2 - 1) sin(pi x) e^{-t}
    g = build_grid([0.0], [1.0], [65], 0.0, 1.0, 201)
    field = MatrixField.identity(1, domain=g.domain)
    x = g.space_points[..., 0]
    f = -(np.pi**2 - 1.0) * np.sin(np.pi * x)[:, None] * np.exp(-g.times)
    state = solve_evolution("heat", field, None,
                            HeatData(np.sin(np.pi * x), source=f), 1.0, g)
    exact = np.sin(np.pi * x)[:, None] * np.exp(-g.times)
    assert np.max(np.abs(state.u - exact)) < 5e-4


# -- the block core against single runs ---------------------------------------------


@st.composite
def _block_cases(draw, kinds=("wave", "heat", "schrodinger"), dims=(1, 2),
                 max_members: int = 6):
    kind = draw(st.sampled_from(kinds))
    n = draw(st.sampled_from(dims))
    nodes = [draw(st.integers(4, 9 if n < 3 else 6)) for _ in range(n)]
    diag = [draw(st.floats(0.5, 2.0)) for _ in range(n)]
    t_final = draw(st.floats(0.05, 1.0))
    nt = draw(st.integers(3, 7))
    if kind == "wave":  # enough steps for the CFL limit
        h = 1.0 / (max(nodes) - 1)
        nt = max(nt, int(np.ceil(t_final * np.sqrt(n * max(diag)) / (0.9 * h))) + 1)
    g = build_grid([0.0] * n, [1.0] * n, nodes, 0.0, t_final, nt)
    field = MatrixField.constant(np.diag(diag), domain=g.domain)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    complex_data = draw(st.booleans())

    def space():
        u = rng.normal(size=g.space_shape)
        return u + 1j * rng.normal(size=g.space_shape) if complex_data else u

    lower = None
    if draw(st.booleans()):
        scalar = st.one_of(_small, st.builds(complex, _small, _small))
        lower = LowerOrderCoeffs(
            kind={"wave": "wave", "heat": "parabolic"}.get(kind, "schrodinger"),
            space=tuple(draw(scalar) for _ in range(n)) if draw(st.booleans()) else (),
            time=draw(st.floats(-1.0, 1.0)) if kind == "wave" and draw(st.booleans()) else None,
            zero=draw(scalar),
        )
    data = []
    for _ in range(draw(st.integers(1, max_members))):
        source = rng.normal(size=g.shape) if kind != "schrodinger" and draw(st.booleans()) else None
        if kind == "wave":
            data.append(WaveData(space(), space(), source=source))
        elif kind == "heat":
            data.append(HeatData(space(), source=source))
        else:
            data.append(SchrodingerData(space()))
    return kind, field, lower, data, g


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_block_cases())
def test_block_columns_match_single_runs_property(case):
    """Each column of one block solve reproduces the K = 1 ``solve_evolution``
    of its datum: traces, last level and (wave) last velocity bit for bit for
    wave and Schrodinger; heat within 1e-14 of each array's maximum, since
    SuperLU's multi-right-hand-side real solve rounds differently."""
    kind, field, lower, data, g = case
    block = solve_block(kind, field, lower, data, g.t2, g)
    for k, datum in enumerate(data):
        state = solve_evolution(kind, field, lower, datum, g.t2, g)
        pairs = list(zip(block.member_traces(k), state.traces, strict=True))
        pairs.append((block.final(k), state.u[..., -1]))
        if kind == "wave":
            pairs.append((block.final_velocity(k), state.velocity[..., -1]))
        for got, ref in pairs:
            assert got.shape == ref.shape and got.dtype == ref.dtype
            if kind == "heat":
                assert np.max(np.abs(got - ref), initial=0.0) <= 1e-14 * np.max(
                    np.abs(ref), initial=0.0)
            else:
                assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["wave", "heat", "schrodinger"])
@settings(max_examples=15, derandomize=True, deadline=None)
@given(data=st.data())
def test_solve_evolution_matches_frozen_vector_loop_property(kind, n, data):
    """One run is a K = 1 block, and ``solve_evolution`` keeps the arrays of
    the frozen vector-mode level loop bit for bit: space-time array,
    velocity, energy and traces, for every kind on 1D-3D grids, with and
    without lower-order terms, sources and complex data."""
    kind, field, lower, (datum,), g = data.draw(
        _block_cases(kinds=(kind,), dims=(n,), max_members=1))
    state = solve_evolution(kind, field, lower, datum, g.t2, g)
    u, velocity, energy, traces = reference_evolution(kind, field, lower, datum, g)
    pairs = [(state.u, u), (state.energy.values, energy), *zip(state.traces, traces, strict=True)]
    if kind == "wave":
        pairs.append((state.velocity, velocity))
    else:
        assert state.velocity is None and velocity is None
    for got, ref in pairs:
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert got.tobytes() == ref.tobytes()


def test_block_keeps_no_space_time_array():
    """Three 41^2 x 129 wave members in one block peak below two space-time
    float64 arrays; one K = 1 ``solve_evolution`` holds four or more."""
    import tracemalloc

    g = build_grid([0, 0], [1, 1], [41, 41], 0.0, 2.0, 129)
    field = MatrixField.identity(2, domain=g.domain)
    data = [WaveData(sine_mode(g, (1 + m, 2)), np.zeros(g.space_shape)) for m in range(3)]
    solve_block("wave", field, None, data, g.t2, g)  # warm caches outside the count
    limit = 2 * np.prod(g.shape) * 8
    tracemalloc.start()
    try:
        solve_block("wave", field, None, data, g.t2, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < limit, (peak, limit)


@pytest.mark.parametrize("kind", ["wave", "heat", "schrodinger"])
def test_block_non_finite_level_raises(kind):
    """A non-finite value at any level of any member stops the block."""
    g = build_grid([0, 0], [1, 1], [9, 9], 0.0, 0.5, 17)
    field = MatrixField.identity(2, domain=g.domain)
    u0 = sine_mode(g, (1, 1))
    make = {"wave": lambda u, s=None: WaveData(u, np.zeros_like(u), source=s),
            "heat": lambda u, s=None: HeatData(u, source=s),
            "schrodinger": lambda u, s=None: SchrodingerData(u.astype(complex))}[kind]
    bad = u0.copy()
    bad[4, 5] = np.nan  # level 0 of the last member
    with pytest.raises(FloatingPointError, match="non-finite"):
        solve_block(kind, field, None, [make(u0), make(u0), make(bad)], g.t2, g)
    if kind != "schrodinger":  # an infinite source reaches a later level of member 1
        source = np.zeros(g.shape)
        source[3, 3, 9] = np.inf
        with pytest.raises(FloatingPointError, match="non-finite"):
            solve_block(kind, field, None, [make(u0), make(u0, source)], g.t2, g)


def test_dirichlet_check_rejects_boundary_values():
    g = build_grid([0, 0], [1, 1], [7, 7], 0.0, 1.0, 5)
    levels = np.zeros((*g.space_shape, 3, 2))
    levels[1:-1, 1:-1] = 1.0
    _check_dirichlet(levels, g)
    levels[0, 3, 2, 1] = 1e-300
    with pytest.raises(AssertionError, match="Dirichlet"):
        _check_dirichlet(levels, g)


def test_block_rejects_empty_and_mismatched_data():
    g = build_grid([0.0], [1.0], [9], 0.0, 0.5, 17)
    field = MatrixField.identity(1, domain=g.domain)
    with pytest.raises(ValueError, match="empty"):
        solve_block("heat", field, None, [], g.t2, g)
    with pytest.raises(ValueError, match="spatial grid"):
        solve_block("heat", field, None, [HeatData(np.zeros(9)), HeatData(np.zeros(8))], g.t2, g)

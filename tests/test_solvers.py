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
    smoothing_bound_check,
    solve_block,
    solve_evolution,
)
from carleman.operators import (
    LowerOrderCoeffs,
    assemble_operator,
    gradient_time,
)
from carleman.polynomials import Polynomial, poly_from_table
from carleman.solvers import (
    _axis_separable,
    _check_dirichlet,
    _separable_spectrum,
    _upper_band,
    cfl_limit,
)
from conftest import interior_bump_space, sine_mode
from reference_leapfrog import reference_wave
from reference_smoothing import smoothing_bound_check as reference_smoothing_check
from reference_march import reference_evolution
from reference_trapezoid import reference_heat, reference_schrodinger
from reference_stencil import spatial_operator
import per_call


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
    ratios = state.energy.values / state.energy.values[0]
    assert np.isfinite(np.max(ratios)) and np.max(ratios) < 10.0


def test_energy_equivalence_standing_mode():
    g = wave_grid_1d(256)
    field = MatrixField.identity(1, domain=g.domain)
    x = g.space_points[..., 0]
    state = solve_evolution(
        "wave", field, None, WaveData(np.sin(np.pi * x), np.zeros_like(x)), 2.0, g
    )
    ratios = state.energy.values / state.energy.values[0]
    assert 1.0 - 1e-3 <= np.min(ratios) <= np.max(ratios) <= 1.0 + 1e-3


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
    assert np.max(np.abs(per_call.apply("elliptic", field, lower, u, g) - expected)) < 1e-11
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
    residual = per_call.apply("wave", field, lower, state.u, g)[..., 1:-1]
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
    """Off the modal route, without first- and zero-order terms, the wave
    energy takes its Dirichlet form from the stepping operator; it equals the
    Dirichlet form of the assembled Delta_A bit for bit.  On the modal route
    (1d, 3d, source, complex) the form is ``cell * sum mu |c|^2`` of the modal
    coefficients, equal to rounding."""
    field, lower, data, g = _wave_case("2d" if case == "time-only" else case)
    if case == "time-only":
        lower = LowerOrderCoeffs(kind="wave", time=0.4)
    state = solve_evolution("wave", field, lower, data, 0.6, g)
    kinetic = np.sum(np.abs(state.velocity) ** 2 * g.space_weights[..., None],
                     axis=tuple(range(g.n)))
    expected = np.sqrt(per_call.dirichlet_seminorm_sq(state.u, field, g) + kinetic)
    modal = _modal_route("wave", field, lower, data)
    assert modal == (case in ("1d", "3d", "source", "complex"))
    _assert_route_agreement([(state.energy.values, expected)], modal)


def test_wave_solve_assembles_the_operator_once(monkeypatch):
    """Off the modal route (a non-separable A) the wave solve steps and takes
    its energy with one assembled operator."""
    from carleman import operators, solvers

    calls = []

    def counting(*args):
        calls.append(args)
        return assemble_operator(*args)

    monkeypatch.setattr(operators, "assemble_operator", counting)
    monkeypatch.setattr(solvers, "assemble_operator", counting)
    field, _, data, g = _wave_case("variable-A")
    solve_evolution("wave", field, None, data, 0.6, g)
    assert len(calls) == 1


def test_traces_and_norms_taken_at_once_match_per_level():
    """Off the modal route (an off-diagonal A) the traces are the per-level
    face traces of the space-time array bit for bit; on it (identity A) they
    come from the modal trace functionals and agree to rounding."""
    from carleman.solvers import _face_trace

    g = build_grid([0, 0, 0], [1, 1, 1], [6, 5, 7], 0.0, 1.0, 4)
    data = HeatData(np.random.default_rng(2).normal(size=g.space_shape))
    cross = np.eye(3)
    cross[0, 1] = cross[1, 0] = 0.2
    for matrix, modal in [(np.eye(3), True), (cross, False)]:
        field = MatrixField.constant(matrix, domain=g.domain)
        assert _modal_route("heat", field, None, data) == modal
        state = solve_evolution("heat", field, None, data, 1.0, g)
        pairs = []
        for f in range(g.num_faces):
            levels = [_face_trace(state.u[..., m], g, f).reshape(-1) for m in range(g.nt)]
            pairs.append((state.traces[f], np.stack(levels, axis=-1)))
        if modal:
            _assert_route_agreement(pairs, modal=True)
        else:
            assert all(np.array_equal(got, ref) for got, ref in pairs)
        norms = [np.sqrt(np.sum(state.u[..., m] ** 2 * g.space_weights)) for m in range(g.nt)]
        assert np.allclose(state.energy.values, norms, rtol=1e-14, atol=0.0)


# -- trapezoid rule vs the frozen heat and Schrodinger steppers ----------------------


def _modal_route(kind, field, lower, data) -> bool:
    """Whether a run takes the modal route: any kind without lower-order
    terms, with an axis-separable A (every separable field of these cases is
    positive), with or without a source."""
    return lower is None and _axis_separable(field)


def _assert_route_agreement(pairs, modal: bool) -> None:
    """LU-route arrays bit for bit; modal-route arrays within 1e-12 of each
    reference array's largest magnitude."""
    for got, ref in pairs:
        assert got.dtype == ref.dtype and got.shape == ref.shape
        if modal:
            assert np.max(np.abs(got - ref), initial=0.0) <= 1e-12 * np.max(
                np.abs(ref), initial=0.0)
        else:
            assert got.tobytes() == ref.tobytes()


def _assert_matches_trapezoid_reference(kind, field, lower, data, g):
    """Agreement of levels, traces and L2 norms with the frozen per-kind
    solver: bit for bit on the LU route, to rounding on the modal route."""
    state = solve_evolution(kind, field, lower, data, g.t2, g)
    reference = reference_heat if kind == "heat" else reference_schrodinger
    u, traces, norms = reference(field, lower, data, g)
    assert state.velocity is None and state.energy.kind == "l2"
    pairs = [(state.u, u), (state.energy.values, norms)]
    pairs += list(zip(state.traces, traces, strict=True))
    _assert_route_agreement(pairs, _modal_route(kind, field, lower, data))


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


def _separable_field(g, seed: int) -> MatrixField:
    """a_kk = c0 + c1 x_k + c2 x_k^2 with c0 in [2, 3] and |c1|, |c2| <= 0.5:
    positive on the unit box."""
    rng = np.random.default_rng(seed)
    n = g.n
    entries = {}
    for k in range(n):
        powers = [tuple(e if i == k else 0 for i in range(n)) for e in range(3)]
        coeffs = [rng.uniform(2.0, 3.0), *rng.uniform(-0.5, 0.5, size=2)]
        entries[(k, k)] = poly_from_table(n, list(zip(powers, coeffs)))
    return MatrixField.from_entry_polys(n, entries, domain=g.domain)


@pytest.mark.parametrize("kind", ["heat", "schrodinger"])
@pytest.mark.parametrize("nodes", [[33], [13, 11], [7, 8, 6]], ids=["1d", "2d", "3d"])
def test_modal_route_matches_frozen_steppers(kind, nodes):
    """Separable variable a_kk, no lower-order term, no source: the modal
    route agrees with the frozen LU steppers to rounding."""
    n = len(nodes)
    g = build_grid([0.0] * n, [1.0] * n, nodes, 0.0, 0.4, 17)
    field = _separable_field(g, 11)
    rng = np.random.default_rng(4)
    u0 = rng.normal(size=g.space_shape) + 1j * rng.normal(size=g.space_shape)
    data = HeatData(u0.real) if kind == "heat" else SchrodingerData(u0)
    assert _modal_route(kind, field, None, data)
    _assert_matches_trapezoid_reference(kind, field, None, data, g)


def test_modal_route_matches_the_separated_solution():
    """A 41^2 sine mode is an exact eigenvector of the flux Laplacian, so
    every level is ``r^m v`` with ``r = (1 - c dt mu/2) / (1 + c dt mu/2)``.
    The modal traces match the separated ones to 1e-13 relative; per-axis
    eigenvalues from ``eigh_tridiagonal`` instead of ``dpteqr`` miss this
    for Schrodinger (1.9e-13)."""
    from carleman.solvers import _face_trace

    g = build_grid([0, 0], [1, 1], [41, 41], 0.0, 1.0, 65)
    field = MatrixField.identity(2, domain=g.domain)
    v = sine_mode(g, (2, 3))
    h = g.domain.spacings[0]
    mu = sum(4.0 / h**2 * np.sin(k * np.pi * h / 2) ** 2 for k in (2, 3))
    for kind, c in [("heat", 1.0), ("schrodinger", 1j)]:
        data = HeatData(v) if kind == "heat" else SchrodingerData(v.astype(complex))
        state = solve_evolution(kind, field, None, data, g.t2, g)
        factors = ((1.0 - 0.5 * c * g.dt * mu) / (1.0 + 0.5 * c * g.dt * mu)) ** np.arange(g.nt)
        for f, trace in enumerate(state.traces):
            exact = _face_trace(v, g, f).reshape(-1, 1) * factors
            assert np.max(np.abs(trace - exact)) <= 1e-13 * np.max(np.abs(exact)), (kind, f)


@pytest.mark.parametrize("nodes", [[41], [17, 13], [9, 8, 7]], ids=["1d", "2d", "3d"])
def test_modal_wave_matches_the_separated_solution(nodes):
    """A sine mode v is an exact eigenvector of the flux Laplacian of identity
    A, so for u1 = beta v every level of the modal leapfrog is ``c_m v`` with
    ``c_0 = 1``, ``c_1 = 1 + dt beta - dt^2 mu / 2`` and ``c[m+1] = 2 c[m] -
    c[m-1] - dt^2 mu c[m]``.  The traces of ``solve_evolution`` and
    ``solve_block`` match ``c_m`` times the mode's trace to 1e-13 relative."""
    from carleman.solvers import _face_trace

    n = len(nodes)
    probe = build_grid([0.0] * n, [1.0] * n, nodes, 0.0, 1.0, 3)
    field = MatrixField.identity(n, domain=probe.domain)
    g = build_grid([0.0] * n, [1.0] * n, nodes, 0.0, 1.0,
                   int(np.ceil(1.0 / (0.5 * cfl_limit(field, probe)))) + 1)
    ks = (2, 3, 1)[:n]
    v = sine_mode(g, ks)
    mu = sum(4.0 / h**2 * np.sin(k * np.pi * h / 2) ** 2
             for k, h in zip(ks, g.domain.spacings))
    beta, dt = 0.7, g.dt
    c = [1.0, 1.0 + dt * beta - 0.5 * dt**2 * mu]
    while len(c) < g.nt:
        c.append(2.0 * c[-1] - c[-2] - dt**2 * mu * c[-1])
    data = WaveData(v, beta * v)
    state = solve_evolution("wave", field, None, data, g.t2, g)
    block = solve_block("wave", field, None, [data], g.t2, g)
    inner = (slice(1, -1),) * n
    assert np.array_equal(state.u[inner + (0,)], v[inner])  # level 0 is the datum itself
    for f in range(g.num_faces):
        exact = _face_trace(v, g, f).reshape(-1, 1) * np.array(c)
        for got in (state.traces[f], block.member_traces(0)[f]):
            assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact)), f


def _wave_route_case(case):
    """A small wave run; ``case`` names what, if anything, keeps it off the
    modal route."""
    nodes, tables, lower, source = [9, 8], None, None, None
    rng = np.random.default_rng(7)
    g = build_grid([0.0, 0.0], [1.0, 1.0], nodes, 0.0, 0.5, 33)
    if case.startswith("non-separable"):
        tables = _VARIABLE_2D
    if case == "lower-order":
        lower = LowerOrderCoeffs(kind="wave", zero=1.5)
    if case.endswith("source"):
        source = rng.normal(size=g.shape)
    field = (MatrixField.identity(2, domain=g.domain) if tables is None
             else MatrixField.from_tables(2, tables, domain=g.domain))
    if case == "variable-separable":
        field = _separable_field(g, 3)
    data = WaveData(rng.normal(size=g.space_shape), rng.normal(size=g.space_shape), source)
    return field, lower, data, g


@pytest.mark.parametrize("case", ["separable", "variable-separable", "source", "non-separable",
                                  "lower-order", "non-separable-source"])
def test_wave_route_pin(case, monkeypatch):
    """Identity-A and variable separable wave runs of ``solve_evolution`` and
    ``solve_block``, with or without a source, assemble nothing and make no
    CSR product; a non-separable field, with or without a source, or a
    lower-order term steps with one CSR product per level."""
    import scipy.sparse as sp

    from carleman import solvers

    field, lower, data, g = _wave_route_case(case)
    modal = case in ("separable", "variable-separable", "source")
    assert _modal_route("wave", field, lower, data) == modal
    products = []
    matmul = sp.csr_matrix.__matmul__

    def counting(self, other):
        products.append(np.shape(other))
        return matmul(self, other)

    def refuse(*args, **kwargs):
        raise AssertionError("the modal route assembled the operator")

    monkeypatch.setattr(sp.csr_matrix, "__matmul__", counting)
    if modal:
        monkeypatch.setattr(solvers, "assemble_operator", refuse)
    solve_evolution("wave", field, lower, data, g.t2, g)
    solve_block("wave", field, lower, [data, data], g.t2, g)
    if modal:
        assert products == []
    else:  # nt - 1 steps per run, plus the energy product of the single run
        assert len(products) >= 2 * (g.nt - 1)


def _route_case(case, kind):
    """A small heat or Schrodinger run; ``case`` names what, if anything,
    keeps it off the modal route."""
    nodes, tables, lower, source = [9, 8], None, None, None
    rng = np.random.default_rng(6)
    if case.startswith("non-separable"):
        tables = _VARIABLE_2D
    if case.endswith("source"):
        source = rng.normal(size=(*nodes, 9))
    if case == "lower-order":
        lower = LowerOrderCoeffs(kind="parabolic" if kind == "heat" else "schrodinger", zero=1.5)
    elif case == "sign-changing-a":  # a_11 = y - 0.5 vanishes mid-box
        tables = {(0, 0): [((0, 0), 1.0)], (1, 1): [((0, 0), -0.5), ((0, 1), 1.0)]}
    elif case == "negative-a-one-node":  # one interior node on the x axis
        nodes, tables = [3, 8], {(0, 0): [((0, 0), -1.0)], (1, 1): [((0, 0), 1.0)]}
    g = build_grid([0.0, 0.0], [1.0, 1.0], nodes, 0.0, 0.5, 9)
    field = (MatrixField.identity(2, domain=g.domain) if tables is None
             else MatrixField.from_tables(2, tables, domain=g.domain))
    if case == "variable-separable":
        field = _separable_field(g, 3)
    u0 = rng.normal(size=g.space_shape)
    data = HeatData(u0, source=source) if kind == "heat" else SchrodingerData(u0 + 0j)
    return field, lower, data, g


@pytest.mark.parametrize("case, kind", [
    (case, kind)
    for case in ["separable", "variable-separable", "source", "non-separable", "lower-order",
                 "non-separable-source", "sign-changing-a", "negative-a-one-node"]
    for kind in ["heat", "schrodinger"]
    if not (case.endswith("source") and kind == "schrodinger")  # Schrodinger data carry none
])
def test_trapezoid_route_pin(case, kind, monkeypatch):
    """Separable heat and Schrodinger runs, with or without a source, factor
    nothing and assemble nothing; a non-separable field, with or without a
    source, a lower-order term or a non-positive half-point a_kk keeps one
    ``splu`` per run."""
    import scipy.sparse.linalg as spla

    from carleman import solvers

    field, lower, data, g = _route_case(case, kind)
    modal = case in ("separable", "variable-separable", "source")
    calls = []
    splu = spla.splu

    def counting(*args, **kwargs):
        if modal:
            raise AssertionError("the modal route called splu")
        calls.append(args)
        return splu(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("the modal route assembled the operator")

    monkeypatch.setattr(spla, "splu", counting)
    if modal:
        monkeypatch.setattr(solvers, "assemble_operator", refuse)
    solve_evolution(kind, field, lower, data, g.t2, g)
    solve_block(kind, field, lower, [data, data], g.t2, g)
    assert len(calls) == (0 if modal else 2)


_small = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@st.composite
def _trapezoid_cases(draw):
    kind = draw(st.sampled_from(["heat", "schrodinger"]))
    n = draw(st.integers(1, 2))
    nodes = [draw(st.integers(4, 9)) for _ in range(n)]
    g = build_grid([0.0] * n, [1.0] * n, nodes, 0.0, draw(st.floats(0.05, 1.0)),
                   draw(st.integers(3, 7)))
    diag = [draw(st.floats(0.5, 2.0)) for _ in range(n)]
    matrix = np.diag(diag)
    shape = draw(st.sampled_from(["constant", "separable", "cross"]))
    if shape == "cross" and n == 2:  # not separable: the LU route
        matrix[0, 1] = matrix[1, 0] = 0.25 * min(diag)
    field = MatrixField.constant(matrix, domain=g.domain)
    if shape == "separable":
        field = _separable_field(g, draw(st.integers(0, 2**16)))
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
    reproduces the frozen per-kind solvers on random 1D/2D grids, fields,
    data, sources and lower-order terms: bit for bit on the LU route (any
    lower-order term, source or off-diagonal entry), to rounding on the modal
    route."""
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
    """The assembled operator, Delta_A and the applied evolution operators agree
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
        assert np.max(np.abs(per_call.laplacian(field, u, g) - expected)) <= tol
    if space_time:
        applied = per_call.apply("parabolic", field, lower, u, g) + gradient_time(u, g)
        inner = (slice(1, -1),) * g.n + (slice(1, -1),)
        assert np.max(np.abs(applied[inner] - expected[inner])) <= tol
    else:
        elliptic = None if lower is None else dataclasses.replace(lower, kind="elliptic")
        assert np.max(np.abs(per_call.apply("elliptic", field, elliptic, u, g) - expected)) <= tol


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
    mask = per_call.gamma_plus(field, psi0, g)
    assert not mask.face_masks[0].any()
    assert mask.face_masks[1].all()


def test_gamma_plus_linear_weight_right_face():
    g = build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 5)
    field = MatrixField.identity(2, domain=g.domain)
    psi0 = poly_from_table(2, [((1, 0), 1.0)])
    mask = per_call.gamma_plus(field, psi0, g)
    assert not mask.face_masks[0].any()  # x low
    assert mask.face_masks[1].all()  # x high
    assert not mask.face_masks[2].any() and not mask.face_masks[3].any()


def test_gamma_plus_constant_weight_empty():
    g = build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 5)
    field = MatrixField.identity(2, domain=g.domain)
    mask = per_call.gamma_plus(field, Polynomial.constant(2, 1.0), g)
    assert not any(m.any() for m in mask.face_masks)
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


_VARIABLE_3D = {
    (0, 0): [((0, 0, 0), 1.0), ((1, 0, 0), 0.3)],
    (1, 1): [((0, 0, 0), 1.1), ((0, 0, 1), 0.2)],
    (2, 2): [((0, 0, 0), 0.9), ((0, 1, 0), 0.25)],
    (0, 2): [((0, 1, 0), 0.1)],
}


def _smoothing_case(case):
    nodes = {"1d": [65], "2d": [17, 17], "9x33": [9, 33], "33x9": [33, 9],
             "variable-A": [13, 11], "3d": [7, 7, 7], "variable-A-3d": [7, 8, 9]}[case]
    n = len(nodes)
    g = build_grid([0.0] * n, [1.0] * n, nodes, 0.0, 1.0, 3)
    if case == "variable-A":
        return MatrixField.from_tables(2, _VARIABLE_2D, domain=g.domain), g
    if case == "variable-A-3d":
        return MatrixField.from_tables(3, _VARIABLE_3D, domain=g.domain), g
    return MatrixField.identity(n, domain=g.domain), g


@pytest.mark.parametrize("case", ["1d", "2d", "9x33", "33x9", "variable-A", "3d",
                                  "variable-A-3d"])
def test_smoothing_bound_matches_dense_eigensolve(case):
    """Each route (per-axis tridiagonals for identity A, the band reduction
    for the 2-D variable A, the dense call for the 3-D one) agrees with a
    dense eigensolve of the interior -Delta_A, and repeats exactly."""
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
    if case == "variable-A-3d":  # the same dense call
        assert rep.aleph0_emp == vals[it, im] and rep.argmax_mu == mu[im]


@pytest.mark.parametrize("case, width", [("1d", 1), ("2d", 15), ("9x33", 7), ("33x9", 7),
                                         ("variable-A", 10), ("3d", 25)])
def test_smoothing_band_numbers_the_longest_axis_slowest(case, width):
    """Half-bandwidth: the unknowns over the longest interior axis, plus 1
    with an off-diagonal entry of A."""
    field, g = _smoothing_case(case)
    idx = np.flatnonzero(~g.boundary_mask)
    band = _upper_band(-assemble_operator(field, None, g)[idx][:, idx], g)
    assert band.shape == (width + 1, idx.size)


def _diagonal_field(n, g, kind):
    """Axis-separable fields: identity, diag(2, 0.5, 1.5) or a_kk = c_k + d_k x_k."""
    if kind == "identity":
        return MatrixField.identity(n, domain=g.domain)
    if kind == "constant":
        return MatrixField.constant(np.diag([2.0, 0.5, 1.5][:n]), domain=g.domain)
    slopes = [(1.0, 0.5), (1.2, 0.3), (0.8, 0.4)]
    return MatrixField.from_tables(n, {
        (k, k): [((0,) * n, c), (tuple(int(i == k) for i in range(n)), d)]
        for k, (c, d) in enumerate(slopes[:n])
    }, domain=g.domain)


_SMOOTHING_SAMPLES = np.geomspace(1e-5, 1.0, 40) * np.exp(
    0.1 * np.random.default_rng(11).normal(size=40))


@pytest.mark.parametrize("kind", ["identity", "constant", "variable"])
@pytest.mark.parametrize("nodes", [[65], [17, 17], [9, 33], [33, 9], [7, 9, 11]],
                         ids=["1d", "2d", "9x33", "33x9", "3d"])
def test_smoothing_separable_matches_frozen_check(nodes, kind):
    """Axis-separable fields take the per-axis tridiagonal route; the report
    agrees with the frozen assembled-matrix check to 1e-12 relative."""
    n = len(nodes)
    g = build_grid([0.0] * n, [1.0] * n, nodes, 0.0, 1.0, 3)
    field = _diagonal_field(n, g, kind)
    assert _axis_separable(field)
    rep = smoothing_bound_check(field, g, _SMOOTHING_SAMPLES)
    ref = reference_smoothing_check(field, g, _SMOOTHING_SAMPLES)
    assert rep.aleph0_emp == pytest.approx(ref.aleph0_emp, rel=1e-12, abs=0)
    assert rep.argmax_mu == pytest.approx(ref.argmax_mu, rel=1e-12, abs=0)
    assert rep.argmax_t == ref.argmax_t
    assert rep.num_eigenvalues == ref.num_eigenvalues
    assert rep.envelope == ref.envelope


def _non_separable_field(case):
    if case == "variable-A":
        g = build_grid([0.0, 0.0], [1.0, 1.0], [13, 11], 0.0, 1.0, 3)
        return MatrixField.from_tables(2, _VARIABLE_2D, domain=g.domain), g
    if case == "diagonal-cross":  # a_00 depends on x1
        g = build_grid([0.0, 0.0], [1.0, 1.0], [9, 33], 0.0, 1.0, 3)
        tables = {(0, 0): [((0, 0), 1.0), ((0, 1), 0.5)], (1, 1): [((0, 0), 1.0)]}
        return MatrixField.from_tables(2, tables, domain=g.domain), g
    g = build_grid([0.0] * 3, [1.0] * 3, [7, 8, 9], 0.0, 1.0, 3)
    tables = {(k, k): [((0, 0, 0), 1.0)] for k in range(3)}
    tables[(1, 2)] = [((0, 0, 0), 0.2)]
    return MatrixField.from_tables(3, tables, domain=g.domain), g


@pytest.mark.parametrize("case", ["variable-A", "diagonal-cross", "off-diagonal-3d"])
def test_smoothing_non_separable_matches_frozen_check_exactly(case):
    """Fields that are not axis-separable keep the band (2-D) and dense (3-D)
    routes: the report is ``repr``-identical to the frozen check."""
    field, g = _non_separable_field(case)
    assert not _axis_separable(field)
    rep = smoothing_bound_check(field, g, _SMOOTHING_SAMPLES)
    assert repr(rep) == repr(reference_smoothing_check(field, g, _SMOOTHING_SAMPLES))


@pytest.mark.parametrize("nodes", [[65], [17, 17], [9, 33], [7, 9, 11]],
                         ids=["1d", "2d", "9x33", "3d"])
def test_smoothing_identity_spectrum_matches_closed_form(nodes):
    """For identity A the spectrum is every sum of 4/h_k^2 sin^2(j_k pi h_k / 2)
    over j_k = 1, ..., m_k - 2 on the unit box."""
    n = len(nodes)
    g = build_grid([0.0] * n, [1.0] * n, nodes, 0.0, 1.0, 3)
    field = MatrixField.identity(n, domain=g.domain)
    closed = np.zeros(())
    for m in nodes:
        h = 1.0 / (m - 1)
        closed = closed[..., None] + 4.0 / h**2 * np.sin(np.arange(1, m - 1) * np.pi * h / 2) ** 2
    closed = np.sort(closed, axis=None)
    mu = _separable_spectrum(field, g)
    assert mu.shape == closed.shape
    assert np.max(np.abs(mu - closed) / closed) <= 1e-13
    vals = np.sqrt(_SMOOTHING_SAMPLES[:, None] * closed[None, :]) * np.exp(
        -_SMOOTHING_SAMPLES[:, None] * closed[None, :])
    it, im = np.unravel_index(int(np.argmax(vals)), vals.shape)
    rep = smoothing_bound_check(field, g, _SMOOTHING_SAMPLES)
    assert rep.aleph0_emp == pytest.approx(vals[it, im], rel=1e-13, abs=0)
    assert rep.argmax_mu == pytest.approx(closed[im], rel=1e-13, abs=0)
    assert rep.argmax_t == _SMOOTHING_SAMPLES[it]


def test_smoothing_separable_route_assembles_nothing(monkeypatch):
    from carleman import solvers

    def refuse(*args, **kwargs):
        raise AssertionError("the separable route assembled the operator")

    monkeypatch.setattr(solvers, "assemble_operator", refuse)
    g = build_grid([0.0, 0.0], [1.0, 1.0], [33, 33], 0.0, 1.0, 3)
    rep = smoothing_bound_check(MatrixField.identity(2, domain=g.domain), g, [0.01])
    assert rep.num_eigenvalues == 31 * 31


@st.composite
def _separable_cases(draw):
    n = draw(st.integers(1, 3))
    nodes = [draw(st.integers(3, 9 if n < 3 else 7)) for _ in range(n)]
    lows = [draw(st.floats(-0.5, 0.5)) for _ in range(n)]
    highs = [lo + draw(st.floats(0.5, 1.0)) for lo in lows]
    g = build_grid(lows, highs, nodes, 0.0, 1.0, 3)
    entries = {}
    for k in range(n):
        degree = draw(st.integers(0, 3))
        # |x| <= 1.5 on the box, so a constant of at least 2.5 keeps a_kk positive
        table = [((0,) * n, draw(st.floats(2.5, 4.0)))] + [
            (tuple(e if i == k else 0 for i in range(n)), draw(st.floats(-0.3, 0.3)))
            for e in range(1, degree + 1)
        ]
        entries[(k, k)] = poly_from_table(n, table)
    return g, MatrixField.from_entry_polys(n, entries, domain=g.domain)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_separable_cases())
def test_separable_operator_is_a_kronecker_sum_property(case):
    """The interior block of a positive diagonal axis-separable field is the
    Kronecker sum of one tridiagonal per axis (off-diagonal entries bitwise,
    diagonal within 1 ulp), and the per-axis spectrum is the block's."""
    g, field = case
    assert _axis_separable(field)
    idx = np.flatnonzero(~g.boundary_mask)
    block = -assemble_operator(field, None, g)[idx][:, idx].toarray()
    inner = [m - 2 for m in g.space_shape]
    kron = np.zeros_like(block)
    for k in range(g.n):
        x = g.domain.axis_coords(k)
        pts = np.tile(np.asarray(g.domain.lows, dtype=float), (x.size - 1, 1))
        pts[:, k] = 0.5 * (x[1:] + x[:-1])
        a = field.entry(k, k)(pts) / g.domain.spacings[k] ** 2
        tri = np.diag(a[1:] + a[:-1]) - np.diag(a[1:-1], 1) - np.diag(a[1:-1], -1)
        before, after = np.eye(int(np.prod(inner[:k]))), np.eye(int(np.prod(inner[k + 1:])))
        kron = kron + np.kron(np.kron(before, tri), after)
    off = ~np.eye(idx.size, dtype=bool)
    assert np.array_equal(block[off], kron[off])
    assert np.all(np.abs(np.diag(block) - np.diag(kron)) <= np.spacing(np.abs(np.diag(block))))

    mu = _separable_spectrum(field, g)
    dense = np.linalg.eigvalsh(block)
    assert np.max(np.abs(mu - dense)) <= 1e-12 * np.max(np.abs(dense))


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
    SuperLU's multi-right-hand-side real solve rounds differently.  A heat
    block with a source in one member takes the LU route, while a sourceless
    member alone may take the modal one; those two agree to rounding."""
    kind, field, lower, data, g = case
    block = solve_block(kind, field, lower, data, g.t2, g)
    block_modal = all(_modal_route(kind, field, lower, d) for d in data)
    for k, datum in enumerate(data):
        state = solve_evolution(kind, field, lower, datum, g.t2, g)
        pairs = list(zip(block.member_traces(k), state.traces, strict=True))
        pairs.append((block.final(k), state.u[..., -1]))
        if kind == "wave":
            pairs.append((block.final_velocity(k), state.velocity[..., -1]))
        if _modal_route(kind, field, lower, datum) != block_modal:
            _assert_route_agreement(pairs, modal=True)
            continue
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
    the frozen vector-mode level loop: space-time array, velocity, energy and
    traces, for every kind on 1D-3D grids, with and without lower-order
    terms, sources and complex data; bit for bit except on the modal route,
    where they agree to rounding."""
    kind, field, lower, (datum,), g = data.draw(
        _block_cases(kinds=(kind,), dims=(n,), max_members=1))
    state = solve_evolution(kind, field, lower, datum, g.t2, g)
    u, velocity, energy, traces = reference_evolution(kind, field, lower, datum, g)
    pairs = [(state.u, u), (state.energy.values, energy), *zip(state.traces, traces, strict=True)]
    if kind == "wave":
        pairs.append((state.velocity, velocity))
    else:
        assert state.velocity is None and velocity is None
    _assert_route_agreement(pairs, _modal_route(kind, field, lower, datum))


@st.composite
def _sourced_cases(draw):
    """A wave or heat block on a separable variable A in 1D-3D whose first
    member carries a source and each other member may."""
    kind = draw(st.sampled_from(["wave", "heat"]))
    n = draw(st.integers(1, 3))
    nodes = [draw(st.integers(4, 9 if n < 3 else 6)) for _ in range(n)]
    seed = draw(st.integers(0, 2**16))
    probe = build_grid([0.0] * n, [1.0] * n, nodes, 0.0, 1.0, 3)
    t_final = draw(st.floats(0.05, 1.0))
    nt = draw(st.integers(3, 9))
    if kind == "wave":  # enough steps for the CFL limit
        nt = max(nt, int(np.ceil(t_final / cfl_limit(_separable_field(probe, seed), probe))) + 1)
    g = build_grid([0.0] * n, [1.0] * n, nodes, 0.0, t_final, nt)
    field = _separable_field(g, seed)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    data = []
    for k in range(draw(st.integers(1, 3))):
        source = rng.normal(size=g.shape) if k == 0 or draw(st.booleans()) else None
        u0 = rng.normal(size=g.space_shape)
        data.append(WaveData(u0, rng.normal(size=g.space_shape), source) if kind == "wave"
                    else HeatData(u0, source=source))
    return kind, field, data, g


@settings(max_examples=40, derandomize=True, deadline=None)
@given(_sourced_cases())
def test_sourced_modal_runs_match_frozen_steppers_property(case):
    """Sourced wave and heat runs on a separable A take the modal route, and
    agree with the frozen nodal steppers to 1e-12 of each array's maximum,
    through ``solve_evolution`` (space-time array, velocity, energy, traces)
    and ``solve_block`` (traces, final level, final velocity); each block
    column equals its K = 1 run bit for bit."""
    kind, field, data, g = case
    block = solve_block(kind, field, None, data, g.t2, g)
    for k, datum in enumerate(data):
        assert _modal_route(kind, field, None, datum)
        state = solve_evolution(kind, field, None, datum, g.t2, g)
        u, velocity, energy, traces = reference_evolution(kind, field, None, datum, g)
        pairs = [(state.u, u), (state.energy.values, energy),
                 *zip(state.traces, traces, strict=True),
                 *zip(block.member_traces(k), traces, strict=True),
                 (block.final(k), u[..., -1])]
        columns = [*zip(block.member_traces(k), state.traces, strict=True),
                   (block.final(k), state.u[..., -1])]
        if kind == "wave":
            pairs += [(state.velocity, velocity), (block.final_velocity(k), velocity[..., -1])]
            columns.append((block.final_velocity(k), state.velocity[..., -1]))
        _assert_route_agreement(pairs, modal=True)
        assert all(got.tobytes() == ref.tobytes() for got, ref in columns)


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


@pytest.mark.parametrize("case", ["separable", "non-separable"])
def test_block_traces_only_the_faces_asked_for(case):
    """Faces not asked for get no trace array; the faces asked for get the
    traces of the all-face block bit for bit, on either route."""
    field, _, data, g = _wave_route_case(case)
    every = solve_block("wave", field, None, [data], g.t2, g)
    some = solve_block("wave", field, None, [data], g.t2, g, faces=[3, 0])
    none = solve_block("wave", field, None, [data], g.t2, g, faces=())
    assert [t is None for t in some.traces] == [False, True, True, False]
    assert all(t is None for t in none.traces)
    for f in (0, 3):
        assert some.traces[f].tobytes() == every.traces[f].tobytes()
    for block in (some, none):
        assert block.last.tobytes() == every.last.tobytes()


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

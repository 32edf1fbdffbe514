import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import carleman.cli as cli
import reference_fields as ref
from carleman import MatrixField, WaveData, build_grid
from carleman.audit import _window, default_ensemble
from carleman.geometry import separable, sine_profile, smooth_bump
from carleman.polynomials import Polynomial
from conftest import interior_bump_space, interior_bump_spacetime, sine_mode
import per_call


def test_unit_square_grid_spacings():
    g = build_grid([0, 0], [1, 1], [17, 17], 0.0, 1.0, 33)
    assert g.domain.spacings == (1 / 16, 1 / 16)
    assert g.dt == pytest.approx(1 / 32)


def test_degenerate_three_node_grid():
    g = build_grid([0], [1], [3], 0.0, 1.0, 3)
    assert g.domain.spacings == (0.5,)


def test_empty_extent_rejected():
    with pytest.raises(ValueError, match="empty extent"):
        build_grid([0], [0], [5], 0.0, 1.0, 5)


def test_too_few_nodes_rejected():
    with pytest.raises(ValueError):
        build_grid([0], [1], [2], 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        build_grid([0], [1], [5], 0.0, 1.0, 2)


def test_fractional_counts_rejected_not_truncated():
    with pytest.raises(ValueError, match=r"^nodes must be an integer per axis, got 17\.9$"):
        build_grid([0, 0], [1, 1], [17.9, 17], 0.0, 1.0, 5)
    with pytest.raises(ValueError, match=r"^nt must be an integer, got 33\.7$"):
        build_grid([0], [1], [5], 0.0, 1.0, 33.7)
    with pytest.raises(ValueError, match="got True"):
        build_grid([0], [1], [True], 0.0, 1.0, 5)
    g = build_grid([0], [1], [np.int64(5)], 0.0, 1.0, np.int32(9))  # numpy integers are integers
    assert g.space_shape == (5,) and g.nt == 9
    assert type(g.space_shape[0]) is int and type(g.nt) is int


def _interior_integral(f, g):
    """Trapezoid integral over Q with the grid's space and time weights, the
    quadrature of the audit's volume sides."""
    return float(np.sum(f * (g.space_weights[..., None] * g.time_weights)))


def test_interior_integral_constants():
    g = build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 9)
    assert _interior_integral(np.ones(g.shape), g) == pytest.approx(1.0, abs=1e-12)
    g2 = build_grid([0, 0], [2, 3], [9, 9], 0.0, 1.0, 9)
    assert _interior_integral(np.ones(g2.shape), g2) == pytest.approx(6.0, abs=1e-12)


def test_interior_integral_linear():
    g = build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 9)
    f = np.broadcast_to(g.space_points[..., 0][..., None], g.shape).copy()
    assert _interior_integral(f, g) == pytest.approx(0.5, abs=1e-12)


def test_quadrature_exact_for_multilinear():
    g = build_grid([0, 0], [1, 2], [5, 7], 0.0, 1.0, 5)
    x = g.space_points
    f = (2.0 + x[..., 0])[..., None] * (1.0 + g.times)
    exact = (2.0 + 0.5) * 2.0 * (1.0 + 0.5)  # per-axis affine factors
    # int over x2 in (0,2) of 1 dx2 = 2; affine-per-axis integrand is exact
    assert _interior_integral(f, g) == pytest.approx(exact, rel=1e-12)


def test_quadrature_second_order_refinement():
    def err(nodes, nt):
        g = build_grid([0, 0], [1, 1], [nodes, nodes], 0.0, 1.0, nt)
        x = g.space_points
        f = np.sin(np.pi * x[..., 0])[..., None] * np.sin(np.pi * g.times)
        exact = (2.0 / np.pi) * 1.0 * (2.0 / np.pi)
        return abs(_interior_integral(f, g) - exact)

    e1, e2 = err(9, 9), err(17, 17)
    assert 3.5 <= e1 / e2 <= 4.5


def test_dmu_unit_square():
    g = build_grid([0, 0], [1, 1], [17, 17], 0.0, 1.0, 17)
    assert per_call.integrate_dmu(np.ones(g.shape), g) == pytest.approx(6.0, abs=1e-12)
    assert per_call.integrate_dmu(np.zeros(g.shape), g) == 0.0


def test_dmu_caps_only_cube():
    # indicator of the two time caps on the unit cube: analytic value 2.0;
    # the lateral quadrature picks the cap levels up with weight dt/2, an
    # O(dt) quadrature tail that halves under time refinement
    def value(nt):
        g = build_grid([0, 0, 0], [1, 1, 1], [5, 5, 5], 0.0, 1.0, nt)
        vals = np.zeros(g.shape)
        vals[..., 0] = 1.0
        vals[..., -1] = 1.0
        return per_call.integrate_dmu(vals, g), g.dt

    v1, dt1 = value(5)
    v2, dt2 = value(9)
    assert abs(v1 - 2.0) <= 6.05 * dt1
    assert abs(v2 - 2.0) == pytest.approx(0.5 * abs(v1 - 2.0), rel=1e-9)


def test_dmu_additivity():
    g = build_grid([0, 0], [1, 1], [9, 9], 0.0, 1.0, 9)
    rng = np.random.default_rng(5)
    g1 = rng.normal(size=g.shape)
    g2 = rng.normal(size=g.shape)
    total = per_call.integrate_dmu(g1 + g2, g)
    split = per_call.integrate_dmu(g1, g) + per_call.integrate_dmu(g2, g)
    assert total == pytest.approx(split, rel=1e-12, abs=1e-12)


@st.composite
def _affine_case(draw):
    """A grid of 1-3 space axes on a random box and f = prod_i (a_i + b_i x_i)
    * (a_t + b_t t), affine in each variable."""
    n = draw(st.integers(1, 3))
    coord = st.floats(-2.0, 2.0)
    lows = [draw(coord) for _ in range(n)]
    highs = [lo + draw(st.floats(0.25, 3.0)) for lo in lows]
    nodes = [draw(st.integers(3, 7)) for _ in range(n)]
    t1 = draw(coord)
    t2 = t1 + draw(st.floats(0.25, 3.0))
    grid = build_grid(lows, highs, nodes, t1, t2, draw(st.integers(3, 7)))
    coeffs = [(draw(coord), draw(coord)) for _ in range(n + 1)]
    return grid, coeffs


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_affine_case())
def test_boundary_integrals_exact_for_affine_functions(case):
    grid, coeffs = case
    axes = [grid.domain.axis_coords(i) for i in range(grid.n)] + [grid.times]
    factors = [a + b * c for (a, b), c in zip(coeffs, axes)]
    f = factors[0]
    for fac in factors[1:]:
        f = np.multiply.outer(f, fac)
    ends = [(a + b * c[0], a + b * c[-1]) for (a, b), c in zip(coeffs, axes)]
    # the integral of an affine factor is its length times its mean end value
    means = [0.5 * (lo + hi) * (c[-1] - c[0]) for (lo, hi), c in zip(ends, axes)]
    space = means[:-1]
    lateral = means[-1] * sum(
        sum(ends[k]) * np.prod(space[:k] + space[k + 1:]) for k in range(grid.n)
    )
    caps = sum(ends[-1]) * np.prod(space)
    lengths = [c[-1] - c[0] for c in axes]
    size = lengths[-1] * sum(2 * np.prod(lengths[:k] + lengths[k + 1:-1]) for k in range(grid.n))
    scale = float(np.max(np.abs(f))) * (size + 2 * np.prod(lengths[:-1]))  # sup|f| mu(dQ)
    assert per_call.integrate_lateral(f, grid) == pytest.approx(lateral, abs=1e-12 * scale)
    assert per_call.integrate_dmu(f, grid) == pytest.approx(lateral + caps, abs=1e-12 * scale)


@pytest.mark.parametrize("spatial", [False, True], ids=["spacetime", "space"])
def test_dmu_nodes_cover_the_boundary_once_per_level(spatial):
    g = build_grid([0, 0, 0], [1, 2, 3], [4, 5, 6], 0.0, 1.0, 7)
    sets = g.dmu_nodes(spatial)
    assert len(sets) == (1 if spatial else 2)
    (idx, w), shape = sets[0], (g.space_shape if spatial else g.shape)
    marks = np.zeros(shape, dtype=int)
    marks.reshape(-1)[idx] += 1  # indices are distinct, so += counts them once
    assert np.array_equal(marks > 0, np.broadcast_to(
        g.boundary_mask if spatial else g.boundary_mask[..., None], shape))
    # the face areas of the 1 x 2 x 3 box, times the time extent
    assert w.sum() == pytest.approx(2 * (2 + 3 + 6))
    if not spatial:
        caps, cw = sets[1]
        assert set(np.unravel_index(caps, shape)[-1]) == {0, g.nt - 1}
        assert cw.sum() == pytest.approx(2 * 6)
    with pytest.raises(ValueError, match="read-only"):
        idx[0] = 0


def test_face_normals_are_unit_axis_vectors():
    g = build_grid([0, 0, 0], [1, 1, 1], [4, 4, 4], 0.0, 1.0, 4)
    for f in range(g.num_faces):
        nu = g.face_normal(f)
        assert np.sum(np.abs(nu)) == 1.0


def test_face_geometry_cached_and_read_only(unit_square_grid):
    g = unit_square_grid
    for f in range(g.num_faces):
        assert g.face_mask(f) is g.face_mask(f)
        assert g.face_weights(f) is g.face_weights(f)
        with pytest.raises(ValueError, match="read-only"):
            g.face_mask(f)[0, 0] = False
        with pytest.raises(ValueError, match="read-only"):
            g.face_weights(f)[0, 0] = 1.0
    assert np.allclose(g.lateral_weights[g.boundary_mask].sum(), 4.0)


# -- separable fields against the per-site builders they replaced --------------------

# non-unit boxes and unequal node counts, so the unit-coordinate map matters
FIELD_GRIDS = {
    1: ([-0.5], [1.5], [13], -1.0, 1.0, 9),
    2: ([0.0, -1.0], [1.0, 2.0], [9, 11], 0.0, 2.0, 7),
    3: ([0.0, 0.0, -0.5], [1.0, 2.0, 0.5], [7, 6, 5], -1.0, 1.0, 5),
}


def _same(a, b) -> bool:
    return a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("spatial", [True, False], ids=["space", "spacetime"])
@pytest.mark.parametrize("complex_fields", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("seed", [3, 20250810])
def test_ensemble_matches_frozen_builders(n, spatial, complex_fields, seed):
    g = build_grid(*FIELD_GRIDS[n])
    assert _same(_window(g, spatial), ref.window(g, spatial))
    new = default_ensemble(g, seed, count=8, complex_fields=complex_fields, spatial=spatial)
    old = ref.default_ensemble(g, seed, count=8, complex_fields=complex_fields,
                               spatial=spatial)
    assert len(new) == len(old) == 8
    assert all(_same(a, b) for a, b in zip(new, old))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sine_modes_and_bumps_match_frozen_builders(n):
    g = build_grid(*FIELD_GRIDS[n])
    for mode in ([1], [2, 3], [3, 1, 2], [2.0, 1, 3, 4]):
        ks = [int(mode[ax]) if ax < len(mode) else 1 for ax in range(n)]
        assert _same(separable(g, [sine_profile(k) for k in ks]), ref.mode_data(g, mode))
    assert _same(sine_mode(g, [1] * n), ref.first_sine_mode(g))
    assert _same(interior_bump_space(g), ref.interior_bump(g, False))
    assert _same(interior_bump_spacetime(g), ref.interior_bump(g, True))
    s = np.linspace(-0.2, 1.2, 57)
    assert _same(smooth_bump(s, 0.15, 0.85), ref.margin_bump(s))


def test_separable_needs_one_profile_per_axis():
    g = build_grid(*FIELD_GRIDS[2])
    with pytest.raises(ValueError, match="one profile per axis"):
        separable(g, [sine_profile(1)])


def test_cli_fields_match_frozen_builders(tmp_path, monkeypatch):
    """The solve, observability and identities commands build their data and
    members exactly as the per-site loops did."""
    seen = {}

    def spy(name, fn, pick):
        def wrapper(*args, **kwargs):
            seen.setdefault(name, pick(*args))
            return fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, wrapper)

    spy("solve_evolution", cli.solve_evolution, lambda kind, f, lower, data, *_: data.u0)
    spy("observability_experiment", cli.observability_experiment,
        lambda kind, f, psi0, alpha, t_obs, ens, *_: [d.u0 for d in ens])
    spy("green_residual", cli.green_residual, lambda u, *_: u)
    spy("conjugation_residual", cli.conjugation_residual, lambda u, *_: u)
    cfg = {
        "seed": 1,
        "grid": {"lows": [0.0, -1.0], "highs": [1.0, 2.0], "nodes": [9, 11],
                 "t1": 0.0, "t2": 1.0, "nt": 33},
        "coefficients": {"family": "identity"},
        "weight": {"family": "example", "x0": [-0.5, 0.5], "lambda": 1.0},
        "equation": {"kind": "wave"},
        "solve": {"kind": "wave", "mode": [2]},
        "observability": {"kind": "wave", "modes": 3},
    }
    for command in ("solve", "observability", "identities"):
        path = tmp_path / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        cli.main([command, "--config", str(path), "--out", str(tmp_path / command)])
    g = cli.build_grid_from(cfg)
    assert _same(seen["solve_evolution"], ref.mode_data(g, [2]))
    modes = [ref.mode_data(g, [1 + (m + ax) % 3 for ax in range(2)]) for m in (1, 2, 3)]
    assert all(_same(a, b) for a, b in zip(seen["observability_experiment"], modes))
    assert _same(seen["green_residual"], ref.first_sine_mode(g))
    assert _same(seen.pop("conjugation_residual"), ref.identities_member(g, "wave"))
    cfg["equation"]["kind"] = "elliptic"
    path.write_text(yaml.safe_dump(cfg))
    cli.main(["identities", "--config", str(path), "--out", str(tmp_path / "elliptic")])
    assert _same(seen["conjugation_residual"], ref.identities_member(g, "elliptic"))


def test_worst_case_default_seed_matches_frozen_builder():
    g = build_grid([0.0], [1.0], [17], 0.0, 2.0, 81)
    field = MatrixField.identity(1, domain=g.domain)
    psi0 = Polynomial.squared_distance([-0.5], scale=0.5)
    seed = WaveData(u0=ref.first_sine_mode(g), u1=np.zeros(g.space_shape))
    new = per_call.worst_case(field, psi0, 2.0, g, 1)
    old = per_call.worst_case(field, psi0, 2.0, g, 1, seed_data=seed)
    assert _same(new.data.u0, old.data.u0)
    assert new.ratio == old.ratio

import numpy as np
import pytest

from carleman.polynomials import Polynomial, poly_from_table


def random_poly(rng, nvars, degree=3, terms=6):
    table = {}
    for _ in range(terms):
        powers = tuple(int(v) for v in rng.integers(0, degree + 1, size=nvars))
        if sum(powers) > degree:
            continue
        table[powers] = float(rng.normal())
    return Polynomial(nvars, table)


def test_evaluation_matches_direct_sum():
    p = poly_from_table(2, [((2, 0), 3.0), ((1, 1), -1.0), ((0, 0), 0.5)])
    pts = np.array([[1.0, 2.0], [0.5, -1.0]])
    expected = 3.0 * pts[:, 0] ** 2 - pts[:, 0] * pts[:, 1] + 0.5
    assert np.allclose(p(pts), expected, rtol=0, atol=1e-15)


def test_diff_matches_finite_differences():
    rng = np.random.default_rng(11)
    for nvars in (1, 2, 3):
        p = random_poly(rng, nvars)
        x = rng.uniform(-1, 1, size=nvars)
        for ax in range(nvars):
            e = np.zeros(nvars)
            e[ax] = 1e-6
            fd = (p(x + e) - p(x - e)) / 2e-6
            assert abs(p.diff(ax)(x) - fd) < 1e-6


def test_gradient_hessian_shapes():
    p = Polynomial.squared_distance([0.5, -0.5], scale=0.5)
    pts = np.zeros((4, 2))
    assert p.eval_gradient(pts).shape == (2, 4)
    assert p.eval_hessian(pts).shape == (2, 2, 4)
    assert np.allclose(p.eval_hessian(pts), np.eye(2)[..., None])


def test_general_composition():
    p = poly_from_table(2, [((1, 0), 1.0), ((0, 2), 1.0)])  # x1 + x2^2
    comps = [
        poly_from_table(2, [((0, 1), 1.0)]),  # y2
        poly_from_table(2, [((1, 0), 2.0)]),  # 2 y1
    ]
    q = p.compose(comps)
    y = np.array([[0.5, 1.5]])
    assert np.allclose(q(y), 1.5 + (2 * 0.5) ** 2)


def test_squared_distance_minimum_at_center():
    p = Polynomial.squared_distance([0.25, 0.75])
    assert p(np.array([0.25, 0.75])) == pytest.approx(0.0, abs=1e-15)
    assert p(np.array([1.25, 0.75])) == pytest.approx(1.0)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        Polynomial(0, {})
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1.0})
    with pytest.raises(ValueError):
        Polynomial(1, {(-1,): 1.0})

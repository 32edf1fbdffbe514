import pytest

from carleman import MatrixField, build_grid
from carleman.geometry import separable, sine_profile, smooth_bump


def _interior(s):  # zero outside (0.12, 0.88): a 2-node margin at 17 nodes
    return smooth_bump(s, 0.12, 0.88)


def interior_bump_spacetime(grid):
    """Product bump vanishing on a 2-node margin around dQ."""
    return separable(grid, [_interior] * grid.n, _interior)


def interior_bump_space(grid):
    return separable(grid, [_interior] * grid.n)


def sine_mode(grid, wavenumbers):
    return separable(grid, [sine_profile(k) for k in wavenumbers])


@pytest.fixture
def unit_square_grid():
    return build_grid([0.0, 0.0], [1.0, 1.0], [17, 17], -1.0, 1.0, 33)


@pytest.fixture
def identity_2d(unit_square_grid):
    return MatrixField.identity(2, domain=unit_square_grid.domain)

"""Frozen stencil leapfrog, kept as a reference oracle.

This is the wave solver that re-applies the flux stencil to the full
spatial level at every step, re-evaluating the coefficient polynomials each
time, and takes boundary traces one time level at a time.  The stencil and
the energies come from the frozen ``reference_stencil``, so the oracle does
not share the package's discrete operator.  ``carleman.solvers`` steps on
the assembled interior matrix instead; the equivalence tests in
``test_solvers.py`` compare the two.
"""

from __future__ import annotations

import numpy as np

from carleman.operators import LowerOrderCoeffs
from carleman.solvers import cfl_limit
from reference_stencil import (
    coeff_space,
    face_trace,
    is_zero_coeff,
    laplacian_flux,
    spatial_operator,
)


def _zero_ring(u_level: np.ndarray, n: int) -> None:
    for ax in range(n):
        idx = [slice(None)] * n
        idx[ax] = 0
        u_level[tuple(idx)] = 0
        idx[ax] = -1
        u_level[tuple(idx)] = 0


def _energy_series(u, velocity, field, grid) -> np.ndarray:
    lap = laplacian_flux(field, u, grid)
    cell = float(np.prod(grid.domain.spacings))
    space = tuple(range(grid.n))
    grad_part = np.maximum(-np.sum((lap * np.conj(u)).real, axis=space) * cell, 0.0)
    vel_part = np.sum(np.abs(velocity) ** 2 * grid.space_weights[..., None], axis=space)
    return np.sqrt(grad_part + vel_part)


def reference_wave(field, lower, data, grid):
    """Return ``(u, velocity, traces, energies)`` of the stencil leapfrog."""
    if grid.dt > cfl_limit(field, grid):
        raise ValueError("CFL violation")
    u0 = np.asarray(data.u0)
    u1 = np.asarray(data.u1)
    dtype = np.complex128 if (np.iscomplexobj(u0) or np.iscomplexobj(u1)) else np.float64
    lower = lower or LowerOrderCoeffs.none("wave")
    dt = grid.dt

    u = np.zeros(grid.shape, dtype=dtype)
    u[..., 0] = u0
    _zero_ring(u[..., 0], grid.n)

    q0 = coeff_space(lower.time, grid) if not is_zero_coeff(lower.time) else None
    source = None if data.source is None else np.asarray(data.source)

    acc0 = spatial_operator(field, lower, u[..., 0], grid)
    if q0 is not None:
        acc0 = acc0 + q0 * u1
    if source is not None:
        acc0 = acc0 - source[..., 0]
    u[..., 1] = u[..., 0] + dt * u1 + 0.5 * dt**2 * acc0
    _zero_ring(u[..., 1], grid.n)

    if q0 is not None:
        denom = 1.0 - 0.5 * dt * q0
    for m in range(1, grid.nt - 1):
        rhs = dt**2 * spatial_operator(field, lower, u[..., m], grid)
        if source is not None:
            rhs = rhs - dt**2 * source[..., m]
        if q0 is None:
            u[..., m + 1] = 2.0 * u[..., m] - u[..., m - 1] + rhs
        else:
            u[..., m + 1] = (
                rhs + 2.0 * u[..., m] - (1.0 + 0.5 * dt * q0) * u[..., m - 1]
            ) / denom
        _zero_ring(u[..., m + 1], grid.n)

    velocity = np.zeros_like(u)
    velocity[..., 0] = u1
    velocity[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * dt)
    velocity[..., -1] = (3.0 * u[..., -1] - 4.0 * u[..., -2] + u[..., -3]) / (2.0 * dt)

    traces = [
        np.stack(
            [np.asarray(face_trace(u[..., m], grid, f)).reshape(-1) for m in range(grid.nt)],
            axis=-1,
        )
        for f in range(grid.num_faces)
    ]
    return u, velocity, traces, _energy_series(u, velocity, field, grid)

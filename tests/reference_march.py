"""Frozen vector-mode level loop of the time-marching core, kept as an oracle.

This is ``solve_evolution`` as it stood while its level loop still had two
modes: one run advanced as an ``(N_int,)`` vector, K runs as an
``(N_int, K)`` block.  ``carleman.solvers`` now runs one datum as a K = 1
block; the property in ``test_solvers.py`` requires that its arrays are
bitwise equal to this copy's.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from carleman.operators import (
    _coeff_space,
    _is_zero_coeff,
    _matvec,
    assemble_operator,
    gradient_time,
    laplacian_flux,
)
from carleman.solvers import cfl_limit
from reference_stencil import face_trace


def _finite(level):
    assert np.isfinite(level).all()
    return level


def _dirichlet_form(lap, u, grid):
    cell = float(np.prod(grid.domain.spacings))
    form = -np.sum((lap * np.conj(u)).real, axis=tuple(range(grid.n))) * cell
    return np.maximum(form, 0.0)


def _levels(kind, field, lower, data, grid):
    """``(all-node operator, dtype, generator of the interior levels)`` of one run."""
    wave = kind == "wave"
    dt = grid.dt
    if wave:
        assert dt <= cfl_limit(field, grid)
    inner = (slice(1, -1),) * grid.n
    u0 = np.asarray(data.u0)
    u1 = np.asarray(data.u1) if wave else None
    source = getattr(data, "source", None)
    source = None if source is None else np.asarray(source)
    full = assemble_operator(field, lower, grid)
    idx = np.flatnonzero(~grid.boundary_mask)
    mat = full[idx][:, idx]

    q0 = None
    if wave and lower is not None and not _is_zero_coeff(lower.time):
        q0 = np.broadcast_to(_coeff_space(lower.time, grid), grid.space_shape)
        denom = 1.0 - 0.5 * dt * q0
        q0, denom = q0[inner].reshape(-1), denom[inner].reshape(-1)
        lag = 1.0 + 0.5 * dt * q0
    complex_run = kind == "schrodinger" or mat.dtype.kind == "c" or any(
        np.iscomplexobj(a) for a in (u0, u1, source, q0) if a is not None
    )
    dtype = np.complex128 if complex_run else np.float64

    forced = source is not None
    if forced:
        interior = source[inner].reshape(mat.shape[0], -1)

    if wave:
        v1 = u1[inner].reshape(-1)
        step = dt**2 * mat
    else:
        half = 0.5 * (1j if kind == "schrodinger" else 1) * dt
        eye = sp.identity(mat.shape[0], format="csr", dtype=dtype)
        solver = spla.splu((eye - half * mat).tocsc())
        rhs_mat = (eye + half * mat).tocsr()

    def levels():
        prev, cur = None, u0[inner].reshape(-1).astype(dtype)
        yield _finite(cur)
        for m in range(grid.nt - 1):
            if not wave:
                rhs = rhs_mat @ cur
                if forced:
                    rhs = rhs - dt * (0.5 * (interior[:, m] + interior[:, m + 1]))
                nxt = solver.solve(rhs)
            elif m == 0:  # Taylor start from u1
                acc0 = mat @ cur
                if q0 is not None:
                    acc0 = acc0 + q0 * v1
                if forced:
                    acc0 = acc0 - interior[:, 0]
                nxt = cur + dt * v1 + 0.5 * dt**2 * acc0
            else:
                rhs = step @ cur
                if forced:
                    rhs = rhs - dt**2 * interior[:, m]
                if q0 is None:
                    nxt = 2.0 * cur - prev + rhs
                else:
                    nxt = (rhs + 2.0 * cur - lag * prev) / denom
            prev, cur = cur, nxt
            yield _finite(nxt)

    return full, dtype, levels()


def reference_evolution(kind, field, lower, data, grid):
    """``(u, velocity or None, energy values, traces)`` of the frozen core."""
    full, dtype, levels = _levels(kind, field, lower, data, grid)
    inner = (slice(1, -1),) * grid.n
    inner_shape = [m - 2 for m in grid.space_shape]
    u = np.zeros(grid.shape, dtype=dtype)
    for m, level in enumerate(levels):
        u[inner + (m,)] = level.reshape(inner_shape)
    assert not np.any(u[grid.boundary_mask] != 0)
    space, w = tuple(range(grid.n)), grid.space_weights[..., None]
    velocity = None
    if kind == "wave":
        velocity = gradient_time(u, grid)
        velocity[..., 0] = np.asarray(data.u1)
        if lower is None or (all(_is_zero_coeff(c) for c in lower.space)
                             and _is_zero_coeff(lower.zero)):
            form = _dirichlet_form(_matvec(full, u), u, grid)
        else:
            form = _dirichlet_form(laplacian_flux(field, u, grid), u, grid)
        energy = np.sqrt(form + np.sum(np.abs(velocity) ** 2 * w, axis=space))
    else:
        energy = np.sqrt(np.sum(np.abs(u) ** 2 * w, axis=space))
    traces = [face_trace(u, grid, f).reshape(-1, grid.nt) for f in range(grid.num_faces)]
    return u, velocity, energy, traces

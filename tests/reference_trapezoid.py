"""Frozen heat and Schrodinger solvers, kept as a reference oracle.

These are the two trapezoidal steppers as they stood before the solvers
shared one time-marching core: one copy for heat with ``0.5 * dt`` and its
source term, one for Schrodinger with ``0.5j * dt``, each with its own
factorization, level loop, traces and L2 norms.  ``carleman.solvers`` runs
both through one trapezoid rule instead; the equivalence tests in
``test_solvers.py`` require bitwise agreement with this copy.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from carleman.operators import assemble_operator
from reference_leapfrog import _zero_ring
from reference_stencil import face_trace


def _interior_operator(field, lower, grid):
    idx = np.flatnonzero(~grid.boundary_mask)
    return assemble_operator(field, lower, grid)[idx][:, idx]


def _epilogue(u, grid):
    """``(u, traces, l2 norms)``; the Dirichlet ring must be exactly zero."""
    assert np.all(np.isfinite(u))
    assert float(np.max(np.abs(u[grid.boundary_mask, :]))) == 0.0
    traces = [face_trace(u, grid, f).reshape(-1, grid.nt) for f in range(grid.num_faces)]
    w = grid.space_weights[..., None]
    norms = np.sqrt(np.sum(np.abs(u) ** 2 * w, axis=tuple(range(grid.n))))
    return u, traces, norms


def reference_heat(field, lower, data, grid):
    """Return ``(u, traces, l2 norms)`` of the frozen trapezoidal heat solver."""
    u0 = np.asarray(data.u0)
    source = None if data.source is None else np.asarray(data.source)
    mat = _interior_operator(field, lower, grid)
    dtype = np.complex128 if (np.iscomplexobj(u0) or mat.dtype.kind == "c"
                              or (source is not None and np.iscomplexobj(source))) else np.float64
    dt = grid.dt
    eye = sp.identity(mat.shape[0], format="csr", dtype=dtype)
    lhs = (eye - 0.5 * dt * mat).tocsc()
    rhs_mat = (eye + 0.5 * dt * mat).tocsr()
    solver = spla.splu(lhs)

    inner = tuple(slice(1, -1) for _ in grid.space_shape)
    inner_shape = [m - 2 for m in grid.space_shape]
    u = np.zeros(grid.shape, dtype=dtype)
    u[..., 0] = u0
    _zero_ring(u[..., 0], grid.n)
    vec = u[inner + (0,)].flatten()
    for m in range(grid.nt - 1):
        rhs = rhs_mat @ vec
        if source is not None:
            f_mid = 0.5 * (source[inner + (m,)] + source[inner + (m + 1,)])
            rhs = rhs - dt * f_mid.reshape(-1)
        vec = solver.solve(rhs)
        u[inner + (m + 1,)] = vec.reshape(inner_shape)
    return _epilogue(u, grid)


def reference_schrodinger(field, lower, data, grid):
    """Return ``(u, traces, l2 norms)`` of the frozen Crank-Nicolson
    Schrodinger solver."""
    u0 = np.asarray(data.u0, dtype=np.complex128)
    mat = _interior_operator(field, lower, grid).astype(np.complex128)
    dt = grid.dt
    eye = sp.identity(mat.shape[0], format="csr", dtype=np.complex128)
    lhs = (eye - 0.5j * dt * mat).tocsc()
    rhs_mat = (eye + 0.5j * dt * mat).tocsr()
    solver = spla.splu(lhs)

    inner = tuple(slice(1, -1) for _ in grid.space_shape)
    inner_shape = [m - 2 for m in grid.space_shape]
    u = np.zeros(grid.shape, dtype=np.complex128)
    u[..., 0] = u0
    _zero_ring(u[..., 0], grid.n)
    vec = u[inner + (0,)].flatten()
    for m in range(grid.nt - 1):
        vec = solver.solve(rhs_mat @ vec)
        u[inner + (m + 1,)] = vec.reshape(inner_shape)
    return _epilogue(u, grid)

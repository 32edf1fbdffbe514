"""Frozen slicing stencil of Delta_A plus lower-order terms, kept as a
reference oracle.

This is the spatial operator as it was applied before it was assembled as a
matrix: the diagonal terms difference half-node fluxes a_kk(x +- h/2) du,
the mixed terms nest centered differences around the nodal coefficient, and
the first- and zero-order terms are added on the nodes.  Outputs are zero
on the boundary ring.  ``carleman.operators.assemble_operator`` is checked
against it in ``test_solvers.py`` and ``reference_leapfrog.py`` steps with it.
"""

from __future__ import annotations

import numpy as np

from carleman.polynomials import Polynomial


def _sl(ndim: int, axis: int, sl: slice) -> tuple:
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


def central_full(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Centered differences with 3-point one-sided ends, full shape."""
    nd = u.ndim
    out = np.empty_like(u, dtype=np.result_type(u, np.float64))
    out[_sl(nd, axis, slice(1, -1))] = (
        u[_sl(nd, axis, slice(2, None))] - u[_sl(nd, axis, slice(None, -2))]
    ) / (2.0 * h)
    out[_sl(nd, axis, slice(0, 1))] = (
        -3.0 * u[_sl(nd, axis, slice(0, 1))]
        + 4.0 * u[_sl(nd, axis, slice(1, 2))]
        - u[_sl(nd, axis, slice(2, 3))]
    ) / (2.0 * h)
    out[_sl(nd, axis, slice(-1, None))] = (
        3.0 * u[_sl(nd, axis, slice(-1, None))]
        - 4.0 * u[_sl(nd, axis, slice(-2, -1))]
        + u[_sl(nd, axis, slice(-3, -2))]
    ) / (2.0 * h)
    return out


def _half_points(grid, axis: int) -> np.ndarray:
    pts = grid.space_points
    nd = pts.ndim - 1
    return 0.5 * (
        pts[_sl(nd, axis, slice(1, None)) + (slice(None),)]
        + pts[_sl(nd, axis, slice(None, -1)) + (slice(None),)]
    )


def _bcast(coeff: np.ndarray, extra: int) -> np.ndarray:
    coeff = np.asarray(coeff)
    return coeff.reshape(coeff.shape + (1,) * extra)


def zero_space_ring(u: np.ndarray, n: int) -> None:
    for ax in range(n):
        u[_sl(u.ndim, ax, slice(0, 1))] = 0
        u[_sl(u.ndim, ax, slice(-1, None))] = 0


def is_zero_coeff(c) -> bool:
    if c is None:
        return True
    if isinstance(c, Polynomial):
        return c.is_zero()
    return complex(c) == 0


def coeff_space(c, grid) -> np.ndarray:
    """Coefficient values on space nodes (scalars stay 0-d broadcastable)."""
    if c is None:
        return np.zeros(())
    if isinstance(c, Polynomial):
        return c(grid.space_points)
    return np.asarray(c)


def laplacian_flux(field, u: np.ndarray, grid) -> np.ndarray:
    """Flux-form Delta_A on space(+trailing) arrays; zero on the boundary ring."""
    n = grid.n
    u = np.asarray(u)
    if u.shape[:n] != grid.space_shape:
        raise ValueError("array does not match the spatial grid")
    extra = u.ndim - n
    h = grid.domain.spacings
    out = np.zeros_like(u, dtype=np.result_type(u, np.float64))
    for k in range(n):
        a_half = field.entry(k, k)(_half_points(grid, k))
        du = (
            u[_sl(u.ndim, k, slice(1, None))] - u[_sl(u.ndim, k, slice(None, -1))]
        ) / h[k]
        flux = _bcast(a_half, extra) * du
        div = (
            flux[_sl(u.ndim, k, slice(1, None))] - flux[_sl(u.ndim, k, slice(None, -1))]
        ) / h[k]
        out[_sl(u.ndim, k, slice(1, -1))] += div
    for k in range(n):
        for l in range(n):
            if l == k or field.entry(k, l).is_zero():
                continue
            dcl = (
                u[_sl(u.ndim, l, slice(2, None))] - u[_sl(u.ndim, l, slice(None, -2))]
            ) / (2.0 * h[l])
            pts_l = grid.space_points[_sl(n, l, slice(1, -1)) + (slice(None),)]
            t = _bcast(field.entry(k, l)(pts_l), extra) * dcl
            mixed = (
                t[_sl(u.ndim, k, slice(2, None))] - t[_sl(u.ndim, k, slice(None, -2))]
            ) / (2.0 * h[k])
            idx = [slice(None)] * u.ndim
            idx[k] = slice(1, -1)
            idx[l] = slice(1, -1)
            out[tuple(idx)] += mixed
    zero_space_ring(out, n)
    return out


def spatial_operator(field, lower, u: np.ndarray, grid) -> np.ndarray:
    """Delta_A u plus the first- and zero-order terms of ``lower`` (may be
    None) on space(+trailing) arrays; zero on the boundary ring."""
    u = np.asarray(u)
    out = laplacian_flux(field, u, grid)
    if lower is not None:
        extra = u.ndim - grid.n
        for ax, c in enumerate(lower.space):
            if is_zero_coeff(c):
                continue
            dc = central_full(u, ax, grid.domain.spacings[ax])
            out = out + _bcast(coeff_space(c, grid), extra) * dc
        if not is_zero_coeff(lower.zero):
            out = out + _bcast(coeff_space(lower.zero, grid), extra) * u
    zero_space_ring(out, grid.n)
    return out

"""Frozen magnetic expansion residual, kept as a reference oracle.

This is the composed-vs-expanded magnetic identity as it stood with its own
nested centered Delta_A (``_nested_centered_laplacian``) and its own copy of
the centered gradient.  ``carleman.operators`` computes both sides with one
centered magnetic helper instead, called with b and with zeros; the
equivalence test in ``test_operators.py`` requires the same float.  It reads
node-major samples (see ``reference_theta``).
"""

from __future__ import annotations

import numpy as np

from reference_stencil import central_full
from reference_theta import node_major


def _nested_centered_laplacian(field, u: np.ndarray, grid) -> np.ndarray:
    """sum_k Dc_k(a_{kl} Dc_l u), all centered at nodes."""
    h = grid.domain.spacings
    a_vals = node_major(field(grid.space_points), 2)
    out = np.zeros_like(u, dtype=np.result_type(u, np.float64))
    for k in range(grid.n):
        inner = np.zeros_like(out)
        for l in range(grid.n):
            inner = inner + a_vals[..., k, l] * central_full(u, l, h[l])
        out = out + central_full(inner, k, h[k])
    return out


def magnetic_expansion_residual(field, b_field, u: np.ndarray, grid) -> float:
    """max |composed - expanded| over nodes two away from the boundary."""
    u = np.asarray(u, dtype=complex)
    h = grid.domain.spacings
    pts = grid.space_points
    a_vals = node_major(field(pts), 2)
    b_vals = np.stack([b(pts) for b in b_field], axis=-1)

    composed = np.zeros_like(u)
    for k in range(grid.n):
        f_k = np.zeros_like(u)
        for l in range(grid.n):
            f_k = f_k + a_vals[..., k, l] * (
                central_full(u, l, h[l]) + 1j * b_vals[..., l] * u
            )
        composed = composed + central_full(f_k, k, h[k]) + 1j * b_vals[..., k] * f_k

    grad_u = np.stack([central_full(u, ax, h[ax]) for ax in range(grid.n)], axis=-1)
    cross = np.einsum("...kl,...l,...k->...", a_vals, grad_u, b_vals)
    b_sq = np.einsum("...k,...kl,...l->...", b_vals, a_vals, b_vals)

    da_vals = node_major(field.first_derivatives(pts), 3)
    db_vals = np.stack(
        [np.stack([b.diff(p)(pts) for p in range(grid.n)], axis=-1) for b in b_field],
        axis=-2,
    )
    div_ab = np.einsum("...klk,...l->...", da_vals, b_vals) + np.einsum(
        "...kl,...lk->...", a_vals, db_vals
    )

    expanded = (
        _nested_centered_laplacian(field, u, grid)
        + 2j * cross
        + (-b_sq + 1j * div_ab) * u
    )
    inner = (composed - expanded)[tuple(slice(2, -2) for _ in range(grid.n))]
    return float(np.max(np.abs(inner))) if inner.size else 0.0

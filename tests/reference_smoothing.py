"""Frozen smoothing-bound check, kept as a reference oracle.

This is ``smoothing_bound_check`` as it stood before axis-separable fields
got their spectrum from one tridiagonal eigensolve per axis: every field
assembled the interior -Delta_A and took all of its eigenvalues, by
``scipy.linalg.eig_banded`` on the band (nodes numbered longest axis
slowest) in 1-D and 2-D, and by the dense ``numpy.linalg.eigvalsh`` in 3-D.
The equivalence tests in ``test_solvers.py`` require ``repr``-identical
reports from ``carleman.solvers`` for fields that are not axis-separable,
and agreement to 1e-12 relative for fields that are.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla

from carleman.operators import assemble_operator
from carleman.solvers import SmoothingBoundReport

MAX_DENSE_UNKNOWNS = 4096


def _upper_band(mat, grid):
    inner = [m - 2 for m in grid.space_shape]
    size = mat.shape[0]
    longest = int(np.argmax(inner))
    axes = [longest] + [ax for ax in range(grid.n) if ax != longest]
    rank = np.empty(size, dtype=np.intp)
    rank[np.arange(size).reshape(inner).transpose(axes).ravel()] = np.arange(size)
    rows = rank[np.repeat(np.arange(size), np.diff(mat.indptr))]
    cols = rank[mat.indices]
    upper = cols >= rows
    rows, cols = rows[upper], cols[upper]
    width = int(np.max(cols - rows))
    band = np.zeros((width + 1, size), dtype=mat.dtype)
    band[width + rows - cols, cols] = mat.data[upper]
    return band


def smoothing_bound_check(field, grid, t_samples) -> SmoothingBoundReport:
    try:
        t_samples = np.asarray(list(t_samples), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError("t_samples must be a sequence of numbers") from exc
    if t_samples.ndim != 1:
        raise ValueError(f"t_samples must be one-dimensional, got shape {t_samples.shape}")
    if t_samples.size == 0:
        raise ValueError("empty t_samples")
    if not np.all(np.isfinite(t_samples)):
        raise ValueError("t_samples must be finite")
    if np.any(t_samples <= 0):
        raise ValueError("t_samples must be positive")
    size = int(np.prod([m - 2 for m in grid.space_shape]))
    if size > MAX_DENSE_UNKNOWNS:
        raise ValueError(f"{size} unknowns exceed the dense limit {MAX_DENSE_UNKNOWNS}")
    idx = np.flatnonzero(~grid.boundary_mask)
    mat = -assemble_operator(field, None, grid)[idx][:, idx]
    if grid.n == 3:
        mu = np.linalg.eigvalsh(mat.toarray())
    else:
        mu = sla.eig_banded(_upper_band(mat, grid), eigvals_only=True, check_finite=False)
    mu = mu[mu > 0.0]
    vals = np.sqrt(t_samples[:, None]) * np.sqrt(mu[None, :]) * np.exp(
        -t_samples[:, None] * mu[None, :]
    )
    it, im = np.unravel_index(int(np.argmax(vals)), vals.shape)
    return SmoothingBoundReport(
        aleph0_emp=float(vals[it, im]),
        envelope=float((2.0 * np.e) ** -0.5),
        argmax_t=float(t_samples[it]),
        argmax_mu=float(mu[im]),
        num_eigenvalues=int(mu.size),
    )

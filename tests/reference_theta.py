"""Frozen node-major kernels, kept as reference oracles.

Node samples (and ``gradient_space``) were node-major: A at points of shape ``(*S, n)`` was
``(*S, n, n)``, its first derivatives ``(*S, n, n, n)``, a gradient
``(*S, n)`` and a Hessian ``(*S, n, n)``.  Theta was assembled with ``matmul``
over stacks of n x n matrices, and the contractions of the weight pieces,
the Gamma+ flux and the identity residuals were ``einsum`` calls.  The
package now keeps samples entry-planar and computes each of these as sums
over planes; the equivalence tests compare it with the code below, fed the
same samples moved to node-major with ``node_major``.
"""

from __future__ import annotations

import numpy as np

from carleman.operators import _matvec, gradient_space


def node_major(x: np.ndarray, axes: int) -> np.ndarray:
    """An entry-planar sample with its ``axes`` leading component axes moved
    behind the point axes, in a C-contiguous copy as the samples were laid
    out (an einsum over a strided view may add in another order)."""
    return np.moveaxis(x, tuple(range(axes)), tuple(range(-axes, 0))).copy()


def upsilon_theta(a, da, grad_h, hess_h):
    """(Upsilon, Theta) by matmul over node-major stacks."""
    a_g = a @ grad_h[..., :, None]
    d_ag = (da @ a_g[..., None, :, :])[..., 0]
    d_g = (grad_h[..., None, None, :] @ da)[..., 0, :]
    ups = -d_ag + 2.0 * (a @ d_g.swapaxes(-1, -2))
    return ups, 2.0 * (a @ hess_h @ a) + ups


def grad_sq_a(grad, a):
    return np.einsum("...k,...kl,...l->...", grad, a, grad)


def spatial_weight_pieces(a_vals, da_vals, grad0, hess0):
    gsq = np.einsum("...k,...kl,...l->...", grad0, a_vals, grad0)
    lap_a_psi0 = np.einsum("...kl,...kl->...", a_vals, hess0) + np.einsum(
        "...klk,...l->...", da_vals, grad0
    )
    a_grad0 = np.einsum("...kl,...l->...k", a_vals, grad0)
    return gsq, lap_a_psi0, a_grad0


def gamma_plus_masks(a_vals, grads, grid):
    flux_vec = np.einsum("...kl,...l->...k", a_vals, grads)
    return [np.einsum("...k,k->...", flux_vec[grid.face_mask(f)], grid.face_normal(f)) > 0.0
            for f in range(grid.num_faces)]


def green_residual(u, v, a_vals, mat, grid):
    lap = _matvec(mat, u)
    interior = complex(np.sum(lap * np.conj(v) * grid.space_weights))
    grad_u = node_major(gradient_space(u, grid), 1)
    grad_v = node_major(gradient_space(v, grid), 1)
    cross = np.einsum("...k,...kl,...l->...", grad_u, a_vals, np.conj(grad_v))
    volume = complex(np.sum(cross * grid.space_weights))
    boundary = 0.0 + 0.0j
    for f in range(grid.num_faces):
        mask = grid.face_mask(f)
        w = grid.face_weights(f)[mask]
        nu = grid.face_normal(f)
        flux = np.einsum("...kl,...l,k->...", a_vals[mask], grad_u[mask], nu)
        boundary += complex(np.sum(flux * np.conj(v[mask]) * w))
    return abs(interior + volume - boundary)


def riemannian_identity_residual(a_vals, da_vals, mat, u, grid):
    """The Riemannian defect with the node-major cofactor metric."""
    a = a_vals
    cof = np.empty_like(a)
    for k in range(3):
        k1, k2 = (k + 1) % 3, (k + 2) % 3
        for l in range(3):
            l1, l2 = (l + 1) % 3, (l + 2) % 3
            cof[..., k, l] = a[..., k1, l1] * a[..., k2, l2] - a[..., k1, l2] * a[..., k2, l1]
    det = sum(a[..., 0, l] * cof[..., 0, l] for l in range(3))
    expo = 1.0
    sqrt_det_g = np.abs(det) ** expo
    s = np.abs(det) ** (-expo)
    ddet = np.einsum("...kl,...klp->...p", cof, da_vals)
    sign = np.sign(det)[..., None]
    grad_s = -expo * np.abs(det)[..., None] ** (-expo - 1.0) * sign * ddet
    lap_u = _matvec(mat, u)
    lap_su = _matvec(mat, s * u)
    lap_s = _matvec(mat, s)
    grad_u = node_major(gradient_space(u, grid), 1)
    cross = np.einsum("...k,...kl,...l->...", grad_s, a_vals, grad_u)
    delta_g = lap_su - 2.0 * cross - u * lap_s
    resid = lap_u - sqrt_det_g * delta_g
    inner = resid[tuple(slice(2, -2) for _ in range(grid.n))]
    return float(np.max(np.abs(inner))) if inner.size else 0.0

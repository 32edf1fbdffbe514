"""Frozen per-cell side evaluation, kept as a reference oracle.

This is the direct evaluation of both sides of an audited inequality for
one member at one (tau, lambda): every integrand is formed on the full grid
and integrated face by face.  ``carleman.audit`` computes the same sides
from per-member densities shared across cells; the equivalence tests in
``test_audit.py`` compare the two.
"""

from __future__ import annotations

import numpy as np

from carleman.audit import (
    _BOUNDARY_KINDS,
    INEQUALITY_KINDS,
    CarlemanSideValues,
    _check_finite_sides,
    _check_vanishing,
)
from carleman.operators import (
    _apply_assembled,
    _checked_lower,
    assemble_operator,
    gradient_space,
    gradient_time,
)
from reference_stencil import face_trace
from reference_theta import node_major


def _sigma_plus_trace_sq(
    u: np.ndarray, grid: SpaceTimeGrid, mask: GammaPlusMask, weight_st: np.ndarray
) -> float:
    """tau-lambda-phi weighted squared normal trace over the plus boundary."""
    total = 0.0
    for f in range(grid.num_faces):
        m = mask.face_masks[f]
        if not np.any(m):
            continue
        levels = np.stack(
            [np.asarray(face_trace(u[..., j], grid, f)).reshape(-1) for j in range(grid.nt)],
            axis=-1,
        )
        w_face = grid.face_weights(f)[grid.face_mask(f)]
        w_cell = weight_st[grid.face_mask(f), :]
        contrib = np.abs(levels[m, :]) ** 2 * w_cell[m, :] * w_face[m][:, None]
        total += float(np.sum(contrib * grid.time_weights))
    return total


def reference_sides(
    u: np.ndarray,
    spec: WeightSpec,
    field: MatrixField,
    lower: LowerOrderCoeffs | None,
    kind: str,
    tau: float,
    grid: SpaceTimeGrid,
    plus_mask: GammaPlusMask | None = None,
) -> CarlemanSideValues:
    """Integrate LHS and RHS terms of the selected inequality for one field."""
    if kind not in INEQUALITY_KINDS:
        raise ValueError(f"unknown inequality kind {kind!r}")
    if tau <= 0:
        raise ValueError("tau must be positive")
    op_kind = kind.split("_")[0]
    u = np.asarray(u)
    lam = spec.lam

    if kind == "elliptic":
        return _reference_elliptic(u, spec, field, lower, tau, grid)

    if u.shape != grid.shape:
        raise ValueError(f"expected space-time shape {grid.shape}, got {u.shape}")
    if kind in _BOUNDARY_KINDS:
        _check_vanishing(u, kind, grid)
    if kind == "wave_single_param":
        bmask = grid.boundary_mask
        if float(np.max(np.abs(u[bmask, :]))) > 0 or float(
            np.max(np.abs(u[..., [0, -1]]))
        ) > 0:
            raise ValueError("single-parameter audit needs fields vanishing on dQ")

    with np.errstate(over="ignore", invalid="ignore"):
        psi = spec.psi0(grid.space_points)[..., None] + spec.psi1(grid.times) + spec.shift
        phi = np.exp(spec.lam * psi)
    phi_max = float(np.max(phi))
    env = np.exp(2.0 * tau * (phi - phi_max))

    a_vals = node_major(field(grid.space_points), 2)
    grad = node_major(gradient_space(u, grid), 1)
    dtu = gradient_time(u, grid)
    grad_a_sq = np.einsum("...k,...kl,...l->...", grad, a_vals[..., None, :, :], np.conj(grad)).real
    grad_sq = np.sum(np.abs(grad) ** 2, axis=-1)
    usq = np.abs(u) ** 2
    dtsq = np.abs(dtu) ** 2
    w = grid.space_weights[..., None] * grid.time_weights

    with np.errstate(over="ignore", invalid="ignore"):
        if kind == "wave_single_param":
            lhs_density = tau**4 * usq + tau**2 * (grad_sq + dtsq)
        elif kind.startswith("wave"):
            lhs_density = tau**3 * lam**4 * phi**3 * usq + tau * lam * phi * (
                grad_a_sq + dtsq
            )
        elif kind.startswith("parabolic"):
            lhs_density = tau**3 * lam**4 * phi**3 * usq + tau * lam**2 * phi * grad_sq
        else:  # schrodinger
            lhs_density = tau**3 * lam**4 * phi**3 * usq + tau * lam * phi * grad_sq
        lhs = float(np.sum(env * lhs_density * w))

    lower = _checked_lower(op_kind, lower, grid)
    lu = _apply_assembled(op_kind, assemble_operator(field, lower, grid), lower.time, u, grid)
    src_density = np.abs(lu) ** 2
    rhs_source = float(np.sum(env * src_density * w))
    if kind == "wave_single_param":
        rhs_source *= tau

    rhs_dmu = 0.0
    rhs_sigma_plus = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        if kind in ("wave_full", "wave_lower_order"):
            bdens = tau**3 * lam**3 * phi**3 * usq + tau * lam * phi * (
                grad_a_sq + dtsq
            )
            rhs_dmu = _integrate_dmu_weighted(env * bdens, grid)
        elif kind in ("parabolic_full", "schrodinger_full"):
            bdens = tau**3 * lam**3 * phi**3 * usq + tau * lam * phi * grad_sq
            rhs_dmu = _integrate_dmu_weighted(env * bdens, grid)
            inv_dens = env * dtsq / (tau * lam * phi)
            rhs_dmu += _integrate_lateral_weighted(inv_dens, grid)
        elif kind in _BOUNDARY_KINDS:
            if plus_mask is None:
                raise ValueError("boundary kinds need the plus-boundary mask")
            weight_st = env * tau * lam * phi
            rhs_sigma_plus = _sigma_plus_trace_sq(u, grid, plus_mask, weight_st)

    values = CarlemanSideValues(
        kind=kind,
        tau=tau,
        lam=lam,
        lhs_interior=lhs,
        rhs_source=rhs_source,
        rhs_boundary_dmu=rhs_dmu,
        rhs_boundary_sigma_plus=rhs_sigma_plus,
        phi_max=phi_max,
    )
    _check_finite_sides(values)
    return values


def _integrate_dmu_weighted(dens: np.ndarray, grid: SpaceTimeGrid) -> float:
    total = _integrate_lateral_weighted(dens, grid)
    total += float(np.sum(dens[..., 0] * grid.space_weights))
    total += float(np.sum(dens[..., -1] * grid.space_weights))
    return total


def _integrate_lateral_weighted(dens: np.ndarray, grid: SpaceTimeGrid) -> float:
    total = 0.0
    for f in range(grid.num_faces):
        gm = grid.face_mask(f)
        w = grid.face_weights(f)[gm]
        total += float(np.sum(dens[gm, :] * w[:, None] * grid.time_weights))
    return total


def _reference_elliptic(
    u: np.ndarray,
    spec: WeightSpec,
    field: MatrixField,
    lower: LowerOrderCoeffs | None,
    tau: float,
    grid: SpaceTimeGrid,
) -> CarlemanSideValues:
    if u.shape != grid.space_shape:
        raise ValueError(f"expected spatial shape {grid.space_shape}, got {u.shape}")
    lam = spec.lam
    with np.errstate(over="ignore", invalid="ignore"):
        phi = np.exp(lam * (spec.psi0(grid.space_points) + spec.shift))
        phi_max = float(np.max(phi))
        env = np.exp(2.0 * tau * (phi - phi_max))
        grad = node_major(gradient_space(u, grid), 1)
        grad_sq = np.sum(np.abs(grad) ** 2, axis=-1)
        usq = np.abs(u) ** 2

        lhs_density = tau**3 * lam**4 * phi**3 * usq + tau * lam**2 * phi * grad_sq
        lhs = float(np.sum(env * lhs_density * grid.space_weights))

        lower = _checked_lower("elliptic", lower, grid)
        lu = _apply_assembled("elliptic", assemble_operator(field, lower, grid), lower.time, u,
                              grid)
        rhs_source = float(np.sum(env * np.abs(lu) ** 2 * grid.space_weights))

        bdens = env * (tau**3 * lam**3 * phi**3 * usq + tau * lam * phi * grad_sq)
        boundary = 0.0
        for f in range(grid.num_faces):
            gm = grid.face_mask(f)
            w = grid.face_weights(f)[gm]
            boundary += float(np.sum(bdens[gm] * w))

    values = CarlemanSideValues(
        kind="elliptic",
        tau=tau,
        lam=lam,
        lhs_interior=lhs,
        rhs_source=rhs_source,
        rhs_boundary_dmu=boundary,
        rhs_boundary_sigma_plus=0.0,
        phi_max=phi_max,
    )
    _check_finite_sides(values)
    return values

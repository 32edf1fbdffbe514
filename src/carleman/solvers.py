"""Dirichlet IBVP solvers: explicit leapfrog wave, trapezoidal heat and
Schrodinger stepping, boundary traces, energies and the semigroup
smoothing-bound check.

Every kind steps on the interior nodes with the spatial operator assembled
once per solve as a CSR matrix (``assemble_spatial_operator``), writing each
level into the space-time array whose boundary ring stays zero.  The
leapfrog is one sparse matvec per step.  Time stepping for the implicit
kinds factorizes the step matrix once with a sparse direct solver and reuses
it; the trapezoidal Schrodinger step is a Cayley transform of the symmetric
discrete operator, so the L2 norm is conserved to rounding, which the
conservation checks rely on.  Boundary traces are taken on the whole
space-time array, one call per face.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coefficients import MatrixField, symmetric_eigenvalues
from .geometry import SpaceTimeGrid
from .operators import (
    LowerOrderCoeffs,
    _coeff_space,
    _is_zero_coeff,
    laplacian_flux,
)
from .polynomials import Polynomial

__all__ = [
    "WaveData",
    "HeatData",
    "SchrodingerData",
    "EvolutionState",
    "EnergyRecord",
    "GammaPlusMask",
    "solve_evolution",
    "gamma_plus",
    "energy_equivalence_check",
    "smoothing_bound_check",
    "assemble_spatial_operator",
    "cfl_limit",
]

SOLVE_KINDS = ("wave", "heat", "schrodinger")
MAX_DENSE_UNKNOWNS = 4096


@dataclass
class WaveData:
    u0: np.ndarray
    u1: np.ndarray
    source: np.ndarray | None = None  # space-time forcing, may be None


@dataclass
class HeatData:
    u0: np.ndarray
    source: np.ndarray | None = None  # space-time array f, may be None


@dataclass
class SchrodingerData:
    u0: np.ndarray


@dataclass
class EnergyRecord:
    kind: str
    values: np.ndarray  # length nt; wave energy or L2 norm per level


@dataclass
class EvolutionState:
    kind: str
    grid: SpaceTimeGrid
    u: np.ndarray  # (*space_shape, nt)
    velocity: np.ndarray | None
    traces: list[np.ndarray]  # per face: (*face_shape, nt)
    energy: EnergyRecord

    def trace_on_face(self, face: int) -> np.ndarray:
        return self.traces[face]


@dataclass
class GammaPlusMask:
    """Observation-boundary mask: nodes where the A-flux of psi0 is positive."""

    face_masks: list[np.ndarray]  # bool per face, face shape
    face_flux: list[np.ndarray]
    node_mask: np.ndarray  # (*space_shape,), owner-face semantics
    faces_all_plus: list[bool]

    def describe(self) -> str:
        bits = []
        for f, (mask, allp) in enumerate(zip(self.face_masks, self.faces_all_plus)):
            count = int(np.sum(mask))
            if count:
                bits.append(f"face {f}: {count} nodes" + (" (all)" if allp else ""))
        return "; ".join(bits) if bits else "empty"

    @property
    def is_empty(self) -> bool:
        return not any(int(np.sum(m)) for m in self.face_masks)


def gamma_plus(field: MatrixField, psi0: Polynomial, grid: SpaceTimeGrid) -> GammaPlusMask:
    """Strict-sign mask of the analytic flux (grad psi0 | nu)_A per face."""
    face_masks: list[np.ndarray] = []
    face_flux: list[np.ndarray] = []
    all_plus: list[bool] = []
    pts = grid.space_points
    a_vals = field(pts)
    grads = psi0.eval_gradient(pts)
    flux_vec = np.einsum("...kl,...l->...k", a_vals, grads)
    node_mask = np.zeros(grid.space_shape, dtype=bool)
    owner = grid.owner_face
    for f in range(grid.num_faces):
        nu = grid.face_normal(f)
        gm = grid.face_mask(f)
        flux = np.einsum("...k,k->...", flux_vec[gm], nu)
        mask = flux > 0.0
        face_masks.append(mask)
        face_flux.append(flux)
        all_plus.append(bool(np.all(mask)) if mask.size else False)
        own_here = owner[gm] == f
        node_mask[gm] |= mask & own_here
    return GammaPlusMask(
        face_masks=face_masks,
        face_flux=face_flux,
        node_mask=node_mask,
        faces_all_plus=all_plus,
    )


def cfl_limit(field: MatrixField, grid: SpaceTimeGrid) -> float:
    """0.9 * h_min / sqrt(n * lambda_max(A)) over the grid."""
    eigs = symmetric_eigenvalues(field(grid.space_points))
    lam_max = float(np.max(eigs[..., -1]))
    h_min = min(grid.domain.spacings)
    return 0.9 * h_min / np.sqrt(grid.n * lam_max)


# -- sparse assembly --------------------------------------------------------------


def _inner(grid: SpaceTimeGrid) -> tuple[slice, ...]:
    """Index of the interior nodes in the leading space axes of an array."""
    return tuple(slice(1, -1) for _ in grid.space_shape)


def _interior_maps(grid: SpaceTimeGrid):
    shape = grid.space_shape
    idx_map = -np.ones(shape, dtype=np.int64)
    count = int(np.prod([m - 2 for m in shape]))
    idx_map[_inner(grid)] = np.arange(count).reshape([m - 2 for m in shape])
    nodes = np.argwhere(idx_map >= 0)
    return idx_map, nodes


def assemble_spatial_operator(
    field: MatrixField, lower: LowerOrderCoeffs | None, grid: SpaceTimeGrid
) -> sp.csr_matrix:
    """Interior-node matrix of Delta_A plus lower-order terms (Dirichlet 0).

    Matches ``apply_operator`` restricted to interior nodes for fields that
    vanish on the boundary.
    """
    lower = lower or LowerOrderCoeffs.none("elliptic")
    n = grid.n
    shape = grid.space_shape
    h = grid.domain.spacings
    idx_map, nodes = _interior_maps(grid)
    rows_idx = idx_map[tuple(nodes.T)]
    size = rows_idx.size

    complex_entries = any(
        c is not None and not isinstance(c, Polynomial) and complex(c).imag != 0
        for c in (*lower.space, lower.zero)
    )
    dtype = np.complex128 if complex_entries else np.float64

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    data: list[np.ndarray] = []

    def add(offsets: np.ndarray, values: np.ndarray) -> None:
        nb = nodes + offsets
        valid = np.all((nb >= 0) & (nb < np.array(shape)), axis=1)
        col = np.full(size, -1, dtype=np.int64)
        col[valid] = idx_map[tuple(nb[valid].T)]
        keep = col >= 0
        rows.append(rows_idx[keep])
        cols.append(col[keep])
        data.append(np.asarray(values, dtype=dtype)[keep])

    pts = grid.space_points

    # diagonal flux terms
    for k in range(n):
        half_hi = pts[tuple(nodes.T)] + 0.0
        half_hi[:, k] += h[k] / 2.0
        half_lo = pts[tuple(nodes.T)] + 0.0
        half_lo[:, k] -= h[k] / 2.0
        a_hi = field.entry(k, k)(half_hi)
        a_lo = field.entry(k, k)(half_lo)
        off = np.zeros(n, dtype=np.int64)
        off[k] = 1
        add(off, a_hi / h[k] ** 2)
        add(-off, a_lo / h[k] ** 2)
        add(np.zeros(n, dtype=np.int64), -(a_hi + a_lo) / h[k] ** 2)

    # mixed terms, nested centered differences
    for k in range(n):
        for l in range(n):
            if l == k or field.entry(k, l).is_zero():
                continue
            for sk in (1, -1):
                shifted = pts[tuple(nodes.T)] + 0.0
                shifted[:, k] += sk * h[k]
                a_sh = field.entry(k, l)(shifted)
                for sl_ in (1, -1):
                    off = np.zeros(n, dtype=np.int64)
                    off[k] = sk
                    off[l] = sl_
                    add(off, sk * sl_ * a_sh / (4.0 * h[k] * h[l]))

    # first-order terms
    for ax, creal in enumerate(lower.space):
        if _is_zero_coeff(creal):
            continue
        cv = np.broadcast_to(_coeff_space(creal, grid), shape)[tuple(nodes.T)]
        off = np.zeros(n, dtype=np.int64)
        off[ax] = 1
        add(off, cv / (2.0 * h[ax]))
        add(-off, -cv / (2.0 * h[ax]))

    # zero-order term
    if not _is_zero_coeff(lower.zero):
        qv = np.broadcast_to(_coeff_space(lower.zero, grid), shape)[tuple(nodes.T)]
        add(np.zeros(n, dtype=np.int64), qv)

    mat = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    )
    return mat.tocsr()


# -- traces and energies -----------------------------------------------------------


def _face_trace(u_level: np.ndarray, grid: SpaceTimeGrid, face: int) -> np.ndarray:
    """Outward normal derivative on one face, 3-point one-sided."""
    axis, side = grid.face_axis_side(face)
    h = grid.domain.spacings[axis]
    nd = u_level.ndim

    def take(i: int) -> np.ndarray:
        idx = [slice(None)] * nd
        idx[axis] = i
        return u_level[tuple(idx)]

    if side == 0:
        inward = (-3.0 * take(0) + 4.0 * take(1) - take(2)) / (2.0 * h)
        return -inward
    m = u_level.shape[axis]
    return (3.0 * take(m - 1) - 4.0 * take(m - 2) + take(m - 3)) / (2.0 * h)


def dirichlet_seminorm_sq(u: np.ndarray, field: MatrixField, grid: SpaceTimeGrid) -> np.ndarray:
    """Discrete Dirichlet form -<Delta_A u, u> with uniform cell volume.

    For Dirichlet fields this is the quadratic form of the symmetric flux
    stencil, the quantity the leapfrog conserves semidiscretely; it agrees
    with the integral of |grad u|_A^2 to second order.  Accepts trailing
    axes; reduces over space.
    """
    lap = laplacian_flux(field, u, grid)
    cell = float(np.prod(grid.domain.spacings))
    form = -np.sum((lap * np.conj(u)).real, axis=tuple(range(grid.n))) * cell
    return np.maximum(form, 0.0)


def _wave_energy_series(
    u: np.ndarray, velocity: np.ndarray, field: MatrixField, grid: SpaceTimeGrid
) -> np.ndarray:
    grad_part = dirichlet_seminorm_sq(u, field, grid)
    w = grid.space_weights[..., None]
    vel_part = np.sum(np.abs(velocity) ** 2 * w, axis=tuple(range(grid.n)))
    return np.sqrt(grad_part + vel_part)


def _l2_norm_series(u: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """L2 norm of every time level of a space-time array."""
    w = grid.space_weights[..., None]
    return np.sqrt(np.sum(np.abs(u) ** 2 * w, axis=tuple(range(grid.n))))


def _collect_traces(u: np.ndarray, grid: SpaceTimeGrid) -> list[np.ndarray]:
    """Per-face traces as flat node-major arrays of shape (nodes, nt)."""
    return [_face_trace(u, grid, f).reshape(-1, grid.nt) for f in range(grid.num_faces)]


# -- solvers -------------------------------------------------------------------------


def solve_evolution(
    kind: str,
    field: MatrixField,
    lower: LowerOrderCoeffs | None,
    data,
    t_final: float,
    grid: SpaceTimeGrid,
) -> EvolutionState:
    """Run the IBVP with homogeneous Dirichlet boundary on the grid's times.

    wave: explicit leapfrog, one matvec per step with the assembled CSR
    operator of the flux stencil (CFL checked);
    heat/schrodinger: trapezoidal implicit steps with one sparse
    factorization reused for all levels.
    """
    if kind not in SOLVE_KINDS:
        raise ValueError(f"unknown evolution kind {kind!r}")
    if abs(grid.t1) > 1e-12 or abs(grid.t2 - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ValueError("grid time interval must be (0, t_final)")

    if kind == "wave":
        return _solve_wave(field, lower, data, grid)
    if kind == "heat":
        return _solve_heat(field, lower, data, grid)
    return _solve_schrodinger(field, lower, data, grid)


def _solve_wave(field, lower, data: WaveData, grid: SpaceTimeGrid) -> EvolutionState:
    limit = cfl_limit(field, grid)
    if grid.dt > limit:
        need = int(np.ceil((grid.t2 - grid.t1) / limit)) + 1
        raise ValueError(
            f"CFL violation: dt={grid.dt:.6g} exceeds {limit:.6g}; "
            f"use nt >= {need}"
        )
    u0 = np.asarray(data.u0)
    u1 = np.asarray(data.u1)
    if u0.shape != grid.space_shape or u1.shape != grid.space_shape:
        raise ValueError("initial data does not match the spatial grid")
    dtype = np.complex128 if (np.iscomplexobj(u0) or np.iscomplexobj(u1)) else np.float64
    lower = lower or LowerOrderCoeffs.none("wave")
    dt = grid.dt
    inner = _inner(grid)
    inner_shape = [m - 2 for m in grid.space_shape]

    u = np.zeros(grid.shape, dtype=dtype)
    u[..., 0] = u0
    _apply_dirichlet(u[..., 0], grid)

    q0 = None
    if not _is_zero_coeff(lower.time):
        q0 = np.broadcast_to(_coeff_space(lower.time, grid), grid.space_shape)
        denom = 1.0 - 0.5 * dt * q0
        if np.any(np.abs(denom) < 1e-14):
            raise ValueError("time coefficient makes the leapfrog update singular")
        q0, denom = q0[inner].reshape(-1), denom[inner].reshape(-1)
        lag = 1.0 + 0.5 * dt * q0
    source = data.source
    if source is not None:
        source = np.asarray(source)
        if source.shape != grid.shape:
            raise ValueError("wave source must be a space-time array")

    # interior levels m - 1 and m as contiguous vectors; level m + 1 is
    # written straight into u, whose boundary ring stays zero
    mat = assemble_spatial_operator(field, _as_elliptic_lower(lower), grid)
    prev = u[inner + (0,)].flatten()
    acc0 = mat @ prev
    if q0 is not None:
        acc0 = acc0 + q0 * u1[inner].reshape(-1)
    if source is not None:
        acc0 = acc0 - source[inner + (0,)].reshape(-1)
    cur = prev + dt * u1[inner].reshape(-1) + 0.5 * dt**2 * acc0
    u[inner + (1,)] = cur.reshape(inner_shape)
    cur = cur.astype(dtype, copy=False)

    step = dt**2 * mat
    for m in range(1, grid.nt - 1):
        rhs = step @ cur
        if source is not None:
            rhs = rhs - dt**2 * source[inner + (m,)].reshape(-1)
        if q0 is None:
            nxt = 2.0 * cur - prev + rhs
        else:
            nxt = (rhs + 2.0 * cur - lag * prev) / denom
        u[inner + (m + 1,)] = nxt.reshape(inner_shape)
        prev, cur = cur, nxt.astype(dtype, copy=False)

    velocity = np.zeros_like(u)
    velocity[..., 0] = u1
    velocity[..., 1:-1] = (u[..., 2:] - u[..., :-2]) / (2.0 * dt)
    velocity[..., -1] = (
        3.0 * u[..., -1] - 4.0 * u[..., -2] + u[..., -3]
    ) / (2.0 * dt)

    energies = _wave_energy_series(u, velocity, field, grid)
    state = EvolutionState(
        kind="wave",
        grid=grid,
        u=u,
        velocity=velocity,
        traces=_collect_traces(u, grid),
        energy=EnergyRecord(kind="wave", values=energies),
    )
    _check_state(state)
    return state


def _apply_dirichlet(u_level: np.ndarray, grid: SpaceTimeGrid) -> None:
    for ax in range(grid.n):
        idx = [slice(None)] * grid.n
        idx[ax] = 0
        u_level[tuple(idx)] = 0
        idx[ax] = -1
        u_level[tuple(idx)] = 0


def _check_state(state: EvolutionState) -> None:
    if not np.all(np.isfinite(state.u)):
        raise FloatingPointError("solver produced non-finite values")
    bmask = state.grid.boundary_mask
    if float(np.max(np.abs(state.u[bmask, :]))) != 0.0:
        raise AssertionError("Dirichlet values are not exactly zero")


def _solve_heat(field, lower, data: HeatData, grid: SpaceTimeGrid) -> EvolutionState:
    u0 = np.asarray(data.u0)
    if u0.shape != grid.space_shape:
        raise ValueError("initial data does not match the spatial grid")
    source = data.source
    if source is not None:
        source = np.asarray(source)
        if source.shape != grid.shape:
            raise ValueError("source must be a space-time array")
    lower_el = _as_elliptic_lower(lower)
    mat = assemble_spatial_operator(field, lower_el, grid)
    dtype = np.complex128 if (np.iscomplexobj(u0) or mat.dtype.kind == "c"
                              or (source is not None and np.iscomplexobj(source))) else np.float64
    dt = grid.dt
    eye = sp.identity(mat.shape[0], format="csr", dtype=dtype)
    lhs = (eye - 0.5 * dt * mat).tocsc()
    rhs_mat = (eye + 0.5 * dt * mat).tocsr()
    solver = spla.splu(lhs)

    inner = _inner(grid)
    inner_shape = [m - 2 for m in grid.space_shape]
    u = np.zeros(grid.shape, dtype=dtype)
    u[..., 0] = u0
    _apply_dirichlet(u[..., 0], grid)
    vec = u[inner + (0,)].flatten()
    for m in range(grid.nt - 1):
        rhs = rhs_mat @ vec
        if source is not None:
            f_mid = 0.5 * (source[inner + (m,)] + source[inner + (m + 1,)])
            rhs = rhs - dt * f_mid.reshape(-1)
        vec = solver.solve(rhs)
        u[inner + (m + 1,)] = vec.reshape(inner_shape)

    state = EvolutionState(
        kind="heat",
        grid=grid,
        u=u,
        velocity=None,
        traces=_collect_traces(u, grid),
        energy=EnergyRecord(kind="l2", values=_l2_norm_series(u, grid)),
    )
    _check_state(state)
    return state


def _as_elliptic_lower(lower: LowerOrderCoeffs | None) -> LowerOrderCoeffs | None:
    if lower is None or lower.is_zero():
        return None
    return LowerOrderCoeffs(
        kind="elliptic", space=lower.space, zero=lower.zero, bound=lower.bound
    )


def _solve_schrodinger(field, lower, data: SchrodingerData, grid: SpaceTimeGrid) -> EvolutionState:
    u0 = np.asarray(data.u0, dtype=np.complex128)
    if u0.shape != grid.space_shape:
        raise ValueError("initial data does not match the spatial grid")
    lower_el = _as_elliptic_lower(lower)
    mat = assemble_spatial_operator(field, lower_el, grid).astype(np.complex128)
    dt = grid.dt
    eye = sp.identity(mat.shape[0], format="csr", dtype=np.complex128)
    lhs = (eye - 0.5j * dt * mat).tocsc()
    rhs_mat = (eye + 0.5j * dt * mat).tocsr()
    solver = spla.splu(lhs)

    inner = _inner(grid)
    inner_shape = [m - 2 for m in grid.space_shape]
    u = np.zeros(grid.shape, dtype=np.complex128)
    u[..., 0] = u0
    _apply_dirichlet(u[..., 0], grid)
    vec = u[inner + (0,)].flatten()
    for m in range(grid.nt - 1):
        vec = solver.solve(rhs_mat @ vec)
        u[inner + (m + 1,)] = vec.reshape(inner_shape)

    state = EvolutionState(
        kind="schrodinger",
        grid=grid,
        u=u,
        velocity=None,
        traces=_collect_traces(u, grid),
        energy=EnergyRecord(kind="l2", values=_l2_norm_series(u, grid)),
    )
    _check_state(state)
    return state


# -- diagnostics -----------------------------------------------------------------------


@dataclass
class EnergyEquivalenceReport:
    ratio_max: float
    ratio_min: float
    initial_energy: float


def energy_equivalence_check(state: EvolutionState) -> EnergyEquivalenceReport:
    """max_t and min_t of E(t)/E(0) for a wave run."""
    if state.kind != "wave":
        raise ValueError("energy equivalence applies to wave runs")
    e0 = float(state.energy.values[0])
    if e0 == 0.0:
        raise ValueError("zero initial energy")
    ratios = state.energy.values / e0
    return EnergyEquivalenceReport(
        ratio_max=float(np.max(ratios)),
        ratio_min=float(np.min(ratios)),
        initial_energy=e0,
    )


@dataclass
class SmoothingBoundReport:
    aleph0_emp: float
    envelope: float  # (2e)^(-1/2), the per-eigenvalue maximum over t
    argmax_t: float
    argmax_mu: float
    num_eigenvalues: int


def smoothing_bound_check(
    field: MatrixField, grid: SpaceTimeGrid, t_samples
) -> SmoothingBoundReport:
    """max over samples and spectrum of sqrt(t) sqrt(mu) exp(-t mu).

    Dense symmetric eigendecomposition of the interior -Delta_A; limited to
    4096 unknowns.
    """
    t_samples = np.asarray(list(t_samples), dtype=float)
    if t_samples.size == 0:
        raise ValueError("empty t_samples")
    if np.any(t_samples <= 0):
        raise ValueError("t_samples must be positive")
    size = int(np.prod([m - 2 for m in grid.space_shape]))
    if size > MAX_DENSE_UNKNOWNS:
        raise ValueError(f"{size} unknowns exceed the dense limit {MAX_DENSE_UNKNOWNS}")
    mat = assemble_spatial_operator(field, None, grid)
    dense = -mat.toarray()
    try:
        mu = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise ValueError(f"eigendecomposition failed: {exc}") from exc
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

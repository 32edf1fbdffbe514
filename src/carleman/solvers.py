"""Dirichlet IBVP solvers: one time-marching core for wave, heat and
Schrodinger, boundary traces, energies and the semigroup smoothing-bound
check.

``solve_evolution`` checks the data once, takes the interior block L of
``operators.assemble_operator`` once per solve and runs one level loop that
writes each level into the space-time array, whose boundary ring stays
zero.  The loop has two step rules: the explicit leapfrog for wave, one
sparse matvec per step, and for heat (c = 1) and Schrodinger (c = i) the
trapezoid rule ``(I - c dt/2 L) v' = (I + c dt/2 L) v - dt f_mid``, whose
matrix is factorized once with a sparse direct solver.  For Schrodinger
the trapezoid step is a Cayley transform of the symmetric discrete
operator, so the L2 norm is conserved to rounding, which the conservation
checks rely on.  Boundary traces are taken on the whole space-time array,
one call per face.  Without first- or zero-order terms the wave energy
takes its Dirichlet form from the same assembled operator.

``smoothing_bound_check`` needs every eigenvalue of the interior -Delta_A
(at most 4096 unknowns).  In 1-D and 2-D it numbers the nodes with the
longest axis slowest, copies the band of the matrix into LAPACK band
storage and calls ``scipy.linalg.eig_banded``; in 3-D, where the band is
too wide to gain, it calls the dense ``numpy.linalg.eigvalsh``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .coefficients import MatrixField, symmetric_eigenvalues
from .geometry import SpaceTimeGrid
from .operators import (
    LowerOrderCoeffs,
    _coeff_space,
    _is_zero_coeff,
    _matvec,
    _one_sided,
    _zero_space_ring,
    assemble_operator,
    gradient_time,
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

    def sigma_plus_weights(self, grid: SpaceTimeGrid) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Trapezoid quadrature of Sigma+ = Gamma+ x (t1, t2) per face with plus
        nodes: ``(face, plus mask on the face nodes, dsigma dt weights of shape
        (plus nodes, nt))``."""
        return [
            (f, m, np.outer(grid.face_weights(f)[grid.face_mask(f)][m], grid.time_weights))
            for f, m in enumerate(self.face_masks)
            if np.any(m)
        ]


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


# -- the interior block of the spatial operator ------------------------------------


def _interior_block(full: sp.csr_matrix, grid: SpaceTimeGrid) -> sp.csr_matrix:
    """Rows and columns of the interior nodes of an all-node operator, in C
    order: the Dirichlet-0 operator on vectors ``u[1:-1, ..., 1:-1].reshape(-1)``."""
    idx = np.flatnonzero(~grid.boundary_mask)
    return full[idx][:, idx]


# -- traces and energies -----------------------------------------------------------


def _face_trace(u_level: np.ndarray, grid: SpaceTimeGrid, face: int) -> np.ndarray:
    """Outward normal derivative on one face, 3-point one-sided."""
    axis, side = grid.face_axis_side(face)
    h = grid.domain.spacings[axis]
    if side == 0:
        return -_one_sided(u_level, axis, h, 0)
    return _one_sided(u_level, axis, h, -1)


def dirichlet_seminorm_sq(u: np.ndarray, field: MatrixField, grid: SpaceTimeGrid) -> np.ndarray:
    """Discrete Dirichlet form -<Delta_A u, u> with uniform cell volume.

    For Dirichlet fields this is the quadratic form of the symmetric flux
    stencil, the quantity the leapfrog conserves semidiscretely; it agrees
    with the integral of |grad u|_A^2 to second order.  Accepts trailing
    axes; reduces over space.
    """
    return _dirichlet_form(laplacian_flux(field, u, grid), u, grid)


def _dirichlet_form(lap: np.ndarray, u: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """-<lap, u> with uniform cell volume, reduced over space, clamped at 0."""
    cell = float(np.prod(grid.domain.spacings))
    form = -np.sum((lap * np.conj(u)).real, axis=tuple(range(grid.n))) * cell
    return np.maximum(form, 0.0)


# -- the time-marching core ----------------------------------------------------------


def solve_evolution(
    kind: str,
    field: MatrixField,
    lower: LowerOrderCoeffs | None,
    data,
    t_final: float,
    grid: SpaceTimeGrid,
) -> EvolutionState:
    """Run the IBVP with homogeneous Dirichlet boundary on the grid's times.

    ``data`` is a ``WaveData``, ``HeatData`` or ``SchrodingerData``.  wave:
    explicit leapfrog, one matvec per step with the interior operator L (CFL
    checked); heat (c = 1) and schrodinger (c = i): the trapezoid rule
    ``(I - c dt/2 L) v' = (I + c dt/2 L) v - dt f_mid`` with one sparse
    factorization reused for all levels.  Schrodinger runs are complex; any
    other run is complex exactly when its data, source, operator or time
    coefficient is.
    """
    if kind not in SOLVE_KINDS:
        raise ValueError(f"unknown evolution kind {kind!r}")
    if abs(grid.t1) > 1e-12 or abs(grid.t2 - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ValueError("grid time interval must be (0, t_final)")
    wave = kind == "wave"
    dt = grid.dt
    if wave:
        limit = cfl_limit(field, grid)
        if dt > limit:
            need = int(np.ceil((grid.t2 - grid.t1) / limit)) + 1
            raise ValueError(
                f"CFL violation: dt={dt:.6g} exceeds {limit:.6g}; use nt >= {need}"
            )
    u0 = np.asarray(data.u0)
    u1 = np.asarray(data.u1) if wave else None
    if u0.shape != grid.space_shape or (wave and u1.shape != grid.space_shape):
        raise ValueError("initial data does not match the spatial grid")
    source = getattr(data, "source", None)
    if source is not None:
        source = np.asarray(source)
        if source.shape != grid.shape:
            raise ValueError(f"{kind} source must be a space-time array")
    inner = tuple(slice(1, -1) for _ in grid.space_shape)
    inner_shape = [m - 2 for m in grid.space_shape]
    full = assemble_operator(field, lower, grid)
    mat = _interior_block(full, grid)

    q0 = None  # the leapfrog's time coefficient on the interior nodes
    if wave and lower is not None and not _is_zero_coeff(lower.time):
        q0 = np.broadcast_to(_coeff_space(lower.time, grid), grid.space_shape)
        denom = 1.0 - 0.5 * dt * q0
        if np.any(np.abs(denom) < 1e-14):
            raise ValueError("time coefficient makes the leapfrog update singular")
        q0, denom = q0[inner].reshape(-1), denom[inner].reshape(-1)
        lag = 1.0 + 0.5 * dt * q0
    complex_run = kind == "schrodinger" or mat.dtype.kind == "c" or any(
        np.iscomplexobj(a) for a in (u0, u1, source, q0)
    )
    dtype = np.complex128 if complex_run else np.float64

    if wave:
        v1 = u1[inner].reshape(-1)
        step = dt**2 * mat
    else:
        half = 0.5 * (1j if kind == "schrodinger" else 1) * dt
        eye = sp.identity(mat.shape[0], format="csr", dtype=dtype)
        solver = spla.splu((eye - half * mat).tocsc())
        rhs_mat = (eye + half * mat).tocsr()

    # interior levels m - 1 and m as contiguous vectors; level m + 1 is
    # written straight into u, whose boundary ring stays zero
    u = np.zeros(grid.shape, dtype=dtype)
    u[..., 0] = u0
    _zero_space_ring(u[..., 0], grid.n)
    prev, cur = None, u[inner + (0,)].flatten()
    for m in range(grid.nt - 1):
        if not wave:
            rhs = rhs_mat @ cur
            if source is not None:
                f_mid = 0.5 * (source[inner + (m,)] + source[inner + (m + 1,)])
                rhs = rhs - dt * f_mid.reshape(-1)
            nxt = solver.solve(rhs)
        elif m == 0:  # Taylor start from u1
            acc0 = mat @ cur
            if q0 is not None:
                acc0 = acc0 + q0 * v1
            if source is not None:
                acc0 = acc0 - source[inner + (0,)].reshape(-1)
            nxt = cur + dt * v1 + 0.5 * dt**2 * acc0
        else:
            rhs = step @ cur
            if source is not None:
                rhs = rhs - dt**2 * source[inner + (m,)].reshape(-1)
            if q0 is None:
                nxt = 2.0 * cur - prev + rhs
            else:
                nxt = (rhs + 2.0 * cur - lag * prev) / denom
        u[inner + (m + 1,)] = nxt.reshape(inner_shape)
        prev, cur = cur, nxt

    if not np.all(np.isfinite(u)):
        raise FloatingPointError("solver produced non-finite values")
    if float(np.max(np.abs(u[grid.boundary_mask, :]))) != 0.0:
        raise AssertionError("Dirichlet values are not exactly zero")
    # energy: sqrt(Dirichlet form + L2 norm of the velocity) for wave, the L2
    # norm otherwise, per level; traces as (face nodes, nt) per face
    space, w = tuple(range(grid.n)), grid.space_weights[..., None]
    velocity = None
    if wave:
        velocity = gradient_time(u, grid)
        velocity[..., 0] = u1
        if lower is None or (all(_is_zero_coeff(c) for c in lower.space)
                             and _is_zero_coeff(lower.zero)):
            # the operator already assembled is the one laplacian_flux would
            form = _dirichlet_form(_matvec(full, u), u, grid)
        else:
            form = dirichlet_seminorm_sq(u, field, grid)
        energy = EnergyRecord(kind="wave", values=np.sqrt(
            form + np.sum(np.abs(velocity) ** 2 * w, axis=space)
        ))
    else:
        energy = EnergyRecord(kind="l2", values=np.sqrt(np.sum(np.abs(u) ** 2 * w, axis=space)))
    traces = [_face_trace(u, grid, f).reshape(-1, grid.nt) for f in range(grid.num_faces)]
    return EvolutionState(kind=kind, grid=grid, u=u, velocity=velocity, traces=traces,
                          energy=energy)


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

    The spectrum is that of the interior -Delta_A, limited to 4096 unknowns.
    In 1-D and 2-D it is a band matrix: with the nodes numbered longest axis
    slowest, its half-bandwidth is the unknown count over that axis's length
    (plus 1 when A has an off-diagonal entry), and a band reduction
    (``scipy.linalg.eig_banded``) costs O(N^2 b) against the O(N^3) of a
    dense eigensolve.  In 3-D the band is too wide to gain and the dense
    ``eigvalsh`` is used.
    """
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
    mat = -_interior_block(assemble_operator(field, None, grid), grid)  # exactly symmetric
    try:
        if grid.n == 3:
            mu = np.linalg.eigvalsh(mat.toarray())
        else:
            mu = sla.eig_banded(_upper_band(mat, grid), eigvals_only=True, check_finite=False)
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


def _upper_band(mat: sp.csr_matrix, grid: SpaceTimeGrid) -> np.ndarray:
    """LAPACK upper band storage, ``band[b + i - j, j] = P[i, j]`` for
    ``j - b <= i <= j``, of the symmetric permutation P of an interior-block
    matrix that numbers the nodes with the longest axis slowest, which makes
    the half-bandwidth b smallest.  P has the spectrum of ``mat``."""
    inner = [m - 2 for m in grid.space_shape]
    size = mat.shape[0]
    longest = int(np.argmax(inner))
    axes = [longest] + [ax for ax in range(grid.n) if ax != longest]
    # rank[k]: the position of C-order interior node k in the new numbering
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

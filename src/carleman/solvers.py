"""Dirichlet IBVP solvers: one time-marching core for wave, heat and
Schrodinger, boundary traces, energies and the semigroup smoothing-bound
check.

One private level loop, ``_march``, checks the data once, takes the
interior block L of ``operators.assemble_operator`` once and advances the
interior nodes of K runs level by level as an ``(N_int, K)`` block; one
run is a K = 1 block.  It has two step rules: the explicit leapfrog for
wave, one sparse product per step, and for heat (c = 1) and Schrodinger
(c = i) the trapezoid rule ``(I - c dt/2 L) v' = (I + c dt/2 L) v - dt
f_mid``, whose matrix is factorized once and solved with all K right-hand
sides per step.  For Schrodinger the trapezoid step is a Cayley transform
of the symmetric discrete operator, so the L2 norm is conserved to
rounding, which the conservation checks rely on.  A CSR product with a
dense block keeps each column's summation order, so each column of a block
follows its single run's arithmetic (the real multi-right-hand-side
SuperLU solve of heat rounds differently, at the 1e-16 level).

Callers say what they keep.  ``solve_evolution`` runs one datum and keeps
the space-time array, whose boundary ring stays zero, the velocity and
energy record (wave) and the traces, taken on the whole array one call per
face; without first- or zero-order terms the wave energy takes its
Dirichlet form from the operator already assembled.  ``solve_block`` runs
K data and keeps, per level, only the interior nodes the one-sided trace
stencils read, plus the last three levels: the Sigma+ traces, the final
state and the final velocity, without any space-time array.

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
    "BlockState",
    "EnergyRecord",
    "GammaPlusMask",
    "solve_evolution",
    "solve_block",
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
class BlockState:
    """What ``solve_block`` keeps of K runs; the member axis is last."""

    kind: str
    grid: SpaceTimeGrid
    traces: list[np.ndarray]  # per face: (face nodes, nt, K)
    last: np.ndarray  # (*space_shape, 3, K): levels nt - 3, nt - 2 and nt - 1

    def member_traces(self, k: int) -> list[np.ndarray]:
        return [np.ascontiguousarray(t[..., k]) for t in self.traces]

    def final(self, k: int) -> np.ndarray:
        return self.last[..., -1, k].copy()

    def final_velocity(self, k: int) -> np.ndarray:
        """The last level of run k's velocity, the one-sided end of ``gradient_time``."""
        return _one_sided(self.last[..., k], self.grid.n, self.grid.dt, -1)


@dataclass
class GammaPlusMask:
    """Observation-boundary mask: nodes where the A-flux of psi0 is positive."""

    face_masks: list[np.ndarray]  # bool per face, face shape

    def describe(self) -> str:
        bits = []
        for f, mask in enumerate(self.face_masks):
            count = int(np.sum(mask))
            if count:
                bits.append(f"face {f}: {count} nodes" + (" (all)" if mask.all() else ""))
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
    pts = grid.space_points
    a_vals = field(pts)
    grads = psi0.eval_gradient(pts)
    flux_vec = np.einsum("...kl,...l->...k", a_vals, grads)
    for f in range(grid.num_faces):
        nu = grid.face_normal(f)
        gm = grid.face_mask(f)
        flux = np.einsum("...k,k->...", flux_vec[gm], nu)
        face_masks.append(flux > 0.0)
    return GammaPlusMask(face_masks=face_masks)


def cfl_limit(field: MatrixField, grid: SpaceTimeGrid) -> float:
    """0.9 * h_min / sqrt(n * lambda_max(A)) over the grid."""
    eigs = symmetric_eigenvalues(field(grid.space_points))
    lam_max = float(np.max(eigs[..., -1]))
    h_min = min(grid.domain.spacings)
    return 0.9 * h_min / np.sqrt(grid.n * lam_max)


# -- the interior block of the spatial operator ------------------------------------


def _interior(grid: SpaceTimeGrid) -> tuple[tuple, list[int]]:
    """The slices of the interior nodes and their shape."""
    return (slice(1, -1),) * grid.n, [m - 2 for m in grid.space_shape]


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


def _finite(level: np.ndarray) -> np.ndarray:
    if not np.isfinite(level).all():
        raise FloatingPointError("solver produced non-finite values")
    return level


def _check_dirichlet(u: np.ndarray, grid: SpaceTimeGrid) -> None:
    """Raise unless every boundary value of ``u`` (space axes first) is exactly zero."""
    if np.any(u[grid.boundary_mask] != 0):
        raise AssertionError("Dirichlet values are not exactly zero")


def _march(kind: str, field: MatrixField, lower: LowerOrderCoeffs | None, data: list,
           t_final: float, grid: SpaceTimeGrid):
    """Check the data of one kind once and set up their level loop.

    Returns the all-node operator, the dtype and a generator of the interior
    levels 0, ..., nt - 1 in C order: ``(N_int, K)`` blocks with one column
    per datum.  A CSR product with a dense block keeps each column's
    summation order, so a column follows the arithmetic of its single run.
    A non-finite value at any level of any column raises ``FloatingPointError``.
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
    u0 = [np.asarray(d.u0) for d in data]
    u1 = [np.asarray(d.u1) for d in data] if wave else []
    if any(a.shape != grid.space_shape for a in u0 + u1):
        raise ValueError("initial data does not match the spatial grid")
    sources = [getattr(d, "source", None) for d in data]
    sources = [None if s is None else np.asarray(s) for s in sources]
    if any(s is not None and s.shape != grid.shape for s in sources):
        raise ValueError(f"{kind} source must be a space-time array")
    inner, _ = _interior(grid)
    full = assemble_operator(field, lower, grid)
    mat = _interior_block(full, grid)

    def columns(arrays) -> np.ndarray:  # interior values of space arrays
        return np.stack([a[inner].reshape(-1) for a in arrays], axis=-1)

    q0 = None  # the leapfrog's time coefficient on the interior nodes
    if wave and lower is not None and not _is_zero_coeff(lower.time):
        q0 = np.broadcast_to(_coeff_space(lower.time, grid), grid.space_shape)
        denom = 1.0 - 0.5 * dt * q0
        if np.any(np.abs(denom) < 1e-14):
            raise ValueError("time coefficient makes the leapfrog update singular")
        q0, denom = q0[inner].reshape(-1, 1), denom[inner].reshape(-1, 1)  # one per row
        lag = 1.0 + 0.5 * dt * q0
    complex_run = kind == "schrodinger" or mat.dtype.kind == "c" or any(
        np.iscomplexobj(a) for a in (*u0, *u1, *sources, q0)
    )
    dtype = np.complex128 if complex_run else np.float64

    forced = any(s is not None for s in sources)
    if forced:  # the sources on the interior nodes, levels along axis 1
        forcing = np.stack([(np.zeros(grid.shape) if s is None else s)[inner]
                            .reshape(mat.shape[0], -1) for s in sources], axis=-1)

    if wave:
        v1 = columns(u1)
        step = dt**2 * mat
    else:
        half = 0.5 * (1j if kind == "schrodinger" else 1) * dt
        eye = sp.identity(mat.shape[0], format="csr", dtype=dtype)
        solver = spla.splu((eye - half * mat).tocsc())
        rhs_mat = (eye + half * mat).tocsr()

    def levels():
        prev, cur = None, columns(u0).astype(dtype)
        yield _finite(cur)
        for m in range(grid.nt - 1):
            if not wave:
                rhs = rhs_mat @ cur
                if forced:
                    rhs = rhs - dt * (0.5 * (forcing[:, m] + forcing[:, m + 1]))
                nxt = solver.solve(rhs)
            elif m == 0:  # Taylor start from u1
                acc0 = mat @ cur
                if q0 is not None:
                    acc0 = acc0 + q0 * v1
                if forced:
                    acc0 = acc0 - forcing[:, 0]
                nxt = cur + dt * v1 + 0.5 * dt**2 * acc0
            else:
                rhs = step @ cur
                if forced:
                    rhs = rhs - dt**2 * forcing[:, m]
                if q0 is None:
                    nxt = 2.0 * cur - prev + rhs
                else:
                    nxt = (rhs + 2.0 * cur - lag * prev) / denom
            prev, cur = cur, nxt
            yield _finite(nxt)

    return full, dtype, levels()


def solve_evolution(
    kind: str,
    field: MatrixField,
    lower: LowerOrderCoeffs | None,
    data,
    t_final: float,
    grid: SpaceTimeGrid,
) -> EvolutionState:
    """Run the IBVP with homogeneous Dirichlet boundary on the grid's times.

    ``data`` is a ``WaveData``, ``HeatData`` or ``SchrodingerData``, run as a
    K = 1 block of ``_march``.  wave: explicit leapfrog, one sparse product
    per step with the interior operator L (CFL checked); heat (c = 1) and
    schrodinger (c = i): the trapezoid rule ``(I - c dt/2 L) v' = (I + c dt/2
    L) v - dt f_mid`` with one sparse factorization reused for all levels.  Schrodinger runs are complex; any
    other run is complex exactly when its data, source, operator or time
    coefficient is.  Keeps the whole space-time array, the velocity (wave),
    the energy record and the traces.
    """
    full, dtype, levels = _march(kind, field, lower, [data], t_final, grid)
    inner, inner_shape = _interior(grid)
    u = np.zeros(grid.shape, dtype=dtype)  # the boundary ring stays zero
    for m, level in enumerate(levels):
        u[inner + (m,)] = level.reshape(inner_shape)
    _check_dirichlet(u, grid)
    # energy: sqrt(Dirichlet form + L2 norm of the velocity) for wave, the L2
    # norm otherwise, per level; traces as (face nodes, nt) per face
    space, w = tuple(range(grid.n)), grid.space_weights[..., None]
    velocity = None
    if kind == "wave":
        velocity = gradient_time(u, grid)
        velocity[..., 0] = np.asarray(data.u1)
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


def _trace_slabs(grid: SpaceTimeGrid) -> tuple[np.ndarray, list[np.ndarray]]:
    """Where the one-sided trace stencils read.

    Returns the C-order interior positions of the nodes in the three-node
    slab next to any face, and per face the slab as indices into those
    gathered values, with index ``len(gather)`` standing for a boundary node.
    """
    inner, inner_shape = _interior(grid)
    pos = np.full(grid.space_shape, -1, dtype=np.intp)
    pos[inner] = np.arange(int(np.prod(inner_shape))).reshape(inner_shape)
    slabs = []
    for f in range(grid.num_faces):
        axis, side = grid.face_axis_side(f)
        sl = [slice(None)] * grid.n
        sl[axis] = slice(0, 3) if side == 0 else slice(-3, None)
        slabs.append(pos[tuple(sl)])
    gather = np.unique(np.concatenate([s[s >= 0] for s in slabs]))
    return gather, [np.where(s >= 0, np.searchsorted(gather, s), gather.size) for s in slabs]


def solve_block(
    kind: str,
    field: MatrixField,
    lower: LowerOrderCoeffs | None,
    data: list,
    t_final: float,
    grid: SpaceTimeGrid,
) -> BlockState:
    """Run K data of one kind in one level loop; keep traces and last levels.

    The checks and step rules of ``solve_evolution`` on an ``(N_int, K)``
    block: one CSR-times-dense product per leapfrog step, one K-right-hand-
    side solve per trapezoid step with one factorization per block.  Per
    level only the interior nodes the one-sided trace stencils read are
    gathered; the traces are formed after the loop by the same stencil on the
    same values.  No velocity, energy record or space-time array is kept.
    """
    if not data:
        raise ValueError("empty block")
    _, dtype, levels = _march(kind, field, lower, list(data), t_final, grid)
    gather, slabs = _trace_slabs(grid)
    nt, size = grid.nt, len(data)
    inner, inner_shape = _interior(grid)
    kept = np.zeros((gather.size + 1, nt, size), dtype=dtype)  # last row: the boundary
    last = np.zeros((*grid.space_shape, 3, size), dtype=dtype)
    for m, level in enumerate(levels):
        kept[:-1, m] = level[gather]
        if m >= nt - 3:
            last[inner + (m - nt + 3,)] = level.reshape(*inner_shape, size)
    _check_dirichlet(last, grid)
    traces = [_face_trace(kept[s], grid, f).reshape(-1, nt, size) for f, s in enumerate(slabs)]
    return BlockState(kind=kind, grid=grid, traces=traces, last=last)


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

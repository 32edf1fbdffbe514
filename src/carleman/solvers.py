"""Dirichlet IBVP solvers: one time-marching core for wave, heat and
Schrodinger, boundary traces, energies and the semigroup smoothing-bound
check.

One private level loop, ``_march``, checks the data once and advances K runs
together; one run is a K = 1 block.  It has two step rules, the explicit
leapfrog for wave and for heat (c = 1) and Schrodinger (c = i) the trapezoid
rule ``(I - c dt/2 L) v' = (I + c dt/2 L) v - dt f_mid``, and each takes one
of two routes.  A run without first- or zero-order terms, whose A is
axis-separable with positive definite per-axis tridiagonals (every
half-point a_kk positive), takes the modal route: -L is the Kronecker sum of
those tridiagonals (Lynch, Rice and Thomas, Numer. Math. 6, 1964), so each
step rule is a scalar recurrence per product of their eigenvectors, mode mu
running ``c[m+1] = 2 c[m] - c[m-1] - dt^2 mu c[m] - dt^2 f[m]`` (leapfrog)
or ``c[m+1] = r c[m] - dt (f[m] + f[m+1]) / (2 + c dt mu)`` with ``r = (1 -
c dt mu/2) / (1 + c dt mu/2)`` (trapezoid), f the mode's coefficient of the
source.  LAPACK ``dpteqr`` gives the per-axis eigenpairs, once per field and
grid (``SpaceTimeGrid.per_field`` holds them, and the CFL limit), the data
and sources are transformed into modal coefficients once, and nothing is
assembled or factorized.  The one-sided trace stencil acts within one level,
so the trace of a level on a face is a fixed linear functional of its
coefficients (Infante and Zuazua, M2AN 33, 1999): the stencil applied to the
eigenvectors of the face's axis, times the eigenvectors of the other axes.
Every other run takes the nodal route on the ``(N_int, K)`` interior block:
one sparse product per leapfrog step with the interior block L of
``operators.assemble_operator``, or one ``splu`` factorization of ``I - c
dt/2 L`` solved with all K right-hand sides per trapezoid step.  For
Schrodinger the trapezoid step is a Cayley transform of the symmetric
discrete operator, so on either route the L2 norm is conserved to rounding,
which the conservation checks rely on.  A CSR product with a dense block
keeps each column's summation order, and every modal transform and trace
functional acts on each datum and level by matrix products whose shapes do
not depend on K or on how levels are grouped (a source is transformed datum
by datum), so each column of a block follows its single run's arithmetic
(the real multi-right-hand-side SuperLU solve of heat rounds differently, at
the 1e-16 level).

Callers say what they keep.  ``solve_evolution`` runs one datum and keeps
the space-time array, whose boundary ring stays zero, the velocity and
energy record (wave) and the traces.  On the modal route every level is
transformed back, the traces come from the trace functionals and the wave
energy takes its Dirichlet form ``cell * sum mu |c|^2`` from the
coefficients; otherwise the traces are taken on the whole array one call
per face and, without first- or zero-order terms, the Dirichlet form comes
from the operator already assembled.  ``solve_block`` runs K data and keeps
the traces of the faces asked for, the final state and the final velocity,
without any space-time array: on the modal route it sends chunks of
coefficient levels through the trace functionals and transforms back only
the last three levels; otherwise it keeps, per level, only the interior
nodes the trace stencils read, plus the last three levels.

``smoothing_bound_check`` needs every eigenvalue of the interior -Delta_A
(at most 4096 unknowns), by one of three routes.  When A is axis-separable
(diagonal, each a_kk a polynomial in x_k alone; every 1-D field is), the
operator is a Kronecker sum of one tridiagonal per axis, so its spectrum is
every sum of one eigenvalue per axis, each axis solved by
``scipy.linalg.eigvalsh_tridiagonal`` and nothing assembled.  Otherwise, in
2-D it numbers the nodes with the longest axis slowest, copies the band of
the matrix into LAPACK band storage and calls ``scipy.linalg.eig_banded``;
in 3-D, where the band is too wide to gain, it calls the dense
``numpy.linalg.eigvalsh``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .coefficients import MatrixField, _dot, _lane_sum, symmetric_eigenvalues
from .geometry import SpaceTimeGrid
from .operators import (
    LowerOrderCoeffs,
    _coeff_space,
    _is_zero_coeff,
    _matvec,
    _one_sided,
    assemble_operator,
    gradient_time,
)

# scipy.sparse, scipy.sparse.linalg and scipy.linalg are imported where first
# used, not here: they take a good part of start-up, and the commands that scan
# closed forms need none of them
if TYPE_CHECKING:
    import scipy.sparse as sp

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
    traces: list[np.ndarray | None]  # per face: (face nodes, nt, K), None unless asked for
    last: np.ndarray  # (*space_shape, 3, K): levels nt - 3, nt - 2 and nt - 1

    def member_traces(self, k: int) -> list[np.ndarray | None]:
        return [None if t is None else np.ascontiguousarray(t[..., k]) for t in self.traces]

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

    def sigma_plus_weights(self, grid: SpaceTimeGrid) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """Trapezoid quadrature of Sigma+ = Gamma+ x (t1, t2) per face with plus
        nodes: ``(face, plus mask on the face nodes, dsigma dt weights of shape
        (plus nodes, nt))``."""
        return [
            (f, m, np.outer(grid.face_weights(f)[grid.face_mask(f)][m], grid.time_weights))
            for f, m in enumerate(self.face_masks)
            if np.any(m)
        ]


def gamma_plus(a: np.ndarray, grad: np.ndarray, grid: SpaceTimeGrid) -> GammaPlusMask:
    """Strict-sign mask of the analytic flux (grad psi0 | nu)_A per face, from
    the node sample of A and grad psi0 (entry-planar: ``a`` (n, n, *space),
    ``grad`` (n, *space)); neither array is changed."""
    face_masks: list[np.ndarray] = []
    # A grad psi0 in the two-lane order of the einsum these sums replaced
    flux_vec = [_lane_sum(lambda l: a[k, l] * grad[l], grid.n) for k in range(grid.n)]
    for f in range(grid.num_faces):
        nu = grid.face_normal(f)
        gm = grid.face_mask(f)
        face_masks.append(_dot([v[gm] for v in flux_vec], nu) > 0.0)
    return GammaPlusMask(face_masks=face_masks)


def cfl_limit(field: MatrixField, grid: SpaceTimeGrid) -> float:
    """0.9 * h_min / sqrt(n * lambda_max(A)) over the grid."""
    lam_max = float(np.max(symmetric_eigenvalues(field(grid.space_points))[-1]))
    h_min = min(grid.domain.spacings)
    return 0.9 * h_min / np.sqrt(grid.n * lam_max)


def _held(field: MatrixField, grid: SpaceTimeGrid, make):
    """``make(field, grid)``, computed once per field and grid and held in
    ``grid.per_field`` while the field lives."""
    held = grid.per_field.setdefault(field, {})
    if make not in held:
        held[make] = make(field, grid)
    return held[make]


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
    return _outward_derivative(u_level, axis, grid.domain.spacings[axis], side)


def _outward_derivative(u: np.ndarray, axis: int, h: float, side: int) -> np.ndarray:
    """Outward derivative at the low (``side`` 0) or high end of an axis."""
    if side == 0:
        return -_one_sided(u, axis, h, 0)
    return _one_sided(u, axis, h, -1)


def _dirichlet_form(lap: np.ndarray, u: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """-<lap, u> with uniform cell volume, reduced over space, clamped at 0.

    With ``lap`` the product of ``assemble_operator(field, None, grid)`` and
    a Dirichlet field ``u``, this is the quadratic form of the symmetric flux
    stencil, the quantity the leapfrog conserves semidiscretely; it agrees
    with the integral of |grad u|_A^2 to second order.
    """
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

    Returns the all-node operator (None on the modal route, which assembles
    nothing), the dtype, the modal basis (None off the modal route) and a
    generator.  A run without lower-order term whose A is axis-separable with
    positive definite per-axis tridiagonals takes the modal route, with the
    basis of ``_modal_basis`` held per field and grid: each datum's interior
    source, if any, is transformed into modal coefficients f once, and the
    generator yields the modal coefficients of levels 0, ..., nt - 1 in
    chunks, ``(levels, K, N_int)`` arrays that stay valid until the next chunk
    is drawn.  Each mode runs the leapfrog ``c[m+1] = 2 c[m] - c[m-1] - dt^2
    mu c[m] - dt^2 f[m]`` from ``c[1] = c[0] + dt b - (dt^2 mu/2) c[0] -
    (dt^2/2) f[0]`` (wave), or ``c[m+1] = r c[m] - dt (f[m] + f[m+1]) / (2 +
    c dt mu)`` with the trapezoid factor ``r = (1 - c dt mu/2) / (1 + c dt
    mu/2)``: the source enters where the nodal steps add it.  Otherwise it
    yields the interior levels in C order, ``(N_int, K)`` blocks with one
    column per datum, from the CSR leapfrog (wave) or the ``splu`` trapezoid
    rule.  Wave runs are CFL-checked on either route, with the limit held per
    field and grid.  A column follows the arithmetic of its single run.  A
    non-finite value at any level of any column raises ``FloatingPointError``.
    """
    if kind not in SOLVE_KINDS:
        raise ValueError(f"unknown evolution kind {kind!r}")
    if abs(grid.t1) > 1e-12 or abs(grid.t2 - t_final) > 1e-9 * max(1.0, abs(t_final)):
        raise ValueError("grid time interval must be (0, t_final)")
    wave = kind == "wave"
    dt = grid.dt
    if wave:
        limit = _held(field, grid, cfl_limit)
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
    inner, inner_shape = _interior(grid)
    forced = any(s is not None for s in sources)
    basis = _held(field, grid, _modal_basis) if lower is None else None
    full = mat = None
    if basis is None:
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
    complex_run = kind == "schrodinger" or (mat is not None and mat.dtype.kind == "c") or any(
        np.iscomplexobj(a) for a in (*u0, *u1, *sources, q0)
    )
    dtype = np.complex128 if complex_run else np.float64
    half = 0.5 * (1j if kind == "schrodinger" else 1) * dt

    if basis is not None:
        def rows(arrays) -> np.ndarray:  # interior values, one row per datum
            return np.stack([a[inner].reshape(-1) for a in arrays]).astype(dtype)

        forcing = None
        if forced:  # (K, N_int, nt), zero for a datum without source
            forcing = np.zeros((len(data), basis.mu.size, grid.nt), dtype=dtype)
            for k, s in enumerate(sources):
                if s is not None:
                    forcing[k] = basis.source_modes(_finite(s[inner]))
        chunks = _modal_chunks(basis, half, grid, rows(u0), rows(u1) if wave else None, forcing)
        return None, dtype, basis, chunks

    if forced:  # the sources on the interior nodes, levels along axis 1
        forcing = np.stack([(np.zeros(grid.shape) if s is None else s)[inner]
                            .reshape(mat.shape[0], -1) for s in sources], axis=-1)

    if wave:
        v1 = columns(u1)
        step = dt**2 * mat
    else:
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

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

    return full, dtype, None, levels()


def _modal_chunks(basis: _ModalBasis, half, grid: SpaceTimeGrid, u0: np.ndarray,
                  u1: np.ndarray | None, forcing: np.ndarray | None):
    """The modal coefficients of levels 0, ..., nt - 1 from the ``(K, N_int)``
    interior rows of u0 and, for the leapfrog, u1 (else the trapezoid rule with
    ``half = c dt/2``), forced by the ``(K, N_int, nt)`` modal source if not
    None, which this overwrites: ``(levels, K, N_int)`` per chunk, written into
    one reused buffer of ``_chunk_levels`` levels."""
    dt, nt, mu = grid.dt, grid.nt, basis.mu
    coef = _finite(basis.modes(u0))
    wave = u1 is not None
    if wave:
        step = dt**2 * mu
        first = coef + dt * basis.modes(u1) - (0.5 * step) * coef
        if forcing is not None:  # level m enters level m + 1, level 0 at half weight
            forcing *= dt**2
            forcing[..., 0] *= 0.5
    else:
        ratio = (1.0 - half * mu) / (1.0 + half * mu)
        if forcing is not None:  # the mean of levels m and m + 1 enters level m + 1
            forcing = (0.5 * dt) * (forcing[..., :-1] + forcing[..., 1:]) / (
                1.0 + half * mu)[:, None]
    length = _chunk_levels(grid)
    buf = np.empty((length, *coef.shape), dtype=coef.dtype)
    prev = cur = None
    for m0 in range(0, nt, length):
        chunk = buf[:min(length, nt - m0)]
        for m, out in enumerate(chunk, start=m0):
            if m == 0:
                out[...] = coef
            elif not wave:
                np.multiply(ratio, cur, out=out)
            elif m == 1:
                out[...] = first
            else:
                np.multiply(cur, 2.0, out=out)
                out -= prev
                out -= step * cur
            if forcing is not None and m:
                out -= forcing[..., m - 1]
            prev, cur = cur, out
        yield _finite(chunk)


def _chunk_levels(grid: SpaceTimeGrid) -> int:
    """Levels per chunk of modal coefficients: as many as keep a chunk within
    the slab array of the nodal route, (slab nodes + 1) x nt per datum, where
    the slab is every interior node within two of a face.  At least three
    (every grid has nt >= 3), so a level never overwrites the two it is
    computed from."""
    inner = [m - 2 for m in grid.space_shape]
    size = math.prod(inner)
    slab = size - math.prod(max(m - 4, 0) for m in inner)
    return min(grid.nt, max(3, (slab + 1) * grid.nt // size))


def _modal_basis(field: MatrixField, grid: SpaceTimeGrid) -> _ModalBasis | None:
    """The modal basis of an axis-separable A whose per-axis tridiagonals are
    all positive definite, else None."""
    pairs = _axis_eigenpairs(field, grid) if _axis_separable(field) else None
    return None if pairs is None else _ModalBasis(pairs, grid)


class _ModalBasis:
    """The eigenbasis of the interior -L of an axis-separable A, from the
    per-axis eigenpairs of ``_axis_eigenpairs``: every sum ``mu`` of one
    eigenvalue per axis in C order of the interior nodes, the transforms
    between interior values and modal coefficients, and per face the trace
    functional.

    The trace on a face of axis k is the 3-point one-sided stencil of
    ``_face_trace`` applied to the rows of ``V_k`` next to that face (a
    boundary row is zero), times ``V_j`` along each other axis: a fixed
    linear map from the coefficients of a level to its trace on the
    interior nodes of the face, whose ring nodes read only boundary values
    and stay zero."""

    def __init__(self, pairs: list, grid: SpaceTimeGrid):
        self.shape = [vec.shape[0] for _, vec in pairs]
        self.mu = _kronecker_sum([axis_mu for axis_mu, _ in pairs]).reshape(-1)
        self.to_modes = [(k, np.ascontiguousarray(vec.T)) for k, (_, vec) in enumerate(pairs)]
        self.to_nodes = [(k, vec) for k, (_, vec) in enumerate(pairs)]
        self.faces, self.face_shapes = [], []
        for f in range(grid.num_faces):
            axis, side = grid.face_axis_side(f)
            padded = np.zeros((self.shape[axis] + 2, self.shape[axis]))
            padded[1:-1] = pairs[axis][1]
            functional = _outward_derivative(padded, 0, grid.domain.spacings[axis], side)
            self.faces.append([(axis, functional.reshape(1, -1))]
                              + [(j, mat) for j, mat in self.to_nodes if j != axis])
            self.face_shapes.append([m for k, m in enumerate(grid.space_shape) if k != axis])
        # the face's interior nodes, and (levels, K, *those nodes) -> (*nodes, levels, K)
        self.ring = (slice(1, -1),) * (grid.n - 1)
        self.order = (*range(2, grid.n + 1), 0, 1)

    def modes(self, rows: np.ndarray) -> np.ndarray:
        """``(rows, N_int)`` interior values to modal coefficients."""
        return _along_axes(self.to_modes, rows, self.shape)

    def source_modes(self, values: np.ndarray) -> np.ndarray:
        """``(*interior shape, levels)`` values to ``(N_int, levels)`` modal
        coefficients, by one stack of matrix products per axis over all levels
        at once, whose shapes depend on the grid alone."""
        for k, mat in self.to_modes:
            shape = values.shape
            values = np.matmul(mat, values.reshape(math.prod(shape[:k]), shape[k], -1)).reshape(
                *shape[:k], mat.shape[0], *shape[k + 1:])
        return values.reshape(-1, values.shape[-1])

    def nodes(self, rows: np.ndarray) -> np.ndarray:
        """``(rows, N_int)`` modal coefficients to interior values."""
        return _along_axes(self.to_nodes, rows, self.shape)

    def trace_arrays(self, nt: int, size: int, dtype, faces) -> list[np.ndarray | None]:
        """Zero traces, ``(*face shape, nt, K)``, per face in ``faces``, else None."""
        return [np.zeros((*shape, nt, size), dtype=dtype) if f in faces else None
                for f, shape in enumerate(self.face_shapes)]

    def write_traces(self, traces: list[np.ndarray | None], chunk: np.ndarray, m0: int) -> None:
        """Write the traces of a ``(levels, K, N_int)`` chunk of coefficients
        into ``trace_arrays`` at levels ``m0, m0 + 1, ...``, on the interior
        nodes of each face that has a trace array."""
        rows = chunk.reshape(-1, chunk.shape[-1])
        levels = (slice(m0, m0 + len(chunk)),)
        for out, functional, shape in zip(traces, self.faces, self.face_shapes):
            if out is None:
                continue
            vals = _along_axes(functional, rows, self.shape).reshape(
                *chunk.shape[:2], *[m - 2 for m in shape])
            out[self.ring + levels] = vals.transpose(self.order)


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
    K = 1 block of ``_march``.  wave: explicit leapfrog (CFL checked);
    heat (c = 1) and schrodinger (c = i): the trapezoid rule ``(I - c dt/2 L)
    v' = (I + c dt/2 L) v - dt f_mid``.  When ``lower`` is None and A is
    axis-separable with positive half-point a_kk, each step
    acts mode by mode in the per-axis eigenbasis, every level is transformed
    back and the traces are the modal trace functionals, as ``solve_block``
    takes them; otherwise the leapfrog makes one sparse product per step with
    the interior operator L, the trapezoid rule reuses one sparse
    factorization, and the traces are taken on the whole array one call per
    face.  Schrodinger runs are complex; any other run is complex exactly
    when its data, source, operator or time coefficient is.  Keeps the whole
    space-time array, the velocity (wave), the energy record and the traces.
    """
    full, dtype, basis, levels = _march(kind, field, lower, [data], t_final, grid)
    inner, inner_shape = _interior(grid)
    nt = grid.nt
    u = np.zeros(grid.shape, dtype=dtype)  # the boundary ring stays zero
    if basis is None:
        for m, level in enumerate(levels):
            u[inner + (m,)] = level.reshape(inner_shape)
        traces = [_face_trace(u, grid, f).reshape(-1, nt) for f in range(grid.num_faces)]
    else:
        traces = basis.trace_arrays(nt, 1, dtype, range(grid.num_faces))
        form = np.empty(nt)  # the wave's Dirichlet form, cell * sum of mu |c|^2
        cell = math.prod(grid.domain.spacings)
        m0 = 0
        for chunk in levels:
            rows = chunk.reshape(len(chunk), -1)
            m1 = m0 + len(rows)
            u[inner + (slice(m0, m1),)] = np.moveaxis(
                basis.nodes(rows).reshape(-1, *inner_shape), 0, -1)
            basis.write_traces(traces, chunk, m0)
            if kind == "wave":
                form[m0:m1] = ((rows * np.conj(rows)).real @ basis.mu) * cell
            m0 = m1
        u[inner + (0,)] = np.asarray(data.u0)[inner]  # level 0 is the datum, as off the route
        traces = [t.reshape(-1, nt) for t in traces]
    _check_dirichlet(u, grid)
    # energy: sqrt(Dirichlet form + L2 norm of the velocity) for wave, the L2
    # norm otherwise, per level; traces as (face nodes, nt) per face
    space, w = tuple(range(grid.n)), grid.space_weights[..., None]
    velocity = None
    if kind == "wave":
        velocity = gradient_time(u, grid)
        velocity[..., 0] = np.asarray(data.u1)
        if basis is None:
            if lower is None or (all(_is_zero_coeff(c) for c in lower.space)
                                 and _is_zero_coeff(lower.zero)):
                op = full  # the operator already assembled is Delta_A alone
            else:
                op = assemble_operator(field, None, grid)
            form = _dirichlet_form(_matvec(op, u), u, grid)
        energy = EnergyRecord(kind="wave", values=np.sqrt(
            form + np.sum(np.abs(velocity) ** 2 * w, axis=space)
        ))
    else:
        energy = EnergyRecord(kind="l2", values=np.sqrt(np.sum(np.abs(u) ** 2 * w, axis=space)))
    return EvolutionState(kind=kind, grid=grid, u=u, velocity=velocity, traces=traces,
                          energy=energy)


def _trace_slabs(grid: SpaceTimeGrid, faces) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """Where the one-sided trace stencils of ``faces`` read.

    Returns the C-order interior positions of the nodes in the three-node
    slab next to any of those faces, and per face the slab as indices into
    those gathered values, with index ``len(gather)`` standing for a
    boundary node.
    """
    inner, inner_shape = _interior(grid)
    pos = np.full(grid.space_shape, -1, dtype=np.intp)
    pos[inner] = np.arange(int(np.prod(inner_shape))).reshape(inner_shape)
    slabs = {}
    for f in faces:
        axis, side = grid.face_axis_side(f)
        sl = [slice(None)] * grid.n
        sl[axis] = slice(0, 3) if side == 0 else slice(-3, None)
        slabs[f] = pos[tuple(sl)]
    gather = np.unique(np.concatenate([np.zeros(0, np.intp),
                                       *(s[s >= 0] for s in slabs.values())]))
    return gather, {f: np.where(s >= 0, np.searchsorted(gather, s), gather.size)
                    for f, s in slabs.items()}


def solve_block(
    kind: str,
    field: MatrixField,
    lower: LowerOrderCoeffs | None,
    data: list,
    t_final: float,
    grid: SpaceTimeGrid,
    faces=None,
) -> BlockState:
    """Run K data of one kind in one level loop; keep traces and last levels.

    The checks, step rules and routes of ``solve_evolution`` on K data.  Only
    the faces in ``faces`` (every face when None) get a trace array; the
    others get None.  On the modal route no level is transformed back to the
    interior nodes but the last three: each chunk of coefficient levels goes
    through the trace functionals of those faces straight into their traces.
    Otherwise each step is one CSR-times-dense product (leapfrog) or one
    K-right-hand-side solve with one factorization per block (trapezoid); per
    level only the interior nodes the one-sided trace stencils of those faces
    read are gathered, and the traces are formed after the loop by the same
    stencil on the same values.  No velocity, energy record or space-time
    array is kept.
    """
    if not data:
        raise ValueError("empty block")
    _, dtype, basis, levels = _march(kind, field, lower, list(data), t_final, grid)
    nt, size = grid.nt, len(data)
    faces = set(range(grid.num_faces) if faces is None else faces)
    inner, inner_shape = _interior(grid)
    last = np.zeros((*grid.space_shape, 3, size), dtype=dtype)
    if basis is None:
        gather, slabs = _trace_slabs(grid, faces)
        kept = np.zeros((gather.size + 1, nt, size), dtype=dtype)  # last row: the boundary
        for m, level in enumerate(levels):
            kept[:-1, m] = level[gather]
            if m >= nt - 3:
                last[inner + (m - nt + 3,)] = level.reshape(*inner_shape, size)
        traces = [None if f not in slabs else _face_trace(kept[slabs[f]], grid, f).reshape(
            -1, nt, size) for f in range(grid.num_faces)]
    else:
        traces = basis.trace_arrays(nt, size, dtype, faces)
        m0 = 0
        for chunk in levels:
            basis.write_traces(traces, chunk, m0)
            for m in range(max(m0, nt - 3), m0 + len(chunk)):
                last[inner + (m - nt + 3,)] = basis.nodes(chunk[m - m0]).T.reshape(
                    *inner_shape, size)
            m0 += len(chunk)
        if nt <= 3:  # level 0 is kept: the data, as in solve_evolution
            last[inner + (3 - nt,)] = np.stack([np.asarray(d.u0)[inner] for d in data], axis=-1)
        traces = [None if t is None else t.reshape(-1, nt, size) for t in traces]
    _check_dirichlet(last, grid)
    return BlockState(kind=kind, grid=grid, traces=traces, last=last)


# -- diagnostics -----------------------------------------------------------------------


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
    When A is axis-separable (every off-diagonal entry zero, every monomial
    of a_kk free of the variables other than x_k; always so in 1-D), it is
    every sum of one eigenvalue per axis of the 1-D tridiagonals, each an
    O(m^2) ``eigvalsh_tridiagonal``.  Otherwise, in 2-D, it is a band
    matrix: with the nodes numbered longest axis slowest, its half-bandwidth
    is the unknown count over that axis's length (plus 1 when A has an
    off-diagonal entry), and a band reduction (``scipy.linalg.eig_banded``)
    costs O(N^2 b) against the O(N^3) of a dense eigensolve; in 3-D the band
    is too wide to gain and the dense ``eigvalsh`` is used.
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
    try:
        if _axis_separable(field):
            mu = _separable_spectrum(field, grid)
        else:
            mat = -_interior_block(assemble_operator(field, None, grid), grid)  # exactly symmetric
            if grid.n == 3:
                mu = np.linalg.eigvalsh(mat.toarray())
            else:
                import scipy.linalg as sla

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


def _axis_separable(field: MatrixField) -> bool:
    """Whether A is diagonal with each a_kk a polynomial in x_k alone, read
    exactly off the monomials."""
    n = field.n
    return all(
        all(field.entry(k, l).is_zero() for l in range(k + 1, n))
        and not any(e for powers in field.entry(k, k).terms
                    for j, e in enumerate(powers) if j != k)
        for k in range(n)
    )


def _axis_tridiagonals(field: MatrixField,
                       grid: SpaceTimeGrid) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per axis of an axis-separable A, the diagonal ``hi + lo`` and the
    off-diagonal ``-a`` of the 1-D tridiagonal built from a = a_kk / h_k^2 at
    that axis's half points (the values ``assemble_operator`` reads).  The
    interior -Delta_A is their Kronecker sum."""
    tridiagonals = []
    for k in range(grid.n):
        x = grid.domain.axis_coords(k)
        pts = np.zeros((x.size - 1, grid.n))  # a_kk reads only column k
        pts[:, k] = 0.5 * (x[1:] + x[:-1])
        a = field.entry(k, k)(pts) / grid.domain.spacings[k] ** 2
        tridiagonals.append((a[1:] + a[:-1], -a[1:-1]))
    return tridiagonals


def _separable_spectrum(field: MatrixField, grid: SpaceTimeGrid) -> np.ndarray:
    """Every eigenvalue, ascending, of the interior -Delta_A of an
    axis-separable A: every sum of one eigenvalue per axis tridiagonal."""
    import scipy.linalg as sla

    return np.sort(_kronecker_sum([sla.eigvalsh_tridiagonal(d, e, check_finite=False)
                                   for d, e in _axis_tridiagonals(field, grid)]), axis=None)


def _kronecker_sum(per_axis: list[np.ndarray]) -> np.ndarray:
    """Every sum of one entry per axis, axis k along dimension k: the
    eigenvalues of a Kronecker sum, in C order of the interior nodes."""
    total = np.zeros(())
    for values in per_axis:
        total = total[..., None] + values
    return total


def _axis_eigenpairs(field: MatrixField, grid: SpaceTimeGrid) -> list | None:
    """Per axis of an axis-separable A, the eigenvalues and orthonormal
    eigenvectors (columns) of its tridiagonal, or None unless every one is
    positive definite (so when every half-point a_kk is positive).

    LAPACK ``dpteqr`` works on the bidiagonal Cholesky factor, which gives
    the eigenvalues to high relative accuracy (Demmel and Kahan, SIAM J. Sci.
    Stat. Comput. 11, 1990); its ``info`` is nonzero when the factor does not
    exist.  A 1 x 1 tridiagonal returns at once, so its sign is read off.
    Axes with the same tridiagonal (a square grid of identity A) share one
    solve."""
    from scipy.linalg import lapack

    pairs, solved = [], {}
    for d, e in _axis_tridiagonals(field, grid):
        key = (d.tobytes(), e.tobytes())
        if key not in solved:
            # the wrapper wants one off-diagonal entry even for a 1 x 1 matrix
            mu, _, vec, info = lapack.dpteqr(d, e if e.size else np.zeros(1), np.eye(d.size),
                                             compute_z=1)
            if info != 0 or mu.min() <= 0.0:
                return None
            solved[key] = (mu, vec)
        pairs.append(solved[key])
    return pairs


def _along_axes(mats: list[tuple[int, np.ndarray]], rows: np.ndarray,
                shape: list[int]) -> np.ndarray:
    """Apply each ``(axis, matrix)`` of ``mats`` in turn along that space axis
    of every row of a ``(rows, N)`` block of arrays in C order of ``shape``; a
    matrix may be rectangular (a trace functional is one row).

    Each product is a stack of one matrix product per row (per row and slab
    of the leading axes, except along the last axis), whose shapes depend on
    ``shape`` alone: a row's arithmetic depends neither on the number of rows
    nor on its place among them.  The matrices are real, so a complex block
    is transformed as its real and imaginary parts."""
    if np.iscomplexobj(rows):
        real = _along_axes(mats, rows.real, shape)
        out = np.empty(real.shape, dtype=rows.dtype)
        out.real = real
        out.imag = _along_axes(mats, rows.imag, shape)
        return out
    out, shape = rows, list(shape)
    for axis, mat in mats:
        after = math.prod(shape[axis + 1:])
        if after == 1:
            out = np.matmul(out.reshape(-1, math.prod(shape[:axis]), shape[axis]), mat.T)
        else:
            out = np.matmul(mat, out.reshape(-1, shape[axis], after))
        shape[axis] = mat.shape[0]
    return out.reshape(len(rows), -1)


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

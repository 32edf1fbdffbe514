"""Discrete divergence-form operators and conjugation coefficient fields.

The spatial operator, Delta_A plus first- and zero-order terms, has one
discretization: the all-node CSR matrix of ``assemble_operator``.  Its
diagonal terms difference half-node fluxes a_kk(x +- h/2) du, its
off-diagonal terms nest centered differences around the nodal coefficient,
so for symmetric A the (k,l) and (l,k) terms are mutual adjoints and the
interior block is exactly symmetric.  Rows of boundary nodes are empty, so
outputs are zero on the boundary ring.  ``laplacian_flux`` and
``apply_operator`` are matrix-vector products with it.

Conjugating an evolution operator with Phi = exp(-tau * phi) produces split
operators whose coefficient fields (a, b, B, d, c) are assembled here
analytically from the weight; chi = |grad psi|_A^2 - (dt psi)^2 gives the
cross-check identities a = tau^2 lam^2 phi^2 chi and
b = -tau lam^2 phi chi - tau lam phi (wave operator applied to psi).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .coefficients import MatrixField
from .geometry import SpaceTimeGrid
from .polynomials import Polynomial
from .weights import WeightSpec

__all__ = [
    "KINDS",
    "LowerOrderCoeffs",
    "ConjugationCoeffs",
    "RiemannianField",
    "apply_operator",
    "assemble_operator",
    "conjugation_coeffs",
    "conjugation_residual",
    "green_residual",
    "riemannian_identity_residual",
    "magnetic_expansion_residual",
    "laplacian_flux",
    "gradient_space",
    "gradient_time",
]

KINDS = ("elliptic", "parabolic", "wave", "schrodinger")

_EXP_CAP = 700.0


def _sl(ndim: int, axis: int, sl: slice | int) -> tuple:
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


def _one_sided(u: np.ndarray, axis: int, h: float, end: int) -> np.ndarray:
    """3-point one-sided difference at the low (``end`` 0) or high (``end``
    -1) end of an axis, pointing into the array."""
    nd = u.ndim
    if end == 0:
        return (
            -3.0 * u[_sl(nd, axis, 0)] + 4.0 * u[_sl(nd, axis, 1)] - u[_sl(nd, axis, 2)]
        ) / (2.0 * h)
    return (
        3.0 * u[_sl(nd, axis, -1)] - 4.0 * u[_sl(nd, axis, -2)] + u[_sl(nd, axis, -3)]
    ) / (2.0 * h)


def _central_full(u: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Centered differences with 3-point one-sided ends, full shape."""
    nd = u.ndim
    out = np.empty_like(u, dtype=np.result_type(u, np.float64))
    out[_sl(nd, axis, slice(1, -1))] = (
        u[_sl(nd, axis, slice(2, None))] - u[_sl(nd, axis, slice(None, -2))]
    ) / (2.0 * h)
    for end in (0, -1):
        out[_sl(nd, axis, end)] = _one_sided(u, axis, h, end)
    return out


def gradient_space(u: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Spatial gradient of a space or space-time array, shape (..., n)."""
    h = grid.domain.spacings
    comps = [_central_full(u, ax, h[ax]) for ax in range(grid.n)]
    return np.stack(comps, axis=-1)


def gradient_time(u: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Time derivative of a space-time array (centered, one-sided ends)."""
    return _central_full(u, u.ndim - 1, grid.dt)


def _half_points(grid: SpaceTimeGrid, axis: int) -> np.ndarray:
    pts = grid.space_points
    nd = pts.ndim - 1
    return 0.5 * (
        pts[_sl(nd, axis, slice(1, None)) + (slice(None),)]
        + pts[_sl(nd, axis, slice(None, -1)) + (slice(None),)]
    )


def _zero_space_ring(u: np.ndarray, n: int) -> None:
    for ax in range(n):
        u[_sl(u.ndim, ax, slice(0, 1))] = 0
        u[_sl(u.ndim, ax, slice(-1, None))] = 0


def _zero_time_caps(u: np.ndarray) -> None:
    u[..., 0] = 0
    u[..., -1] = 0


def assemble_operator(
    field: MatrixField, lower: LowerOrderCoeffs | None, grid: SpaceTimeGrid
) -> sp.csr_matrix:
    """All-node CSR matrix of Delta_A plus first- and zero-order terms.

    Only ``lower.space`` and ``lower.zero`` are read; ``lower`` may be None.
    Rows of boundary nodes are empty; interior rows reach their boundary
    neighbours, so the matrix applies to fields that do not vanish there.
    Each a_kk is evaluated once on its half points and each a_kl (k < l)
    once on the nodes; the coefficients of one stencil offset are summed
    before the rows are written, in C order of the nodes with columns
    ascending.  The dtype is that of the coefficients.
    """
    n, shape, h = grid.n, grid.space_shape, grid.domain.spacings
    inner = tuple(slice(1, -1) for _ in shape)
    centre = (0,) * n

    def along(ax: int, sl: slice) -> tuple:  # interior in every axis but ax
        return inner[:ax] + (sl,) + inner[ax + 1:]

    def shifted(ax: int, s: int) -> tuple:  # interior nodes moved by s along ax
        return along(ax, slice(1 + s, s - 1 or None))

    def unit(ax: int, s: int) -> tuple:
        return tuple(s if a == ax else 0 for a in range(n))

    stencil: dict[tuple, np.ndarray] = {}

    def add(offset: tuple, values: np.ndarray) -> None:
        stencil[offset] = stencil[offset] + values if offset in stencil else values

    for k in range(n):
        # the half point i + 1/2 along k is index i of a_half
        a_half = field.entry(k, k)(_half_points(grid, k)) / h[k] ** 2
        hi, lo = a_half[along(k, slice(1, None))], a_half[along(k, slice(None, -1))]
        add(unit(k, 1), hi)
        add(unit(k, -1), lo)
        add(centre, -(hi + lo))
    for k in range(n):
        for l in range(k + 1, n):
            if field.entry(k, l).is_zero():
                continue
            a_kl = field.entry(k, l)(grid.space_points)  # also a_lk
            for sk in (1, -1):
                for sl_ in (1, -1):
                    # the (k,l) term reads a_kl at x + sk e_k, the (l,k) term at x + sl e_l
                    corner = tuple(sk if a == k else sl_ if a == l else 0 for a in range(n))
                    scale = sk * sl_ / (4.0 * h[k] * h[l])
                    add(corner, (a_kl[shifted(k, sk)] + a_kl[shifted(l, sl_)]) * scale)
    if lower is not None:
        for ax, c in enumerate(lower.space):
            if _is_zero_coeff(c):
                continue
            cv = np.broadcast_to(_coeff_space(c, grid), shape)[inner] / (2.0 * h[ax])
            add(unit(ax, 1), cv)
            add(unit(ax, -1), -cv)
        if not _is_zero_coeff(lower.zero):
            add(centre, np.broadcast_to(_coeff_space(lower.zero, grid), shape)[inner])

    strides = [int(np.prod(shape[ax + 1:])) for ax in range(n)]
    offsets = sorted(stencil, key=lambda off: np.dot(off, strides))
    data = np.stack([stencil[off] for off in offsets], axis=-1)
    size = int(np.prod(shape))
    # int32 indices when they fit, as scipy would pick, so it need not check and cast them
    itype = np.int32 if size * len(offsets) < 2**31 else np.int64
    rows = np.arange(size, dtype=itype).reshape(shape)[inner].ravel()
    counts = np.zeros(size, dtype=itype)
    counts[rows] = len(offsets)
    indptr = np.concatenate([np.zeros(1, itype), np.cumsum(counts, dtype=itype)])
    indices = (rows[:, None] + np.dot(offsets, strides).astype(itype)).ravel()
    return sp.csr_matrix((data.reshape(-1), indices, indptr), shape=(size, size))


def _matvec(mat: sp.csr_matrix, u: np.ndarray) -> np.ndarray:
    """An all-node operator applied to a space(+trailing) array."""
    return (mat @ u.reshape(mat.shape[0], -1)).reshape(u.shape)


def laplacian_flux(field: MatrixField, u: np.ndarray, grid: SpaceTimeGrid) -> np.ndarray:
    """Flux-form Delta_A on space(+trailing) arrays; zero on the boundary ring.

    One product with ``assemble_operator(field, None, grid)``.
    """
    u = np.asarray(u)
    if u.shape[: grid.n] != grid.space_shape:
        raise ValueError("array does not match the spatial grid")
    return _matvec(assemble_operator(field, None, grid), u)


@dataclass
class LowerOrderCoeffs:
    """First- and zero-order coefficients; values are scalars or polynomials.

    ``space`` holds the first-order spatial coefficients, ``time`` the
    time-derivative coefficient (wave only), ``zero`` the zero-order term.
    ``bound`` is the declared sup bound; validated when set.
    """

    kind: str
    space: tuple = ()
    time: complex | Polynomial | None = None
    zero: complex | Polynomial = 0.0
    bound: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind != "wave" and self.time is not None:
            raise ValueError(f"time-derivative coefficient not allowed for {self.kind}")

    @classmethod
    def none(cls, kind: str) -> "LowerOrderCoeffs":
        return cls(kind=kind)

    def is_zero(self) -> bool:
        zeros = all(_is_zero_coeff(c) for c in self.space)
        return zeros and _is_zero_coeff(self.time) and _is_zero_coeff(self.zero)

    def validate_bound(self, grid: SpaceTimeGrid) -> None:
        if self.bound is None:
            return
        for c in (*self.space, self.time, self.zero):
            if c is None:
                continue
            sup = float(np.max(np.abs(_coeff_space(c, grid))))
            if sup > self.bound + 1e-12:
                raise ValueError(
                    f"coefficient sup {sup:.6g} exceeds declared bound {self.bound}"
                )


def _is_zero_coeff(c) -> bool:
    if c is None:
        return True
    if isinstance(c, Polynomial):
        return c.is_zero()
    return complex(c) == 0


def _coeff_space(c, grid: SpaceTimeGrid) -> np.ndarray:
    """Coefficient values on space nodes (scalars stay 0-d broadcastable)."""
    if c is None:
        return np.zeros(())
    if isinstance(c, Polynomial):
        return c(grid.space_points)
    return np.asarray(c)


def apply_operator(
    kind: str,
    field: MatrixField,
    lower: LowerOrderCoeffs | None,
    u: np.ndarray,
    grid: SpaceTimeGrid,
) -> np.ndarray:
    """Apply the selected evolution operator; boundary ring and caps are 0.

    Elliptic input is a spatial array, everything else space-time with time
    as the last axis.  The spatial part, first- and zero-order terms
    included, is one product with ``assemble_operator``; the dtype is the
    result type of that matrix, ``u`` and the time part.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    lower = _checked_lower(kind, lower, grid)
    u = np.asarray(u)
    expected = grid.space_shape if kind == "elliptic" else grid.shape
    if u.shape != expected:
        raise ValueError(f"expected shape {expected}, got {u.shape}")
    return _apply_assembled(kind, assemble_operator(field, lower, grid), lower.time, u, grid)


def _checked_lower(kind: str, lower: LowerOrderCoeffs | None,
                   grid: SpaceTimeGrid) -> LowerOrderCoeffs:
    """``lower`` (none if None) after checking its kind and first-order terms."""
    lower = lower or LowerOrderCoeffs.none(kind)
    if lower.kind != kind:
        raise ValueError(f"lower-order coefficients are for {lower.kind!r}, not {kind!r}")
    if lower.space and len(lower.space) != grid.n:
        raise ValueError("need one first-order coefficient per axis")
    return lower


def _apply_assembled(kind: str, mat: sp.csr_matrix, time_coeff, u: np.ndarray,
                     grid: SpaceTimeGrid) -> np.ndarray:
    """``apply_operator`` with the spatial matrix already assembled."""
    if not np.all(np.isfinite(u)):
        raise ValueError("non-finite values in the input field")
    out = _matvec(mat, u)
    if kind == "wave":
        out[..., 1:-1] -= (u[..., 2:] - 2.0 * u[..., 1:-1] + u[..., :-2]) / grid.dt**2
        if not _is_zero_coeff(time_coeff):
            out = out + _coeff_space(time_coeff, grid)[..., None] * gradient_time(u, grid)
    elif kind == "parabolic":
        out -= gradient_time(u, grid)
    elif kind == "schrodinger":
        out = out + 1j * gradient_time(u, grid)

    _zero_space_ring(out, grid.n)
    if kind != "elliptic":
        _zero_time_caps(out)
    return out


# -- conjugation ---------------------------------------------------------------


@dataclass
class ConjugationCoeffs:
    """Coefficient fields of the conjugated operator split, on grid nodes.

    Evolution kinds carry space-time arrays; the elliptic kind is spatial.
    ``d`` exists for the wave split, ``c`` for the additive scalar of the
    elliptic/parabolic/schrodinger splits.
    """

    kind: str
    tau: float
    lam: float
    a: np.ndarray
    b: np.ndarray
    B: np.ndarray  # (..., n)
    d: np.ndarray | None
    c: np.ndarray | None
    chi: np.ndarray | None
    phi: np.ndarray


def _spatial_weight_pieces(spec: WeightSpec, field: MatrixField, grid: SpaceTimeGrid):
    pts = grid.space_points
    a_vals = field(pts)
    da_vals = field.first_derivatives(pts)
    grad0 = spec.psi0.eval_gradient(pts)
    hess0 = spec.psi0.eval_hessian(pts)
    gsq = np.einsum("...k,...kl,...l->...", grad0, a_vals, grad0)
    lap_a_psi0 = np.einsum("...kl,...kl->...", a_vals, hess0) + np.einsum(
        "...klk,...l->...", da_vals, grad0
    )
    a_grad0 = np.einsum("...kl,...l->...k", a_vals, grad0)
    return gsq, lap_a_psi0, a_grad0


def conjugation_coeffs(
    spec: WeightSpec,
    field: MatrixField,
    kind: str,
    tau: float,
    grid: SpaceTimeGrid,
    admissibility=None,
) -> ConjugationCoeffs:
    """Assemble the split coefficients analytically on the grid."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if tau <= 0:
        raise ValueError("tau must be positive")
    if admissibility is not None and not admissibility.passed:
        import warnings

        warnings.warn(
            f"weight is not admissible for kind {kind!r}: {admissibility.codes()}",
            stacklevel=2,
        )
    lam = spec.lam
    gsq, lap0, a_grad0 = _spatial_weight_pieces(spec, field, grid)

    if kind == "elliptic":
        phi = np.exp(lam * spec.psi_space(grid))
        lap_phi = lam * phi * (lam * gsq + lap0)
        a = tau**2 * (lam * phi) ** 2 * gsq
        b = -2.0 * tau * lap_phi
        c = tau * lap_phi
        big_b = -2.0 * tau * lam * phi[..., None] * a_grad0
        chi = gsq
        return ConjugationCoeffs(
            kind=kind, tau=tau, lam=lam, a=a, b=b, B=big_b, d=None, c=c,
            chi=chi, phi=phi,
        )

    psi = spec.psi_values(grid)
    phi = np.exp(lam * psi)
    dt1 = spec.psi1.dt(grid.times)

    grad_phi_sq_a = (lam * phi) ** 2 * gsq[..., None]
    dt_phi = lam * phi * dt1
    lap_phi = lam * phi * (lam * gsq[..., None] + lap0[..., None])
    dtt_phi = lam * phi * (lam * dt1**2 + spec.psi1.dtt)
    big_b = -2.0 * tau * lam * phi[..., None] * a_grad0[..., None, :]

    chi = gsq[..., None] - dt1**2

    if kind == "wave":
        a = tau**2 * (grad_phi_sq_a - dt_phi**2)
        b = -tau * (lap_phi - dtt_phi)
        d = 2.0 * tau * dt_phi
        c = None
    elif kind == "parabolic":
        a = tau**2 * grad_phi_sq_a
        b = -2.0 * tau * lap_phi
        c = tau * lap_phi + tau * dt_phi
        d = None
    else:  # schrodinger
        a = tau**2 * grad_phi_sq_a
        b = -tau * lap_phi
        c = -1j * tau * dt_phi
        d = None

    return ConjugationCoeffs(
        kind=kind, tau=tau, lam=lam, a=a, b=b, B=big_b, d=d, c=c,
        chi=chi, phi=phi,
    )


def _check_margin_support(u: np.ndarray, grid: SpaceTimeGrid) -> None:
    for ax in range(u.ndim):
        for sl in (slice(0, 2), slice(-2, None)):
            if np.max(np.abs(u[_sl(u.ndim, ax, sl)])) != 0.0:
                raise ValueError("support touches the boundary (2-node margin required)")


def conjugation_residual(
    u: np.ndarray,
    spec: WeightSpec,
    field: MatrixField,
    kind: str,
    tau: float,
    grid: SpaceTimeGrid,
) -> float:
    """Relative L2 mismatch between Phi^-1 L (Phi u) and the split applied to u.

    The conjugation factor is rescaled by its grid minimum before use; a
    scalar rescaling of Phi leaves the conjugated operator unchanged while
    keeping exponents inside double range.
    """
    u = np.asarray(u)
    spatial = kind == "elliptic"
    expected = grid.space_shape if spatial else grid.shape
    if u.shape != expected:
        raise ValueError(f"expected shape {expected}, got {u.shape}")
    _check_margin_support(u, grid)

    coeffs = conjugation_coeffs(spec, field, kind, tau, grid)
    phi = coeffs.phi
    z = tau * (phi - float(np.min(phi)))
    if float(np.max(z)) > _EXP_CAP:
        raise OverflowError("conjugation exponent out of double range")
    cap_phi = np.exp(-z)

    mat = assemble_operator(field, None, grid)
    direct = _apply_assembled(kind, mat, None, cap_phi * u, grid) / cap_phi

    first = np.zeros_like(direct)
    for ax in range(grid.n):
        first = first + coeffs.B[..., ax] * _central_full(u, ax, grid.domain.spacings[ax])

    principal = _apply_assembled(kind, mat, None, u, grid)
    if kind == "wave":
        split = (
            principal
            + coeffs.a * u
            + first
            + coeffs.d * gradient_time(u, grid)
            + coeffs.b * u
        )
    else:
        split = principal + (coeffs.a + coeffs.b + coeffs.c) * u + first

    _zero_space_ring(split, grid.n)
    if not spatial:
        _zero_time_caps(split)

    w = grid.space_weights if spatial else grid.space_weights[..., None] * grid.time_weights
    num = float(np.sqrt(np.sum(np.abs(direct - split) ** 2 * w)))
    den = float(np.sqrt(np.sum(np.abs(direct) ** 2 * w)))
    return 0.0 if den == 0.0 else num / den


# -- structural identities -------------------------------------------------------


def green_residual(
    u: np.ndarray, v: np.ndarray, field: MatrixField, grid: SpaceTimeGrid
) -> float:
    """Defect of the divergence-form Green formula on spatial fields."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != grid.space_shape or v.shape != grid.space_shape:
        raise ValueError("green_residual expects spatial fields")
    a_vals = field(grid.space_points)
    lap = laplacian_flux(field, u, grid)
    interior = complex(np.sum(lap * np.conj(v) * grid.space_weights))
    grad_u = gradient_space(u, grid)
    grad_v = gradient_space(v, grid)
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


class RiemannianField:
    """Conformal metric built from A for n >= 3; g = |det A|^(1/(n-2)) A^(-1)."""

    def __init__(self, field: MatrixField, grid: SpaceTimeGrid):
        if field.n < 3:
            raise ValueError(f"metric exponent undefined for n={field.n}")
        self.field = field
        self.grid = grid
        pts = grid.space_points
        a_vals = field(pts)
        det = np.linalg.det(a_vals)
        if float(np.min(np.abs(det))) <= 0.0:
            raise ValueError("det A must be bounded away from zero")
        expo = 1.0 / (field.n - 2.0)
        self.det_a = det
        self.sqrt_det_g = np.abs(det) ** expo
        self.inv_scale = np.abs(det) ** (-expo)  # 1 / sqrt|g|
        self.inv_a = np.linalg.inv(a_vals)
        self.g = self.sqrt_det_g[..., None, None] * self.inv_a
        self.g_inv = self.inv_scale[..., None, None] * a_vals
        self.det_g = np.abs(det) ** (2.0 * expo)

    def grad_g(self, u: np.ndarray) -> np.ndarray:
        grad = gradient_space(u, self.grid)
        return np.einsum("...kl,...l->...k", self.g_inv, grad)

    def div_g(self, x_field: np.ndarray) -> np.ndarray:
        acc = np.zeros(x_field.shape[:-1], dtype=np.result_type(x_field, np.float64))
        for ax in range(self.grid.n):
            acc = acc + _central_full(
                self.sqrt_det_g * x_field[..., ax], ax, self.grid.domain.spacings[ax]
            )
        return self.inv_scale * acc

    def laplace_g(self, u: np.ndarray) -> np.ndarray:
        """sqrt|g| g^{-1} equals A pointwise, so the definitional route is
        (1/sqrt|g|) times the flux-form divergence."""
        return self.inv_scale * laplacian_flux(self.field, u, self.grid)

    def inv_scale_gradient(self) -> np.ndarray:
        """Analytic gradient of 1/sqrt|g| via Jacobi's determinant formula."""
        da_vals = self.field.first_derivatives(self.grid.space_points)
        trace = np.einsum("...lk,...klp->...p", self.inv_a, da_vals)
        ddet = self.det_a[..., None] * trace
        expo = 1.0 / (self.field.n - 2.0)
        sign = np.sign(self.det_a)[..., None]
        return -expo * np.abs(self.det_a)[..., None] ** (-expo - 1.0) * sign * ddet


def riemannian_identity_residual(
    field: MatrixField, u: np.ndarray, grid: SpaceTimeGrid
) -> float:
    """Sup-norm defect of Delta_A u = sqrt|g| * Delta_g u on interior nodes.

    Delta_g is rebuilt from the product-rule identity
    Delta_g u = Delta_A(s u) - 2 (grad s | grad u)_A - u Delta_A s with
    s = 1/sqrt|g|, so the two routes differ at truncation order only.
    """
    metric = RiemannianField(field, grid)
    u = np.asarray(u)
    if u.shape != grid.space_shape:
        raise ValueError("expected a spatial field")
    s = metric.inv_scale
    grad_s = metric.inv_scale_gradient()
    a_vals = field(grid.space_points)
    mat = assemble_operator(field, None, grid)
    lap_u = _matvec(mat, u)
    lap_su = _matvec(mat, s * u)
    lap_s = _matvec(mat, s)
    grad_u = gradient_space(u, grid)
    cross = np.einsum("...k,...kl,...l->...", grad_s, a_vals, grad_u)
    delta_g = lap_su - 2.0 * cross - u * lap_s
    resid = lap_u - metric.sqrt_det_g * delta_g
    inner = resid[tuple(slice(2, -2) for _ in range(grid.n))]
    return float(np.max(np.abs(inner))) if inner.size else 0.0


def _centered_magnetic(
    a_vals: np.ndarray, b_vals: np.ndarray, u: np.ndarray, h
) -> np.ndarray:
    """sum_k (Dc_k + i b_k) sum_l a_{kl} (Dc_l + i b_l) u, all centered at
    nodes (identity checks only); with b = 0 the nested centered Delta_A."""
    out = np.zeros_like(u)
    for k in range(len(h)):
        f_k = np.zeros_like(u)
        for l in range(len(h)):
            f_k = f_k + a_vals[..., k, l] * (
                _central_full(u, l, h[l]) + 1j * b_vals[..., l] * u
            )
        out = out + _central_full(f_k, k, h[k]) + 1j * b_vals[..., k] * f_k
    return out


def magnetic_expansion_residual(
    field: MatrixField,
    b_field: list[Polynomial],
    u: np.ndarray,
    grid: SpaceTimeGrid,
) -> float:
    """Composed vs expanded magnetic operator, discretized consistently.

    Composed: sum_k (D_k + i b_k) sum_l a_{kl} (D_l + i b_l) u with centered
    differences.  Expanded: the same centered Delta_A u plus
    2i (grad u | b)_A + (-|b|_A^2 + i div(A b)) u with div(A b) analytic;
    the i on the divergence term is what makes the operator formally
    self-adjoint for real b.  The two coincide exactly when b = 0.
    """
    if len(b_field) != grid.n:
        raise ValueError("need one magnetic component per axis")
    u = np.asarray(u, dtype=complex)
    if u.shape != grid.space_shape:
        raise ValueError("expected a spatial field")
    h = grid.domain.spacings
    pts = grid.space_points
    a_vals = field(pts)
    b_vals = np.stack([b(pts) for b in b_field], axis=-1)

    composed = _centered_magnetic(a_vals, b_vals, u, h)
    grad_u = gradient_space(u, grid)
    cross = np.einsum("...kl,...l,...k->...", a_vals, grad_u, b_vals)
    b_sq = np.einsum("...k,...kl,...l->...", b_vals, a_vals, b_vals)

    da_vals = field.first_derivatives(pts)
    db_vals = np.stack(
        [np.stack([b.diff(p)(pts) for p in range(grid.n)], axis=-1) for b in b_field],
        axis=-2,
    )  # (..., l, p) = d_p b_l
    div_ab = np.einsum("...klk,...l->...", da_vals, b_vals) + np.einsum(
        "...kl,...lk->...", a_vals, db_vals
    )

    expanded = (
        _centered_magnetic(a_vals, np.zeros_like(b_vals), u, h)
        + 2j * cross
        + (-b_sq + 1j * div_ab) * u
    )
    inner = (composed - expanded)[tuple(slice(2, -2) for _ in range(grid.n))]
    return float(np.max(np.abs(inner))) if inner.size else 0.0

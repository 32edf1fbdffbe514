"""Convexity certification for weights against variable coefficient matrices.

The certified object is the matrix

    Theta_A(h) = 2 A (hess h) A + Upsilon_A(h),

where Upsilon collects the first-order corrections coming from the spatial
variation of A through the rank-3 tensor

    Lambda^m_{kl}(A) = - sum_p d_p a_{kl} a_{pm} + 2 sum_p a_{kp} d_p a_{lm}.

Upsilon need not be symmetric; quadratic forms only see the symmetric part,
so eigenvalue scans use sym(Theta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import MatrixField, symmetric_eigenvalues
from .geometry import SpaceTimeGrid
from .polynomials import Polynomial

__all__ = [
    "ThetaDecomposition",
    "PseudoconvexCertificate",
    "FlattenedChart",
    "SymbolProbe",
    "theta_decomposition",
    "theta_tensors",
    "theta_scan",
    "certify_pseudoconvex",
    "certificate_from_scan",
    "flatten_and_certify_hypersurface",
    "subellipticity_bracket",
    "symbol_probe",
]

DEFAULT_GRAD_TOL = 1e-8
_CHART_NODES_PER_AXIS = 9  # chart grid of the flattening certificate


@dataclass
class ThetaDecomposition:
    """Lambda / Upsilon / Theta at one point, plus min symmetric eigenvalue."""

    Lambda: np.ndarray  # (n, n, n), last index is the contracted superscript
    Upsilon: np.ndarray  # (n, n)
    Theta: np.ndarray  # (n, n)
    theta_sym_min: float


def lambda_tensor(a_vals: np.ndarray, da_vals: np.ndarray) -> np.ndarray:
    """Lambda[..., k, l, m] from A values and first derivatives.

    ``da_vals[..., k, l, p]`` holds d_p a_{kl}.
    """
    first = np.einsum("...klp,...pm->...klm", da_vals, a_vals)
    second = np.einsum("...kp,...lmp->...klm", a_vals, da_vals)
    return -first + 2.0 * second


def theta_tensors(
    field: MatrixField, h: Polynomial, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (Lambda, Upsilon, Theta) over an array of points."""
    pts = np.asarray(points, dtype=float)
    a = field(pts)
    da = field.first_derivatives(pts)
    lam = lambda_tensor(a, da)
    grad_h = h.eval_gradient(pts)
    ups = np.einsum("...klm,...m->...kl", lam, grad_h)
    hess = h.eval_hessian(pts)
    theta = 2.0 * np.einsum("...kp,...pq,...ql->...kl", a, hess, a) + ups
    return lam, ups, theta


def theta_decomposition(field: MatrixField, h: Polynomial, x) -> ThetaDecomposition:
    """Assemble the decomposition at a single point."""
    if h.nvars != field.n:
        raise ValueError(f"weight has {h.nvars} variables, field has {field.n}")
    x = np.asarray(x, dtype=float)
    lam, ups, theta = theta_tensors(field, h, x)
    sym = 0.5 * (theta + theta.T)
    smin = float(symmetric_eigenvalues(sym)[0])
    return ThetaDecomposition(Lambda=lam, Upsilon=ups, Theta=theta, theta_sym_min=smin)


@dataclass
class PseudoconvexCertificate:
    """Grid-scan certificate: kappa > 0 and a nonvanishing gradient.

    The scan covers nodes only; ``lipschitz_margin`` is kappa minus the
    largest spacing times a discrete Lipschitz estimate of the scanned
    eigenvalue field, so callers can judge validity between nodes.
    """

    kappa: float
    grad_min: float
    passed: bool
    grad_tol: float
    argmin_kappa: tuple[float, ...]
    argmin_grad: tuple[float, ...]
    lipschitz_margin: float
    num_points: int


def theta_scan(
    field: MatrixField, h: Polynomial, pts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point minimal eigenvalue of sym(Theta) and gradient norm of h."""
    _, _, theta = theta_tensors(field, h, pts)
    sym = 0.5 * (theta + np.swapaxes(theta, -1, -2))
    smin = symmetric_eigenvalues(sym)[..., 0]
    grad = h.eval_gradient(pts)
    gnorm = np.sqrt(np.sum(grad**2, axis=-1))
    return smin, gnorm


def _lipschitz_margin(smin: np.ndarray, pts: np.ndarray, kappa: float) -> float:
    """kappa minus max spacing times a per-axis difference-quotient estimate."""
    if smin.ndim == 0:
        return kappa
    lip = 0.0
    hmax = 0.0
    for ax in range(smin.ndim):
        if smin.shape[ax] < 2:
            continue
        sl_hi = [slice(None)] * smin.ndim
        sl_lo = [slice(None)] * smin.ndim
        sl_hi[ax] = slice(1, None)
        sl_lo[ax] = slice(None, -1)
        df = np.abs(smin[tuple(sl_hi)] - smin[tuple(sl_lo)])
        dx = np.linalg.norm(
            pts[tuple(sl_hi) + (slice(None),)] - pts[tuple(sl_lo) + (slice(None),)],
            axis=-1,
        )
        with np.errstate(invalid="ignore", divide="ignore"):
            q = np.where(dx > 0, df / dx, 0.0)
        if q.size:
            lip = max(lip, float(np.max(q)))
            hmax = max(hmax, float(np.max(dx)))
    return kappa - hmax * lip


def certify_pseudoconvex(
    field: MatrixField,
    h: Polynomial,
    grid_or_points,
) -> PseudoconvexCertificate:
    """Scan grid nodes (or an explicit point array) for the Theta bound."""
    if isinstance(grid_or_points, SpaceTimeGrid):
        pts = grid_or_points.space_points
    else:
        pts = np.asarray(grid_or_points, dtype=float)
    if pts.size == 0:
        raise ValueError("empty grid")
    return certificate_from_scan(*theta_scan(field, h, pts), pts)


def certificate_from_scan(
    smin: np.ndarray, gnorm: np.ndarray, pts: np.ndarray
) -> PseudoconvexCertificate:
    """Certificate from a ``theta_scan`` of the points ``pts``."""
    flat_smin = smin.reshape(-1)
    flat_gnorm = gnorm.reshape(-1)
    flat_pts = pts.reshape(-1, pts.shape[-1])
    i_k = int(np.argmin(flat_smin))
    i_g = int(np.argmin(flat_gnorm))
    kappa = float(flat_smin[i_k])
    grad_min = float(flat_gnorm[i_g])
    margin = _lipschitz_margin(smin, pts, kappa)
    return PseudoconvexCertificate(
        kappa=kappa,
        grad_min=grad_min,
        passed=bool(kappa > 0.0 and grad_min > DEFAULT_GRAD_TOL),
        grad_tol=DEFAULT_GRAD_TOL,
        argmin_kappa=tuple(float(v) for v in flat_pts[i_k]),
        argmin_grad=tuple(float(v) for v in flat_pts[i_g]),
        lipschitz_margin=float(margin),
        num_points=int(flat_smin.size),
    )


# -- graph charts -------------------------------------------------------------


@dataclass
class FlattenedChart:
    """Convexifying chart for a graph hypersurface x_n = surface(x').

    The map sends (x', x_n) to (x', x_n - surface(x') + |x'|^2), turning the
    graph into the model paraboloid y_n = |y'|^2, and the model weight is
    psi0_model(y) = (y_n - 1)^2 + |y'|^2.  The transported matrix uses the
    Jacobian of the inverse map, whose last row is d_k surface(y') - 2 y'_k;
    with that convention the transported identity keeps the quadratic-form
    lower bound 4|xi|^2 at the origin.
    """

    surface: Polynomial  # function of the n-1 tangential variables
    radius: float
    halvings: int
    transported: MatrixField  # A_H on the chart
    psi0_model: Polynomial
    theta_origin: np.ndarray  # Theta_{A_H}(psi0_model)(0)
    theta_origin_min_eig: float
    jacobian_bound_ok: bool
    jacobian_min_quadform: float
    forward_map: list[Polynomial]
    inverse_map: list[Polynomial]

    def map_points(self, pts: np.ndarray) -> np.ndarray:
        return _apply_map(self.forward_map, pts)

    def unmap_points(self, pts: np.ndarray) -> np.ndarray:
        return _apply_map(self.inverse_map, pts)


def _apply_map(components: list[Polynomial], pts: np.ndarray) -> np.ndarray:
    """Points through a chart map given by one polynomial per coordinate."""
    pts = np.asarray(pts, dtype=float)
    out = np.empty_like(pts)
    for i, comp in enumerate(components):
        out[..., i] = comp(pts)
    return out


def _chart_maps(n: int, surface: Polynomial) -> tuple[list[Polynomial], list[Polynomial]]:
    """Forward (x -> y) and inverse (y -> x) chart maps as polynomials in n vars."""
    # promote the (n-1)-variable surface to n variables (last variable unused)
    lift = surface.compose([Polynomial.coordinate(n, i) for i in range(n - 1)])
    sq = Polynomial(n, {})
    for i in range(n - 1):
        xi = Polynomial.coordinate(n, i)
        sq = sq + xi * xi
    forward = [Polynomial.coordinate(n, i) for i in range(n - 1)]
    forward.append(Polynomial.coordinate(n, n - 1) - lift + sq)
    inverse = [Polynomial.coordinate(n, i) for i in range(n - 1)]
    inverse.append(Polynomial.coordinate(n, n - 1) + lift - sq)
    return forward, inverse


def _chart_points(n: int, radius: float) -> np.ndarray:
    axes = [np.linspace(-radius, radius, _CHART_NODES_PER_AXIS) for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1)


def _jacobian_forward_quadform_min(surface: Polynomial, pts: np.ndarray) -> float:
    """min over chart nodes of the smallest eigenvalue of sym(forward Jacobian)."""
    n = pts.shape[-1]
    tang = pts[..., : n - 1]
    grad = surface.eval_gradient(tang) if n > 1 else np.zeros(pts.shape[:-1] + (0,))
    g = -grad + 2.0 * tang  # last Jacobian row, tangential part
    sym = np.zeros(pts.shape[:-1] + (n, n))
    for i in range(n):
        sym[..., i, i] = 1.0
    for k in range(n - 1):
        sym[..., n - 1, k] = 0.5 * g[..., k]
        sym[..., k, n - 1] = 0.5 * g[..., k]
    eigs = symmetric_eigenvalues(sym)
    return float(np.min(eigs[..., 0]))


def flatten_and_certify_hypersurface(
    field: MatrixField,
    surface: Polynomial,
    chart_radius: float,
    max_halvings: int = 20,
) -> tuple[FlattenedChart, PseudoconvexCertificate]:
    """Transport the field through the convexifying chart and certify.

    Shrinks the chart radius by halving (at most ``max_halvings`` times)
    until the Jacobian quadratic-form bound >= 1/2 holds on the chart grid
    and the model-weight certificate passes; raises "chart too curved" if
    the Jacobian bound is still violated at the minimum radius.
    """
    n = field.n
    if surface.nvars != n - 1:
        raise ValueError(f"surface must depend on {n - 1} tangential variables")
    origin = np.zeros(n - 1)
    if abs(float(surface(origin))) > 1e-14:
        raise ValueError("surface must vanish at the origin")
    if float(np.max(np.abs(surface.eval_gradient(origin)), initial=0.0)) > 1e-14:
        raise ValueError("surface gradient must vanish at the origin")

    forward, inverse = _chart_maps(n, surface)

    # Jacobian of the inverse map: identity rows plus last row
    # (d_1 surface - 2 y_1, ..., d_{n-1} surface - 2 y_{n-1}, 1).
    g_rows: list[Polynomial] = []
    for k in range(n - 1):
        gk = surface.diff(k).compose(
            [Polynomial.coordinate(n, i) for i in range(n - 1)]
        ) - 2.0 * Polynomial.coordinate(n, k)
        g_rows.append(gk)

    composed = [
        [field.entries[k][l].compose(inverse) for l in range(n)] for k in range(n)
    ]

    def jac_entry(i: int, k: int) -> Polynomial:
        if i < n - 1:
            return Polynomial.constant(n, 1.0) if i == k else Polynomial(n, {})
        return g_rows[k] if k < n - 1 else Polynomial.constant(n, 1.0)

    entries: dict[tuple[int, int], Polynomial] = {}
    for i in range(n):
        for j in range(i, n):
            acc = Polynomial(n, {})
            for k in range(n):
                jik = jac_entry(i, k)
                if jik.is_zero():
                    continue
                for l in range(n):
                    jjl = jac_entry(j, l)
                    if jjl.is_zero():
                        continue
                    acc = acc + jik * composed[k][l] * jjl
            entries[(i, j)] = acc
    transported = MatrixField.from_entry_polys(n, entries)

    psi0_model = Polynomial.squared_distance([0.0] * (n - 1) + [1.0])

    radius = float(chart_radius)
    halvings = 0
    cert: PseudoconvexCertificate
    while True:
        pts = _chart_points(n, radius)
        jac_min = _jacobian_forward_quadform_min(surface, pts)
        jac_ok = jac_min >= 0.5 - 1e-12
        cert = certify_pseudoconvex(transported, psi0_model, _apply_map(forward, pts))
        if (jac_ok and cert.passed) or halvings >= max_halvings:
            break
        radius *= 0.5
        halvings += 1
    if not jac_ok:
        raise ValueError("chart too curved: Jacobian bound fails at minimum radius")

    theta0 = theta_decomposition(transported, psi0_model, np.zeros(n))
    chart = FlattenedChart(
        surface=surface,
        radius=radius,
        halvings=halvings,
        transported=transported,
        psi0_model=psi0_model,
        theta_origin=theta0.Theta,
        theta_origin_min_eig=theta0.theta_sym_min,
        jacobian_bound_ok=jac_ok,
        jacobian_min_quadform=jac_min,
        forward_map=forward,
        inverse_map=inverse,
    )
    return chart, cert


# -- sub-ellipticity bracket ---------------------------------------------------


@dataclass
class SymbolProbe:
    """Principal symbol pieces at one (x, xi, tau) with weight exp(lambda*psi)."""

    p: float
    p0: float
    p1: float
    bracket: float


def _phi_derivatives(psi0: Polynomial, lam: float, x: np.ndarray):
    psi = float(psi0(x))
    phi = float(np.exp(lam * psi))
    grad_psi = psi0.eval_gradient(x)
    hess_psi = psi0.eval_hessian(x)
    grad_phi = lam * phi * grad_psi
    hess_phi = lam * phi * (lam * np.outer(grad_psi, grad_psi) + hess_psi)
    return phi, grad_phi, hess_phi


def symbol_probe(
    field: MatrixField, psi0: Polynomial, lam: float, x, xi, tau: float
) -> SymbolProbe:
    """p, p0, p1 and the Poisson bracket {p0, p1}, all analytic."""
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    a = field(x)
    da = field.first_derivatives(x)
    phi, grad_phi, hess_phi = _phi_derivatives(psi0, lam, x)

    p = float(xi @ a @ xi)
    p0 = p - tau**2 * float(grad_phi @ a @ grad_phi)
    p1 = 2.0 * tau * float(xi @ a @ grad_phi)

    # dxi p0 = 2 A xi ; dxi p1 = 2 tau A grad_phi
    dxi_p0 = 2.0 * a @ xi
    dxi_p1 = 2.0 * tau * a @ grad_phi
    # dx_j p0 = xi^t (d_j A) xi - tau^2 [grad_phi^t (d_j A) grad_phi
    #           + 2 grad_phi^t A (d_j grad_phi)]
    dx_p0 = np.einsum("klj,k,l->j", da, xi, xi) - tau**2 * (
        np.einsum("klj,k,l->j", da, grad_phi, grad_phi)
        + 2.0 * np.einsum("k,kl,lj->j", grad_phi, a, hess_phi)
    )
    # dx_j p1 = 2 tau [xi^t (d_j A) grad_phi + xi^t A (d_j grad_phi)]
    dx_p1 = 2.0 * tau * (
        np.einsum("klj,k,l->j", da, xi, grad_phi)
        + np.einsum("k,kl,lj->j", xi, a, hess_phi)
    )
    bracket = float(dxi_p0 @ dx_p1 - dx_p0 @ dxi_p1)
    return SymbolProbe(p=p, p0=p0, p1=p1, bracket=bracket)


def subellipticity_bracket(
    field: MatrixField, psi0: Polynomial, lam: float, x, xi, tau: float
) -> float:
    """Raw Poisson bracket value; the characteristic equations are not enforced."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return symbol_probe(field, psi0, lam, x, xi, tau).bracket

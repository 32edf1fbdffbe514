"""Convexity certification for weights against variable coefficient matrices.

The certified object is the matrix

    Theta_A(h) = 2 A (hess h) A + Upsilon_A(h),

where Upsilon collects the first-order corrections coming from the spatial
variation of A through the rank-3 tensor

    Lambda^m_{kl}(A) = - sum_p d_p a_{kl} a_{pm} + 2 sum_p a_{kp} d_p a_{lm}.

Upsilon need not be symmetric; quadratic forms only see the symmetric part,
so eigenvalue scans use sym(Theta).  Scans never form Lambda: contracting its
superscript with g = grad h gives

    Upsilon_A(h) = -(dA . (A g)) + 2 A (dA . g)^T,

with (dA . v)_{kl} = sum_p d_p a_{kl} v_p and (dA . g)_{lp} = sum_m d_p a_{lm} g_m,
O(n^3) work per node instead of the O(n^4) of Lambda.

Node samples are entry-planar (see ``coefficients``): A is (n, n, *S), dA
(n, n, n, *S), grad h (n, *S) and hess h (n, n, *S), and every entry of
Upsilon and Theta is a sum of products of contiguous planes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import MatrixField, _dot, symmetric_eigenvalues
from .polynomials import Polynomial

__all__ = [
    "ThetaDecomposition",
    "PseudoconvexCertificate",
    "FlattenedChart",
    "theta_decomposition",
    "upsilon_theta",
    "theta_scan",
    "certificate_from_scan",
    "flatten_and_certify_hypersurface",
]

DEFAULT_GRAD_TOL = 1e-8
_CHART_NODES_PER_AXIS = 9  # chart grid of the flattening certificate
_MAX_HALVINGS = 20  # of the flattening chart radius


@dataclass
class ThetaDecomposition:
    """Upsilon / Theta at one point, plus min symmetric eigenvalue."""

    Upsilon: np.ndarray  # (n, n)
    Theta: np.ndarray  # (n, n)
    theta_sym_min: float


def upsilon_theta(
    a: np.ndarray, da: np.ndarray, grad_h: np.ndarray, hess_h: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(Upsilon, Theta), each (n, n, *S), from entry-planar A, its first
    derivatives and those of h.

    Upsilon is Lambda contracted with ``grad_h``, computed without Lambda.
    """
    n = len(grad_h)
    tmp = np.empty_like(grad_h[0, ...])
    ag = [_dot(a[p], grad_h, tmp=tmp) for p in range(n)]  # (A g)_p
    dg = [[_dot(da[l, :, p], grad_h, tmp=tmp) for p in range(n)]
          for l in range(n)]  # (dA . g)_lp
    ah = [[_dot(a[k], hess_h[:, m], tmp=tmp) for m in range(n)]
          for k in range(n)]  # (A hess h)_km
    ups, theta = np.empty_like(a), np.empty_like(a)
    sub = np.empty_like(tmp)
    for k in range(n):
        for l in range(n):
            # ups = 2 (A (dA . g)^T)_kl - (dA . (A g))_kl, theta = 2 (A hess h A)_kl + ups
            u, t = ups[k, l, ...], theta[k, l, ...]
            _dot(a[k], dg[l], out=u, tmp=tmp)
            u *= 2.0
            u -= _dot(da[k, l], ag, out=sub, tmp=tmp)
            _dot(ah[k], a[:, l], out=t, tmp=tmp)
            t *= 2.0
            t += u
    return ups, theta


def _sym_min(theta: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of sym(Theta), forming only the entries k <= l
    that the eigenvalue formulas read."""
    n = len(theta)
    sym = np.empty_like(theta)
    for k in range(n):
        for l in range(k, n):
            s = np.add(theta[k, l], theta[l, k], out=sym[k, l, ...])
            s *= 0.5
    return symmetric_eigenvalues(sym)[0]


def theta_decomposition(field: MatrixField, h: Polynomial, x) -> ThetaDecomposition:
    """Assemble the decomposition at a single point."""
    if h.nvars != field.n:
        raise ValueError(f"weight has {h.nvars} variables, field has {field.n}")
    x = np.asarray(x, dtype=float)
    ups, theta = upsilon_theta(field(x), field.first_derivatives(x),
                               h.eval_gradient(x), h.eval_hessian(x))
    return ThetaDecomposition(Upsilon=ups, Theta=theta, theta_sym_min=float(_sym_min(theta)))


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
    a: np.ndarray, da: np.ndarray, grad_h: np.ndarray, hess_h: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-point minimal eigenvalue of sym(Theta) and gradient norm of h, from
    entry-planar A, its first derivatives and the gradient and Hessian of h."""
    smin = _sym_min(upsilon_theta(a, da, grad_h, hess_h)[1])
    gnorm = np.sqrt(np.sum(grad_h**2, axis=0))
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
    g = 2.0 * np.moveaxis(tang, -1, 0) - surface.eval_gradient(tang)  # last Jacobian row
    sym = np.zeros((n, n) + pts.shape[:-1])
    for i in range(n):
        sym[i, i] = 1.0
    for k in range(n - 1):
        sym[k, n - 1] = sym[n - 1, k] = 0.5 * g[k]
    return float(np.min(symmetric_eigenvalues(sym)[0]))


def flatten_and_certify_hypersurface(
    field: MatrixField, surface: Polynomial, chart_radius: float,
) -> tuple[FlattenedChart, PseudoconvexCertificate]:
    """Transport the field through the convexifying chart and certify.

    Shrinks the chart radius by halving (at most ``_MAX_HALVINGS`` times)
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
        y = _apply_map(forward, pts)
        cert = certificate_from_scan(*theta_scan(
            transported(y), transported.first_derivatives(y),
            psi0_model.eval_gradient(y), psi0_model.eval_hessian(y)), y)
        if (jac_ok and cert.passed) or halvings >= _MAX_HALVINGS:
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

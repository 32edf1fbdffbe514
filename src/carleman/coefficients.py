"""Symmetric coefficient matrix fields A(x) with analytic derivatives.

Entries are monomial tables, so derivatives of any order are exact and the
(k,l)/(l,k) entries share one table, making A(x) symmetric by construction.
Certification scans a grid with closed-form symmetric eigenvalue formulas
(sizes 2 and 3 need no iterative solver).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .geometry import BoxDomain, SpaceTimeGrid
from .polynomials import Polynomial, poly_from_table

__all__ = [
    "MatrixField",
    "EllipticityReport",
    "OrthogonalMap",
    "eval_with_derivatives",
    "certify_ellipticity",
    "rotate_field",
    "symmetric_eigenvalues",
]

_SYM_TOL = 1e-14
_ORTHO_TOL = 1e-12


def symmetric_eigenvalues(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of symmetric matrices of size 1..3, closed form.

    ``mats`` has shape (..., n, n); returns (..., n) in ascending order.
    The 3x3 case uses the trigonometric form of Cardano's solution.
    """
    mats = np.asarray(mats, dtype=float)
    n = mats.shape[-1]
    if n == 1:
        return mats[..., 0, :].copy()
    if n == 2:
        a, b, c = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 1]
        mean = 0.5 * (a + c)
        rad = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b**2, 0.0))
        return np.stack([mean - rad, mean + rad], axis=-1)
    if n == 3:
        a11, a22, a33 = mats[..., 0, 0], mats[..., 1, 1], mats[..., 2, 2]
        a12, a13, a23 = mats[..., 0, 1], mats[..., 0, 2], mats[..., 1, 2]
        p1 = a12**2 + a13**2 + a23**2
        q = (a11 + a22 + a33) / 3.0
        p2 = (a11 - q) ** 2 + (a22 - q) ** 2 + (a33 - q) ** 2 + 2.0 * p1
        p = np.sqrt(np.maximum(p2 / 6.0, 0.0))
        safe_p = np.where(p > 0, p, 1.0)
        b11, b22, b33 = (a11 - q) / safe_p, (a22 - q) / safe_p, (a33 - q) / safe_p
        b12, b13, b23 = a12 / safe_p, a13 / safe_p, a23 / safe_p
        detb = (
            b11 * (b22 * b33 - b23**2)
            - b12 * (b12 * b33 - b23 * b13)
            + b13 * (b12 * b23 - b22 * b13)
        )
        r = np.clip(detb / 2.0, -1.0, 1.0)
        phi = np.arccos(r) / 3.0
        e1 = q + 2.0 * p * np.cos(phi)
        e3 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
        e2 = 3.0 * q - e1 - e3
        lo = np.where(p > 0, e3, q)
        mid = np.where(p > 0, e2, q)
        hi = np.where(p > 0, e1, q)
        return np.stack([lo, mid, hi], axis=-1)
    raise ValueError(f"closed-form eigenvalues only for n <= 3, got {n}")


class MatrixField:
    """Symmetric matrix A(x) with polynomial entries and exact derivatives."""

    def __init__(
        self,
        n: int,
        entries: dict[tuple[int, int], Polynomial],
        domain: BoxDomain | None = None,
        max_total_degree: int | None = 3,
    ):
        self.n = int(n)
        self.domain = domain
        table: list[list[Polynomial]] = [[None] * n for _ in range(n)]  # type: ignore
        zero = Polynomial(n, {})
        for k in range(n):
            for l in range(k, n):
                p = entries.get((k, l))
                q = entries.get((l, k))
                if p is not None and q is not None and p is not q and p.terms != q.terms:
                    raise ValueError(f"entries ({k},{l}) and ({l},{k}) differ")
                poly = p if p is not None else (q if q is not None else zero)
                if max_total_degree is not None and poly.total_degree() > max_total_degree:
                    raise ValueError(
                        f"entry ({k},{l}) has total degree {poly.total_degree()} > "
                        f"{max_total_degree}"
                    )
                table[k][l] = poly
                table[l][k] = poly  # shared object: exact symmetry
        self.entries = table
        self._d1 = [[e.gradient() for e in row] for row in table]

    # the second and third derivative tables (243 polynomials in 3D) are
    # built on first use: of the package's own code, only the ellipticity
    # certificate reads them

    @cached_property
    def _d2(self):
        return [[[g.gradient() for g in cell] for cell in row] for row in self._d1]

    @cached_property
    def _d3(self):
        return [[[[h.gradient() for h in gg] for gg in cell] for cell in row] for row in self._d2]

    # -- constructors ---------------------------------------------------------

    @classmethod
    def identity(cls, n: int, domain: BoxDomain | None = None) -> "MatrixField":
        entries = {(k, k): Polynomial.constant(n, 1.0) for k in range(n)}
        return cls(n, entries, domain=domain)

    @classmethod
    def constant(cls, matrix, domain: BoxDomain | None = None) -> "MatrixField":
        m = np.asarray(matrix, dtype=float)
        n = m.shape[0]
        if m.shape != (n, n):
            raise ValueError("constant matrix must be square")
        if np.max(np.abs(m - m.T)) > _SYM_TOL:
            raise ValueError("constant matrix must be symmetric")
        entries = {
            (k, l): Polynomial.constant(n, float(m[k, l]))
            for k in range(n)
            for l in range(k, n)
        }
        return cls(n, entries, domain=domain)

    @classmethod
    def scalar_affine(
        cls, n: int, a0: float, linear, domain: BoxDomain | None = None
    ) -> "MatrixField":
        """a(x) * I with a(x) = a0 + sum_i linear[i] * x_i."""
        lin = list(linear)
        if len(lin) != n:
            raise ValueError("linear coefficient count must equal n")
        a = Polynomial.constant(n, float(a0))
        for i, c in enumerate(lin):
            a = a + Polynomial.coordinate(n, i) * float(c)
        entries = {(k, k): a for k in range(n)}
        return cls(n, entries, domain=domain)

    @classmethod
    def from_tables(
        cls, n: int, tables: dict[tuple[int, int], list], domain: BoxDomain | None = None
    ) -> "MatrixField":
        """Entries given as ``{(k,l): [(multi_index, coeff), ...]}``, degree <= 3."""
        entries = {kl: poly_from_table(n, tab) for kl, tab in tables.items()}
        return cls(n, entries, domain=domain)

    @classmethod
    def from_entry_polys(
        cls,
        n: int,
        entries: dict[tuple[int, int], Polynomial],
        domain: BoxDomain | None = None,
    ) -> "MatrixField":
        """Internal constructor for derived fields (no degree cap)."""
        return cls(n, entries, domain=domain, max_total_degree=None)

    # -- evaluation -------------------------------------------------------------

    def __call__(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        out = np.empty(pts.shape[:-1] + (self.n, self.n))
        for k in range(self.n):
            for l in range(k, self.n):
                v = self.entries[k][l](pts)
                out[..., k, l] = v
                out[..., l, k] = v
        return out

    def first_derivatives(self, points: np.ndarray) -> np.ndarray:
        """d1[..., k, l, p] = d_p a_{kl}."""
        pts = np.asarray(points, dtype=float)
        out = np.empty(pts.shape[:-1] + (self.n, self.n, self.n))
        for k in range(self.n):
            for l in range(k, self.n):
                for p in range(self.n):
                    v = self._d1[k][l][p](pts)
                    out[..., k, l, p] = v
                    out[..., l, k, p] = v
        return out

    def second_derivatives(self, points: np.ndarray) -> np.ndarray:
        """d2[..., k, l, p, q] = d_p d_q a_{kl}."""
        pts = np.asarray(points, dtype=float)
        n = self.n
        out = np.empty(pts.shape[:-1] + (n, n, n, n))
        for k in range(n):
            for l in range(k, n):
                for p in range(n):
                    for q in range(n):
                        v = self._d2[k][l][p][q](pts)
                        out[..., k, l, p, q] = v
                        out[..., l, k, p, q] = v
        return out

    def third_derivative_sup(self, points: np.ndarray) -> float:
        sup = 0.0
        for k in range(self.n):
            for l in range(k, self.n):
                for p in range(self.n):
                    for q in range(self.n):
                        for r in range(self.n):
                            v = self._d3[k][l][p][q][r](points)
                            sup = max(sup, float(np.max(np.abs(v))) if v.size else 0.0)
        return sup

    def entry(self, k: int, l: int) -> Polynomial:
        return self.entries[k][l]


def eval_with_derivatives(field: MatrixField, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A(x), first and second derivative tensors at a single point.

    Raises if the field carries a domain and x falls outside its closure.
    """
    x = np.asarray(x, dtype=float)
    if field.domain is not None and not field.domain.contains(x):
        raise ValueError(f"point {x.tolist()} outside the field domain")
    return field(x), field.first_derivatives(x), field.second_derivatives(x)


@dataclass
class EllipticityReport:
    """Grid scan of the two-sided spectral bound and derivative sup-norms.

    ``m_estimate`` is a discrete lower proxy for the sup over the continuum;
    this is stated rather than hidden.
    """

    kappa_estimate: float
    m_estimate: float
    lambda_min: float
    lambda_max: float
    passed: bool
    kappa_tolerance: float
    m_tolerance: float
    argmin_node: tuple[float, ...] = dc_field(default=())
    argmax_node: tuple[float, ...] = dc_field(default=())


def certify_ellipticity(
    field: MatrixField,
    grid: SpaceTimeGrid,
    kappa_tolerance: float = np.inf,
    m_tolerance: float = np.inf,
) -> EllipticityReport:
    """Scan the grid for kappa = max(lambda_max, 1/lambda_min) and m."""
    pts = grid.space_points
    mats = field(pts)
    if not np.all(np.isfinite(mats)):
        bad = np.argwhere(~np.isfinite(mats).all(axis=(-2, -1)))[0]
        node = tuple(float(v) for v in pts[tuple(bad)])
        raise ValueError(f"matrix evaluation failed at node {node}")
    asym = np.max(np.abs(mats - np.swapaxes(mats, -1, -2)))
    if asym > _SYM_TOL:
        bad = np.argwhere(
            np.abs(mats - np.swapaxes(mats, -1, -2)).max(axis=(-2, -1)) > _SYM_TOL
        )[0]
        node = tuple(float(v) for v in pts[tuple(bad)])
        raise ValueError(f"non-symmetric numeric matrix at node {node}")
    eigs = symmetric_eigenvalues(mats)
    lam_min = float(np.min(eigs[..., 0]))
    lam_max = float(np.max(eigs[..., -1]))
    argmin = np.unravel_index(np.argmin(eigs[..., 0]), eigs[..., 0].shape)
    argmax = np.unravel_index(np.argmax(eigs[..., -1]), eigs[..., -1].shape)
    kappa = max(lam_max, 1.0 / lam_min) if lam_min > 0 else float("inf")

    sup = float(np.max(np.abs(mats)))
    sup = max(sup, float(np.max(np.abs(field.first_derivatives(pts)))))
    sup = max(sup, float(np.max(np.abs(field.second_derivatives(pts)))))
    sup = max(sup, field.third_derivative_sup(pts))

    passed = kappa <= kappa_tolerance and sup <= m_tolerance
    return EllipticityReport(
        kappa_estimate=kappa,
        m_estimate=sup,
        lambda_min=lam_min,
        lambda_max=lam_max,
        passed=bool(passed),
        kappa_tolerance=kappa_tolerance,
        m_tolerance=m_tolerance,
        argmin_node=tuple(float(v) for v in pts[argmin]),
        argmax_node=tuple(float(v) for v in pts[argmax]),
    )


@dataclass(frozen=True)
class OrthogonalMap:
    """y = O x + shift with O orthogonal to 1e-12."""

    matrix: np.ndarray
    shift: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        object.__setattr__(self, "matrix", m)
        s = np.zeros(m.shape[0]) if self.shift is None else np.asarray(self.shift, dtype=float)
        object.__setattr__(self, "shift", s)
        defect = np.max(np.abs(m.T @ m - np.eye(m.shape[0])))
        if defect > _ORTHO_TOL:
            raise ValueError(f"map is not orthogonal (defect {defect:.3e})")

    @classmethod
    def rotation_2d(cls, angle: float) -> "OrthogonalMap":
        c, s = np.cos(angle), np.sin(angle)
        return cls(np.array([[c, -s], [s, c]]))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x) @ self.matrix.T + self.shift

    def inverse_apply(self, y: np.ndarray) -> np.ndarray:
        return (np.asarray(y) - self.shift) @ self.matrix


def _image_box(domain: BoxDomain, mp: OrthogonalMap) -> BoxDomain | None:
    """Image of the box when the map is a signed permutation; else None."""
    m = mp.matrix
    is_signed_perm = np.all(np.isin(np.round(m, 12), (-1.0, 0.0, 1.0))) and np.all(
        np.sum(np.abs(np.round(m, 12)), axis=0) == 1.0
    )
    if not is_signed_perm:
        return None
    corners = np.stack(
        np.meshgrid(*[(lo, hi) for lo, hi in zip(domain.lows, domain.highs)], indexing="ij"),
        axis=-1,
    ).reshape(-1, domain.n)
    imgs = mp.apply(corners)
    return BoxDomain(
        tuple(np.min(imgs, axis=0)), tuple(np.max(imgs, axis=0)), domain.nodes_per_axis
    )


def rotate_field(field: MatrixField, mp: OrthogonalMap) -> MatrixField:
    """Conjugated field B(y) = O A(O^t (y - shift)) O^t.

    Built by affine substitution into the monomial tables, so evaluation is
    exact and the spectrum (hence the ellipticity constant) is preserved.
    """
    n = field.n
    o = mp.matrix
    # x = O^t (y - shift)
    back_matrix = o.T
    back_shift = -o.T @ mp.shift
    composed = [
        [field.entries[k][l].compose_affine(back_matrix, back_shift) for l in range(n)]
        for k in range(n)
    ]
    entries: dict[tuple[int, int], Polynomial] = {}
    for i in range(n):
        for j in range(i, n):
            acc = Polynomial(n, {})
            for k in range(n):
                for l in range(n):
                    c = o[i, k] * o[j, l]
                    if c != 0.0:
                        acc = acc + composed[k][l] * c
            entries[(i, j)] = acc
    new_domain = _image_box(field.domain, mp) if field.domain is not None else None
    return MatrixField.from_entry_polys(n, entries, domain=new_domain)

"""Symmetric coefficient matrix fields A(x) with analytic derivatives.

Entries are monomial tables, so derivatives of any order are exact and the
(k,l)/(l,k) entries share one table, making A(x) symmetric by construction.
Certification scans a grid with closed-form symmetric eigenvalue formulas
(sizes 2 and 3 need no iterative solver).

Node samples are entry-planar: the component axes come first and the point
axes last, so A at points of shape ``(*S, n)`` is ``(n, n, *S)``, its first
derivatives are ``(n, n, n, *S)`` and every entry ``a[k, l]`` is one
contiguous plane.  Kernels on them are sums over planes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field
from functools import cached_property, reduce

import numpy as np

from .geometry import BoxDomain
from .polynomials import Polynomial, poly_from_table

__all__ = [
    "MatrixField",
    "EllipticityReport",
    "certify_ellipticity",
    "symmetric_eigenvalues",
]

_SYM_TOL = 1e-14


def symmetric_eigenvalues(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of symmetric matrices of size 1..3, closed form.

    ``mats`` has shape (n, n, *S) and only its entries k <= l are read;
    returns (n, *S) in ascending order.  The 3x3 case uses the trigonometric
    form of Cardano's solution.
    """
    mats = np.asarray(mats, dtype=float)
    n = mats.shape[0]
    if n == 1:
        return mats[0].copy()
    if n == 2:
        a, b, c = mats[0, 0], mats[0, 1], mats[1, 1]
        mean = 0.5 * (a + c)
        rad = np.sqrt(np.maximum(0.25 * (a - c) ** 2 + b**2, 0.0))
        return np.stack([mean - rad, mean + rad])
    if n == 3:
        return _eigenvalues_3x3(mats)
    raise ValueError(f"closed-form eigenvalues only for n <= 3, got {n}")


def _eigenvalues_3x3(mats: np.ndarray) -> np.ndarray:
    """The 3x3 branch of ``symmetric_eigenvalues``, written into a few
    preallocated planes (fresh node-size planes page-fault on first touch);
    each value is formed by the operations, in the order, of

        p1 = a12**2 + a13**2 + a23**2
        q = (a11 + a22 + a33) / 3
        p = sqrt(max(((a11 - q)**2 + (a22 - q)**2 + (a33 - q)**2 + 2 p1) / 6, 0))
        b = (A - q I) / (p if p > 0 else 1)
        phi = arccos(clip(det(b) / 2, -1, 1)) / 3
        e1 = q + 2 p cos(phi),  e3 = q + 2 p cos(phi + 2 pi / 3),  e2 = 3 q - e1 - e3

    with det(b) = b11 (b22 b33 - b23^2) - b12 (b12 b33 - b23 b13)
    + b13 (b12 b23 - b22 b13), and every eigenvalue q where p is not positive.
    """
    a11, a22, a33 = mats[0, 0], mats[1, 1], mats[2, 2]
    a12, a13, a23 = mats[0, 1], mats[0, 2], mats[1, 2]
    shape = np.shape(a11)
    work = np.empty((10,) + shape)
    q, p, d1, d2, d3, b12, b13, b23, t, u = (work[i, ...] for i in range(10))
    out = np.empty((3,) + shape)
    lo, mid, hi = (out[i, ...] for i in range(3))

    p1 = np.square(a12, out=b12)
    p1 += np.square(a13, out=t)
    p1 += np.square(a23, out=t)
    np.add(a11, a22, out=q)
    q += a33
    q /= 3.0
    p2 = np.square(np.subtract(a11, q, out=d1), out=p)
    p2 += np.square(np.subtract(a22, q, out=d2), out=t)
    p2 += np.square(np.subtract(a33, q, out=d3), out=t)
    p2 += np.multiply(2.0, p1, out=t)
    p2 /= 6.0
    np.sqrt(np.maximum(p2, 0.0, out=p), out=p)
    positive = p > 0
    safe = u
    safe.fill(1.0)
    np.copyto(safe, p, where=positive)
    b11, b22, b33 = d1, d2, d3
    for b in (b11, b22, b33):
        b /= safe
    np.divide(a12, safe, out=b12)
    np.divide(a13, safe, out=b13)
    np.divide(a23, safe, out=b23)

    det = mid
    np.multiply(b11, np.subtract(np.multiply(b22, b33, out=det), np.square(b23, out=t),
                                 out=det), out=det)
    det -= np.multiply(b12, np.subtract(np.multiply(b12, b33, out=t),
                                        np.multiply(b23, b13, out=u), out=t), out=t)
    det += np.multiply(b13, np.subtract(np.multiply(b12, b23, out=t),
                                        np.multiply(b22, b13, out=u), out=t), out=t)
    det /= 2.0
    phi = np.clip(det, -1.0, 1.0, out=det)
    np.arccos(phi, out=phi)
    phi /= 3.0

    two_p = np.multiply(2.0, p, out=d1)
    e1 = np.add(q, np.multiply(two_p, np.cos(phi, out=t), out=t), out=hi)
    np.add(phi, 2.0 * np.pi / 3.0, out=t)
    e3 = np.add(q, np.multiply(two_p, np.cos(t, out=t), out=t), out=lo)
    e2 = np.subtract(np.multiply(3.0, q, out=t), e1, out=mid)
    e2 -= e3
    flat = ~positive
    for e in (lo, mid, hi):
        np.copyto(e, q, where=flat)
    return out


def _sum(terms):
    """The sum of ``terms``, added left to right."""
    return reduce(operator.add, terms)


def _lane_sum(term, count: int):
    """The sum of ``term(0), ..., term(count - 1)`` in the order numpy's
    two-operand einsum adds a contiguous axis, so that sums replacing one stay
    bitwise equal to it: two lanes take alternate terms, blocks of eight last
    pair first, and the lane sums are added last.  Each term is formed as it
    is added."""
    blocked = count - count % 8
    order = [b + j for b in range(0, blocked, 8) for j in (6, 4, 2, 0)]
    order += range(blocked, count, 2)
    return _sum(_sum(term(i + j) for i in order if i + j < count) for j in (0, 1) if j < count)


def _dot(x, y, out=None, tmp=None):
    """sum_i x_i y_i over planes, added in index order; written to ``out``
    with the products formed in ``tmp`` where given (fresh planes cost page
    faults)."""
    out = np.multiply(x[0], y[0], out=out)
    for i in range(1, len(x)):
        out += np.multiply(x[i], y[i], out=tmp)
    return out


def quad_form(x, a: np.ndarray, y):
    """sum_kl x_k a_kl y_l over planes, each product formed as (x_k a_kl) y_l
    and added in (k, l) order, as the three-operand einsum does."""
    return _sum(x[k] * a[k, l] * y[l] for k in range(len(x)) for l in range(len(x)))


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
        """A at ``points`` of shape ``(*S, n)``; returns ``(n, n, *S)``."""
        pts = np.asarray(points, dtype=float)
        out = np.empty((self.n, self.n) + pts.shape[:-1])
        for k in range(self.n):
            for l in range(k, self.n):
                out[k, l] = out[l, k] = self.entries[k][l](pts)
        return out

    def first_derivatives(self, points: np.ndarray) -> np.ndarray:
        """d1[k, l, p, ...] = d_p a_{kl} at ``points``; shape ``(n, n, n, *S)``."""
        pts = np.asarray(points, dtype=float)
        out = np.empty((self.n, self.n, self.n) + pts.shape[:-1])
        for k in range(self.n):
            for l in range(k, self.n):
                for p in range(self.n):
                    out[k, l, p] = out[l, k, p] = self._d1[k][l][p](pts)
        return out

    def higher_derivative_sup(self, points: np.ndarray) -> float:
        """max |d^j a_kl| over the points for derivative orders j = 2, 3.

        A running max over the entry-derivative polynomials: no derivative
        tensor is stacked.  Order 1 is read from the ``first_derivatives``
        sample the caller holds.
        """
        sup = 0.0
        for table in (self._d2, self._d3):
            for k in range(self.n):
                for l in range(k, self.n):
                    for poly in _leaves(table[k][l]):
                        if poly.is_zero():
                            continue
                        v = poly(points)
                        if v.size:
                            sup = max(sup, _abs_max(v))
        return sup

    def entry(self, k: int, l: int) -> Polynomial:
        return self.entries[k][l]


def _abs_max(x: np.ndarray) -> float:
    """max |x| without the |x| temporary (NaN if x holds one)."""
    return max(float(np.max(x)), -float(np.min(x)))


def _leaves(cell):
    """The polynomials of a nested derivative table cell, in index order."""
    if isinstance(cell, Polynomial):
        yield cell
    else:
        for sub in cell:
            yield from _leaves(sub)


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
    field: MatrixField, a: np.ndarray, da: np.ndarray, pts: np.ndarray,
    kappa_tolerance: float = np.inf, m_tolerance: float = np.inf,
) -> EllipticityReport:
    """Scan the nodes ``pts`` for kappa = max(lambda_max, 1/lambda_min) and m.

    ``a`` and ``da`` are ``field`` and its first derivatives at ``pts``
    (exactly symmetric: ``field`` writes one plane to both a[k, l] and
    a[l, k]); the second and third derivatives are evaluated here, once each.
    """
    if not np.all(np.isfinite(a)):
        bad = np.argwhere(~np.isfinite(a).all(axis=(0, 1)))[0]
        node = tuple(float(v) for v in pts[tuple(bad)])
        raise ValueError(f"matrix evaluation failed at node {node}")
    eigs = symmetric_eigenvalues(a)
    lam_min = float(np.min(eigs[0]))
    lam_max = float(np.max(eigs[-1]))
    argmin = np.unravel_index(np.argmin(eigs[0]), eigs[0].shape)
    argmax = np.unravel_index(np.argmax(eigs[-1]), eigs[-1].shape)
    kappa = max(lam_max, 1.0 / lam_min) if lam_min > 0 else float("inf")

    sup = max(_abs_max(a), _abs_max(da), field.higher_derivative_sup(pts))

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

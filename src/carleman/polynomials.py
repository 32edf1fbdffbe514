"""Multivariate polynomials stored as monomial coefficient tables.

Every spatial coefficient, weight profile and chart map in this package is a
polynomial, so all derivatives taken anywhere are analytic.  Tables map an
exponent multi-index (tuple of ints) to a float coefficient.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

_ZERO_TOL = 0.0  # coefficients are dropped only when exactly zero


class Polynomial:
    """Polynomial in ``nvars`` variables with real coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], float] | None = None):
        if nvars < 1:
            raise ValueError(f"nvars must be >= 1, got {nvars}")
        self.nvars = int(nvars)
        clean: dict[tuple[int, ...], float] = {}
        for powers, coeff in (terms or {}).items():
            powers = tuple(int(p) for p in powers)
            if len(powers) != nvars:
                raise ValueError(f"multi-index {powers} does not match nvars={nvars}")
            if any(p < 0 for p in powers):
                raise ValueError(f"negative exponent in multi-index {powers}")
            c = float(coeff)
            if not np.isfinite(c):
                raise ValueError("non-finite coefficient")
            if c != _ZERO_TOL:
                clean[powers] = clean.get(powers, 0.0) + c
        self.terms = {p: c for p, c in clean.items() if c != 0.0}

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, nvars: int, value: float) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def coordinate(cls, nvars: int, axis: int) -> "Polynomial":
        powers = [0] * nvars
        powers[axis] = 1
        return cls(nvars, {tuple(powers): 1.0})

    @classmethod
    def squared_distance(cls, center: Sequence[float], scale: float = 1.0) -> "Polynomial":
        """``scale * |x - center|^2`` as a polynomial."""
        n = len(center)
        p = cls(n, {})
        for i, c in enumerate(center):
            xi = cls.coordinate(n, i) - cls.constant(n, float(c))
            p = p + xi * xi
        return p * scale

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Polynomial | float") -> "Polynomial":
        other = self._coerce(other)
        terms = dict(self.terms)
        for p, c in other.terms.items():
            terms[p] = terms.get(p, 0.0) + c
        return Polynomial(self.nvars, terms)

    def __sub__(self, other: "Polynomial | float") -> "Polynomial":
        return self + (self._coerce(other) * -1.0)

    def __mul__(self, other: "Polynomial | float") -> "Polynomial":
        if isinstance(other, (int, float)):
            return Polynomial(self.nvars, {p: c * other for p, c in self.terms.items()})
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        terms: dict[tuple[int, ...], float] = {}
        for p1, c1 in self.terms.items():
            for p2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(p1, p2))
                terms[key] = terms.get(key, 0.0) + c1 * c2
        return Polynomial(self.nvars, terms)

    __rmul__ = __mul__
    __radd__ = __add__

    def _coerce(self, other: "Polynomial | float") -> "Polynomial":
        if isinstance(other, (int, float)):
            return Polynomial.constant(self.nvars, float(other))
        return other

    # -- calculus ----------------------------------------------------------

    def diff(self, axis: int) -> "Polynomial":
        terms: dict[tuple[int, ...], float] = {}
        for powers, coeff in self.terms.items():
            e = powers[axis]
            if e == 0:
                continue
            new = list(powers)
            new[axis] = e - 1
            key = tuple(new)
            terms[key] = terms.get(key, 0.0) + coeff * e
        return Polynomial(self.nvars, terms)

    def gradient(self) -> list["Polynomial"]:
        return [self.diff(i) for i in range(self.nvars)]

    def hessian(self) -> list[list["Polynomial"]]:
        grad = self.gradient()
        return [[grad[i].diff(j) for j in range(self.nvars)] for i in range(self.nvars)]

    def total_degree(self) -> int:
        return max((sum(p) for p in self.terms), default=0)

    # -- evaluation ----------------------------------------------------------

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at ``points`` of shape ``(..., nvars)``; returns ``(...)``."""
        pts = np.asarray(points, dtype=float)
        if pts.shape[-1] != self.nvars:
            raise ValueError(f"points last axis {pts.shape[-1]} != nvars {self.nvars}")
        out = np.zeros(pts.shape[:-1], dtype=float)
        for powers, coeff in self.terms.items():
            term = np.full(pts.shape[:-1], coeff, dtype=float)
            for i, e in enumerate(powers):
                if e:
                    term = term * pts[..., i] ** e
            out += term
        return out

    def eval_gradient(self, points: np.ndarray) -> np.ndarray:
        """Gradient values at points ``(*S, nvars)``, entry-planar: shape
        ``(nvars, *S)``."""
        pts = np.asarray(points, dtype=float)
        out = np.empty((self.nvars,) + pts.shape[:-1], dtype=float)
        for i, g in enumerate(self.gradient()):
            out[i] = g(pts)
        return out

    def eval_hessian(self, points: np.ndarray) -> np.ndarray:
        """Hessian values, entry-planar: shape ``(nvars, nvars, *S)``."""
        pts = np.asarray(points, dtype=float)
        n = self.nvars
        out = np.empty((n, n) + pts.shape[:-1], dtype=float)
        hess = self.hessian()
        for i in range(n):
            for j in range(n):
                out[i, j] = hess[i][j](pts)
        return out

    # -- composition ---------------------------------------------------------

    def compose(self, components: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute ``x_i = components[i](y)``; returns a polynomial in y."""
        if len(components) != self.nvars:
            raise ValueError("need one substitution polynomial per variable")
        m = components[0].nvars
        if any(c.nvars != m for c in components):
            raise ValueError("substitution polynomials disagree on variable count")
        result = Polynomial(m, {})
        for powers, coeff in self.terms.items():
            term = Polynomial.constant(m, coeff)
            for i, e in enumerate(powers):
                for _ in range(e):
                    term = term * components[i]
            result = result + term
        return result

    # -- misc -----------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.terms:
            return "Polynomial(0)"
        bits = [f"{c:+g}*x^{p}" for p, c in sorted(self.terms.items())]
        return "Polynomial(" + " ".join(bits) + ")"


def poly_from_table(nvars: int, table: Iterable[tuple[Sequence[int], float]]) -> Polynomial:
    """Build a polynomial from ``[(multi_index, coefficient), ...]`` pairs."""
    return Polynomial(nvars, {tuple(idx): c for idx, c in table})

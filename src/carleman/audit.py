"""Numerical audits of the weighted energy inequalities.

For a test field u and a weight exp(2 tau phi), both sides of the selected
inequality are integrated on the grid and the report keeps, per (tau,
lambda) cell, the minimum over the ensemble of RHS/LHS, so "the inequality
holds with constant aleph" reads aleph <= aleph_emp.

Every integrand carries the normalization exp(2 tau (phi - phi_max)); both
sides scale identically, so ratios are unchanged while exponents stay in
double range.  This path is always on.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .coefficients import MatrixField
from .geometry import SpaceTimeGrid, separable, sine_profile
from .operators import (
    LowerOrderCoeffs,
    _apply_assembled,
    _central_full,
    _checked_lower,
    _one_sided,
    assemble_operator,
    gradient_time,
)
from .solvers import _face_trace, gamma_plus
from .weights import WeightAdmissibility, WeightSpec

__all__ = [
    "INEQUALITY_KINDS",
    "CarlemanSideValues",
    "AuditReport",
    "evaluate_sides",
    "sweep_audit",
    "negative_control",
    "compare_refinement",
    "default_ensemble",
]

INEQUALITY_KINDS = (
    "wave_full",
    "wave_boundary",
    "wave_lower_order",
    "wave_single_param",
    "elliptic",
    "parabolic_full",
    "parabolic_boundary",
    "schrodinger_full",
    "schrodinger_boundary",
)

_BOUNDARY_KINDS = ("wave_boundary", "parabolic_boundary", "schrodinger_boundary")
_MAX_REFINEMENT_DRIFT = 0.5  # relative drift of aleph_overall still called stable


@dataclass
class CarlemanSideValues:
    """Both sides of one inequality for one test field at one (tau, lambda)."""

    kind: str
    tau: float
    lam: float
    lhs_interior: float
    rhs_source: float
    rhs_boundary_dmu: float
    rhs_boundary_sigma_plus: float
    phi_max: float

    @property
    def rhs_total(self) -> float:
        return self.rhs_source + self.rhs_boundary_dmu + self.rhs_boundary_sigma_plus

    @property
    def ratio(self) -> float:
        if self.lhs_interior == 0.0:
            return float("inf")
        return self.rhs_total / self.lhs_interior


def _check_finite_sides(values: CarlemanSideValues) -> None:
    parts = (values.lhs_interior, values.rhs_source, values.rhs_boundary_dmu,
             values.rhs_boundary_sigma_plus)
    if not all(np.isfinite(p) for p in parts):
        raise OverflowError(
            f"non-finite side values at (tau={values.tau}, lambda={values.lam}) "
            "despite weight normalization"
        )


def _check_vanishing(u: np.ndarray, kind: str, grid: SpaceTimeGrid) -> None:
    """Boundary kinds demand exact zeros on the stated node sets."""
    scale = float(np.max(np.abs(u)))
    tol = 1e-14 * max(scale, 1.0)
    bmask = grid.boundary_mask
    lateral = np.abs(u[bmask, :])
    if float(np.max(lateral, initial=0.0)) > tol:
        count = int(np.sum(np.max(lateral, axis=-1) > tol))
        raise ValueError(f"field does not vanish on the lateral boundary ({count} nodes)")
    for cap in (0, -1):
        if float(np.max(np.abs(u[..., cap]))) > tol:
            raise ValueError(f"field does not vanish on the time cap (level {cap})")
    if kind == "wave_boundary":
        dt = grid.dt
        dthat = 1.0 / (grid.nt - 1)
        thresh = 10.0 * scale / (grid.t2 - grid.t1) * np.sqrt(dthat) + 1e-300
        lo = np.abs(_one_sided(u, -1, dt, 0))
        hi = np.abs(_one_sided(u, -1, dt, -1))
        if float(np.max(lo)) > thresh or float(np.max(hi)) > thresh:
            raise ValueError("time derivative does not vanish at the caps")


_DMU_KINDS = ("wave_full", "wave_lower_order", "parabolic_full", "schrodinger_full", "elliptic")
_LATERAL_DT_KINDS = ("parabolic_full", "schrodinger_full")


def _factors(kind: str, tau: float, lam: float) -> tuple[float, float, float]:
    """LHS |u|^2 and gradient factors and the source factor of one cell."""
    if kind == "wave_single_param":
        return tau**4, tau**2, tau
    plain = kind == "elliptic" or kind.startswith("parabolic")
    return tau**3 * lam**4, tau * (lam**2 if plain else lam), 1.0


def _re_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re(conj(a) b) node by node for a and b of one dtype, without forming
    conj(a)."""
    if np.iscomplexobj(a):
        out = a.real * b.real
        out += a.imag * b.imag
        return out
    return a * b


def _cubed(x: np.ndarray) -> np.ndarray:
    """x**3 as two products: numpy's float pow has no fast path for 3."""
    out = x * x
    out *= x
    return out


_EXP_ZERO = -746.0  # every double below -745.1332 has exp +0.0


def _exp_clipped(x: np.ndarray, keep: np.ndarray, drop: np.ndarray) -> None:
    """np.exp(x, out=x), with exp taken only where x >= _EXP_ZERO and 0.0
    stored below: numpy's exp takes a slow path on underflowing lanes.
    ``keep`` and ``drop`` are bool buffers of the shape of ``x``."""
    np.greater_equal(x, _EXP_ZERO, out=keep)
    np.less(x, _EXP_ZERO, out=drop)  # a NaN is in neither and stays NaN
    np.exp(x, out=x, where=keep)
    np.copyto(x, 0.0, where=drop)


class _Audit:
    """The (tau, lambda)-independent part of one audit: the factors of psi,
    the A-energy weights and the measures.

    Every side of every kind is a sum of terms c(tau, lam) * sum(env * phi**p
    * m * d), with env = exp(2 tau (phi - phi_max)), m a quadrature measure
    restricted to the nodes where it lives (interior, lateral boundary, time
    caps, plus boundary) and d a density of the member alone: |u|^2, the
    gradient energy, |Lu|^2, |dt u|^2 or the squared normal trace.  So each
    member's densities are computed once, and each (tau, lambda) cell costs
    one exp over the nodes and a few dot products.  ``a``, ``vals0`` and
    ``grad`` are A, psi0 and grad psi0 on the space nodes; none is changed.
    """

    def __init__(self, spec, field, a, vals0, grad, lower, kind, grid):
        if kind not in INEQUALITY_KINDS:
            raise ValueError(f"unknown inequality kind {kind!r}")
        self.spec, self.kind, self.grid = spec, kind, grid
        self.op_kind = kind.split("_")[0]  # the operator kind: wave_full -> wave
        self.lower = _checked_lower(self.op_kind, lower, grid)
        self.mat = assemble_operator(field, self.lower, grid)  # once for every member
        self.spatial = kind == "elliptic"
        nt = 1 if self.spatial else grid.nt
        tw = np.ones(1) if self.spatial else grid.time_weights
        self.nt, self.sw, self.tw = nt, grid.space_weights.ravel(), tw
        # |grad u|^2_A = sum over k <= l of c_kl Re(conj(d_k u) d_l u), with c_kk =
        # a_kk and c_kl = a_kl + a_lk (exact for any A) on the space nodes; a
        # weight of 1 everywhere is None, a pair whose weight is 0 everywhere
        # is left out; the other kinds weigh |grad u|^2
        self.energy_terms = [(k, k, None) for k in range(grid.n)]
        if kind.startswith("wave") and kind != "wave_single_param":
            at = a[..., None]  # broadcast over time
            self.energy_terms = [(k, k, None if np.all(at[k, k] == 1.0) else at[k, k])
                                 for k in range(grid.n)]
            for k in range(grid.n):
                for l in range(k + 1, grid.n):
                    c = at[k, l] + at[l, k]
                    if np.any(c):
                        self.energy_terms.append((k, l, c))
        # psi = psi0(x) + psi1(t) + shift is rebuilt per lambda from its small factors
        self.psi0 = vals0
        self.psi1 = None if self.spatial else spec.psi1(grid.times)
        # masks of the exp of a column whose envelope underflows
        self.keep, self.drop = (np.empty(self.psi0.size * nt, dtype=bool) for _ in range(2))

        self.dmu = grid.dmu_nodes(self.spatial)  # Sigma, then the two time caps
        self.lateral = self.dmu[0]
        # (face, its plus nodes, their dsigma dt weights); boundary kinds are
        # space-time kinds
        sigma_plus = (gamma_plus(a, grad, grid).sigma_plus_weights(grid)
                      if kind in _BOUNDARY_KINDS else [])
        self.plus = [(f, m, w.ravel()) for f, m, w in sigma_plus]
        idx = [(np.flatnonzero(grid.face_mask(f))[m][:, None] * nt + np.arange(nt)).ravel()
               for f, m, _ in self.plus]
        self.plus_idx = np.concatenate(idx) if idx else np.zeros(0, dtype=int)

    def _check(self, u: np.ndarray) -> None:
        grid, kind = self.grid, self.kind
        if self.spatial and u.shape != grid.space_shape:
            raise ValueError(f"expected spatial shape {grid.space_shape}, got {u.shape}")
        if not self.spatial and u.shape != grid.shape:
            raise ValueError(f"expected space-time shape {grid.shape}, got {u.shape}")
        if kind in _BOUNDARY_KINDS:
            _check_vanishing(u, kind, grid)
        if kind == "wave_single_param":
            if float(np.max(np.abs(u[grid.boundary_mask, :]))) > 0 or float(
                np.max(np.abs(u[..., [0, -1]]))
            ) > 0:
                raise ValueError("single-parameter audit needs fields vanishing on dQ")

    def _energy(self, u: np.ndarray) -> np.ndarray:
        """|grad u|^2 (|grad u|^2_A for the wave kinds) from one centered
        derivative per axis, accumulated term by term."""
        h = self.grid.domain.spacings
        grads = [_central_full(u, k, h[k]) for k in range(self.grid.n)]
        gsq = None
        for k, l, c in self.energy_terms:
            term = _re_dot(grads[k], grads[l])
            if c is not None:
                term *= c
            if gsq is None:
                gsq = term
            else:
                gsq += term
        return gsq.ravel()

    def _densities(self, u: np.ndarray) -> dict:
        """Member densities, weighted by their measures, as flat arrays."""
        grid, kind = self.grid, self.kind
        gsq = self._energy(u)
        d = {}
        if not self.spatial:
            dtsq = (np.abs(gradient_time(u, grid)) ** 2).ravel()
            if kind.startswith("wave"):
                gsq += dtsq
            if kind in _LATERAL_DT_KINDS:
                d["dt_lat"] = dtsq[self.lateral[0]] * self.lateral[1]
            del dtsq
        usq = (np.abs(u) ** 2).ravel()
        if kind in _DMU_KINDS:
            d["dmu"] = [(idx, usq[idx] * m, gsq[idx] * m) for idx, m in self.dmu]
        if self.plus:
            d["plus"] = np.concatenate([
                np.abs(_face_trace(u, grid, f).reshape(-1, self.nt)[m]).ravel() ** 2 * w
                for f, m, w in self.plus
            ])
        lu = _apply_assembled(self.op_kind, self.mat, self.lower.time, u, grid)
        src = (np.abs(lu) ** 2).ravel()
        for dens in (usq, gsq, src):  # interior trapezoid weights, in place
            view = dens.reshape(-1, self.nt)
            view *= self.sw[:, None]
            view *= self.tw
        d.update(usq=usq, gsq=gsq, src=src)
        return d

    def member_sides(self, u, taus, lams) -> list[list[CarlemanSideValues]]:
        """Both sides of the inequality for one member at every (tau, lambda)."""
        u = np.asarray(u)
        self._check(u)
        d = self._densities(u)
        columns = [self._column(d, taus, lam) for lam in lams]
        return [list(row) for row in zip(*columns)]

    def _column(self, d: dict, taus, lam: float) -> list[CarlemanSideValues]:
        """One lambda, every tau: the phi powers are shared down the column."""
        kind, spec, lat = self.kind, self.spec, self.lateral[0]
        out = []
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # psi = psi0 + psi1 + shift, summed in that order
            if self.spatial:
                phi = self.psi0 + spec.shift
            else:
                phi = self.psi0[..., None] + self.psi1
                phi += spec.shift
            phi = phi.ravel()
            phi *= lam
            np.exp(phi, out=phi)
            phi_max, phi_min = float(np.max(phi)), float(np.min(phi))
            if kind == "wave_single_param":
                usq, gsq = d["usq"], d["gsq"]
            else:
                usq = _cubed(phi)
                usq *= d["usq"]
                gsq = d["gsq"] * phi
            dmu = [
                (idx, _cubed(phi[idx]) * b_u, b_g * phi[idx]) for idx, b_u, b_g in d.get("dmu", ())
            ]
            dt_lat = d["dt_lat"] / phi[lat] if "dt_lat" in d else None
            plus = d["plus"] * phi[self.plus_idx] if self.plus else None
            env = np.empty_like(phi)
            for tau in taus:
                np.subtract(phi, phi_max, out=env)
                env *= 2.0 * tau
                if (phi_min - phi_max) * (2.0 * tau) < _EXP_ZERO:
                    _exp_clipped(env, self.keep, self.drop)
                else:
                    np.exp(env, out=env)
                cu, cg, cs = _factors(kind, tau, lam)
                rhs_dmu = 0.0
                for idx, b_u, b_g in dmu:
                    e = env[idx]
                    rhs_dmu += tau**3 * lam**3 * (e @ b_u) + tau * lam * (e @ b_g)
                if dt_lat is not None:
                    rhs_dmu += (env[lat] @ dt_lat) / (tau * lam)
                values = CarlemanSideValues(
                    kind=kind,
                    tau=tau,
                    lam=lam,
                    lhs_interior=float(cu * (env @ usq) + cg * (env @ gsq)),
                    rhs_source=float(cs * (env @ d["src"])),
                    rhs_boundary_dmu=float(rhs_dmu),
                    rhs_boundary_sigma_plus=(
                        float(tau * lam * (env[self.plus_idx] @ plus)) if self.plus else 0.0
                    ),
                    phi_max=phi_max,
                )
                _check_finite_sides(values)
                out.append(values)
        return out


def evaluate_sides(
    u: np.ndarray, spec: WeightSpec, field: MatrixField, lower: LowerOrderCoeffs | None,
    kind: str, tau: float, grid: SpaceTimeGrid,
) -> CarlemanSideValues:
    """Integrate LHS and RHS terms of the selected inequality for one field.

    The one-cell, one-member case of ``sweep_audit``, on a node sample of its own.
    """
    pts = grid.space_points
    audit = _Audit(spec, field, field(pts), spec.psi0(pts), spec.psi0.eval_gradient(pts), lower,
                   kind, grid)
    if tau <= 0:
        raise ValueError("tau must be positive")
    return audit.member_sides(u, [tau], [spec.lam])[0][0]


# -- ensembles ---------------------------------------------------------------------


def _window(grid: SpaceTimeGrid, spatial: bool) -> np.ndarray:
    """Second-order cutoff vanishing on all of dQ (or dOmega if spatial)."""
    def profile(s: np.ndarray) -> np.ndarray:
        p = np.sin(np.pi * s) ** 2
        p[0] = p[-1] = 0.0  # exact zeros (sin(pi) is only ~1e-16 in floats)
        return p

    return separable(grid, [profile] * grid.n, None if spatial else profile)


def _smooth_once(u: np.ndarray) -> None:
    """One (1/4, 1/2, 1/4) pass along each axis in turn, in place; the end
    nodes of each axis are kept."""
    for ax in range(u.ndim):
        sl_mid = [slice(None)] * u.ndim
        sl_lo = [slice(None)] * u.ndim
        sl_hi = [slice(None)] * u.ndim
        sl_mid[ax] = slice(1, -1)
        sl_lo[ax] = slice(None, -2)
        sl_hi[ax] = slice(2, None)
        u[tuple(sl_mid)] = (
            0.25 * u[tuple(sl_lo)] + 0.5 * u[tuple(sl_mid)] + 0.25 * u[tuple(sl_hi)]
        )


def default_ensemble(
    grid: SpaceTimeGrid, seed: int, count: int = 20, complex_fields: bool = False,
    spatial: bool = False,
) -> list[np.ndarray]:
    """Half deterministic smooth modes, half seeded smoothed noise.

    All members are cut off to vanish to second order on the boundary of
    the integration domain and normalized to unit max modulus.  They are
    views of one array, which leaves the heap's free space to the sweep's
    working set (as separate arrays they filled it, and glibc trimmed and
    re-faulted that working set at the heap top member after member).
    """
    shape = grid.space_shape if spatial else grid.shape
    window = _window(grid, spatial)
    rng = np.random.default_rng(seed)
    n_modes = count // 2
    block = np.empty((count,) + shape, dtype=complex if complex_fields else float)
    for m in range(count):
        if m < n_modes:
            u = separable(
                grid,
                [sine_profile(1 + (m + ax) % 3) for ax in range(grid.n)],
                None if spatial else sine_profile(1 + m % 3),
            )
            if complex_fields:
                u = u * np.exp(1j * (m + 1) * np.pi / 7.0)
        else:
            if complex_fields:
                u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            else:
                u = rng.standard_normal(shape)
            _smooth_once(u)
            _smooth_once(u)
        member = np.multiply(u, window, out=block[m])
        peak = float(np.max(np.abs(member)))
        if peak > 0:
            member /= peak
    return list(block)


# -- sweeps ------------------------------------------------------------------------


@dataclass
class AuditReport:
    kind: str
    taus: list[float]
    lams: list[float]
    ratios: np.ndarray  # (n_tau, n_lam, n_members); inf marks vacuous members
    aleph_emp: np.ndarray  # (n_tau, n_lam) min over non-vacuous members
    tau_star: float | None
    lam_star: float | None
    target: float
    vacuous: bool
    stamp: str | None = None
    admissibility_codes: list[str] = dc_field(default_factory=list)
    refinement_stable: bool | None = None
    flags: list[str] = dc_field(default_factory=list)

    @property
    def aleph_overall(self) -> float | None:
        """Uniform empirical constant over the quantified cells.

        The minimum over cells with tau >= tau* and lambda >= lambda*; the
        minimum sits in the well-resolved regime (weight concentration below
        grid scale only inflates per-cell ratios), so this is the
        refinement-robust headline number.
        """
        if self.tau_star is None or self.lam_star is None:
            return None
        i0 = self.taus.index(self.tau_star)
        j0 = self.lams.index(self.lam_star)
        block = self.aleph_emp[i0:, j0:]
        finite = block[np.isfinite(block)]
        return float(np.min(finite)) if finite.size else None


def sweep_audit(
    ensemble: list[np.ndarray], spec: WeightSpec, field: MatrixField, a: np.ndarray,
    vals0: np.ndarray, grad: np.ndarray, lower: LowerOrderCoeffs | None, kind: str, taus, lams,
    grid: SpaceTimeGrid, target: float = 0.0,
) -> AuditReport:
    """Evaluate the inequality across a (tau, lambda) grid for the ensemble;
    ``a``, ``vals0`` and ``grad`` are A, psi0 and grad psi0 on the space nodes."""
    if not ensemble:
        raise ValueError("ensemble must be nonempty")
    taus = [float(t) for t in taus]
    lams = [float(l) for l in lams]
    if not taus or not lams:
        raise ValueError("need at least one tau and one lambda")
    if min(taus) <= 0 or min(lams) <= 0:
        raise ValueError("tau and lambda must be positive")
    audit = _Audit(spec, field, a, vals0, grad, lower, kind, grid)
    ratios = np.empty((len(taus), len(lams), len(ensemble)))
    for m, u in enumerate(ensemble):
        ratios[..., m] = [[side.ratio for side in row] for row in audit.member_sides(u, taus, lams)]

    aleph = np.where(np.isfinite(ratios), ratios, np.inf).min(axis=2)  # inf: all vacuous
    vacuous = bool(np.all(np.isinf(aleph)))

    tau_star = None
    lam_star = None
    if not vacuous:
        for i in range(len(taus)):
            block = aleph[i:, :]
            ok = np.all(block[np.isfinite(block)] > target) and np.isfinite(block).any()
            if ok:
                tau_star = taus[i]
                row_from = i
                for j in range(len(lams)):
                    sub = aleph[row_from:, j:]
                    if np.all(sub[np.isfinite(sub)] > target):
                        lam_star = lams[j]
                        break
                break

    return AuditReport(kind=kind, taus=taus, lams=lams, ratios=ratios, aleph_emp=aleph,
                       tau_star=tau_star, lam_star=lam_star, target=target, vacuous=vacuous)


def negative_control(
    ensemble: list[np.ndarray], spec: WeightSpec, field: MatrixField, a: np.ndarray,
    vals0: np.ndarray, grad: np.ndarray, lower: LowerOrderCoeffs | None, kind: str, taus, lams,
    grid: SpaceTimeGrid, admissibility: WeightAdmissibility, target: float = 0.0,
) -> AuditReport:
    """Exploratory audit of a weight that failed admissibility.

    Refuses to run when the checker actually passed; use sweep_audit then.
    """
    if admissibility.passed:
        raise ValueError("weight is admissible: use sweep_audit")
    report = sweep_audit(ensemble, spec, field, a, vals0, grad, lower, kind, taus, lams, grid,
                         target=target)
    report.stamp = "INADMISSIBLE WEIGHT: exploratory"
    report.admissibility_codes = admissibility.codes()
    return report


def compare_refinement(coarse: AuditReport, fine: AuditReport):
    """Relative drift of the audits between two resolutions.

    Returns the per-cell drift matrix (diagnostic; strongly concentrated
    cells carry a surface-to-volume quadrature artifact that scales with the
    mesh) and the stability verdict, taken on the uniform empirical constant
    aleph_overall: stable when it drifts by less than 0.5 relative.
    """
    if coarse.aleph_emp.shape != fine.aleph_emp.shape:
        raise ValueError("reports must share the sweep grid")
    with np.errstate(invalid="ignore", divide="ignore"):
        drift = np.abs(fine.aleph_emp - coarse.aleph_emp) / np.abs(coarse.aleph_emp)
    a0, a1 = coarse.aleph_overall, fine.aleph_overall
    if a0 is None or a1 is None or a0 == 0.0:
        stable = False
    else:
        stable = bool(abs(a1 - a0) / abs(a0) < _MAX_REFINEMENT_DRIFT)
    coarse.refinement_stable = stable
    fine.refinement_stable = stable
    return drift, stable

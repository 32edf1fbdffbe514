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
    _checked_lower,
    _one_sided,
    assemble_operator,
    gradient_space,
    gradient_time,
)
from .solvers import GammaPlusMask, _face_trace, gamma_plus
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

_OPERATOR_KIND = {
    "wave_full": "wave",
    "wave_boundary": "wave",
    "wave_lower_order": "wave",
    "wave_single_param": "wave",
    "elliptic": "elliptic",
    "parabolic_full": "parabolic",
    "parabolic_boundary": "parabolic",
    "schrodinger_full": "schrodinger",
    "schrodinger_boundary": "schrodinger",
}

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
    parts = (
        values.lhs_interior,
        values.rhs_source,
        values.rhs_boundary_dmu,
        values.rhs_boundary_sigma_plus,
    )
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


class _Audit:
    """The (tau, lambda)-independent part of one audit: psi, A(x) and measures.

    Every side of every kind is a sum of terms c(tau, lam) * sum(env * phi**p
    * m * d), with env = exp(2 tau (phi - phi_max)), m a quadrature measure
    restricted to the nodes where it lives (interior, lateral boundary, time
    caps, plus boundary) and d a density of the member alone: |u|^2, the
    gradient energy, |Lu|^2, |dt u|^2 or the squared normal trace.  So each
    member's densities are computed once, and each (tau, lambda) cell costs
    one exp over the nodes and a few dot products.
    """

    def __init__(self, spec, field, lower, kind, grid, plus_mask=None):
        if kind not in INEQUALITY_KINDS:
            raise ValueError(f"unknown inequality kind {kind!r}")
        if kind in _BOUNDARY_KINDS and plus_mask is None:
            raise ValueError("boundary kinds need the plus-boundary mask")
        self.spec, self.kind, self.grid = spec, kind, grid
        self.op_kind = _OPERATOR_KIND[kind]
        self.lower = _checked_lower(self.op_kind, lower, grid)
        self.mat = assemble_operator(field, self.lower, grid)  # once for every member
        self.spatial = kind == "elliptic"
        nt = 1 if self.spatial else grid.nt
        tw = np.ones(1) if self.spatial else grid.time_weights
        self.nt, self.sw, self.tw = nt, grid.space_weights.ravel(), tw
        with_a = kind.startswith("wave") and kind != "wave_single_param"
        self.a_vals = field(grid.space_points) if with_a else None

        def nodes(space_idx, levels):  # flat space-time indices
            return (space_idx[:, None] * nt + levels).ravel()

        lat = np.flatnonzero(grid.boundary_mask)
        lat_w = np.outer(grid.lateral_weights.ravel()[lat], tw).ravel()
        self.lateral = (nodes(lat, np.arange(nt)), lat_w)
        self.dmu = [self.lateral]  # dsigma dt, plus dx on the two time caps
        if not self.spatial:
            caps = nodes(np.arange(self.sw.size), np.array([0, nt - 1]))
            self.dmu.append((caps, np.repeat(self.sw, 2)))
        # (face, its plus nodes, their dsigma dt weights); boundary kinds are
        # space-time kinds
        sigma_plus = plus_mask.sigma_plus_weights(grid) if kind in _BOUNDARY_KINDS else []
        self.plus = [(f, m, w.ravel()) for f, m, w in sigma_plus]
        idx = [nodes(np.flatnonzero(grid.face_mask(f))[m], np.arange(nt)) for f, m, _ in self.plus]
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

    def _densities(self, u: np.ndarray) -> dict:
        """Member densities, weighted by their measures, as flat arrays."""
        grid, kind = self.grid, self.kind
        grad = gradient_space(u, grid)
        if self.a_vals is None:
            gsq = np.sum(np.abs(grad) ** 2, axis=-1).ravel()
        else:
            a = self.a_vals[..., None, :, :]
            gsq = np.einsum("...k,...kl,...l->...", grad, a, np.conj(grad)).real.ravel()
        del grad
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
        kind, spec, grid, lat = self.kind, self.spec, self.grid, self.lateral[0]
        out = []
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            psi = spec.psi_space(grid) if self.spatial else spec.psi_values(grid)
            phi = np.exp(lam * psi.ravel())
            del psi
            phi_max = float(np.max(phi))
            single = kind == "wave_single_param"
            usq = d["usq"] if single else d["usq"] * phi**3
            gsq = d["gsq"] if single else d["gsq"] * phi
            dmu = [(idx, b_u * phi[idx] ** 3, b_g * phi[idx]) for idx, b_u, b_g in d.get("dmu", ())]
            dt_lat = d["dt_lat"] / phi[lat] if "dt_lat" in d else None
            plus = d["plus"] * phi[self.plus_idx] if self.plus else None
            env = np.empty_like(phi)
            for tau in taus:
                np.subtract(phi, phi_max, out=env)
                env *= 2.0 * tau
                np.exp(env, out=env)
                cu, cg, cs = _factors(kind, tau, lam)
                rhs_dmu = sum(
                    tau**3 * lam**3 * (env[idx] @ b_u) + tau * lam * (env[idx] @ b_g)
                    for idx, b_u, b_g in dmu
                )
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
    u: np.ndarray,
    spec: WeightSpec,
    field: MatrixField,
    lower: LowerOrderCoeffs | None,
    kind: str,
    tau: float,
    grid: SpaceTimeGrid,
    plus_mask: GammaPlusMask | None = None,
) -> CarlemanSideValues:
    """Integrate LHS and RHS terms of the selected inequality for one field.

    The one-cell, one-member case of ``sweep_audit``.
    """
    audit = _Audit(spec, field, lower, kind, grid, plus_mask)
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


def _smooth_once(u: np.ndarray) -> np.ndarray:
    out = u.copy()
    for ax in range(u.ndim):
        sl_mid = [slice(None)] * u.ndim
        sl_lo = [slice(None)] * u.ndim
        sl_hi = [slice(None)] * u.ndim
        sl_mid[ax] = slice(1, -1)
        sl_lo[ax] = slice(None, -2)
        sl_hi[ax] = slice(2, None)
        out[tuple(sl_mid)] = (
            0.25 * out[tuple(sl_lo)] + 0.5 * out[tuple(sl_mid)] + 0.25 * out[tuple(sl_hi)]
        )
    return out


def default_ensemble(
    grid: SpaceTimeGrid,
    seed: int,
    count: int = 20,
    complex_fields: bool = False,
    spatial: bool = False,
) -> list[np.ndarray]:
    """Half deterministic smooth modes, half seeded smoothed noise.

    All members are cut off to vanish to second order on the boundary of
    the integration domain and normalized to unit max modulus.
    """
    shape = grid.space_shape if spatial else grid.shape
    window = _window(grid, spatial)
    rng = np.random.default_rng(seed)
    members: list[np.ndarray] = []
    n_modes = count // 2
    for m in range(n_modes):
        u = separable(
            grid,
            [sine_profile(1 + (m + ax) % 3) for ax in range(grid.n)],
            None if spatial else sine_profile(1 + m % 3),
        )
        if complex_fields:
            u = u * np.exp(1j * (m + 1) * np.pi / 7.0)
        members.append(u)
    for _ in range(count - n_modes):
        if complex_fields:
            raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        else:
            raw = rng.standard_normal(shape)
        raw = _smooth_once(_smooth_once(raw))
        members.append(raw)
    out = []
    for u in members:
        u = u * window
        peak = float(np.max(np.abs(u)))
        out.append(u / peak if peak > 0 else u)
    return out


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


def _cell_min(ratios: np.ndarray) -> float:
    finite = ratios[np.isfinite(ratios)]
    if finite.size == 0:
        return float("inf")
    return float(np.min(finite))


def sweep_audit(
    ensemble: list[np.ndarray],
    spec: WeightSpec,
    field: MatrixField,
    lower: LowerOrderCoeffs | None,
    kind: str,
    taus,
    lams,
    grid: SpaceTimeGrid,
    target: float = 0.0,
    stamp: str | None = None,
    admissibility_codes: list[str] | None = None,
) -> AuditReport:
    """Evaluate the inequality across a (tau, lambda) grid for the ensemble."""
    if not ensemble:
        raise ValueError("ensemble must be nonempty")
    taus = [float(t) for t in taus]
    lams = [float(l) for l in lams]
    plus_mask = None
    if kind in _BOUNDARY_KINDS:
        plus_mask = gamma_plus(field, spec.psi0, grid)

    if not taus or not lams:
        raise ValueError("need at least one tau and one lambda")
    if min(taus) <= 0 or min(lams) <= 0:
        raise ValueError("tau and lambda must be positive")
    audit = _Audit(spec, field, lower, kind, grid, plus_mask)
    ratios = np.empty((len(taus), len(lams), len(ensemble)))
    for m, u in enumerate(ensemble):
        ratios[..., m] = [[side.ratio for side in row] for row in audit.member_sides(u, taus, lams)]

    aleph = np.empty((len(taus), len(lams)))
    for i in range(len(taus)):
        for j in range(len(lams)):
            aleph[i, j] = _cell_min(ratios[i, j, :])
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

    return AuditReport(
        kind=kind,
        taus=taus,
        lams=lams,
        ratios=ratios,
        aleph_emp=aleph,
        tau_star=tau_star,
        lam_star=lam_star,
        target=target,
        vacuous=vacuous,
        stamp=stamp,
        admissibility_codes=admissibility_codes or [],
    )


def negative_control(
    ensemble: list[np.ndarray],
    spec: WeightSpec,
    field: MatrixField,
    lower: LowerOrderCoeffs | None,
    kind: str,
    taus,
    lams,
    grid: SpaceTimeGrid,
    admissibility: WeightAdmissibility,
    target: float = 0.0,
) -> AuditReport:
    """Exploratory audit of a weight that failed admissibility.

    Refuses to run when the checker actually passed; use sweep_audit then.
    """
    if admissibility.passed:
        raise ValueError("weight is admissible: use sweep_audit")
    report = sweep_audit(
        ensemble,
        spec,
        field,
        lower,
        kind,
        taus,
        lams,
        grid,
        target=target,
        stamp="INADMISSIBLE WEIGHT: exploratory",
        admissibility_codes=admissibility.codes(),
    )
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

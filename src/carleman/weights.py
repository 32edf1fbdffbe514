"""Weight functions psi = psi0(x) + psi1(t) + C and their admissibility.

Admissibility is equation-specific.  The wave case needs, on top of the
pseudo-convexity certificate for psi0, two scalar conditions labelled by
their condition codes throughout the reports:

    (2.1)  min over the grid of  |grad psi0|_A^2 - (dt psi1)^2  stays positive
           (the reported delta is the grid minimum of the squared bracket),
    (2.2)  |dtt psi1| <= kappa / (4 * varkappa).

The final-time observability weight uses psi1(t) = -T^(alpha-2) (t - T/2)^2
and is usable once the observation time T clears

    T_alpha = max( delta0^(-1/(2(1-alpha))), (32 m)^(1/alpha) ),

with m the sup of psi0 and delta0 the minimum of |grad psi0|_A^2.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .coefficients import EllipticityReport, MatrixField
from .geometry import SpaceTimeGrid
from .polynomials import Polynomial
from .pseudoconvex import DEFAULT_GRAD_TOL, PseudoconvexCertificate, certify_pseudoconvex

__all__ = [
    "TimeProfile",
    "WeightSpec",
    "WeightAdmissibility",
    "Violation",
    "UCPGeometry",
    "UCPRegionCertificate",
    "check_admissibility",
    "make_example_weight",
    "make_observability_weight",
    "ObservabilityThresholds",
    "ucp_region_certificate",
]

COND_GRADIENT = "nonvanishing-gradient"
COND_PSEUDOCONVEX = "pseudo-convexity"
COND_NONNEG = "nonnegativity"
COND_WAVE_CONE = "(2.1)"
COND_WAVE_CURVATURE = "(2.2)"

AUTO_SHIFT_HEADROOM = 1e-9


@dataclass(frozen=True)
class TimeProfile:
    """psi1(t) = coeff * (t - center)^2, covering every profile used here."""

    coeff: float = 0.0
    center: float = 0.0

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.coeff * (t - self.center) ** 2

    def dt(self, t):
        t = np.asarray(t, dtype=float)
        return 2.0 * self.coeff * (t - self.center)

    @property
    def dtt(self) -> float:
        return 2.0 * self.coeff

    @classmethod
    def zero(cls) -> "TimeProfile":
        return cls()

    @classmethod
    def quadratic(cls, gamma: float, t0: float) -> "TimeProfile":
        """gamma * (t + t0)^2 / 2, the two-parameter example profile."""
        return cls(coeff=gamma / 2.0, center=-t0)

    @classmethod
    def observability(cls, alpha: float, t_obs: float) -> "TimeProfile":
        """-T^(alpha-2) * (t - T/2)^2 for final-time observability."""
        return cls(coeff=-(t_obs ** (alpha - 2.0)), center=t_obs / 2.0)


@dataclass
class WeightSpec:
    """psi = psi0(x) + psi1(t) + shift, with phi = exp(lam * psi)."""

    psi0: Polynomial
    psi1: TimeProfile
    shift: float
    lam: float

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lambda must be positive")

    @property
    def n(self) -> int:
        return self.psi0.nvars

    def with_lambda(self, lam: float) -> "WeightSpec":
        return dataclasses.replace(self, lam=lam)

    def with_shift(self, shift: float) -> "WeightSpec":
        return dataclasses.replace(self, shift=shift)

    # -- evaluation --------------------------------------------------------

    def psi_values(self, grid: SpaceTimeGrid) -> np.ndarray:
        space = self.psi0(grid.space_points)
        return space[..., None] + self.psi1(grid.times) + self.shift

    def psi_space(self, grid: SpaceTimeGrid) -> np.ndarray:
        return self.psi0(grid.space_points) + self.shift

    def phi_values(self, grid: SpaceTimeGrid) -> np.ndarray:
        return np.exp(self.lam * self.psi_values(grid))

    def grad_psi0_values(self, grid: SpaceTimeGrid) -> np.ndarray:
        return self.psi0.eval_gradient(grid.space_points)

    def min_psi(self, grid: SpaceTimeGrid) -> float:
        space_min = float(np.min(self.psi0(grid.space_points)))
        time_min = float(np.min(self.psi1(grid.times)))
        return space_min + time_min + self.shift

    def ensure_nonnegative(self, grid: SpaceTimeGrid) -> "WeightSpec":
        """Auto-shift so psi >= 0 on the grid (minimal shift plus headroom)."""
        m = self.min_psi(grid)
        if m >= 0.0:
            return self
        return self.with_shift(self.shift - m + AUTO_SHIFT_HEADROOM)


@dataclass
class Violation:
    code: str
    message: str
    witness_node: tuple[float, ...] | None = None
    witness_value: float | None = None


@dataclass
class WeightAdmissibility:
    kind: str
    passed: bool
    violations: list[Violation]
    kappa: float | None = None
    delta: float | None = None
    delta0: float | None = None
    varkappa: float | None = None
    certificate: PseudoconvexCertificate | None = None

    def codes(self) -> list[str]:
        return [v.code for v in self.violations]


def _bracket_values(spec: WeightSpec, field: MatrixField, grid: SpaceTimeGrid) -> np.ndarray:
    """chi = |grad psi0|_A^2 - (dt psi1)^2 on all space-time nodes."""
    grads = spec.grad_psi0_values(grid)
    a = field(grid.space_points)
    gsq = np.einsum("...k,...kl,...l->...", grads, a, grads)
    dt = spec.psi1.dt(grid.times)
    return gsq[..., None] - dt**2


def check_admissibility(
    spec: WeightSpec,
    field: MatrixField,
    grid: SpaceTimeGrid,
    kind: str,
    ellipticity: EllipticityReport | None = None,
) -> WeightAdmissibility:
    """Per-kind admissibility verdict with named violations and witnesses."""
    if spec.n != field.n:
        raise ValueError("weight and coefficient field dimensions disagree")
    if kind not in ("elliptic", "parabolic", "wave", "schrodinger"):
        raise ValueError(f"unknown equation kind {kind!r}")

    violations: list[Violation] = []
    pts = grid.space_points
    flat_pts = pts.reshape(-1, spec.n)

    min_psi = spec.min_psi(grid)
    if min_psi < 0.0:
        violations.append(
            Violation(COND_NONNEG, f"psi attains {min_psi:.6g} < 0 on the grid")
        )

    grads = spec.grad_psi0_values(grid)
    gnorm = np.sqrt(np.sum(grads**2, axis=-1)).reshape(-1)
    i_min = int(np.argmin(gnorm))
    delta0_plain = float(gnorm[i_min])

    a_vals = field(pts)
    gsq_a = np.einsum("...k,...kl,...l->...", grads, a_vals, grads)
    delta0 = float(np.min(gsq_a))

    cert: PseudoconvexCertificate | None = None
    kappa = None

    if kind in ("elliptic", "parabolic"):
        if delta0_plain <= DEFAULT_GRAD_TOL:
            violations.append(
                Violation(
                    COND_GRADIENT,
                    "grad psi0 vanishes on the grid",
                    witness_node=tuple(float(v) for v in flat_pts[i_min]),
                    witness_value=delta0_plain,
                )
            )
    else:
        cert = certify_pseudoconvex(field, spec.psi0, grid)
        kappa = cert.kappa
        if not cert.passed:
            violations.append(
                Violation(
                    COND_PSEUDOCONVEX,
                    f"pseudo-convexity fails: kappa={cert.kappa:.6g}, "
                    f"grad_min={cert.grad_min:.6g}",
                    witness_node=cert.argmin_kappa,
                    witness_value=cert.kappa,
                )
            )

    delta = None
    varkappa = None
    if kind == "wave":
        if ellipticity is None:
            raise ValueError("wave admissibility needs an ellipticity report for varkappa")
        varkappa = ellipticity.kappa_estimate
        bracket = _bracket_values(spec, field, grid)
        delta = float(np.min(bracket**2))
        bmin = float(np.min(bracket))
        if bmin <= 0.0:
            flat = bracket.reshape(-1)
            j = int(np.argmin(flat))
            space_idx = j // grid.nt
            violations.append(
                Violation(
                    COND_WAVE_CONE,
                    f"|grad psi0|_A^2 - (dt psi1)^2 reaches {bmin:.6g} <= 0",
                    witness_node=tuple(
                        float(v) for v in pts.reshape(-1, spec.n)[space_idx]
                    ),
                    witness_value=bmin,
                )
            )
        if kappa is not None and kappa > 0:
            bound = kappa / (4.0 * varkappa)
            curvature = abs(spec.psi1.dtt)
            if curvature > bound:
                violations.append(
                    Violation(
                        COND_WAVE_CURVATURE,
                        f"|dtt psi1| = {curvature:.6g} exceeds kappa/(4 varkappa) "
                        f"= {bound:.6g}",
                        witness_value=curvature,
                    )
                )

    return WeightAdmissibility(
        kind=kind,
        passed=not violations,
        violations=violations,
        kappa=kappa,
        delta=delta,
        delta0=delta0,
        varkappa=varkappa,
        certificate=cert,
    )


def make_example_weight(
    x0,
    t0: float,
    gamma: float,
    shift: float,
    grid: SpaceTimeGrid,
    lam: float = 1.0,
) -> WeightSpec:
    """psi = (|x - x0|^2 + gamma (t + t0)^2)/2 + shift, x0 outside the box,
    shifted further where needed so that psi >= 0 on the grid."""
    x0 = tuple(float(v) for v in x0)
    if grid.domain.contains(np.asarray(x0)):
        raise ValueError(f"x0={x0} lies inside the closed box")
    psi0 = Polynomial.squared_distance(x0, scale=0.5)
    spec = WeightSpec(
        psi0=psi0,
        psi1=TimeProfile.quadratic(gamma, t0),
        shift=float(shift),
        lam=lam,
    )
    return spec.ensure_nonnegative(grid)


@dataclass
class ObservabilityThresholds:
    t_alpha: float
    m_sup: float
    delta0: float
    alpha: float
    t_obs: float
    delta: float
    checks: dict[str, bool]

    @property
    def all_ok(self) -> bool:
        return all(self.checks.values())


def make_observability_weight(
    psi0: Polynomial,
    alpha: float,
    t_obs: float,
    shift: float,
    field: MatrixField,
    grid: SpaceTimeGrid,
    lam: float = 1.0,
) -> tuple[WeightSpec, ObservabilityThresholds]:
    """Final-time observability weight, shifted where needed so that psi >= 0
    on the grid, plus its time-threshold bookkeeping.

    Grid-checks the three working properties of the weight:
      band-positivity: the squared bracket stays positive (delta > 0),
      inner-band lower bound: psi >= -T^alpha/64 + shift on [3T/8, 5T/8],
      outer-band upper bound: psi <= -2 T^alpha/64 + shift on the outer ends.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if t_obs <= 0.0:
        raise ValueError("observation time must be positive")
    if abs(grid.t1) > 1e-12 or abs(grid.t2 - t_obs) > 1e-9 * max(1.0, t_obs):
        raise ValueError("grid time interval must be (0, t_obs)")

    pts = grid.space_points
    vals0 = psi0(pts)
    if float(np.min(vals0)) < -1e-12:
        raise ValueError("psi0 must be nonnegative")
    m_sup = float(np.max(vals0))
    grads = psi0.eval_gradient(pts)
    a = field(pts)
    delta0 = float(np.min(np.einsum("...k,...kl,...l->...", grads, a, grads)))
    if delta0 <= 0.0:
        raise ValueError("psi0 must have a nonvanishing A-gradient (delta0 > 0)")

    t_alpha = max(delta0 ** (-1.0 / (2.0 * (1.0 - alpha))), (32.0 * m_sup) ** (1.0 / alpha))

    spec = WeightSpec(
        psi0=psi0,
        psi1=TimeProfile.observability(alpha, t_obs),
        shift=float(shift),
        lam=lam,
    ).ensure_nonnegative(grid)

    bracket = _bracket_values(spec, field, grid)
    delta = float(np.min(bracket**2))
    check_delta = bool(np.min(bracket) > 0.0)

    psi_vals = spec.psi_values(grid)
    times = grid.times
    inner = (times >= 3.0 * t_obs / 8.0 - 1e-12) & (times <= 5.0 * t_obs / 8.0 + 1e-12)
    outer = (times <= t_obs / 4.0 + 1e-12) | (times >= 3.0 * t_obs / 4.0 - 1e-12)
    lower = -(t_obs**alpha) / 64.0 + spec.shift
    upper = -2.0 * (t_obs**alpha) / 64.0 + spec.shift
    check_inner = bool(np.all(psi_vals[..., inner] >= lower - 1e-12))
    check_outer = bool(np.all(psi_vals[..., outer] <= upper + 1e-12))

    thresholds = ObservabilityThresholds(
        t_alpha=t_alpha,
        m_sup=m_sup,
        delta0=delta0,
        alpha=alpha,
        t_obs=t_obs,
        delta=delta,
        checks={
            "bracket-positive": check_delta,
            "inner-band-lower-bound": check_inner,
            "outer-band-upper-bound": check_outer,
        },
    )
    return spec, thresholds


# -- unique-continuation region geometry ----------------------------------------


@dataclass(frozen=True)
class UCPGeometry:
    """Paraboloid-region geometry for continuation across a convex surface.

    The support region is E+ = {x_n - center_n >= |x' - center'|^2 / c}
    intersected with a ball; the radii order the cutoff construction:
    0 < rho0 < rho1 < r0 <= min(r, c/2).
    """

    center: tuple[float, ...]
    c: float
    r: float
    r0: float
    rho0: float
    rho1: float
    eps: float
    t_span: float  # time half-length

    def __post_init__(self):
        if not (0.0 < self.rho0 < self.rho1 < self.r0 <= min(self.r, self.c / 2.0)):
            raise ValueError("radii must satisfy 0 < rho0 < rho1 < r0 <= min(r, c/2)")
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        if self.t_span <= 0.0:
            raise ValueError("t_span must be positive")

    @property
    def gamma(self) -> float:
        return self.c / (4.0 * self.t_span)

    def region_descriptors(self) -> dict[str, str]:
        cx = tuple(round(v, 12) for v in self.center)
        return {
            "Q0": f"[ball({cx}, {self.rho0}) ∩ E+] × (-rho*T, rho*T)",
            "Q1": f"[E+ ∩ (ball({cx}, {self.r0}) \\ ball({cx}, {self.rho1}))] × (-T, T)",
            "Q2": f"[ball({cx}, {self.r0}) ∩ E+] × outer quarters of (-T, T)",
        }


@dataclass
class UCPRegionCertificate:
    c0: float
    c1: float
    c2: float
    exponents: tuple[float, float, float]
    rho: float
    rho_clamped: bool
    gamma: float
    passed: bool
    time_threshold: float  # 24 eps / c
    time_threshold_ok: bool
    margins: tuple[float, float]
    failed_comparisons: list[str]
    flags: list[str]
    regions: dict[str, str]


def ucp_region_certificate(geom: UCPGeometry, lam: float, shift: float) -> UCPRegionCertificate:
    """Separation constants c0 > max(c1, c2) for the three cutoff regions.

    Exponents follow the proof's closed forms with gamma = c/(4T) and the
    time slice width set by c * rho^2 * T = 2 * eps; the additive term in the
    exponents is read as the weight shift (see the interpretation flag).
    """
    c, eps, T = geom.c, geom.eps, geom.t_span
    if T < 2.0 * eps / c:
        raise ValueError("time half-length below 2*eps/c; slice width undefined")
    rho = math.sqrt(2.0 * eps / (c * T))
    clamped = rho > 1.0
    flags = [
        "exponent-shift-interpretation: additive exponent term read as the weight "
        "shift, not the bracket minimum"
    ]
    if clamped:
        rho = 1.0
        flags.append("rho-clamped: c*rho^2*T = 2*eps gave rho > 1")

    e0 = lam * (c**2 / 2.0 - 3.0 * eps / 4.0 + shift)
    e1 = lam * (c**2 / 2.0 - eps + shift)
    e2 = lam * (c**2 / 2.0 - c * T / 32.0 + shift)
    c0, c1, c2 = math.exp(e0), math.exp(e1), math.exp(e2)

    failed = []
    if not c1 < c0:
        failed.append("c1 >= c0")
    if not c2 < c0:
        failed.append("c2 >= c0 (time threshold 24*eps/c not cleared)")
    threshold = 24.0 * eps / c
    return UCPRegionCertificate(
        c0=c0,
        c1=c1,
        c2=c2,
        exponents=(e0, e1, e2),
        rho=rho,
        rho_clamped=clamped,
        gamma=geom.gamma,
        passed=not failed,
        time_threshold=threshold,
        time_threshold_ok=T > threshold,
        margins=(c0 - c1, c0 - c2),
        failed_comparisons=failed,
        flags=flags,
        regions=geom.region_descriptors(),
    )

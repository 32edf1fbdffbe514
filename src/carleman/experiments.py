"""Boundary observability experiments and the worst-case ratio estimator.

An experiment solves the whole ensemble as one block (``solvers.solve_block``),
restricts each member's normal trace to the plus part of the lateral
boundary, and reports the kind-specific quotient (data energy over observed
trace energy).  First-order Sobolev norms are gradient seminorms
||grad_A . ||_{L2} throughout, taken with one assembled operator per
experiment and matching the energy record of the solvers; reports state this.

The worst-case estimator climbs the quotient by shifted power-type steps
built from a forward solve and a heuristic time-reversed back-propagation
(trace data re-injected as a boundary-layer source).  The six shifted trials
of an iteration are one block; the first accepted in the order of their
shifts is taken.  It is an estimator of the best constant, never a
certificate; every reported value is the true quotient of a concrete datum,
hence a valid lower bound for the supremum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp

from .coefficients import MatrixField, certify_ellipticity
from .geometry import SpaceTimeGrid, separable, sine_profile
from .operators import LowerOrderCoeffs, _matvec, assemble_operator
from .polynomials import Polynomial
from .pseudoconvex import certify_pseudoconvex
from .solvers import (
    BlockState,
    EvolutionState,
    GammaPlusMask,
    WaveData,
    _dirichlet_form,
    gamma_plus,
    solve_block,
)
from .weights import make_observability_weight

__all__ = [
    "EXPERIMENT_KINDS",
    "CheckFailedError",
    "SampleResult",
    "ObservabilityReport",
    "WorstCaseResult",
    "observability_experiment",
    "worst_case_ratio",
    "trace_norm_sigma_plus",
]

# experiment kind -> the evolution it solves
_SOLVE_KIND = {"wave": "wave", "heat_final": "heat", "schrodinger": "schrodinger"}
EXPERIMENT_KINDS = tuple(_SOLVE_KIND)

_ZERO_OBS_REL = 1e-12
_WORST_CASE_REL_TOL = 1e-4  # relative change of the quotient that stops the climb


class CheckFailedError(ValueError):
    """A mathematical precondition of an experiment fails on the grid."""


def _require_pseudoconvex(cert) -> None:
    if not cert.passed:
        raise CheckFailedError(
            f"psi0 is not pseudo-convex for this field (kappa={cert.kappa:.6g})"
        )


def _grad_seminorm(u_level: np.ndarray, op: sp.csr_matrix, grid: SpaceTimeGrid) -> float:
    """First-order seminorm via the discrete Dirichlet form of the all-node
    operator ``op = assemble_operator(field, None, grid)``, matching the
    solvers' energy record."""
    return float(np.sqrt(_dirichlet_form(_matvec(op, u_level), u_level, grid)))


def _l2(u_level: np.ndarray, grid: SpaceTimeGrid) -> float:
    return float(np.sqrt(np.sum(np.abs(u_level) ** 2 * grid.space_weights)))


def trace_norm_sigma_plus(state: EvolutionState, mask: GammaPlusMask) -> float:
    """L2 norm of the outward normal derivative over the plus boundary."""
    return _sigma_plus_norm(state.traces, mask, state.grid)


def _sigma_plus_norm(traces: list[np.ndarray], mask: GammaPlusMask, grid: SpaceTimeGrid) -> float:
    total = 0.0
    for f, m, w in mask.sigma_plus_weights(grid):
        total += float(np.sum(np.abs(traces[f][m, :]) ** 2 * w))
    return math.sqrt(total)


def _data_norm(kind: str, data, op: sp.csr_matrix, grid: SpaceTimeGrid) -> float:
    if kind == "wave":
        return math.sqrt(
            _grad_seminorm(data.u0, op, grid) ** 2 + _l2(data.u1, grid) ** 2
        )
    if kind == "schrodinger":
        return _grad_seminorm(data.u0, op, grid)
    raise ValueError(f"no static data norm for kind {kind!r}")


@dataclass
class SampleResult:
    label: str
    data_norm: float
    trace_norm: float
    ratio: float | None
    flag: str | None = None


@dataclass
class ObservabilityReport:
    kind: str
    alpha: float
    t_obs: float
    t_alpha: float
    t_secondary: float | None
    t_required: float  # max combination actually gating the run
    t_required_min_variant: float | None
    threshold_ok: bool
    threshold_explanation: str
    gamma_plus_description: str
    samples: list[SampleResult]
    aleph_emp: float | None
    h1_norm_convention: str = "gradient seminorm ||grad_A .||_L2"
    flags: list[str] = dc_field(default_factory=list)


def _block_quotients(
    kind: str,
    field: MatrixField,
    lower,
    data: list,
    t_obs: float,
    grid: SpaceTimeGrid,
    mask: GammaPlusMask,
    op: sp.csr_matrix,
) -> tuple[list[tuple[float, float]], BlockState]:
    """(data norm, Sigma+ trace norm) of each datum, from one block solve."""
    block = solve_block(_SOLVE_KIND[kind], field, lower, data, t_obs, grid)
    norms = []
    for k, datum in enumerate(data):
        tr = _sigma_plus_norm(block.member_traces(k), mask, grid)
        if kind == "heat_final":
            dn = _grad_seminorm(block.final(k), op, grid)
        else:
            dn = _data_norm(kind, datum, op, grid)
        norms.append((dn, tr))
    return norms, block


def observability_experiment(
    kind: str,
    field: MatrixField,
    psi0: Polynomial,
    alpha: float,
    t_obs: float,
    ensemble: list,
    grid: SpaceTimeGrid,
    lower: LowerOrderCoeffs | None = None,
    validate: bool = True,
) -> ObservabilityReport:
    """Solve each ensemble member and report the observed-energy quotients.

    The two time thresholds are combined with max (the stricter reading);
    the min combination is also reported, with a flag, since only one of
    the two appears in some statements of the bound.
    """
    if kind not in EXPERIMENT_KINDS:
        raise ValueError(f"unknown experiment kind {kind!r}")
    if not ensemble:
        raise ValueError("ensemble must be nonempty")

    _, thresholds = make_observability_weight(psi0, alpha, t_obs, 0.0, field, grid)
    flags = []
    if grid.n == 1:
        flags.append("n=1 validation mode")
    t_secondary = None
    t_required = thresholds.t_alpha
    t_required_min = None
    if kind in ("wave", "schrodinger"):
        ell = certify_ellipticity(field, grid)
        cert = certify_pseudoconvex(field, psi0, grid)
        if validate:
            _require_pseudoconvex(cert)
        if kind == "wave":
            if cert.kappa > 0:
                t_secondary = (8.0 * ell.kappa_estimate / cert.kappa) ** (
                    1.0 / (2.0 - alpha)
                )
                t_required = max(thresholds.t_alpha, t_secondary)
                t_required_min = min(thresholds.t_alpha, t_secondary)
                flags.append(
                    "threshold-combination: gating uses max(primary, secondary); "
                    "the min variant is reported alongside"
                )
    threshold_ok = t_obs >= t_required
    if threshold_ok:
        explanation = (
            f"observation time {t_obs:g} clears the required {t_required:g}"
        )
    elif t_secondary is None:
        explanation = (
            f"observation time {t_obs:g} is below the weight threshold "
            f"t_alpha = {t_required:g}"
        )
    else:
        failing = []
        if t_obs < thresholds.t_alpha:
            failing.append(f"weight threshold t_alpha = {thresholds.t_alpha:g}")
        if t_obs < t_secondary:
            failing.append(f"secondary threshold = {t_secondary:g}")
        explanation = (
            f"observation time {t_obs:g} is below the "
            + " and the ".join(failing)
        )

    mask = gamma_plus(field, psi0, grid)
    norms, _ = _block_quotients(kind, field, lower, ensemble, t_obs, grid, mask,
                                assemble_operator(field, None, grid))
    samples: list[SampleResult] = []
    ratios: list[float] = []
    for idx, (dn, tr) in enumerate(norms):
        if tr <= _ZERO_OBS_REL * max(dn, 1.0):
            samples.append(
                SampleResult(
                    label=f"member-{idx}", data_norm=dn, trace_norm=tr,
                    ratio=None, flag="zero observation",
                )
            )
            continue
        r = dn / tr
        ratios.append(r)
        samples.append(
            SampleResult(label=f"member-{idx}", data_norm=dn, trace_norm=tr, ratio=r)
        )

    return ObservabilityReport(
        kind=kind,
        alpha=alpha,
        t_obs=t_obs,
        t_alpha=thresholds.t_alpha,
        t_secondary=t_secondary,
        t_required=t_required,
        t_required_min_variant=t_required_min,
        threshold_ok=threshold_ok,
        threshold_explanation=explanation,
        gamma_plus_description=mask.describe(),
        samples=samples,
        aleph_emp=max(ratios) if ratios else None,
        flags=flags,
    )


# -- worst-case estimator -------------------------------------------------------


@dataclass
class WorstCaseResult:
    ratio: float
    data: object
    ratios: list[float]
    iterations_run: int
    converged: bool
    flag: str | None = None


def _normalize_wave(datum: WaveData, op: sp.csr_matrix, grid) -> WaveData:
    norm = _data_norm("wave", datum, op, grid)
    if norm == 0.0:
        raise ValueError("zero datum cannot seed the estimator")
    return WaveData(u0=datum.u0 / norm, u1=datum.u1 / norm)


def _wave_axpy(a: float, x: WaveData, b: float, y: WaveData) -> WaveData:
    return WaveData(u0=a * x.u0 + b * y.u0, u1=a * x.u1 + b * y.u1)


def _boundary_layer_source(
    state_traces: list[np.ndarray], mask: GammaPlusMask, grid: SpaceTimeGrid
) -> np.ndarray:
    """Trace data re-injected on the first interior layer, time-reversed."""
    src = np.zeros(grid.shape)
    for f in range(grid.num_faces):
        m = mask.face_masks[f]
        if not np.any(m):
            continue
        axis, side = grid.face_axis_side(f)
        h = grid.domain.spacings[axis]
        reversed_tr = state_traces[f][..., ::-1]
        layer = [slice(None)] * grid.n
        layer[axis] = 1 if side == 0 else -2
        face_vals = np.zeros(reversed_tr.shape)
        face_vals[m, :] = reversed_tr[m, :]
        target = src[tuple(layer)]
        target += face_vals.reshape(target.shape) / h
        src[tuple(layer)] = target
    return src


def _wave_back_propagate(
    traces: list[np.ndarray], mask: GammaPlusMask, field, grid: SpaceTimeGrid
) -> WaveData:
    src = _boundary_layer_source(traces, mask, grid)
    zero = np.zeros(grid.space_shape)
    block = solve_block("wave", field, None, [WaveData(u0=zero, u1=zero, source=src)],
                        grid.t2, grid)
    return WaveData(u0=block.final(0), u1=block.final_velocity(0))


def worst_case_ratio(
    kind: str,
    field: MatrixField,
    psi0: Polynomial,
    t_obs: float,
    grid: SpaceTimeGrid,
    iterations: int,
    seed_data=None,
    lower: LowerOrderCoeffs | None = None,
    validate: bool = True,
) -> WorstCaseResult:
    """Climb the observability quotient; returns the best datum found.

    Wave kind only for the iterative climb; a single iteration returns the
    seed datum's quotient exactly as observability_experiment computes it.
    The shifted trials of one iteration are solved as one block and scanned
    in the order of their shifts; the first accepted one is taken, as a
    sequential search would.
    """
    if kind != "wave":
        raise ValueError("the worst-case estimator currently supports the wave kind")
    if iterations < 1:
        raise ValueError("need at least one iteration")
    mask = gamma_plus(field, psi0, grid)
    if validate:
        _require_pseudoconvex(certify_pseudoconvex(field, psi0, grid))
    op = assemble_operator(field, None, grid)

    if seed_data is None:
        x = separable(grid, [sine_profile(1)] * grid.n)
        seed_data = WaveData(u0=x, u1=np.zeros(grid.space_shape))

    datum = _normalize_wave(seed_data, op, grid)

    def quotients(data: list[WaveData]) -> tuple[list[float | None], BlockState]:
        norms, block = _block_quotients("wave", field, lower, data, t_obs, grid, mask, op)
        return [None if tr <= _ZERO_OBS_REL * max(dn, 1.0) else dn / tr
                for dn, tr in norms], block

    (r,), block = quotients([datum])
    if r is None:
        return WorstCaseResult(
            ratio=float("inf"), data=datum, ratios=[], iterations_run=0,
            converged=False, flag="unobservable",
        )
    traces = block.member_traces(0)
    ratios = [r]
    best = datum
    lam_est = 0.0
    flag = "iteration cap reached"

    # Shifted ascent: move against the back-propagated image; a step is
    # accepted only if the true quotient does not decrease, so the iterate
    # sequence is nondecreasing by construction (up to solver tolerance).
    for _ in range(1, iterations):
        back = _wave_back_propagate(traces, mask, field, grid)
        lam_est = max(lam_est, _data_norm("wave", back, op, grid))
        trials = [_normalize_wave(_wave_axpy(2.0**k * lam_est, datum, -1.0, back), op, grid)
                  for k in range(1, 7)]
        trial_ratios, block = quotients(trials)
        accepted = None
        for k, (trial, r_trial) in enumerate(zip(trials, trial_ratios)):
            if r_trial is None:
                return WorstCaseResult(
                    ratio=float("inf"), data=trial, ratios=ratios,
                    iterations_run=len(ratios), converged=False, flag="unobservable",
                )
            if r_trial >= ratios[-1] * (1.0 - 1e-9):
                accepted = (trial, r_trial, block.member_traces(k))
                break
        if accepted is None:
            # no ascent direction left along the surrogate: a plateau, which
            # satisfies the relative-change stopping rule with change zero
            return WorstCaseResult(
                ratio=max(ratios), data=best, ratios=ratios,
                iterations_run=len(ratios), converged=True, flag="plateau",
            )
        datum, r, traces = accepted
        ratios.append(r)
        if r >= max(ratios):
            best = datum
        if abs(ratios[-1] - ratios[-2]) <= _WORST_CASE_REL_TOL * abs(ratios[-2]):
            return WorstCaseResult(
                ratio=max(ratios), data=best, ratios=ratios,
                iterations_run=len(ratios), converged=True,
            )

    return WorstCaseResult(
        ratio=max(ratios),
        data=best,
        ratios=ratios,
        iterations_run=len(ratios),
        converged=False,
        flag=flag,
    )

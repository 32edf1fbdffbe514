"""Frozen sequential worst-case climb, kept as a reference oracle.

This is how ``experiments.worst_case_ratio`` climbed before the shifted
trials of one iteration were solved as one block: each trial was its own
``solve_evolution`` call, tried in the order of its shift until one was
accepted, and each back-propagation was a full space-time solve whose last
level and velocity were read off the arrays.  The tests require the block
climb to return the same ratios, flag, convergence and iteration count.
"""

from __future__ import annotations

import math

import numpy as np

from carleman.experiments import WorstCaseResult
from carleman.geometry import separable, sine_profile
from carleman.operators import _matvec, assemble_operator
from carleman.solvers import WaveData, _dirichlet_form, solve_evolution
from per_call import gamma_plus, pseudoconvex as certify_pseudoconvex

_ZERO_OBS_REL = 1e-12


def _data_norm(datum: WaveData, field, grid) -> float:
    lap = _matvec(assemble_operator(field, None, grid), datum.u0)
    seminorm = float(np.sqrt(_dirichlet_form(lap, datum.u0, grid)))
    l2 = float(np.sqrt(np.sum(np.abs(datum.u1) ** 2 * grid.space_weights)))
    return math.sqrt(seminorm**2 + l2**2)


def _trace_norm(state, mask) -> float:
    total = 0.0
    for f, m, w in mask.sigma_plus_weights(state.grid):
        total += float(np.sum(np.abs(state.traces[f][m, :]) ** 2 * w))
    return math.sqrt(total)


def _normalize(datum: WaveData, field, grid) -> WaveData:
    norm = _data_norm(datum, field, grid)
    if norm == 0.0:
        raise ValueError("zero datum cannot seed the estimator")
    return WaveData(u0=datum.u0 / norm, u1=datum.u1 / norm)


def _back_propagate(traces, mask, field, grid) -> WaveData:
    src = np.zeros(grid.shape)
    for f in range(grid.num_faces):
        m = mask.face_masks[f]
        if not np.any(m):
            continue
        axis, side = grid.face_axis_side(f)
        h = grid.domain.spacings[axis]
        reversed_tr = traces[f][..., ::-1]
        layer = [slice(None)] * grid.n
        layer[axis] = 1 if side == 0 else -2
        face_vals = np.zeros(reversed_tr.shape)
        face_vals[m, :] = reversed_tr[m, :]
        target = src[tuple(layer)]
        target += face_vals.reshape(target.shape) / h
        src[tuple(layer)] = target
    zero = np.zeros(grid.space_shape)
    state = solve_evolution("wave", field, None, WaveData(zero, zero, source=src),
                            grid.t2, grid)
    return WaveData(u0=state.u[..., -1].copy(), u1=state.velocity[..., -1].copy())


def reference_worst_case(field, psi0, t_obs, grid, iterations, seed_data=None, lower=None,
                         rel_tol=1e-4) -> WorstCaseResult:
    """The sequential climb; the default seed is the first sine mode."""
    mask = gamma_plus(field, psi0, grid)
    assert certify_pseudoconvex(field, psi0, grid).passed
    if seed_data is None:
        x = separable(grid, [sine_profile(1)] * grid.n)
        seed_data = WaveData(u0=x, u1=np.zeros(grid.space_shape))
    datum = _normalize(seed_data, field, grid)

    def quotient(d):
        state = solve_evolution("wave", field, lower, d, t_obs, grid)
        dn, tr = _data_norm(d, field, grid), _trace_norm(state, mask)
        return (None if tr <= _ZERO_OBS_REL * max(dn, 1.0) else dn / tr), state

    r, state = quotient(datum)
    if r is None:
        return WorstCaseResult(float("inf"), datum, [], 0, False, "unobservable")
    ratios, best, lam_est = [r], datum, 0.0
    for _ in range(1, iterations):
        back = _back_propagate(state.traces, mask, field, grid)
        lam_est = max(lam_est, _data_norm(back, field, grid))
        mult, accepted = 2.0, None
        for _attempt in range(6):
            trial = _normalize(WaveData(u0=mult * lam_est * datum.u0 - back.u0,
                                        u1=mult * lam_est * datum.u1 - back.u1), field, grid)
            r_trial, state_trial = quotient(trial)
            if r_trial is None:
                return WorstCaseResult(float("inf"), trial, ratios, len(ratios), False,
                                       "unobservable")
            if r_trial >= ratios[-1] * (1.0 - 1e-9):
                accepted = (trial, r_trial, state_trial)
                break
            mult *= 2.0
        if accepted is None:
            return WorstCaseResult(max(ratios), best, ratios, len(ratios), True, "plateau")
        datum, r, state = accepted
        ratios.append(r)
        if r >= max(ratios):
            best = datum
        if abs(ratios[-1] - ratios[-2]) <= rel_tol * abs(ratios[-2]):
            return WorstCaseResult(max(ratios), best, ratios, len(ratios), True)
    return WorstCaseResult(max(ratios), best, ratios, len(ratios), False,
                           "iteration cap reached")

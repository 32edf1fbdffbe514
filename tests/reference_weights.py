"""Frozen (space x time) weight checks, kept as reference oracles.

``check_admissibility`` (wave kind) and ``make_observability_weight`` formed
the (2.1) bracket |grad psi0|_A^2 - (dt psi1)^2 and, for the observability
weight, psi = psi0 + psi1 + shift on every space-time node, and read the
minimum, the squared minimum, the witness node and the band checks from
those arrays.  The package now reads the same values from the space and the
time samples separately; the equivalence tests compare it with the code
below.
"""

from __future__ import annotations

import numpy as np

from carleman.coefficients import quad_form
from carleman.weights import ObservabilityThresholds, TimeProfile, WeightSpec


def bracket(gsq_a, psi1, times):
    """(min chi, flat space index of the first C-order minimizer, min chi^2)
    of chi = ``gsq_a`` - (dt psi1)^2 on all space-time nodes."""
    chi = gsq_a[..., None] - psi1.dt(times) ** 2
    delta = float(np.min(chi**2))
    bmin = float(np.min(chi))
    return bmin, int(np.argmin(chi.reshape(-1))) // len(times), delta


def observability_weight(psi0, alpha, t_obs, shift, a, grad, grid, lam=1.0):
    """``make_observability_weight`` on (space x time) arrays: psi0 evaluated
    on the nodes three times, the bracket and psi on every node."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if t_obs <= 0.0:
        raise ValueError("observation time must be positive")
    if abs(grid.t1) > 1e-12 or abs(grid.t2 - t_obs) > 1e-9 * max(1.0, t_obs):
        raise ValueError("grid time interval must be (0, t_obs)")

    vals0 = psi0(grid.space_points)
    if float(np.min(vals0)) < -1e-12:
        raise ValueError("psi0 must be nonnegative")
    m_sup = float(np.max(vals0))
    gsq_a = quad_form(grad, a, grad)
    delta0 = float(np.min(gsq_a))
    if delta0 <= 0.0:
        raise ValueError("psi0 must have a nonvanishing A-gradient (delta0 > 0)")

    t_alpha = max(delta0 ** (-1.0 / (2.0 * (1.0 - alpha))), (32.0 * m_sup) ** (1.0 / alpha))

    spec = WeightSpec(
        psi0=psi0,
        psi1=TimeProfile.observability(alpha, t_obs),
        shift=float(shift),
        lam=lam,
    ).ensure_nonnegative(grid, float(np.min(psi0(grid.space_points))))

    chi = gsq_a[..., None] - spec.psi1.dt(grid.times) ** 2
    delta = float(np.min(chi**2))
    check_delta = bool(np.min(chi) > 0.0)

    psi_vals = spec.psi0(grid.space_points)[..., None] + spec.psi1(grid.times) + spec.shift
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

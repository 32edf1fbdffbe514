"""Per-call node samples: the readers of A, dA, psi0, grad psi0 and hess psi0
called with a sample of their own.

The library's readers take the node arrays a command evaluates once and hands
to all of them.  Tests that exercise one reader at a time call it through
these wrappers, which evaluate ``field(grid.space_points)``,
``first_derivatives``, ``psi0`` itself, ``eval_gradient`` and ``eval_hessian``
(and assemble the operator) for that call alone, with the signatures the
readers had before.  The operator products and boundary quadratures that the
library forms inline have wrappers here too, and so do the Gamma+ mask, the
example and observability weights, the auto-shift, the audit sweep, the
observability experiment and the worst-case estimator, which read the setup
their caller holds.
"""

from __future__ import annotations

import numpy as np

from carleman.audit import negative_control as _negative_control
from carleman.audit import sweep_audit
from carleman.coefficients import certify_ellipticity
from carleman.experiments import observability_experiment, worst_case_ratio
from carleman.operators import (
    _apply_assembled,
    _checked_lower,
    _matvec,
    assemble_operator,
    conjugation_coeffs,
    conjugation_residual,
    green_residual,
    magnetic_expansion_residual,
    riemannian_identity_residual,
)
from carleman.pseudoconvex import certificate_from_scan, theta_scan, upsilon_theta
from carleman.solvers import _dirichlet_form
from carleman.solvers import gamma_plus as _gamma_plus
from carleman.polynomials import Polynomial
from carleman.weights import (TimeProfile, WeightSpec, _outside_box, check_admissibility,
                              make_observability_weight)


def field_sample(field, pts):
    return field(pts), field.first_derivatives(pts)


def weight_sample(psi0, pts):
    return psi0.eval_gradient(pts), psi0.eval_hessian(pts)


def node_sample(field, psi0, pts):
    """A, dA, psi0, grad psi0 and hess psi0 at ``pts``, as a command holds them."""
    return (*field_sample(field, pts), psi0(pts), *weight_sample(psi0, pts))


def min_psi(spec, grid):
    return spec.min_psi(grid, float(np.min(spec.psi0(grid.space_points))))


def ensure_nonnegative(spec, grid):
    return spec.ensure_nonnegative(grid, float(np.min(spec.psi0(grid.space_points))))


def example_weight(x0, t0, gamma, shift, grid, lam=1.0):
    """psi = (|x - x0|^2 + gamma (t + t0)^2)/2 + shift, x0 outside the box,
    shifted where needed as a command's ``example`` weight is."""
    psi0 = Polynomial.squared_distance(_outside_box(x0, grid), scale=0.5)
    return WeightSpec(psi0=psi0, psi1=TimeProfile.quadratic(gamma, t0), shift=float(shift),
                      lam=lam).ensure_nonnegative(grid, float(np.min(psi0(grid.space_points))))


def ellipticity(field, grid, **tolerances):
    pts = grid.space_points
    return certify_ellipticity(field, *field_sample(field, pts), pts, **tolerances)


def admissibility(spec, field, grid, kind, ellipticity=None):
    pts = grid.space_points
    return check_admissibility(spec, *node_sample(field, spec.psi0, pts), grid, kind,
                               ellipticity=ellipticity)


def scan(field, h, pts):
    return theta_scan(*field_sample(field, pts), *weight_sample(h, pts))


def pseudoconvex(field, h, grid_or_points):
    """The pseudo-convexity certificate of ``h`` on the grid nodes or on the
    points of an array."""
    pts = getattr(grid_or_points, "space_points", grid_or_points)
    return certificate_from_scan(*scan(field, h, pts), pts)


def gamma_plus(field, psi0, grid):
    pts = grid.space_points
    return _gamma_plus(field(pts), psi0.eval_gradient(pts), grid)


def observability_weight(psi0, alpha, t_obs, shift, field, grid, lam=1.0):
    pts = grid.space_points
    return make_observability_weight(psi0, alpha, t_obs, shift, field(pts), psi0(pts),
                                     psi0.eval_gradient(pts), grid, lam=lam)


def observability(kind, field, psi0, alpha, t_obs, ensemble, grid, lower=None):
    """The report of ``observability_experiment``, without the estimator."""
    return observability_experiment(kind, field, psi0, alpha, t_obs, ensemble, grid,
                                    node_sample(field, psi0, grid.space_points), lower=lower)[0]


def worst_case(field, psi0, t_obs, grid, iterations, seed_data=None, lower=None):
    """``worst_case_ratio`` with a Gamma+ mask and an operator of its own; no
    pseudo-convexity check."""
    return worst_case_ratio(field, t_obs, grid, gamma_plus(field, psi0, grid),
                            assemble_operator(field, None, grid), iterations,
                            seed_data=seed_data, lower=lower)


def theta(field, h, pts):
    """(Upsilon, Theta) at the points ``pts``."""
    return upsilon_theta(*field_sample(field, pts), *weight_sample(h, pts))


def coeffs(spec, field, kind, tau, grid, admissibility=None):
    pts = grid.space_points
    return conjugation_coeffs(spec, *node_sample(field, spec.psi0, pts), kind, tau, grid,
                              admissibility=admissibility)


def conjugation(u, spec, field, kind, tau, grid):
    return conjugation_residual(u, coeffs(spec, field, kind, tau, grid),
                                assemble_operator(field, None, grid), grid)


def green(u, v, field, grid):
    return green_residual(u, v, field(grid.space_points),
                          assemble_operator(field, None, grid), grid)


def riemannian(field, u, grid):
    return riemannian_identity_residual(*field_sample(field, grid.space_points),
                                        assemble_operator(field, None, grid), u, grid)


def magnetic(field, b_field, u, grid):
    return magnetic_expansion_residual(*field_sample(field, grid.space_points),
                                       b_field, u, grid)


def audit_sample(field, psi0, pts):
    """A, psi0 and grad psi0 at ``pts``: the arrays the audit reads."""
    return field(pts), psi0(pts), psi0.eval_gradient(pts)


def sweep(ensemble, spec, field, lower, kind, taus, lams, grid, target=0.0):
    return sweep_audit(ensemble, spec, field, *audit_sample(field, spec.psi0, grid.space_points),
                       lower, kind, taus, lams, grid, target=target)


def negative_control(ensemble, spec, field, lower, kind, taus, lams, grid, admissibility,
                     target=0.0):
    return _negative_control(ensemble, spec, field,
                             *audit_sample(field, spec.psi0, grid.space_points), lower, kind,
                             taus, lams, grid, admissibility, target=target)


def apply(kind, field, lower, u, grid):
    """The evolution operator of ``kind`` applied to ``u``; zero on the
    boundary ring and, off the elliptic kind, on the time caps."""
    lower = _checked_lower(kind, lower, grid)
    return _apply_assembled(kind, assemble_operator(field, lower, grid), lower.time, u, grid)


def laplacian(field, u, grid):
    """Flux-form Delta_A of a space(+trailing) array; zero on the boundary ring."""
    return _matvec(assemble_operator(field, None, grid), u)


def dirichlet_seminorm_sq(u, field, grid):
    """Discrete Dirichlet form -<Delta_A u, u>, reduced over space."""
    return _dirichlet_form(laplacian(field, u, grid), u, grid)


def integrate_lateral(g, grid):
    """Surface-time integral of ``g`` over the lateral boundary Sigma."""
    idx, w = grid.dmu_nodes()[0]
    return float(np.asarray(g).ravel()[idx] @ w)


def integrate_dmu(g, grid):
    """Integral of ``g`` over dQ with respect to dmu: Sigma and the two time caps."""
    idx, w = grid.dmu_nodes()[1]
    return integrate_lateral(g, grid) + float(np.asarray(g).ravel()[idx] @ w)

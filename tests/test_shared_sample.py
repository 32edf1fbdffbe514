"""One node sample per command: the readers of the certify-family commands, of
``carleman-audit`` and of ``observability`` give the same bits from the arrays
a command evaluates once as from a sample of their own."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from carleman import MatrixField, build_grid
from carleman.audit import default_ensemble, sweep_audit
from carleman.coefficients import certify_ellipticity
from carleman.geometry import separable, sine_profile, smooth_bump
from carleman.operators import (
    assemble_operator,
    conjugation_coeffs,
    conjugation_residual,
    green_residual,
    magnetic_expansion_residual,
    riemannian_identity_residual,
)
from carleman.polynomials import Polynomial, poly_from_table
from carleman.pseudoconvex import theta_scan
from carleman.solvers import gamma_plus
from carleman.weights import (TimeProfile, WeightSpec, check_admissibility,
                              make_observability_weight)
import per_call

_SMALL = st.floats(-0.1, 0.1, allow_nan=False, allow_infinity=False)


@st.composite
def _cases(draw):
    """A random box in [-1, 1]^n, a field 2.5 I + small cubic terms (so A is
    positive definite there), a random cubic psi0 with a quadratic psi1 and a
    shift (the auto-shift raises it where psi < 0), and an equation kind, for
    n = 1..3."""
    n = draw(st.integers(1, 3))
    lows = [draw(st.floats(-1.0, -0.1)) for _ in range(n)]
    highs = [lo + draw(st.floats(0.3, 1.0)) for lo in lows]
    nodes = [draw(st.integers(8, 10 if n < 3 else 8)) for _ in range(n)]
    # at least 8 nodes per axis and level: the conjugation member is zero on a
    # 2-node margin
    grid = build_grid(lows, highs, nodes, 0.0, 1.0, draw(st.integers(8, 9)))
    monomials = [p for p in itertools.product(range(4), repeat=n) if 0 < sum(p) <= 3]

    def terms(constant):
        powers = draw(st.lists(st.sampled_from(monomials), max_size=4, unique=True))
        return [((0,) * n, constant)] + [(p, draw(_SMALL)) for p in powers]

    field = MatrixField.from_tables(
        n, {(k, l): terms(2.5 if k == l else 0.0) for k in range(n) for l in range(k, n)},
        domain=grid.domain,
    )
    psi0 = poly_from_table(n, [(p, 4.0 * c) for p, c in terms(0.0)[1:]]
                           + [(tuple(2 * (i == j) for j in range(n)), 0.5) for i in range(n)])
    psi1 = TimeProfile.quadratic(draw(st.floats(0.0, 0.5)), 0.0)
    spec = WeightSpec(psi0=psi0, psi1=psi1, shift=draw(st.floats(-1.0, 1.0)), lam=0.5)
    kind = draw(st.sampled_from(["elliptic", "parabolic", "wave", "schrodinger"]))
    return grid, field, spec, kind


def _same(x, y) -> bool:
    """Bitwise equality of reports and residuals (NaN equal to NaN)."""
    return repr(x) == repr(y)


def _outcome(call, *args):
    """What ``call(*args)`` returns, or the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return exc


# A fixed draw of 40 examples in tier-1; the "ci" profile of tests/conftest.py,
# with more examples, draws more of the same fixed sequence.
@settings(max_examples=max(1, settings.default.max_examples * 2 // 5), derandomize=True,
          deadline=None)
@given(_cases())
def test_shared_sample_matches_per_call_evaluations(case):
    """Every weight, certificate, mask, audit and residual computed from one
    sample of A, dA, psi0, grad psi0 and hess psi0 (and one assembled
    operator), read in the order of the commands, equals the one computed
    from evaluations of its own, and no reader changes the arrays it shares."""
    grid, field, raw, kind = case
    pts = grid.space_points
    sample = per_call.node_sample(field, raw.psi0, pts)
    a, da, vals0, grad, hess = sample
    spec = raw.ensure_nonnegative(grid, float(np.min(vals0)))
    assert _same(spec, per_call.ensure_nonnegative(raw, grid))
    mat = assemble_operator(field, None, grid)
    u = separable(grid, [sine_profile(1)] * grid.n)
    b_field = [Polynomial.coordinate(grid.n, (ax + 1) % grid.n) for ax in range(grid.n)]

    def bump(s):
        return smooth_bump(s, 0.15, 0.85)

    member = separable(grid, [bump] * grid.n, None if kind == "elliptic" else bump)

    ell = certify_ellipticity(field, a, da, pts)
    assert _same(ell, per_call.ellipticity(field, grid))
    adm = check_admissibility(spec, *sample, grid, kind, ellipticity=ell)
    assert _same(adm, per_call.admissibility(spec, field, grid, kind, ellipticity=ell))
    for shared, own in zip(theta_scan(a, da, grad, hess), per_call.scan(field, spec.psi0, pts)):
        assert np.array_equal(shared, own)
    assert _same(green_residual(u, u**2, a, mat, grid), per_call.green(u, u**2, field, grid))
    if grid.n == 3:
        assert _same(riemannian_identity_residual(a, da, mat, u, grid),
                     per_call.riemannian(field, u, grid))
    assert _same(magnetic_expansion_residual(a, da, b_field, u, grid),
                 per_call.magnetic(field, b_field, u, grid))
    coeffs = conjugation_coeffs(spec, *sample, kind, 1.0, grid)
    assert _same(conjugation_residual(member, coeffs, mat, grid),
                 per_call.conjugation(member, spec, field, kind, 1.0, grid))

    # observability: the weight thresholds (on psi0 lifted to be nonnegative on
    # the nodes; a constant leaves its derivatives as they are) and the mask
    lifted = spec.psi0 + Polynomial.constant(grid.n, max(0.0, -float(np.min(vals0))))
    assert _same(_outcome(make_observability_weight, lifted, 0.5, grid.t2, 0.0, a, lifted(pts),
                          grad, grid),
                 _outcome(per_call.observability_weight, lifted, 0.5, grid.t2, 0.0, field,
                          grid))
    assert all(np.array_equal(x, y) for x, y in zip(
        gamma_plus(a, grad, grid).face_masks,
        per_call.gamma_plus(field, spec.psi0, grid).face_masks, strict=True))

    # the audit sweep, on 2 members and 2 cells, for a full and a boundary kind
    members = default_ensemble(grid, 3, count=2)
    for audit_kind in ("wave_full", "wave_boundary"):
        shared = _outcome(sweep_audit, members, spec, field, a, vals0, grad, None,
                          audit_kind, [1.0, 4.0], [0.5], grid)
        own = _outcome(per_call.sweep, members, spec, field, None, audit_kind, [1.0, 4.0],
                       [0.5], grid)
        assert _same(shared, own) and (isinstance(own, ValueError) or (
            shared.ratios.tobytes() == own.ratios.tobytes()))

    fresh = per_call.node_sample(field, raw.psi0, pts)
    assert all(np.array_equal(x, y) for x, y in zip(sample, fresh, strict=True))

"""Numerical certification and experiment toolkit for weighted energy
inequalities of second-order evolution operators on box domains."""

__version__ = "0.1.0"

from .audit import (
    AuditReport,
    CarlemanSideValues,
    default_ensemble,
    evaluate_sides,
    negative_control,
    sweep_audit,
)
from .coefficients import (
    EllipticityReport,
    MatrixField,
    OrthogonalMap,
    certify_ellipticity,
    eval_with_derivatives,
    rotate_field,
)
from .experiments import (
    ObservabilityReport,
    WorstCaseResult,
    observability_experiment,
    worst_case_ratio,
)
from .geometry import (
    BoxDomain,
    SpaceTimeGrid,
    build_grid,
    integrate_dmu,
    integrate_interior,
    separable,
    sine_profile,
    smooth_bump,
)
from .operators import (
    ConjugationCoeffs,
    LowerOrderCoeffs,
    RiemannianField,
    apply_operator,
    conjugation_coeffs,
    conjugation_residual,
    green_residual,
    magnetic_expansion_residual,
    riemannian_identity_residual,
)
from .polynomials import Polynomial, poly_from_table
from .pseudoconvex import (
    FlattenedChart,
    PseudoconvexCertificate,
    SymbolProbe,
    ThetaDecomposition,
    certify_pseudoconvex,
    flatten_and_certify_hypersurface,
    subellipticity_bracket,
    theta_decomposition,
)
from .solvers import (
    BlockState,
    EvolutionState,
    GammaPlusMask,
    HeatData,
    SchrodingerData,
    WaveData,
    energy_equivalence_check,
    gamma_plus,
    smoothing_bound_check,
    solve_block,
    solve_evolution,
)
from .weights import (
    UCPGeometry,
    WeightAdmissibility,
    WeightSpec,
    check_admissibility,
    make_example_weight,
    make_observability_weight,
    ucp_region_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]

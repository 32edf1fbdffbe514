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
    certify_ellipticity,
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
    separable,
    sine_profile,
    smooth_bump,
)
from .operators import (
    ConjugationCoeffs,
    LowerOrderCoeffs,
    RiemannianField,
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
    ThetaDecomposition,
    flatten_and_certify_hypersurface,
    theta_decomposition,
)
from .solvers import (
    BlockState,
    EvolutionState,
    GammaPlusMask,
    HeatData,
    SchrodingerData,
    WaveData,
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
    make_observability_weight,
    ucp_region_certificate,
)

__all__ = [name for name in dir() if not name.startswith("_")]

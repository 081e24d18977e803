"""Bernstein-Szego weight families on [-a, 1]: explicit orthogonal polynomials,
closed-form Gauss quadrature, finite trigonometric sums, and matched-moment
measures on R, each cross-checked against an independent integration oracle."""

from .errors import (
    BszegoError,
    ConstraintViolated,
    DegreeExceeded,
    DegreeThreshold,
    DomainError,
    FactorizationResidual,
    IllConditioned,
    NoConvergence,
    ParityError,
    PoleProximity,
    RangeError,
    RootInDisk,
    SlowConvergence,
    SymmetryViolation,
    UnknownSuite,
)
from .poly_core import ChebSeries, RealPolynomial, cheb_T, cheb_U, poly_from_circle_samples
from .weight_models import (
    Family,
    MeasureFactor,
    SzegoFactor,
    WeightSpec,
    build_szego_factor,
    expected_rho_degree,
    rho_eval,
    squared_factor,
    xi_eta_eval,
)
from .szego_polys import OrthoPoly, explicit_eval, explicit_family, kernel_eval, szego_orthonormal
from .quadrature import (
    AlphaBeta,
    QuadratureRule,
    alpha_beta,
    apply_rule,
    corollary_eval,
    limit_series,
    oracle_moments,
    rule_cos_plus_cosh,
    rule_cosh_minus_cos,
    rule_squared,
    sum_form,
    sum_form_beta,
    sum_form_poly,
    weighted_oracle_integral,
    weights_from_moments,
)
from .pick_measures import (
    MatchedMeasure,
    MatchedPair,
    PickFunction,
    boundary_moments,
    densities,
    density,
    matched_measure,
    matched_pair,
    moment_match_check,
)

__version__ = "0.1.0"

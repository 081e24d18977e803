"""Bernstein-Szego weight families on [-a, 1]: explicit orthogonal polynomials,
closed-form Gauss quadrature, finite trigonometric sums, and matched-moment
measures on R, each cross-checked against an independent integration oracle."""

from .errors import (
    BszegoError,
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
from .poly_core import ChebSeries, RealPolynomial, cheb_T, poly_from_circle_samples
from .weight_models import (
    Family,
    MeasureFactor,
    SzegoFactor,
    WeightSpec,
    build_szego_factor,
    expected_rho_degree,
    rho_eval,
    xi_eta_eval,
)
from .szego_polys import OrthoPoly, explicit_eval, explicit_family, kernel_eval, szego_orthonormal
from .quadrature import (
    QuadratureRule,
    corollary_eval,
    limit_series,
    oracle_moments,
    rule_cos_plus_cosh,
    rule_cosh_minus_cos,
    rule_squared,
    sum_form,
    sum_form_beta,
    weighted_oracle_integral,
    weights_from_moments,
)
from .pick_measures import (
    MatchedMeasure,
    MatchedPair,
    PickFunction,
    boundary_moments,
    densities,
    matched_pair,
)

__version__ = "0.1.0"

"""Closed-form Gauss rules and related finite / limiting sum identities.

Each rule's nodes are the known roots of its family's distinguished polynomial,
read rung by rung from its description (`szego_polys._ladder`); the rule is a
weight kernel of the rung and its angle, alpha on t > 0 and beta on t < 0.
The single sums are one alternating kernel over the same angles.  Signed rules
keep the sign of their weights: the cosh-minus-cos weight changes sign at
t = 0 and the rule is exact only on polynomials with p(0) = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import oracle
from .errors import (
    ParityError,
    RangeError,
    SlowConvergence,
)
from .poly_core import RealPolynomial, power_table
from .szego_polys import _ladder
from .weight_models import Family, MeasureFactor, WeightSpec, _rung_sine, continued_block, weight_base

__all__ = [
    "QuadratureRule",
    "rule_cos_plus_cosh",
    "rule_squared",
    "rule_cosh_minus_cos",
    "weighted_oracle_integral",
    "oracle_moments",
    "sum_form",
    "sum_form_beta",
    "corollary_eval",
    "limit_series",
]


@dataclass(frozen=True)
class QuadratureRule:
    nodes: tuple
    weights: tuple
    exact_degree: int
    spec: WeightSpec
    requires_p_zero_at_origin: bool = False

    def __post_init__(self):
        if len(self.nodes) != len(self.weights):
            raise ValueError("node and weight counts differ")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError("nodes must be pairwise distinct")

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.params_dict(),
            "nodes": list(self.nodes),
            "weights": list(self.weights),
            "exact_degree": self.exact_degree,
            "constraint": {"p_zero_at_origin": True} if self.requires_p_zero_at_origin else None,
        }


def _angle(s, N, a, positive):
    """alpha = 2N asinh(a^-1/2 s) on t > 0, beta = 2N asinh(a^1/2 s) on t < 0; s = sin(k pi/2N)."""
    return 2.0 * N * math.asinh(s / math.sqrt(a) if positive else math.sqrt(a) * s)


def _gauss_rule(spec: WeightSpec, kernel, zero_weight: float, exact_degree: int,
                signed: bool = False) -> QuadratureRule:
    """The rule on the known roots t of the spec's distinguished polynomial (`_ladder`):
    weight zero_weight at t = 0, else kernel(N, M, k, angle) for a rung k of degree N, M the
    other factor's, negated at t < 0 in a signed rule, whose weight changes sign there."""
    zero, rungs = _ladder(spec)
    weights = [(1.0 if t > 0 or not signed else -1.0) * kernel(N, M, k, _angle(s, N, spec.a, t > 0))
               for t, N, M, k, s in rungs]
    return QuadratureRule((0.0,) * zero + tuple(t for t, *_ in rungs),
                          (zero_weight,) * zero + tuple(weights), exact_degree, spec,
                          requires_p_zero_at_origin=signed)


def _tanh_over_sinh(N, M, k, x):
    """(2 pi/N) tanh(x/2N)/sinh(M x/N): the cos-plus-cosh and cosh-minus-cos weight."""
    return (2.0 * math.pi / N) * math.tanh(x / (2.0 * N)) / math.sinh(M * x / N)


def rule_cos_plus_cosh(n: int, m: int, a: float) -> QuadratureRule:
    """Gauss rule for 1/(rho_a sqrt((1-t)(a+t))), odd n and m, exact to m+n-1."""
    if n % 2 == 0 or m % 2 == 0:
        raise ParityError("closed-form rule needs odd n and m")
    spec = WeightSpec(n, m, a, Family.CosPlusCosh, MeasureFactor.InvSqrtBoth)
    return _gauss_rule(spec, _tanh_over_sinh, math.pi / (2.0 * m * n), m + n - 1)


def rule_squared(n: int, m: int, a: float) -> QuadratureRule:
    """Gauss rule for sqrt((1-t)(a+t))/rho_a^2, exact to 2m+2n-3, m+n-1 nodes."""
    spec = WeightSpec(n, m, a, Family.SquaredCosPlusCosh, MeasureFactor.SqrtBoth)
    pref = math.pi * a / (2.0 * m * n)

    def kernel(N, M, k, x):  # N, M = 2n, 2m and k = 2i on t > 0, where x = 2 alpha_i
        mx = M * x / (2 * N)
        return (
            pref
            * ((M // 2) * math.sinh(x / N) / math.sinh(mx))
            * math.cos(math.pi * k / (2 * N)) ** 2
            / (math.cosh(mx) + (-1.0) ** (k // 2))
        )

    return _gauss_rule(spec, kernel, pref / 4.0, 2 * m + 2 * n - 3)


def rule_cosh_minus_cos(n: int, m: int, a: float) -> QuadratureRule:
    """Signed rule for 1/((cosh - cos) sqrt((1-t)(a+t))) on p with p(0) = 0.

    Needs n, m of opposite parity; the weights at t < 0 are negative.  Exact
    to degree m+n-1.
    """
    if (n + m) % 2 == 0:
        raise ParityError("cosh-minus-cos rule needs n, m of opposite parity")
    spec = WeightSpec(n, m, a, Family.CoshMinusCosOverT, MeasureFactor.InvSqrtBoth)
    return _gauss_rule(spec, _tanh_over_sinh, 0.0, m + n - 1, signed=True)


def weighted_oracle_integral(spec: WeightSpec, f, tol: float = 1e-11):
    """Oracle integral of f(t) against the spec's weight over [-a, 1].

    f may be vector-valued (shape (npts, K)).  Returns the value(s) only.
    The weight multiplies f's table in place when it is a writeable float64
    array with the node axis first (`oracle._scaled`), so f returns a new
    array per call, as every oracle evaluator does; any other result of f is
    multiplied out of place, to the same bits.
    """
    base, power = weight_base(spec)

    def integrand(t):
        return oracle._scaled(f(t), base(t))  # f(t) first: f may return t itself

    value, _ = oracle.integrate(
        oracle.IntegrandSpec(
            evaluator=integrand,
            interval=oracle.ThetaSubstituted(spec.a, weight_power=power),
        ),
        tol=tol,
    )
    return value


def oracle_moments(spec: WeightSpec, degree_max: int, tol: float = 1e-11) -> np.ndarray:
    """Weighted moments mu_j = int t^j w(t) dt for j = 0..degree_max, one pass.

    The integrand is one monomial table per evaluator call, built node-major
    by successive products (``poly_core.power_table``); t^j then carries at
    most j rounding errors.
    """

    def f(t):
        return power_table(t, degree_max + 1)

    return np.asarray(weighted_oracle_integral(spec, f, tol=tol))


def _alternating_rows(n: int, m: int, a: float, beta: bool = False) -> list:
    """The rows (j, s_j, x_j, (-1)^(j-1) tanh(x_j/2N) {tanh(M x_j/2N)}^(-(-1)^j)),
    j = 1..2N, of the single sum at (n, m, a): of `sum_form` over the angles x_j = alpha_j
    with N, M = n, m, or of `sum_form_beta` (beta) over x_j = beta_j with N, M = m, n;
    s_j = sin(pi j/2N).  They do not depend on u, so a caller summing many u builds
    them once.

    For odd j the tanh power is a coth; x_j > 0 there since s_j > 0 for
    j <= 2N-1, and the j = 2N term vanishes through its tanh factors (even
    exponent).
    """
    N, M = (m, n) if beta else (n, m)
    rows = []
    for j in range(1, 2 * N + 1):
        s = _rung_sine(j, N)
        x = _angle(s, N, a, not beta)
        t1 = math.tanh(x / (2.0 * N))
        tm = math.tanh(M * x / (2.0 * N))
        term = t1 / tm if j % 2 == 1 else t1 * tm
        rows.append((j, s, x, ((-1.0) ** (j - 1)) * term))
    return rows


def _alternating_sum(rows, value) -> float:
    """pi/(2N) sum_j coef_j value(j, s_j, x_j) over the rows (j, s_j, x_j, coef_j) of
    `_alternating_rows`, in row order."""
    total = 0.0
    for j, s, x, coef in rows:
        total += coef * value(j, s, x)
    return math.pi / len(rows) * total


def sum_form(n: int, m: int, a: float, u: int, rows=None) -> float:
    """Single-sum value of the integral with numerator cos(2u asin sqrt t).  `rows` are
    `_alternating_rows(n, m, a)`, if the caller has them."""
    if abs(u) >= n:
        raise RangeError(f"|u| = {abs(u)} must be below n = {n}")
    rows = _alternating_rows(n, m, a) if rows is None else rows
    return _alternating_sum(rows, lambda j, s, x: math.cos(math.pi * j * u / n))


def sum_form_beta(n: int, m: int, a: float, u: int, rows=None) -> float:
    """The beta-side transformation of the single sum, valid for |u| < m.  `rows` are
    `_alternating_rows(n, m, a, beta=True)`, if the caller has them."""
    if abs(u) >= m:
        raise RangeError(f"|u| = {abs(u)} must be below m = {m}")
    rows = _alternating_rows(n, m, a, beta=True) if rows is None else rows
    return _alternating_sum(rows, lambda j, s, x: math.cosh(u * x / m))


def corollary_eval(which: str, n: int, m: Optional[int] = None, a: Optional[float] = None,
                   tol: float = 1e-10):
    """Closed form and oracle value for the three corollary integrals.  Their denominators
    are blocks rho(k, 1, a) = 2(xi^2 + eta^2) = 1 + 2t/a + T_k(1 - 2t) (`continued_block`)."""
    if n < 1:
        raise RangeError(f"n = {n} must be at least 1")

    def rho(t, k, aa):
        C, s, Ch, sh = continued_block(t, k, 1, aa)
        xi, eta = C * Ch, t * s * sh
        return 2.0 * (xi * xi + eta * eta)

    if which == "A":
        aa = 1.0 if a is None else a

        def g(t):
            return 1.0 / (aa * rho(t, n, aa))

        val, _ = oracle.integrate(
            oracle.IntegrandSpec(g, oracle.ThetaSubstituted(aa, weight_power=+1)), tol=tol
        )
        return math.pi / 4.0, val
    if which == "B":
        def g(t):
            return 1.0 / rho(t, n, 1.0)

        val, _ = oracle.integrate(
            oracle.IntegrandSpec(g, oracle.ThetaSubstituted(1.0, weight_power=-1)), tol=tol
        )
        r = (math.sqrt(2.0) + 1.0) ** (2 * n)
        return math.pi / math.sqrt(8.0) * (r + 1.0) / (r - 1.0), val
    if which == "C":
        if m is None or (n - m) % 2 != 0:
            raise ParityError("corollary C needs n and m of the same parity")
        if m < 1:
            raise RangeError(f"m = {m} must be at least 1")

        def g(t):
            return 1.0 / (rho(t, n, 1.0) * rho(t, m, 1.0))

        val, _ = oracle.integrate(
            oracle.IntegrandSpec(g, oracle.ThetaSubstituted(1.0, weight_power=+1)), tol=tol
        )
        s = n + m
        total = 0.0
        for j in range(-(s // 2) + 1, s // 2):
            x = 2.0 * math.pi * j / s
            total += (1.0 + math.cos(x)) / (2.0 - math.cos(x) + math.cos(m * x))
        return math.pi / (4.0 * s) * total, val
    raise ValueError(f"unknown corollary {which!r}")


_SERIES_TOL, _SERIES_TERMS = 1e-12, 10_000


def _series_sum(term) -> float:
    """Sum term(1), term(2), ... until 5 consecutive terms fall below _SERIES_TOL |sum|;
    SlowConvergence after _SERIES_TERMS terms."""
    total = 0.0
    quiet = 0
    for j in range(1, _SERIES_TERMS + 1):
        tj = term(j)
        total += tj
        if abs(tj) < _SERIES_TOL * max(1e-300, abs(total)):
            quiet += 1
            if quiet >= 5:
                return total
        else:
            quiet = 0
    raise SlowConvergence(f"series not converged after {_SERIES_TERMS} terms")


def limit_series(kind: str, alpha: float, beta: Optional[float], p: RealPolynomial,
                 variant: int = 0) -> float:
    """Limiting discrete-measure series for the large-parameter quadratures.

    kind selects the weight: "TwoCoshProduct" for
    1/((cos sqrt x + cosh(alpha sqrt x))(cos sqrt x + cosh(beta sqrt x))),
    "CoshMinusCosX" for (1/(4 pi^4)) x/(cosh(alpha sqrt x) - cos sqrt x)
    (variant 0/1 pick the even/odd split, both represent the same integral),
    "ProductCoshMinusCosX2" and "MixedX" for the corresponding products (MixedX's plus
    block in alpha, its quotient block in beta: the weights of `weight_models.limit_rho`).
    """
    params = (alpha,) if beta is None else (alpha, beta)
    if not all(0.0 < v < math.inf for v in params):  # NaN fails too
        raise ValueError(f"alpha and beta must be positive and finite, got {alpha!r}, {beta!r}")
    if kind == "TwoCoshProduct":
        s = alpha + beta
        d = alpha - beta

        def pos_term(j):
            return (
                2.0 * math.pi ** 2 * j / math.sinh(math.pi * s * j / 2.0)
                * float(p(math.pi ** 2 * j ** 2))
                / (math.cosh(math.pi * s * j / 2.0) + (-1.0) ** j * math.cosh(math.pi * d * j / 2.0))
            )

        def neg_term(j):
            return (
                j / math.sinh(2.0 * math.pi * j / s)
                * float(p(-4.0 * math.pi ** 2 * j ** 2 / s ** 2))
                / (math.cosh(2.0 * math.pi * j / s) + math.cos(2.0 * math.pi * alpha * j / s))
            )

        return (
            math.pi * float(p(0.0)) / s
            + _series_sum(pos_term)
            + 8.0 * math.pi ** 2 / s ** 2 * _series_sum(neg_term)
        )
    if kind == "CoshMinusCosX":
        keep_pos = 0 if variant == 0 else 1  # parity of j kept in the positive sum

        def pos_term(j):
            if j % 2 != keep_pos:
                return 0.0
            return j ** 3 / math.sinh(math.pi * alpha * j) * float(p(math.pi ** 2 * j ** 2))

        def neg_term(j):
            if j % 2 == keep_pos:
                return 0.0
            return j ** 3 / math.sinh(math.pi * j / alpha) * float(
                p(-math.pi ** 2 * j ** 2 / alpha ** 2)
            )

        return _series_sum(pos_term) + _series_sum(neg_term) / alpha ** 4
    if kind == "ProductCoshMinusCosX2":
        s = alpha + beta
        d = alpha - beta

        def pos_term(j):
            return (
                j ** 5 / math.sinh(math.pi * s * j / 2.0)
                * float(p(math.pi ** 2 * j ** 2))
                / (math.cosh(math.pi * s * j / 2.0) - (-1.0) ** j * math.cosh(math.pi * d * j / 2.0))
            )

        def neg_term(j):
            return (
                j ** 5 / math.sinh(2.0 * math.pi * j / s)
                * float(p(-4.0 * math.pi ** 2 * j ** 2 / s ** 2))
                / (math.cosh(2.0 * math.pi * j / s) - math.cos(2.0 * math.pi * alpha * j / s))
            )

        return _series_sum(pos_term) + 64.0 / s ** 6 * _series_sum(neg_term)
    if kind == "MixedX":
        s = alpha + beta
        d = alpha - beta

        def pos_term(j):
            return (
                j ** 3 / math.cosh(math.pi * s * j / 2.0)
                * float(p(math.pi ** 2 * j ** 2))
                / (math.sinh(math.pi * s * j / 2.0) - (-1.0) ** j * math.sinh(math.pi * d * j / 2.0))
            )

        def neg_term(j):
            if j % 2 == 0:
                return 0.0
            return (
                j ** 3 / math.sinh(math.pi * j / s)
                * float(p(-math.pi ** 2 * j ** 2 / s ** 2))
                / (math.cosh(math.pi * j / s) + math.cos(math.pi * alpha * j / s))
            )

        return _series_sum(pos_term) + 2.0 / s ** 4 * _series_sum(neg_term)
    raise ValueError(f"unknown series kind {kind!r}")

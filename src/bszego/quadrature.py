"""Closed-form Gauss rules and related finite / limiting sum identities.

Node sets come from the explicit orthogonal polynomials; weights are either
the stated closed forms or, for the product/mixed families, a Vandermonde
solve against oracle moments.  Signed rules keep the sign of their weights:
the cosh-minus-cos weight changes sign at t = 0 and the corresponding rule
is exact only on polynomials with p(0) = 0.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import oracle
from .errors import (
    ConstraintViolated,
    DegreeExceeded,
    IllConditioned,
    ParityError,
    RangeError,
    SlowConvergence,
)
from .poly_core import RealPolynomial, cheb_T
from .weight_models import Family, MeasureFactor, WeightSpec, weight_base

__all__ = [
    "QuadratureRule",
    "AlphaBeta",
    "alpha_beta",
    "rule_cos_plus_cosh",
    "rule_squared",
    "rule_cosh_minus_cos",
    "apply_rule",
    "weighted_oracle_integral",
    "oracle_moments",
    "weights_from_moments",
    "sum_form",
    "sum_form_poly",
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


@dataclass(frozen=True)
class AlphaBeta:
    z: float
    alpha: float
    beta: float


def alpha_beta(z: float, n: int, m: int, a: float) -> AlphaBeta:
    """alpha_z = 2n asinh(a^-1/2 sin(pi z / 2n)), beta_z with a^1/2 and m."""
    alpha = 2.0 * n * math.asinh(math.sin(math.pi * z / (2.0 * n)) / math.sqrt(a))
    beta = 2.0 * m * math.asinh(math.sqrt(a) * math.sin(math.pi * z / (2.0 * m)))
    return AlphaBeta(z=z, alpha=alpha, beta=beta)


def rule_cos_plus_cosh(n: int, m: int, a: float) -> QuadratureRule:
    """Gauss rule for 1/(rho_a sqrt((1-t)(a+t))), odd n and m, exact to m+n-1."""
    if n % 2 == 0 or m % 2 == 0:
        raise ParityError("closed-form rule needs odd n and m")
    spec = WeightSpec(n, m, a, Family.CosPlusCosh, MeasureFactor.InvSqrtBoth)
    nodes = [0.0]
    weights = [math.pi / (2.0 * m * n)]
    for i in range(1, (n - 1) // 2 + 1):
        al = alpha_beta(2 * i, n, m, a).alpha
        nodes.append(math.sin(math.pi * i / n) ** 2)
        weights.append((2.0 * math.pi / n) * math.tanh(al / (2.0 * n)) / math.sinh(m * al / n))
    for j in range(1, (m - 1) // 2 + 1):
        be = alpha_beta(2 * j, n, m, a).beta
        nodes.append(-a * math.sin(math.pi * j / m) ** 2)
        weights.append((2.0 * math.pi / m) * math.tanh(be / (2.0 * m)) / math.sinh(n * be / m))
    return QuadratureRule(tuple(nodes), tuple(weights), m + n - 1, spec)


def rule_squared(n: int, m: int, a: float) -> QuadratureRule:
    """Gauss rule for sqrt((1-t)(a+t))/rho_a^2, exact to 2m+2n-3, m+n-1 nodes."""
    spec = WeightSpec(n, m, a, Family.SquaredCosPlusCosh, MeasureFactor.SqrtBoth)
    pref = math.pi * a / (2.0 * m * n)
    nodes = [0.0]
    weights = [pref / 4.0]
    for i in range(1, n):
        al = alpha_beta(i, n, m, a).alpha
        nodes.append(math.sin(math.pi * i / (2.0 * n)) ** 2)
        weights.append(
            pref
            * (m * math.sinh(al / n) / math.sinh(m * al / n))
            * math.cos(math.pi * i / (2.0 * n)) ** 2
            / (math.cosh(m * al / n) + (-1.0) ** i)
        )
    for j in range(1, m):
        be = alpha_beta(j, n, m, a).beta
        nodes.append(-a * math.sin(math.pi * j / (2.0 * m)) ** 2)
        weights.append(
            pref
            * (n * math.sinh(be / m) / math.sinh(n * be / m))
            * math.cos(math.pi * j / (2.0 * m)) ** 2
            / (math.cosh(n * be / m) + (-1.0) ** j)
        )
    return QuadratureRule(tuple(nodes), tuple(weights), 2 * m + 2 * n - 3, spec)


def rule_cosh_minus_cos(n: int, m: int, a: float) -> QuadratureRule:
    """Signed rule for 1/((cosh - cos) sqrt((1-t)(a+t))) on p with p(0) = 0.

    Stated for odd n / even m; the even n / odd m rule follows from the
    change of variables t -> -t/a, which maps it onto the (m, n, 1/a) rule
    with negated weights. Exact to degree m+n-1.
    """
    if n % 2 == 1 and m % 2 == 0:
        spec = WeightSpec(n, m, a, Family.CoshMinusCosOverT, MeasureFactor.InvSqrtBoth)
        nodes = []
        weights = []
        for i in range(1, (n - 1) // 2 + 1):
            al = alpha_beta(2 * i, n, m, a).alpha
            nodes.append(math.sin(math.pi * i / n) ** 2)
            weights.append((2.0 * math.pi / n) * math.tanh(al / (2.0 * n)) / math.sinh(m * al / n))
        for j in range(1, m // 2 + 1):
            be = alpha_beta(2 * j - 1, n, m, a).beta
            nodes.append(-a * math.sin(math.pi * (2 * j - 1) / (2.0 * m)) ** 2)
            weights.append(
                -(2.0 * math.pi / m) * math.tanh(be / (2.0 * m)) / math.sinh(n * be / m)
            )
        return QuadratureRule(
            tuple(nodes), tuple(weights), m + n - 1, spec, requires_p_zero_at_origin=True
        )
    if n % 2 == 0 and m % 2 == 1:
        base = rule_cosh_minus_cos(m, n, 1.0 / a)
        spec = WeightSpec(n, m, a, Family.CoshMinusCosOverT, MeasureFactor.InvSqrtBoth)
        nodes = tuple(-a * s for s in base.nodes)
        weights = tuple(-w for w in base.weights)
        return QuadratureRule(nodes, weights, m + n - 1, spec, requires_p_zero_at_origin=True)
    raise ParityError("cosh-minus-cos rule needs n, m of opposite parity")


def apply_rule(rule: QuadratureRule, p: RealPolynomial) -> float:
    if p.degree > rule.exact_degree:
        raise DegreeExceeded(f"degree {p.degree} exceeds exactness {rule.exact_degree}")
    if rule.requires_p_zero_at_origin:
        scale = np.max(np.abs(p.coeffs))
        if scale > 0 and abs(p.coeffs[0]) > 1e-12 * scale:
            raise ConstraintViolated("rule requires p(0) = 0")
    nodes = np.asarray(rule.nodes)
    weights = np.asarray(rule.weights)
    return float(np.dot(weights, p(nodes)))


def weighted_oracle_integral(spec: WeightSpec, f, tol: float = 1e-11, guards=()):
    """Oracle integral of f(t) against the spec's weight over [-a, 1].

    f may be vector-valued (shape (npts, K)).  Returns the value(s) only.
    """
    base, power = weight_base(spec)

    def integrand(t):
        vals = np.asarray(f(t))
        w = base(t)
        if vals.ndim == 2:
            return vals * np.asarray(w)[:, None]
        return vals * w

    value, _ = oracle.integrate(
        oracle.IntegrandSpec(
            evaluator=integrand,
            interval=oracle.ThetaSubstituted(spec.a, weight_power=power),
            singularity_guards=guards,
        ),
        tol=tol,
    )
    return value


def oracle_moments(spec: WeightSpec, degree_max: int, tol: float = 1e-11) -> np.ndarray:
    """Weighted moments mu_j = int t^j w(t) dt for j = 0..degree_max, one pass.

    The integrand is one monomial table per evaluator call, built by
    cumulative products (``np.vander``); t^j then carries at most j
    rounding errors.
    """

    def f(t):
        return np.vander(t, degree_max + 1, increasing=True)

    return np.asarray(weighted_oracle_integral(spec, f, tol=tol))


def weights_from_moments(
    nodes: Sequence[float], spec: WeightSpec, measure_factor: MeasureFactor, tol: float = 1e-11
) -> QuadratureRule:
    """Interpolatory weights matching oracle moments on the given nodes.

    For the sign-changing cosh-minus-cos weight the moment of order 0
    diverges, so matching runs over t^1..t^count and the rule carries the
    p(0) = 0 constraint.
    """
    nodes = list(nodes)
    count = len(nodes)
    if count > 24:
        raise IllConditioned("more than 24 nodes: Vandermonde solve too ill-conditioned")
    wspec = spec.with_measure(measure_factor)
    constrained = spec.family is Family.CoshMinusCosOverT
    if constrained:
        # Moments against 1/((cosh-cos) sqrt) of t^j equal plain-measure
        # moments of t^(j-1); j runs 1..count.
        mu = oracle_moments(wspec, count - 1, tol=tol)
        V = np.vander(np.asarray(nodes), count, increasing=True).T * np.asarray(nodes)
        exact_degree = count
    else:
        mu = oracle_moments(wspec, count - 1, tol=tol)
        V = np.vander(np.asarray(nodes), count, increasing=True).T
        exact_degree = count - 1
    w = np.linalg.solve(V, mu)
    resid = float(np.max(np.abs(V @ w - mu)))
    if resid > 1e-7 * max(1.0, float(np.max(np.abs(mu)))):
        raise IllConditioned(f"moment residual {resid:.3e} above tolerance")
    return QuadratureRule(
        tuple(float(x) for x in nodes),
        tuple(float(x) for x in w),
        exact_degree,
        wspec,
        requires_p_zero_at_origin=constrained,
    )


def _sum_form_terms(n: int, m: int, a: float, values) -> float:
    """Common core of the single-sum forms: the 2n-term alpha sum.

    values[j] multiplies the j-th term (j = 1..2n).  For odd j the factor
    {tanh(m alpha_j / 2n)}^(-1) is a coth; alpha_j > 0 there since
    sin(pi j / 2n) > 0 for j <= 2n-1, and the j = 2n term vanishes through
    its tanh factors (even exponent).
    """
    total = 0.0
    for j in range(1, 2 * n + 1):
        al = alpha_beta(j, n, m, a).alpha
        t1 = math.tanh(al / (2.0 * n))
        tm = math.tanh(m * al / (2.0 * n))
        if j % 2 == 1:
            term = t1 / tm
        else:
            term = t1 * tm
        total += ((-1.0) ** (j - 1)) * term * values[j - 1]
    return math.pi / (2.0 * n) * total


def sum_form(n: int, m: int, a: float, u: int) -> float:
    """Single-sum value of the integral with numerator cos(2u asin sqrt t)."""
    if abs(u) >= n:
        raise RangeError(f"|u| = {abs(u)} must be below n = {n}")
    values = [math.cos(math.pi * j * u / n) for j in range(1, 2 * n + 1)]
    return _sum_form_terms(n, m, a, values)


def sum_form_poly(n: int, m: int, a: float, p: RealPolynomial) -> float:
    """Single-sum value for a polynomial numerator of degree below n."""
    if p.degree >= n:
        raise RangeError(f"degree {p.degree} must be below n = {n}")
    values = [float(p(math.sin(math.pi * j / (2.0 * n)) ** 2)) for j in range(1, 2 * n + 1)]
    return _sum_form_terms(n, m, a, values)


def sum_form_beta(n: int, m: int, a: float, u: int) -> float:
    """The beta-side transformation of the single sum, valid for |u| < m."""
    if abs(u) >= m:
        raise RangeError(f"|u| = {abs(u)} must be below m = {m}")
    total = 0.0
    for j in range(1, 2 * m + 1):
        be = alpha_beta(j, n, m, a).beta
        t1 = math.tanh(be / (2.0 * m))
        tn = math.tanh(n * be / (2.0 * m))
        term = t1 / tn if j % 2 == 1 else t1 * tn
        total += ((-1.0) ** (j - 1)) * term * math.cosh(u * be / m)
    return math.pi / (2.0 * m) * total


def corollary_eval(which: str, n: int, m: Optional[int] = None, a: Optional[float] = None,
                   tol: float = 1e-10):
    """Closed form and oracle value for the three corollary integrals."""
    if which == "A":
        aa = 1.0 if a is None else a

        def g(t):
            return 1.0 / (aa + 2.0 * t + aa * cheb_T(n, 1.0 - 2.0 * t))

        val, _ = oracle.integrate(
            oracle.IntegrandSpec(g, oracle.ThetaSubstituted(aa, weight_power=+1)), tol=tol
        )
        return math.pi / 4.0, val
    if which == "B":
        def g(t):
            return 1.0 / (1.0 + 2.0 * t + cheb_T(n, 1.0 - 2.0 * t))

        val, _ = oracle.integrate(
            oracle.IntegrandSpec(g, oracle.ThetaSubstituted(1.0, weight_power=-1)), tol=tol
        )
        r = (math.sqrt(2.0) + 1.0) ** (2 * n)
        return math.pi / math.sqrt(8.0) * (r + 1.0) / (r - 1.0), val
    if which == "C":
        if m is None or (n - m) % 2 != 0:
            raise ParityError("corollary C needs n and m of the same parity")

        def g(t):
            return 1.0 / (
                (1.0 + 2.0 * t + cheb_T(n, 1.0 - 2.0 * t))
                * (1.0 + 2.0 * t + cheb_T(m, 1.0 - 2.0 * t))
            )

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


def _series_sum(term, tol: float, max_terms: int = 10_000) -> float:
    """Sum term(1), term(2), ... until 5 consecutive terms fall below tol*|sum|."""
    total = 0.0
    quiet = 0
    for j in range(1, max_terms + 1):
        tj = term(j)
        total += tj
        if abs(tj) < tol * max(1e-300, abs(total)):
            quiet += 1
            if quiet >= 5:
                return total
        else:
            quiet = 0
    raise SlowConvergence(f"series not converged after {max_terms} terms")


def limit_series(kind: str, alpha: float, beta: Optional[float], p: RealPolynomial,
                 tol: float = 1e-12, variant: int = 0) -> float:
    """Limiting discrete-measure series for the large-parameter quadratures.

    kind selects the weight: "TwoCoshProduct" for
    1/((cos sqrt x + cosh(alpha sqrt x))(cos sqrt x + cosh(beta sqrt x))),
    "CoshMinusCosX" for (1/(4 pi^4)) x/(cosh(alpha sqrt x) - cos sqrt x)
    (variant 0/1 pick the even/odd split, both represent the same integral),
    "ProductCoshMinusCosX2" and "MixedX" for the corresponding products.
    """
    if alpha <= 0 or (beta is not None and beta <= 0):
        raise ValueError("alpha and beta must be positive")
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
            + _series_sum(pos_term, tol)
            + 8.0 * math.pi ** 2 / s ** 2 * _series_sum(neg_term, tol)
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

        return _series_sum(pos_term, tol) + _series_sum(neg_term, tol) / alpha ** 4
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

        return _series_sum(pos_term, tol) + 64.0 / s ** 6 * _series_sum(neg_term, tol)
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

        return _series_sum(pos_term, tol) + 2.0 / s ** 4 * _series_sum(neg_term, tol)
    raise ValueError(f"unknown series kind {kind!r}")

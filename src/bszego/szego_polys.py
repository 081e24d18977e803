"""Orthonormal polynomials for the weight families.

Two construction routes are provided and cross-checked in the tests:

* the generic recipe from the spectral factor h, evaluated pointwise on the
  circle and interpolated at Chebyshev-spaced nodes, and
* closed forms whose roots are known exactly, leading_coeff * prod (t - root).

Both routes interpolate at the same k + 1 Chebyshev points of [-a, 1] and
store the Chebyshev coefficients there (`ChebSeries`), never the power
coefficients in t, which are ill-conditioned at high degree.  perfbench's
factor gate reads `OrthoPoly.poly.coeffs`, so it compares these.

With theta the circle variable, x = cos(theta) = (2t - 1 + a)/(1 + a), and
l = deg rho, the generic recipes and their admissible degrees are

    w = 1/(rho sqrt((1-t)(a+t))) :  sqrt(2/pi) Re{e^{ik theta} conj h},  l < 2k
    w = sqrt((1-t)(a+t))/rho     :  (2/(1+a)) sqrt(2/pi)
                                       Im{e^{i(k+1) theta} conj h}/sin theta,   l < 2k+2
    w = sqrt((1-t)/(a+t))/rho    :  sqrt(2/(1+a)) (1/sqrt(pi))
                                       Im{e^{i(k+1/2) theta} conj h}/sin(theta/2), l < 2k+1

The constant in the third recipe is 1/sqrt(pi), not sqrt(2/pi): the larger
constant yields squared norm 2 (checked directly against rho = 1, where the
recipe reduces to sin((k+1/2) theta)/sin(theta/2) with weighted norm pi).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegreeThreshold, ParityError
from .poly_core import ChebSeries
from .weight_models import (
    Family,
    MeasureFactor,
    SzegoFactor,
    WeightSpec,
    continued_block,
    expected_rho_degree,
    series_guard,
    xi_eta_eval,
)

__all__ = [
    "OrthoPoly",
    "szego_orthonormal",
    "explicit_family",
    "explicit_eval",
    "kernel_eval",
    "leading_ratio_check",
]


@dataclass(frozen=True)
class OrthoPoly:
    """An orthonormal polynomial, stored as a Chebyshev series on [-a, 1].

    known_roots, when given, are all roots, in [-a, 1], and the series must
    match leading_coeff * prod (t - root) within 1e-9 sum |c_j| at the
    Chebyshev points: far from a moved root, the whole product moves with it.
    """

    poly: ChebSeries
    weight: WeightSpec
    known_roots: Optional[tuple] = None

    @property
    def degree(self) -> int:
        return self.poly.degree

    @property
    def leading_coeff(self) -> float:
        return self.poly.leading

    def __post_init__(self):
        if not self.leading_coeff > 0:
            raise ValueError("leading coefficient must be positive")
        if self.known_roots:
            roots, a = np.asarray(self.known_roots, dtype=float), self.poly.a
            if np.any((roots < -a) | (roots > 1.0)):
                raise ValueError(f"claimed root outside [-{a}, 1]")
            t = _chebyshev_points(self.degree, a)[1]
            product = self.leading_coeff * np.prod(t[:, None] - roots, axis=1)
            err = np.max(np.abs(self.poly(t) - product)) / np.sum(np.abs(self.poly.coeffs))
            if err > 1e-9:
                raise ValueError(f"claimed roots fail the product-form check: error {err:.3e}")

    def __call__(self, t):
        return self.poly(t)


_THRESHOLD = {
    MeasureFactor.InvSqrtBoth: 0,   # l < 2k
    MeasureFactor.SqrtBoth: 2,      # l < 2k + 2
    MeasureFactor.SqrtRatio: 1,     # l < 2k + 1
}


def szego_factor_poly_values(factor: SzegoFactor, k: int, measure_factor: MeasureFactor, t):
    """Pointwise values of the degree-k orthonormal polynomial from the factor."""
    a = factor.spec.a
    t = np.asarray(t, dtype=float)
    x = np.clip((2.0 * t - 1.0 + a) / (1.0 + a), -1.0, 1.0)
    theta = np.arccos(x)
    H = factor.circle_values(theta)
    if measure_factor is MeasureFactor.InvSqrtBoth:
        return np.sqrt(2.0 / np.pi) * np.real(np.exp(1j * k * theta) * np.conj(H))
    if measure_factor is MeasureFactor.SqrtBoth:
        num = np.imag(np.exp(1j * (k + 1) * theta) * np.conj(H))
        return (2.0 / (1.0 + a)) * np.sqrt(2.0 / np.pi) * num / np.sin(theta)
    if measure_factor is MeasureFactor.SqrtRatio:
        num = np.imag(np.exp(1j * (k + 0.5) * theta) * np.conj(H))
        return np.sqrt(2.0 / (1.0 + a)) * (1.0 / np.sqrt(np.pi)) * num / np.sin(theta / 2.0)
    raise ValueError(f"no construction for measure factor {measure_factor}")


def _chebyshev_points(k: int, a: float):
    """The k + 1 Chebyshev points of [-a, 1], as x in [-1, 1] and as t."""
    x = np.cos(np.pi * (2.0 * np.arange(k + 1) + 1.0) / (2.0 * (k + 1)))
    return x, 0.5 * ((1.0 - a) + (1.0 + a) * x)


def _chebyshev_interpolant(k: int, a: float, f) -> ChebSeries:
    """Degree-k interpolant of f at the Chebyshev points of [-a, 1], the roots of
    T_{k+1}: by discrete orthogonality c_i = (2/(k+1)) sum_j f(t_j) T_i(x_j), c_0 halved."""
    t = _chebyshev_points(k, a)[1]
    i = np.arange(k + 1)
    V = np.cos(np.outer(2 * i + 1, i) * (np.pi / (2.0 * (k + 1))))  # V[j, i] = T_i(x_j)
    c = (2.0 / (k + 1)) * (f(t) @ V)
    c[0] *= 0.5
    return ChebSeries(c, a)


def szego_orthonormal(factor: SzegoFactor, k: int, measure_factor: MeasureFactor) -> OrthoPoly:
    """Orthonormal polynomial of degree k for the factor's weight.

    Evaluates the recipe at the k + 1 Chebyshev points of [-a, 1] and keeps
    the interpolant's Chebyshev coefficients there.  Only h(0) reaches T_k, so
    c_k is h(0) times the recipe's constant (times 2, the T_k coefficient of U_k
    and W_k, for k >= 1); a fitted c_k below eps sum |c_j| could take either sign.
    """
    if measure_factor not in _THRESHOLD:
        raise ValueError(f"no construction for measure factor {measure_factor}")
    l = expected_rho_degree(factor.spec)
    if not l < 2 * k + _THRESHOLD[measure_factor]:
        raise DegreeThreshold(
            f"degree k={k} below threshold for l={l}, measure {measure_factor.name}"
        )
    a = factor.spec.a
    poly = _chebyshev_interpolant(
        k, a, lambda t: szego_factor_poly_values(factor, k, measure_factor, t)
    )
    scale = {
        MeasureFactor.InvSqrtBoth: np.sqrt(2.0 / np.pi),
        MeasureFactor.SqrtBoth: (2.0 / (1.0 + a)) * np.sqrt(2.0 / np.pi) * (2.0 if k else 1.0),
        MeasureFactor.SqrtRatio: np.sqrt(2.0 / (1.0 + a)) / np.sqrt(np.pi) * (2.0 if k else 1.0),
    }[measure_factor]
    c = poly.coeffs.copy()
    c[-1] = scale * factor.h.coeffs[0]
    return OrthoPoly(poly=ChebSeries(c, a), weight=factor.spec.with_measure(measure_factor))


def explicit_eval(spec: WeightSpec, t):
    """Closed-form values of the family's distinguished orthonormal polynomial.

    Every family is a product of the factors of `continued_block`, at (n, m)
    or (2n, 2m) or (2n, m + m'), divided by t or sqrt|t| through
    `series_guard` where the quotient has a removable singularity at t = 0.
    """
    t = np.asarray(t, dtype=float)
    n, m, a = spec.n, spec.m, spec.a
    fam, mf = spec.family, spec.measure_factor
    c2pi = math.sqrt(2.0 / math.pi)
    if fam is Family.CosPlusCosh and mf is MeasureFactor.InvSqrtBoth:
        xi, eta = xi_eta_eval(spec, t)
        return (2.0 / math.sqrt(math.pi)) * (eta if n % 2 == 1 else xi)
    if fam is Family.CosPlusCosh and mf is MeasureFactor.SqrtBoth:
        eta = xi_eta_eval(spec, t)[1]
        return (2.0 / math.sqrt(math.pi)) * eta / np.sqrt((1.0 - t) * (a + t))
    if fam is Family.CoshMinusCosOverT:
        C, S, Ch, Sh = continued_block(t, n, m, a)
        if n % 2 == 1:
            c0, slope = n, (1.0 - n * n) / 6.0 + m * m / (2.0 * a)
            num = S * Ch
        else:
            c0, slope = m / math.sqrt(a), (m * m - 1.0) / (6.0 * a) - n * n / 2.0
            num = C * Sh
        return (2.0 / math.sqrt(math.pi)) * series_guard(t, num, np.sqrt(np.abs(t)), c0, c0 * slope)
    # the squared family is the cos-plus-cosh product with m' = m
    M = 2 * m if fam is Family.SquaredCosPlusCosh else m + (spec.m_prime or 0)
    _, S, Ch, Sh = continued_block(t, 2 * n, M, a)
    if fam in (Family.SquaredCosPlusCosh, Family.ProductCosPlusCosh):
        return c2pi * (np.sign(t) * S * Sh) / np.sqrt((1.0 - t) * (a + t))
    if fam is Family.ProductCoshMinusCos:
        c0 = 2.0 * n * M / math.sqrt(a)
        slope = (1.0 - 4.0 * n * n) / 6.0 + (M * M - 1.0) / (6.0 * a)
        val = series_guard(t, np.sign(t) * S * Sh, t, c0, c0 * slope)
        return c2pi * val / np.sqrt((1.0 - t) * (a + t))
    if fam is Family.MixedPlusMinus:
        c0, slope = 2.0 * n, (1.0 - 4.0 * n * n) / 6.0 + M * M / (2.0 * a)
        out = series_guard(t, S * Ch, np.sqrt(np.abs(t)), c0, c0 * slope)
        return c2pi * out / np.sqrt(1.0 - t)
    raise ParityError(f"no explicit polynomial for {fam} with {mf}")


def _explicit_roots(spec: WeightSpec):
    n, m, a = spec.n, spec.m, spec.a
    fam, mf = spec.family, spec.measure_factor

    def pos_roots(den, count):
        return [math.sin(math.pi * i / den) ** 2 for i in range(1, count + 1)]

    def neg_roots(den, count, odd_numerators=False):
        if odd_numerators:
            return [-a * math.sin(math.pi * (2 * j - 1) / den) ** 2 for j in range(1, count + 1)]
        return [-a * math.sin(math.pi * j / den) ** 2 for j in range(1, count + 1)]

    if fam is Family.CosPlusCosh and mf is MeasureFactor.InvSqrtBoth:
        if n % 2 == 1 and m % 2 == 1:
            return [0.0] + pos_roots(n, (n - 1) // 2) + neg_roots(m, (m - 1) // 2)
        if n % 2 == 0 and m % 2 == 0:
            return (
                [math.sin(math.pi * (2 * i - 1) / (2 * n)) ** 2 for i in range(1, n // 2 + 1)]
                + neg_roots(2 * m, m // 2, odd_numerators=True)
            )
        raise ParityError("cos-plus-cosh explicit forms need n, m of equal parity")
    if fam is Family.CosPlusCosh and mf is MeasureFactor.SqrtBoth:
        if n % 2 == 0 and m % 2 == 0:
            return [0.0] + pos_roots(n, n // 2 - 1) + neg_roots(m, m // 2 - 1)
        raise ParityError("sqrt-both explicit form needs even n, m")
    if fam is Family.SquaredCosPlusCosh:
        if mf is not MeasureFactor.SqrtBoth:
            raise ParityError("squared family polynomial lives under the sqrt-both measure")
        return [0.0] + pos_roots(2 * n, n - 1) + neg_roots(2 * m, m - 1)
    if fam is Family.CoshMinusCosOverT:
        if mf is not MeasureFactor.InvSqrtBoth:
            raise ParityError("cosh-minus-cos polynomial lives under the inv-sqrt-both measure")
        if (n + m) % 2 == 0:
            raise ParityError("cosh-minus-cos explicit form needs n, m of opposite parity")
        if n % 2 == 1:
            return pos_roots(n, (n - 1) // 2) + neg_roots(2 * m, m // 2, odd_numerators=True)
        return (
            [math.sin(math.pi * (2 * i - 1) / (2 * n)) ** 2 for i in range(1, n // 2 + 1)]
            + neg_roots(m, (m - 1) // 2)
        )
    M = (m + spec.m_prime) if spec.m_prime is not None else None
    if fam is Family.ProductCosPlusCosh:
        if mf is not MeasureFactor.SqrtBoth:
            raise ParityError("product polynomial lives under the sqrt-both measure")
        return [0.0] + pos_roots(2 * n, n - 1) + neg_roots(M, M // 2 - 1)
    if fam is Family.ProductCoshMinusCos:
        if mf is not MeasureFactor.SqrtBoth:
            raise ParityError("product polynomial lives under the sqrt-both measure")
        return pos_roots(2 * n, n - 1) + neg_roots(M, M // 2 - 1)
    if fam is Family.MixedPlusMinus:
        if mf is not MeasureFactor.SqrtRatio:
            raise ParityError("mixed polynomial lives under the sqrt-ratio measure")
        return pos_roots(2 * n, n - 1) + neg_roots(2 * M, M // 2, odd_numerators=True)
    raise ParityError(f"no explicit polynomial for {fam} with {mf}")


def explicit_family(spec: WeightSpec) -> OrthoPoly:
    """The distinguished orthonormal polynomial with closed-form roots.

    lead * prod (t - root) over the exact roots, interpolated at the same
    Chebyshev points as `szego_orthonormal`; lead comes from one evaluation
    of the closed form at a probe point away from every root, and sets c_k,
    which the fit resolves only to about eps sum |c_j| (1e-4 relative at
    high degree).  The closed form may carry either sign; lead is its modulus,
    since the sign of a fitted c_k near eps sum |c_j| would be noise.
    """
    roots = np.sort(np.asarray(_explicit_roots(spec), dtype=float))
    probe = 0.731579  # interior, irrational-ish, not a root of any family here
    while np.any(np.abs(probe - roots) < 1e-3):
        probe *= 0.93
    lead = abs(float(explicit_eval(spec, np.asarray([probe]))[0]) / float(np.prod(probe - roots)))
    k = len(roots)
    poly = _chebyshev_interpolant(k, spec.a, lambda t: lead * np.prod(t[:, None] - roots, axis=1))
    if k:
        c = poly.coeffs.copy()
        c[-1] = lead * 2.0 ** (1 - k) * (0.5 * (1.0 + spec.a)) ** k
        poly = ChebSeries(c, spec.a)
    return OrthoPoly(poly=poly, weight=spec, known_roots=tuple(roots.tolist()))


def kernel_eval(p_list: Sequence[OrthoPoly], t: float, u: float) -> float:
    """Christoffel-Darboux kernel K_k(t, u).

    Accepts either the full sequence p_0..p_k (summed directly) or the pair
    (p_k, p_{k+1}) (two-point form). At t = u the confluent limit
    (kappa_k/kappa_{k+1}) [p'_{k+1} p_k - p'_k p_{k+1}] is used, with exact
    polynomial derivatives.
    """
    degrees = [p.degree for p in p_list]
    if len(p_list) == 2 and degrees[1] == degrees[0] + 1:
        pk, pk1 = p_list
        ratio = pk.leading_coeff / pk1.leading_coeff
        if abs(t - u) < 1e-12 * (1.0 + abs(t) + abs(u)):
            return float(
                ratio * (pk1.poly.derivative()(t) * pk(t) - pk.poly.derivative()(t) * pk1(t))
            )
        return float(ratio * (pk1(t) * pk(u) - pk(t) * pk1(u)) / (t - u))
    if degrees == list(range(len(p_list))):
        return float(sum(p(t) * p(u) for p in p_list))
    raise ValueError("need consecutive degrees 0..k or a (p_k, p_{k+1}) pair")


def leading_ratio_check(factor_builder, spec: WeightSpec) -> float:
    """Deviation of kappa_{k+1}/kappa_k from 4/(1+a) for odd n, m.

    factor_builder is the factor constructor (kept injectable so this module
    stays import-light); k = (m+n)/2.
    """
    if spec.family is not Family.CosPlusCosh or spec.n % 2 == 0 or spec.m % 2 == 0:
        raise ParityError("leading ratio statement needs odd n, m for cos-plus-cosh")
    factor = factor_builder(spec)
    k = (spec.n + spec.m) // 2
    pk = szego_orthonormal(factor, k, MeasureFactor.InvSqrtBoth)
    pk1 = szego_orthonormal(factor, k + 1, MeasureFactor.InvSqrtBoth)
    ratio = pk1.leading_coeff / pk.leading_coeff
    return abs(ratio - 4.0 / (1.0 + spec.a))

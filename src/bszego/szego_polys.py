"""Orthonormal polynomials for the weight families.

Two construction routes are provided and cross-checked in the tests:

* the generic recipe from the spectral factor h, whose Chebyshev series is
  read off h's power coefficients by one index map, and
* closed forms whose roots are known exactly, leading_coeff * prod (t - root),
  interpolated at the k + 1 Chebyshev points of [-a, 1], with the leading
  coefficient read from Szego's h(0) in closed form (`weight_models.szego_h0`).

Each family's distinguished polynomial is described once (`_distinguished`):
degrees (N, M), a factor s or C of `continued_block` at N and sh or Ch at M,
whether two sines are divided by t, an endpoint root and a constant.  Its
values (`explicit_eval`), a product of those entire factors, and its known
roots, the zeros of the two factors inside (-a, 1) (`_ladder`), which are also
the nodes of the Gauss rules, are both read from that description.

Both routes store Chebyshev coefficients on [-a, 1] (`ChebSeries`), never the
power coefficients in t, which are ill-conditioned at high degree.  The
interpolation points and the matrix T_i(x_j) depend on k alone and are built
once per degree (`_cheb_grid`); a changes only the map x -> t.  perfbench's
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
The shift s = 0, 2, 1 and the constant of each measure are one table,
`_RECIPE`.  With h real, e^{i(k+s/2) theta} conj h(e^{i theta}) is
sum_j h_j e^{i(k-j+s/2) theta}, so each recipe is sum_j h_j T_|k-j|, U_{k-j} or
W_{k-j}, U_n = sin((n+1) theta)/sin theta and W_n = sin((n+1/2) theta)/sin(theta/2)
(Szego, Orthogonal Polynomials, AMS 1939, section 2.6).
"""
from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegreeThreshold, ParityError
from .poly_core import ChebSeries
from .weight_models import (
    Family,
    MeasureFactor,
    SzegoFactor,
    WeightSpec,
    _check_domain,
    _rung_sine,
    continued_block,
    expected_rho_degree,
    szego_h0,
)

__all__ = [
    "OrthoPoly",
    "szego_orthonormal",
    "explicit_family",
    "explicit_eval",
    "kernel_eval",
]


@dataclass(frozen=True)
class OrthoPoly:
    """An orthonormal polynomial, stored as a Chebyshev series on [-a, 1].

    Its coefficients and its leading coefficient are finite, the latter positive.
    known_roots, when given, are all roots, in [-a, 1], and the series must
    match leading_coeff * prod (t - root) within 1e-9 sum |c_j| at the
    Chebyshev points, where it is V c (`_cheb_grid`): far from a moved root,
    the whole product moves with it.
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
        if not np.isfinite(self.poly.coeffs).all():
            raise ValueError("coefficients must be finite")
        if not 0.0 < self.leading_coeff < math.inf:
            raise ValueError(f"leading coefficient must be positive and finite, got "
                             f"{self.leading_coeff!r}")
        if self.known_roots:
            roots, a = np.asarray(self.known_roots, dtype=float), self.poly.a
            if np.any((roots < -a) | (roots > 1.0)):
                raise ValueError(f"claimed root outside [-{a}, 1]")
            V = _cheb_grid(self.degree)[1]
            t = _chebyshev_points(self.degree, a)[1]
            product = self.leading_coeff * np.prod(t[:, None] - roots, axis=1)
            err = np.max(np.abs(V @ self.poly.coeffs - product)) / np.sum(np.abs(self.poly.coeffs))
            if err > 1e-9:
                raise ValueError(f"claimed roots fail the product-form check: error {err:.3e}")

    def __call__(self, t):
        return self.poly(t)


# measure factor: (s, c(a)) for the recipe c(a) Im{e^{i(k + s/2) theta} conj h}/sin(s theta/2),
# with Re and no divisor at s = 0; it needs l < 2k + s
_RECIPE = {
    MeasureFactor.InvSqrtBoth: (0, lambda a: np.sqrt(2.0 / np.pi)),
    MeasureFactor.SqrtBoth: (2, lambda a: (2.0 / (1.0 + a)) * np.sqrt(2.0 / np.pi)),
    MeasureFactor.SqrtRatio: (1, lambda a: np.sqrt(2.0 / (1.0 + a)) * (1.0 / np.sqrt(np.pi))),
}


def _recipe(measure_factor: MeasureFactor):
    if measure_factor not in _RECIPE:
        raise ValueError(f"no construction for measure factor {measure_factor}")
    return _RECIPE[measure_factor]


def _recipe_series(h, k: int, s: int):
    """The recipe's Chebyshev series, sum_j h_j T_|i|, U_i or W_i at i = k - j (s = 0, 2, 1):
    U_{-n} = -U_{n-2} and W_{-n} = -W_{n-1} fold to |i + s/2| - s/2 with the sign of i + s/2,
    and U_n = 2(T_n + T_{n-2} + ...), W_n = 2(T_n + ... + T_1) + T_0, with T_0 once."""
    e = k - np.arange(len(h)) + 0.5 * s
    idx = (np.abs(e) - 0.5 * s).astype(int)
    keep = idx >= 0  # U_{-1} = 0
    b = np.zeros(k + 1)
    np.add.at(b, idx[keep], (h * np.sign(e) if s else h)[keep])
    rev = b[::-1]  # a view: each sum runs from T_k down
    for r in range(s):
        rev[r::s] = np.cumsum(rev[r::s])
    if s:
        b[1:] *= 2.0
    return b


@functools.lru_cache(maxsize=None)  # k is bounded by the n + m cap
def _cheb_grid(k: int):
    """(x, V), read-only: the k + 1 roots x_j of T_{k+1} and V[j, i] = T_i(x_j)."""
    x = np.cos(np.pi * (2.0 * np.arange(k + 1) + 1.0) / (2.0 * (k + 1)))
    i = np.arange(k + 1)
    V = np.cos(np.outer(2 * i + 1, i) * (np.pi / (2.0 * (k + 1))))
    x.flags.writeable = V.flags.writeable = False
    return x, V


def _chebyshev_points(k: int, a: float):
    """The k + 1 Chebyshev points of [-a, 1], as x in [-1, 1] and as t."""
    x = _cheb_grid(k)[0]
    return x, 0.5 * ((1.0 - a) + (1.0 + a) * x)


def _chebyshev_interpolant(k: int, a: float, f) -> ChebSeries:
    """Degree-k interpolant of f at the Chebyshev points of [-a, 1], the roots of
    T_{k+1}: by discrete orthogonality c_i = (2/(k+1)) sum_j f(t_j) T_i(x_j), c_0 halved."""
    t = _chebyshev_points(k, a)[1]
    V = _cheb_grid(k)[1]
    c = (2.0 / (k + 1)) * (f(t) @ V)
    c[0] *= 0.5
    return ChebSeries(c, a)


def szego_orthonormal(factor: SzegoFactor, k: int, measure_factor: MeasureFactor) -> OrthoPoly:
    """Orthonormal polynomial of degree k for the factor's weight.

    Its Chebyshev series is read off h's power coefficients (`_recipe_series`); the
    threshold l < 2k + s keeps every folded index inside 0..k.  c_k is h(0) times the
    recipe's constant, times 2 (the T_k coefficient of U_k and W_k) for k >= 1.
    """
    s, const = _recipe(measure_factor)
    l = expected_rho_degree(factor.spec)
    if not l < 2 * k + s:
        raise DegreeThreshold(
            f"degree k={k} below threshold for l={l}, measure {measure_factor.name}"
        )
    a = factor.spec.a
    poly = ChebSeries(const(a) * _recipe_series(factor.h.coeffs, k, s), a)
    return OrthoPoly(poly=poly, weight=factor.spec.with_measure(measure_factor))


# S(N) or C(N) times Sh(M) or Ch(M), the block factors of `continued_block`, divided by
# sqrt|t| when one factor is a sine (S/sqrt|t| = s) and by t when over_t (sign(t) S Sh/t =
# s sh), then by the endpoint root (0: none, 1: sqrt(1-t), 2: sqrt((1-t)(a+t))), times const
_Distinguished = namedtuple("_Distinguished", "N M sine_pos sine_neg over_t endpoint const")
_C2 = 2.0 / math.sqrt(math.pi)
_C2PI = math.sqrt(2.0 / math.pi)


def _distinguished(spec: WeightSpec, check: bool = True):
    """The family's distinguished orthonormal polynomial.  check=False keeps the
    product form of a parity or measure the polynomial is not orthonormal for."""
    n, m = spec.n, spec.m
    fam, mf = spec.family, spec.measure_factor

    def need(ok, message):
        if check and not ok:
            raise ParityError(message)

    if fam is Family.CosPlusCosh and mf is MeasureFactor.InvSqrtBoth:
        need(n % 2 == m % 2, "cos-plus-cosh explicit forms need n, m of equal parity")
        return _Distinguished(n, m, n % 2 == 1, n % 2 == 1, False, 0, _C2)  # eta or xi
    if fam is Family.CosPlusCosh and mf is MeasureFactor.SqrtBoth:
        need(n % 2 == 0 and m % 2 == 0, "sqrt-both explicit form needs even n, m")
        return _Distinguished(n, m, True, True, False, 2, _C2)
    if fam is Family.SquaredCosPlusCosh:
        need(mf is MeasureFactor.SqrtBoth,
             "squared family polynomial lives under the sqrt-both measure")
        return _Distinguished(2 * n, 2 * m, True, True, False, 2, _C2PI)
    if fam is Family.CoshMinusCosOverT:
        need(mf is MeasureFactor.InvSqrtBoth,
             "cosh-minus-cos polynomial lives under the inv-sqrt-both measure")
        need((n + m) % 2 == 1, "cosh-minus-cos explicit form needs n, m of opposite parity")
        return _Distinguished(n, m, n % 2 == 1, n % 2 == 0, False, 0, _C2)
    if fam in (Family.ProductCosPlusCosh, Family.ProductCoshMinusCos):
        need(mf is MeasureFactor.SqrtBoth, "product polynomial lives under the sqrt-both measure")
        over_t = fam is Family.ProductCoshMinusCos
        return _Distinguished(2 * n, m + spec.m_prime, True, True, over_t, 2, _C2PI)
    if fam is Family.MixedPlusMinus:
        need(mf is MeasureFactor.SqrtRatio, "mixed polynomial lives under the sqrt-ratio measure")
        return _Distinguished(2 * n, m + spec.m_prime, True, False, False, 1, _C2PI)
    raise ParityError(f"no explicit polynomial for {fam} with {mf}")


def explicit_eval(spec: WeightSpec, t):
    """Closed-form values of the family's distinguished orthonormal polynomial
    (`_distinguished`), at t in [-a, 1] (scalar or array)."""
    a = spec.a
    tt = _check_domain(t, a)
    d = _distinguished(spec, check=False)
    C, s, Ch, sh = continued_block(tt, d.N, d.M, a)
    X, Y = (s if d.sine_pos else C), (sh if d.sine_neg else Ch)
    one_minus, a_plus = 1.0 - tt, a + tt
    # The endpoint root divides a sine of even degree K, which vanishes there: a removable
    # 0/0, sin(K theta)/cos(theta) -> -K cos(K pi/2) at theta = pi/2, with theta = asin sqrt t
    # and sqrt(1 - t) = cos(theta) at t = 1, or theta = asin sqrt(-t/a) and
    # sqrt(a + t) = sqrt(a) cos(theta) at t = -a, where sh = sin(K theta)/sqrt(a); the root's
    # factor becomes 1 there.
    if d.endpoint and d.N % 2 == 0:
        top = tt == 1.0
        X = np.where(top, -d.N * math.cos(d.N * math.pi / 2), X)
        one_minus = np.where(top, 1.0, one_minus)
    if d.endpoint == 2 and d.M % 2 == 0:
        bottom = tt == -a
        Y = np.where(bottom, -d.M * math.cos(d.M * math.pi / 2) / a, Y)
        a_plus = np.where(bottom, 1.0, a_plus)
    val = X * Y
    if d.sine_pos and d.sine_neg and not d.over_t:
        val = tt * val  # sign(t) S Sh = t s sh
    out = d.const * val
    if d.endpoint:
        out = out / np.sqrt(one_minus * a_plus if d.endpoint == 2 else one_minus)
    return out if np.ndim(t) else float(out[0])


def _ladder(spec: WeightSpec):
    """(zero, rungs): whether t = 0 is a root of `_distinguished` (t s sh, two sines not
    divided by t), and its roots in (-a, 1) of the two factors as rungs (t, N, M, k, s) with
    s = `_rung_sine`(k, N), k even for S and odd for C: t = s^2 at the degree N of the
    first factor, t = -a s^2 at that of the second; M is the other factor's degree."""
    d = _distinguished(spec)

    def rungs(N, M, sine, scale):
        k = np.arange(2 if sine else 1, N, 2)
        sines = zip(k.tolist(), _rung_sine(k, N).tolist())
        return [(scale * s ** 2, N, M, k, s) for k, s in sines]

    zero = d.sine_pos and d.sine_neg and not d.over_t
    return zero, rungs(d.N, d.M, d.sine_pos, 1.0) + rungs(d.M, d.N, d.sine_neg, -spec.a)


def _explicit_roots(spec: WeightSpec):
    """The known roots of the family's distinguished polynomial (`_ladder`)."""
    zero, rungs = _ladder(spec)
    return [0.0] * zero + [rung[0] for rung in rungs]


def explicit_family(spec: WeightSpec) -> OrthoPoly:
    """The distinguished orthonormal polynomial with closed-form roots.

    lead * prod (t - root) over the exact roots, interpolated at the k + 1
    Chebyshev points of [-a, 1].  Its top coefficient is that of `szego_orthonormal`
    in closed form, c_k = const h(0), times 2 for k >= 1 when s > 0, with (s, const)
    of the measure's recipe and Szego's h(0) (`szego_h0`), and lead is that series'
    leading coefficient.  c_k is set, not fitted: the fit resolves it only to about
    eps sum |c_j| (1e-4 relative at high degree).
    """
    roots = np.sort(np.asarray(_explicit_roots(spec), dtype=float))
    k, a = len(roots), spec.a
    s, const = _recipe(spec.measure_factor)
    c_k = const(a) * szego_h0(spec) * (2.0 if s and k else 1.0)
    lead = ChebSeries(np.append(np.zeros(k), c_k), a).leading
    fit = _chebyshev_interpolant(k, a, lambda t: lead * np.prod(t[:, None] - roots, axis=1))
    poly = ChebSeries(np.append(fit.coeffs[:-1], c_k), a)
    return OrthoPoly(poly=poly, weight=spec, known_roots=tuple(roots.tolist()))


def kernel_eval(pk: OrthoPoly, pk1: OrthoPoly, u: float) -> ChebSeries:
    """Christoffel-Darboux kernel K_k(., u), a degree-k Chebyshev series in t on [-a, 1].

    K_k(t, u) = (kappa_k/kappa_{k+1}) (p_{k+1}(t) p_k(u) - p_k(t) p_{k+1}(u))/(t - u), the sum
    of p_j(t) p_j(u) over j <= k (Szego, Orthogonal Polynomials, AMS 1939, section 3.2).  The
    numerator's series is divided by t - u = ((1 + a)/2)(x - x(u)), not its values, which near
    t = u are rounding noise; K_k(u, u) is the series at u.
    """
    if pk1.degree != pk.degree + 1:
        raise ValueError(f"need degrees k and k + 1, got {pk.degree} and {pk1.degree}")
    a = pk.poly.a
    ratio = pk.leading_coeff / pk1.leading_coeff
    num = pk(u) * pk1.poly.coeffs - pk1(u) * np.append(pk.poly.coeffs, 0.0)
    quotient = np.polynomial.chebyshev.chebdiv(num, [(1.0 - a - 2.0 * u) / (1.0 + a), 1.0])[0]
    return ChebSeries(ratio * 2.0 / (1.0 + a) * quotient, a)

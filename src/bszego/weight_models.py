"""Weight families on [-a, 1] and their spectral factors.

The basic building block is

    rho_a(t) = cos(2n asin sqrt(t)) + cosh(2m asinh sqrt(t/a)),

a polynomial in t equal to T_n(1-2t) + T_m(1+2t/a).  The cosh-minus-cos
family divides the difference by t (removable singularity at 0), and the
squared / product / mixed families multiply two such blocks.  One table,
`_BLOCKS`, lists each family's blocks, and rho's values, its degree, the m'
rule of `WeightSpec` and the families with a factor are all read from it.  For
the two one-block families the Fejer-Riesz factor h(z) with
|h(e^{i theta})|^2 = rho(cos theta), h zero-free in the open unit disk and
h(0) > 0, is recovered from samples of the defining trigonometric expression
on the unit circle by one FFT, whose coefficients serve the degree check;
its residual |h|^2 - rho is read from one real FFT of its coefficients, and it
is certified zero-free by a winding count at the paper's known roots, not by
root finding.

Negative t is always handled by the explicit real continuations
asin(sqrt(t)) = i asinh(sqrt(-t)) and asinh(sqrt(t/a)) = i asin(sqrt(-t/a)),
never by complex square roots.  They are written once, in `continued_block`,
which returns the four factors cos, sin, cosh, sinh of the block on both sides
of t = 0; `series_guard` swaps a quotient by t or sqrt|t| for its two-term
Taylor series near t = 0, and `block_series` gives that series for any
product of two factors from the one-factor expansions.  Every closed form in
the package (rho, xi/eta, the explicit orthonormal polynomials, the circle
samples of the factor) is built from these.  The rho quotient `_rho_cmc`
evaluates a difference of Chebyshev polynomials, but reads its series from
`block_series` too: it is 2 [(S/sqrt|t|)^2 + (Sh/sqrt|t|)^2].
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, FactorizationResidual, ParityError, RootInDisk, SymmetryViolation
from .poly_core import RealPolynomial, cheb_T

__all__ = [
    "Family",
    "MeasureFactor",
    "WeightSpec",
    "SzegoFactor",
    "rho_eval",
    "xi_eta_eval",
    "continued_block",
    "series_guard",
    "block_series",
    "expected_rho_degree",
    "build_szego_factor",
    "weight_base",
]

_SERIES_RADIUS = 1e-6
_PARAM_CAP = 64
_SYMMETRY_TOL = 1e-9  # of max|sample|: the conjugate symmetry bound
_RESIDUAL_POINTS = 512  # theta_k = k pi/511: the first half of the 1022nd roots of unity


class Family(enum.Enum):
    CosPlusCosh = "cos_plus_cosh"
    SquaredCosPlusCosh = "squared_cos_plus_cosh"
    CoshMinusCosOverT = "cosh_minus_cos_over_t"
    ProductCosPlusCosh = "product_cos_plus_cosh"
    ProductCoshMinusCos = "product_cosh_minus_cos"
    MixedPlusMinus = "mixed_plus_minus"


class MeasureFactor(enum.Enum):
    InvSqrtBoth = "inv_sqrt_both"    # 1 / (rho sqrt((1-t)(a+t)))
    SqrtBoth = "sqrt_both"           # sqrt((1-t)(a+t)) / rho
    SqrtRatio = "sqrt_ratio"         # sqrt((1-t)/(a+t)) / rho
    PlainDt = "plain_dt"             # 1 / rho


# rho of each family is the product of its blocks.  A block (quotient, second) is
# T_n(1-2t) + T_m(1+2t/a), or (T_m(1+2t/a) - T_n(1-2t))/t when quotient, with m'
# in place of m when second.
_BLOCKS = {
    Family.CosPlusCosh: ((False, False),),
    Family.SquaredCosPlusCosh: ((False, False), (False, False)),
    Family.CoshMinusCosOverT: ((True, False),),
    Family.ProductCosPlusCosh: ((False, False), (False, True)),
    Family.ProductCoshMinusCos: ((True, False), (True, True)),
    Family.MixedPlusMinus: ((False, False), (True, True)),
}


@dataclass(frozen=True)
class WeightSpec:
    """Parameters selecting one weight function on [-a, 1]."""

    n: int
    m: int
    a: float
    family: Family = Family.CosPlusCosh
    measure_factor: MeasureFactor = MeasureFactor.InvSqrtBoth
    m_prime: Optional[int] = None

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive integers")
        if not (self.a > 0 and math.isfinite(self.a)):
            raise ValueError(f"a must be positive and finite, got {self.a!r}")
        if self.n + self.m > _PARAM_CAP:
            raise ValueError(f"n + m capped at {_PARAM_CAP} to control interpolation error")
        if any(second for _, second in _BLOCKS[self.family]):
            if self.m_prime is None or self.m_prime < 1:
                raise ValueError("product/mixed families require m_prime >= 1")
            if (self.m + self.m_prime) % 2 != 0:
                raise ParityError("product/mixed families require m + m_prime even")
        elif self.m_prime is not None:
            raise ValueError("m_prime only applies to product/mixed families")

    def with_measure(self, measure_factor: MeasureFactor) -> "WeightSpec":
        return WeightSpec(self.n, self.m, self.a, self.family, measure_factor, self.m_prime)

    def params_dict(self) -> dict:
        d = {"n": self.n, "m": self.m, "a": self.a, "family": self.family.value,
             "measure_factor": self.measure_factor.value}
        if self.m_prime is not None:
            d["m_prime"] = self.m_prime
        return d


def _check_domain(t, a):
    t = np.atleast_1d(np.asarray(t, dtype=float))
    slack = 1e-9 * (1.0 + a)
    if not ((t >= -a - slack) & (t <= 1.0 + slack)).all():  # NaN included
        raise DomainError(f"t outside [{-a}, 1] or NaN")
    return np.minimum(np.maximum(t, -a), 1.0)  # np.clip, at half the cost on short arrays


def _rho_cpc(t, n, m, a):
    return cheb_T(n, 1.0 - 2.0 * t) + cheb_T(m, 1.0 + 2.0 * t / a)


def continued_block(t, n, m, a):
    """The factors (C, S, Ch, Sh) of the block, continued to t < 0.

    For t >= 0, with A = n asin sqrt t and B = m asinh sqrt(t/a), they are
    (cos A, sin A, cosh B, sinh B).  For t < 0, with Q = n asinh sqrt(-t) and
    P = m asin sqrt(min(-t/a, 1)), they are (cosh Q, sinh Q, cos P, sin P).
    So cos(n asin sqrt t) cosh(m asinh sqrt(t/a)) = C Ch on both sides,
    sin(n asin sqrt t) sinh(m asinh sqrt(t/a)) = sign(t) S Sh, and
    sin(n asin sqrt t)/sqrt t = S/sqrt|t|, likewise for Sh.
    """
    t = np.asarray(t, dtype=float)
    C, S, Ch, Sh = (np.empty_like(t) for _ in range(4))
    pos = t >= 0.0
    tp, tn = t[pos], t[~pos]
    A = n * np.arcsin(np.sqrt(tp))
    B = m * np.arcsinh(np.sqrt(tp / a))
    C[pos], S[pos], Ch[pos], Sh[pos] = np.cos(A), np.sin(A), np.cosh(B), np.sinh(B)
    Q = n * np.arcsinh(np.sqrt(-tn))
    P = m * np.arcsin(np.sqrt(np.minimum(-tn / a, 1.0)))
    C[~pos], S[~pos], Ch[~pos], Sh[~pos] = np.cosh(Q), np.sinh(Q), np.cos(P), np.sin(P)
    return C, S, Ch, Sh


def series_guard(t, num, den, c0, c1):
    """num/den, or the two-term Taylor series c0 + c1 t where |t| < 1e-6.

    Near t = 0 the quotient of a removable singularity cancels; the caller
    supplies its own series coefficients.
    """
    t = np.asarray(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.abs(t) < _SERIES_RADIUS, c0 + c1 * t, num / den)


def block_series(N, M, a, sine_pos, sine_neg):
    """(c0, c1) with X Y / sqrt|t|^(sine_pos + sine_neg) = c0 + c1 t + O(t^2) on both sides
    of t = 0, for X = S or C of `continued_block` at N and Y = Sh or Ch at M: the product
    of S/sqrt|t| = N (1 + (1 - N^2) t/6), C = 1 - N^2 t/2,
    Sh/sqrt|t| = (M/sqrt a)(1 + (M^2 - 1) t/(6a)) and Ch = 1 + M^2 t/(2a)."""
    c0 = (N if sine_pos else 1.0) * (M if sine_neg else 1.0) / (math.sqrt(a) if sine_neg else 1.0)
    slope_pos = (1.0 - N * N) / 6.0 if sine_pos else -(N * N / 2.0)
    slope_neg = (M * M - 1.0) / (6.0 * a) if sine_neg else M * M / (2.0 * a)
    return c0, c0 * (slope_pos + slope_neg)


def _rho_cmc(t, n, m, a):
    """(cosh(2m asinh sqrt(t/a)) - cos(2n asin sqrt(t))) / t with series fallback.

    Direct evaluation cancels catastrophically near t = 0; below |t| < 1e-6 a
    two-term Taylor series keeps the relative error under 1e-12; it is that of
    2 [(S/sqrt|t|)^2 + (Sh/sqrt|t|)^2], S at n and Sh at m, from `block_series`.
    """
    diff = cheb_T(m, 1.0 + 2.0 * t / a) - cheb_T(n, 1.0 - 2.0 * t)
    s0, s1 = block_series(n, 0, a, True, False)
    h0, h1 = block_series(0, m, a, False, True)
    return series_guard(t, diff, t, 2.0 * (s0 * s0 + h0 * h0), 4.0 * (s0 * s1 + h0 * h1))


def rho_eval(spec: WeightSpec, t):
    """Evaluate the selected family's rho at t in [-a, 1] (scalar or array)."""
    tt = _check_domain(t, spec.a)
    blocks = _BLOCKS[spec.family]
    values = {}  # each distinct block once
    for quotient, second in set(blocks):
        block = _rho_cmc if quotient else _rho_cpc
        values[quotient, second] = block(tt, spec.n, spec.m_prime if second else spec.m, spec.a)
    out = 1.0
    for block in blocks:  # a running product: the squared family's x * x, bit for bit
        out = out * values[block]
    return out if np.ndim(t) else float(out[0])


def xi_eta_eval(spec: WeightSpec, t):
    """The pair (xi_a(t), eta_a(t)) for the cos-plus-cosh block.

    xi_a = cos(n asin sqrt t) cosh(m asinh sqrt(t/a)),
    eta_a = sin(n asin sqrt t) sinh(m asinh sqrt(t/a));
    for t < 0 the real continuations are
    xi_a = cos(m asin sqrt(-t/a)) cosh(n asinh sqrt(-t)),
    eta_a = -sin(m asin sqrt(-t/a)) sinh(n asinh sqrt(-t)).
    Satisfies 2(xi^2 + eta^2) = rho_a identically.
    """
    tt = _check_domain(t, spec.a)
    C, S, Ch, Sh = continued_block(tt, spec.n, spec.m, spec.a)
    xi = C * Ch
    eta = np.sign(tt) * S * Sh
    if np.ndim(t):
        return xi, eta
    return float(xi[0]), float(eta[0])


def expected_rho_degree(spec: WeightSpec) -> int:
    """Degree of rho as a polynomial in t: the sum over its blocks.

    T_n(1-2t) + T_m(1+2t/a) has degree max(m, n) except when m = n, n odd,
    a = 1, where the leading terms cancel and the degree drops to n - 1.
    For the cosh-minus-cos quotient the difference loses its leading term
    when m = n, n even, a = 1, and the division by t lowers the degree by 1.
    """
    n, a = spec.n, spec.a
    deg = 0
    for quotient, second in _BLOCKS[spec.family]:
        mm = spec.m_prime if second else spec.m
        cancels = mm == n and a == 1.0 and n % 2 == (0 if quotient else 1)
        deg += max(mm, n) - quotient - cancels
    return deg


@dataclass(frozen=True)
class SzegoFactor:
    """Validated Fejer-Riesz factor h with |h(e^{i theta})|^2 = rho(cos theta)."""

    spec: WeightSpec
    h: RealPolynomial
    relative_residual: float  # max ||h|^2 - rho| / max rho on the grid of `_validate_factor`


def _one_block(spec: WeightSpec, what: str) -> bool:
    """Whether the family's one block is a quotient; ParityError for the
    two-block families, which have no circle form."""
    blocks = _BLOCKS[spec.family]
    if len(blocks) != 1:
        raise ParityError(f"no {what} for family {spec.family}")
    return blocks[0][0]


def _circle_form(spec: WeightSpec, t):
    """(q, c, G) with h(e^{i theta}) = c e^{i q theta / 2} G(t) for theta in [0, pi]:
    G = xi + i eta, q = n + m for cos-plus-cosh, G = sqrt(2/|t|) (S Ch - i C Sh),
    q = n + m - 1 for the quotient family; c is a constant."""
    quotient = _one_block(spec, "circle sampling formula")
    n, m, a = spec.n, spec.m, spec.a
    C, S, Ch, Sh = continued_block(t, n, m, a)
    if not quotient:
        return n + m, (1j ** (-n)) * np.sqrt(2.0), C * Ch + 1j * (np.sign(t) * S * Sh)
    # sqrt(2/t) sin(n asin sqrt t - i m asinh sqrt(t/a)) is an even
    # function of sqrt(t): analytic across t = 0 with this limit.
    with np.errstate(divide="ignore", invalid="ignore"):
        F = np.sqrt(2.0 / np.abs(t)) * (S * Ch - 1j * C * Sh)
    c0 = block_series(n, m, a, True, False)[0] - 1j * block_series(n, m, a, False, True)[0]
    F = series_guard(t, F, 1.0, np.sqrt(2.0) * c0, 0.0)  # the constant term only
    return n + m - 1, 1j ** (1 - n), F


def _circle_t(theta, a):
    """The t of [-a, 1] under e^{i theta}: ((1 - a) + (1 + a) cos theta)/2."""
    return np.clip(0.5 * ((1.0 - a) + (1.0 + a) * np.cos(theta)), -a, 1.0)


def _theta_grid_samples(spec: WeightSpec, n_samples: int):
    """h(e^{i theta_k}) on the uniform grid, theta in [0, pi] by formula and
    (pi, 2pi) as exact conjugates of those on (0, pi)."""
    theta = 2.0 * np.pi * np.arange(n_samples) / n_samples
    upper = theta <= np.pi + 1e-15
    th = theta[upper]
    q, c, G = _circle_form(spec, _circle_t(th, spec.a))
    vals = np.empty(n_samples, dtype=complex)
    vals[upper] = c * np.exp(1j * q * th / 2.0) * G
    lower = ~upper
    idx = np.arange(n_samples)[lower]
    vals[idx] = np.conj(vals[n_samples - idx])
    return vals


def _rung_sine(k, N):
    """sin(k pi/(2N)); its square is a zero of S (k even) or C (k odd) at degree N."""
    return math.sin(math.pi * k / (2 * N))


def _block_zeros(spec: WeightSpec):
    """The paper's roots sin^2(k pi/(2n)), -a sin^2(j pi/(2m)) from 1 down to -a:
    every zero of C, S, Ch and Sh of `continued_block` in [-a, 1] (`_rung_sine`)."""
    n, m, a = spec.n, spec.m, spec.a
    pos = np.array([_rung_sine(k, n) for k in range(n, -1, -1)]) ** 2
    neg = -a * np.array([_rung_sine(j, m) for j in range(1, m + 1)]) ** 2
    return np.concatenate([pos, neg])


def _certify_zero_free(spec: WeightSpec) -> float:
    """Winding number of h on the unit circle: 0 up to rounding, or RootInDisk.

    For real h it is the change of arg h over theta in [0, pi] divided by pi,
    that is q/2 plus the change of arg G as t runs from 1 to -a.  The parts of
    G vanish only at `_block_zeros`, where they interlace; sampled at t = 1,
    t = -a and midway between zeros, G crosses at most one axis per step (two
    mean a zero is missing from the list), so each principal step, the angle
    of G[i+1] conj G[i], is exact and their sum is the change of arg G.
    """
    z = _block_zeros(spec)
    t = np.concatenate([z[:1], 0.5 * (z[:-1] + z[1:]), z[-1:]])
    q, _, G = _circle_form(spec, t)
    re, im = np.sign(G.real), np.sign(G.imag)
    if np.any((re[1:] != re[:-1]) & (im[1:] != im[:-1])):
        raise RootInDisk("a step of the winding count crosses both axes: a zero of G is missing")
    winding = float(np.sum(np.angle(G[1:] * np.conj(G[:-1])))) / np.pi + q / 2.0
    if abs(winding) >= 0.25:
        raise RootInDisk(f"winding number {winding:.3f}: h has zeros in the unit disk")
    return winding


def _validate_factor(spec: WeightSpec, h: RealPolynomial) -> float:
    """max ||h|^2 - rho| / max rho on 512 points of theta in [0, pi], or FactorizationResidual
    where h has the wrong degree, h(0) <= 0 or the residual exceeds 1e-9 max rho."""
    deg = expected_rho_degree(spec)
    if h.degree != deg:
        raise FactorizationResidual(
            f"factor degree {h.degree} does not match rho degree {deg}"
        )
    if not h.coeffs[0] > 0.0:
        raise FactorizationResidual(f"h(0) = {h.coeffs[0]} is not positive")
    theta = np.linspace(0.0, np.pi, _RESIDUAL_POINTS)
    rho = rho_eval(spec, _circle_t(theta, spec.a))
    # h is real, so the real FFT's k-th value is conj h(e^{i theta_k}): |h| on the grid
    h_abs = np.abs(np.fft.rfft(h.coeffs, 2 * _RESIDUAL_POINTS - 2))
    resid, rho_max = float(np.max(np.abs(h_abs ** 2 - rho))), float(np.max(rho))
    if not resid <= 1e-9 * rho_max:  # a NaN residual fails too
        raise FactorizationResidual(
            f"|h|^2 - rho residual {resid:.3e} above 1e-9 * max rho"
        )
    return resid / rho_max


def build_szego_factor(spec: WeightSpec) -> SzegoFactor:
    """Construct and validate the Fejer-Riesz factor for the one-block families.

    Samples the defining expression at the N-th roots of unity with N the
    smallest power of two >= 2 (deg + 1) and takes their FFT once; the headroom
    makes degree mistakes visible as non-negligible trailing coefficients,
    checked first.  The samples must then be conjugate symmetric within
    1e-9 * max|sample|.  Those on (pi, 2 pi) are the exact conjugates of those
    on (0, pi), so the symmetry residual is 2 max |Im h| over h(1) and h(-1);
    the imaginary residue of the coefficients, which is discarded, is at most
    that residual over N, plus FFT rounding.
    """
    _one_block(spec, "direct factorization")
    deg = expected_rho_degree(spec)
    n_samples = 1
    while n_samples < 2 * (deg + 1):
        n_samples *= 2
    vals = _theta_grid_samples(spec, n_samples)
    coeffs = np.fft.fft(vals) / n_samples
    tail = np.max(np.abs(coeffs[deg + 1:])) if deg + 1 < n_samples else 0.0
    if tail > 1e-8 * np.max(np.abs(coeffs)):
        raise FactorizationResidual(
            f"trailing coefficient mass {tail:.3e} signals a degree mismatch"
        )
    scale = np.max(np.abs(vals))
    sym = 2.0 * np.max(np.abs(vals[[0, n_samples // 2]].imag))
    if sym > _SYMMETRY_TOL * scale:
        raise SymmetryViolation(
            f"conjugate symmetry residual {sym:.3e} exceeds {_SYMMETRY_TOL:.1e} * {scale:.3e}"
        )
    h = RealPolynomial(coeffs[: deg + 1].real)
    resid = _validate_factor(spec, h)
    _certify_zero_free(spec)
    return SzegoFactor(spec=spec, h=h, relative_residual=resid)


def weight_base(spec: WeightSpec):
    """Split the weight into a smooth factor and a square-root kernel power.

    Returns (g, power) with  w(t) dt = g(t) * ((1-t)(a+t))^(power/2) dt,
    matching the oracle's theta-substituted interval kinds.
    """
    mf = spec.measure_factor
    if mf is MeasureFactor.InvSqrtBoth:
        return (lambda t: 1.0 / rho_eval(spec, t)), -1
    if mf is MeasureFactor.SqrtBoth:
        return (lambda t: 1.0 / rho_eval(spec, t)), +1
    if mf is MeasureFactor.SqrtRatio:
        return (lambda t: (1.0 - np.asarray(t)) / rho_eval(spec, t)), -1
    if mf is MeasureFactor.PlainDt:
        return (lambda t: 1.0 / rho_eval(spec, t)), 0
    raise ValueError(mf)  # pragma: no cover

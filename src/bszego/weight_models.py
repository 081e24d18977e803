"""Weight families on [-a, 1] and their spectral factors.

The basic building block is

    rho_a(t) = cos(2n asin sqrt(t)) + cosh(2m asinh sqrt(t/a)) = cos 2x + cosh 2y,

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
root finding.  The build evaluates the block once: one `_block_angles` call on
the FFT samples' t, the winding count's points and the residual grid, joined,
gives the circle form on the first two sets and rho on the third.  For every
family, h(0) is also known in closed form, one factor per block (`szego_h0`);
the explicit polynomials take their leading coefficients from it, while the
factor keeps its own FFT h(0).

Negative t is always handled by the explicit real continuations
asin(sqrt(t)) = i asinh(sqrt(-t)) and asinh(sqrt(t/a)) = i asin(sqrt(-t/a)),
never by complex square roots.  They are written once, in `_block_angles`,
which gives the block's trigonometric angle x and hyperbolic angle y on both
sides of t = 0, from asin sqrt and asinh sqrt or from their n, m -> infinity
limit sqrt (`limit_rho`).  Every block factor is an entire function of t:
`continued_block` returns cos, sin/sqrt|t|, cosh and sinh/sqrt|t|, and the
two quotients take their limits at t = 0, the one removable point, in
`_sines_over_root`.  Every other closed form in the package (xi/eta, the
explicit orthonormal polynomials, the circle samples of the factor) is a
product of these, with no sign(t) and no division by t.  rho's blocks are sums
of squares of the two angles' functions, in which no term cancels:
cos 2x + cosh 2y = 2(cos^2 x + sinh^2 y), and the quotient block
(cosh 2y - cos 2x)/|t| is 2((sin x/sqrt|t|)^2 + (sinh y/sqrt|t|)^2).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, FactorizationResidual, ParityError, RootInDisk, SymmetryViolation
from .poly_core import RealPolynomial

__all__ = [
    "Family",
    "MeasureFactor",
    "WeightSpec",
    "SzegoFactor",
    "rho_eval",
    "limit_rho",
    "xi_eta_eval",
    "continued_block",
    "expected_rho_degree",
    "szego_h0",
    "build_szego_factor",
    "weight_base",
]

_PARAM_CAP = 64
_SYMMETRY_TOL = 1e-9  # of max|sample|: the conjugate symmetry bound
_RESIDUAL_POINTS = 512  # theta_k = k pi/511: the first half of the 1022nd roots of unity
# the residual grid of `_validate_factor` and its cos theta, read-only; the build takes rho
# on them from the same block evaluation as its samples
_RESIDUAL_THETA = np.linspace(0.0, np.pi, _RESIDUAL_POINTS)
_RESIDUAL_COS = np.cos(_RESIDUAL_THETA)
_RESIDUAL_THETA.flags.writeable = _RESIDUAL_COS.flags.writeable = False


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
# in place of m when second (`_rho_block`).
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


# the finite block's angle maps: asin sqrt, of its argument clamped at 1, and asinh sqrt
_FINITE_MAPS = (lambda s: np.arcsin(np.sqrt(np.minimum(s, 1.0))), lambda s: np.arcsinh(np.sqrt(s)))


def _block_angles(t, n, m, a, maps=_FINITE_MAPS):
    """The block's trigonometric angle x and hyperbolic angle y, real on both sides of t = 0.

    For the angle maps (f, g), x = n f(t) and y = m g(t/a) for t >= 0; x = m f(-t/a) and
    y = n g(-t) for t < 0.  So cos(2n f(t)) + cosh(2m g(t/a)) is cos 2x + cosh 2y on both
    sides, and their difference is cosh 2y - cos 2x times sign(t), for the finite maps
    (asin sqrt, clamped at 1, and asinh sqrt) and for their limit (sqrt, sqrt) alike.
    Each map runs once over all of t, on |t| or |t|/a as the sign of t selects.
    """
    trig, hyp = maps
    t = np.asarray(t, dtype=float)
    pos = t >= 0.0
    s = np.where(pos, t, -t)  # |t|, with the sign of a zero kept
    s_over_a = s / a
    x = trig(np.where(pos, s, s_over_a))
    x *= np.where(pos, float(n), float(m))
    y = hyp(np.where(pos, s_over_a, s))
    y *= np.where(pos, float(m), float(n))
    return x, y


def _sines_over_root(t, x, y, n, m, a):
    """(sin x/sqrt|t|, sinh y/sqrt|t|) for the angles of `_block_angles`: entire in t, with
    their limits n and m/sqrt(a) (those of t >= 0) taken at t = 0, the one removable point;
    every angle map has slope 1 in sqrt s there."""
    zero = t == 0.0
    root = np.where(zero, 1.0, np.sqrt(np.abs(t)))
    return (np.where(zero, n, np.sin(x) / root),
            np.where(zero, m / math.sqrt(a), np.sinh(y) / root))


def continued_block(t, n, m, a):
    """The factors (C, s, Ch, sh) of the block, continued to t < 0: entire functions of t.

    For t >= 0, with A = n asin sqrt t and B = m asinh sqrt(t/a), they are
    (cos A, sin A/sqrt t, cosh B, sinh B/sqrt t).  For t < 0, with Q = n asinh sqrt(-t)
    and P = m asin sqrt(min(-t/a, 1)), they are (cosh Q, sinh Q/sqrt|t|, cos P,
    sin P/sqrt|t|).  So cos(n asin sqrt t) cosh(m asinh sqrt(t/a)) = C Ch on both sides,
    sin(n asin sqrt t) sinh(m asinh sqrt(t/a)) = t s sh, and
    sin(n asin sqrt t)/sqrt t = s, likewise sh; s(0) = n and sh(0) = m/sqrt(a).
    """
    t = np.asarray(t, dtype=float)
    return _block_factors(t, _block_angles(t, n, m, a), n, m, a)


def _block_factors(t, angles, n, m, a):
    """`continued_block` at t from the block's angles (x, y) of `_block_angles` at t."""
    x, y = angles
    sx, shy = _sines_over_root(t, x, y, n, m, a)
    cx, chy = np.cos(x), np.cosh(y)
    pos = t >= 0.0
    return (np.where(pos, cx, chy), np.where(pos, sx, shy),
            np.where(pos, chy, cx), np.where(pos, shy, sx))


def _rho_block(t, n, m, a, quotient, angles):
    """One block of rho as a sum of squares: the plus block 2(cos^2 x + sinh^2 y), the
    quotient block 2((sin x/sqrt|t|)^2 + (sinh y/sqrt|t|)^2), 2(n^2 + m^2/a) at t = 0,
    for the `angles` (x, y) of `_block_angles` at t.  The squares and their sum are
    taken in place, in u's array."""
    x, y = angles
    u, v = _sines_over_root(t, x, y, n, m, a) if quotient else (np.cos(x), np.sinh(y))
    u *= u
    v *= v
    u += v
    u *= 2.0
    return u


def _block_product(family, t, n, m, m_prime, a, maps):
    """The product of the family's blocks at the float array t, on the angle maps `maps`."""
    blocks = _BLOCKS[family]
    values = {}  # each distinct block once
    for quotient, second in set(blocks):
        mm = m_prime if second else m
        angles = _block_angles(t, n, mm, a, maps)
        values[quotient, second] = _rho_block(t, n, mm, a, quotient, angles)
    out = values[blocks[0]]
    for block in blocks[1:]:  # a running product: the squared family's x * x, bit for bit
        out = out * values[block]
    return out


def rho_eval(spec: WeightSpec, t):
    """Evaluate the selected family's rho at t in [-a, 1] (scalar or array)."""
    tt = _check_domain(t, spec.a)
    out = _block_product(spec.family, tt, spec.n, spec.m, spec.m_prime, spec.a, _FINITE_MAPS)
    return out if np.ndim(t) else float(out[0])


def limit_rho(family: Family, alpha: float, beta: Optional[float], x):
    """rho's n, m -> infinity limit on R at x = 4n^2 t, alpha = m/(n sqrt a) and
    beta = m'/(n sqrt a) (None for one block), x a scalar or an array: the family's blocks
    at n = 1/2, m = alpha/2, m' = beta/2, a = 1 on the maps (sqrt, sqrt), so a plus block
    is cos sqrt x + cosh(alpha sqrt x) and a quotient block (cosh(alpha sqrt x) - cos sqrt x)/x."""
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    m_prime = None if beta is None else 0.5 * beta
    out = _block_product(family, xx, 0.5, 0.5 * alpha, m_prime, 1.0, (np.sqrt, np.sqrt))
    return out if np.ndim(x) else float(out[0])


def xi_eta_eval(spec: WeightSpec, t):
    """The pair (xi_a(t), eta_a(t)) for the cos-plus-cosh block.

    xi_a = cos(n asin sqrt t) cosh(m asinh sqrt(t/a)),
    eta_a = sin(n asin sqrt t) sinh(m asinh sqrt(t/a));
    for t < 0 the real continuations are
    xi_a = cos(m asin sqrt(-t/a)) cosh(n asinh sqrt(-t)),
    eta_a = -sin(m asin sqrt(-t/a)) sinh(n asinh sqrt(-t)).
    Satisfies 2(xi^2 + eta^2) = rho_a identically.  eta is t s sh of `continued_block`.
    """
    tt = _check_domain(t, spec.a)
    C, s, Ch, sh = continued_block(tt, spec.n, spec.m, spec.a)
    xi = C * Ch
    eta = tt * s * sh
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


def szego_h0(spec: WeightSpec) -> float:
    """Szego's h(0) of rho in closed form: the product over its blocks.

    h(0)^2 is the Mahler measure of rho in z (Szego, Orthogonal Polynomials, AMS 1939,
    ch. X): (1+a)^(n+m)/(2a^m) for a plus block and 2(1+a)^(n+m-1)/a^m for a quotient
    block, with m' in place of m for a second block.  Each is taken as
    sqrt(1+a)^(n-q) sqrt(1+1/a)^m times 1/sqrt 2 or sqrt 2 (q = 1 for a quotient): both
    bases are at least 1 and one of them at most sqrt 2, so no power underflows, and one
    overflows only where the block's h(0) is within sqrt(2)^(n+m) of overflowing.
    """
    n, a = spec.n, spec.a
    up, down = math.sqrt(1.0 + a), math.sqrt(1.0 + 1.0 / a)
    h0 = 1.0
    for quotient, second in _BLOCKS[spec.family]:
        mm = spec.m_prime if second else spec.m
        h0 *= (math.sqrt(2.0) if quotient else math.sqrt(0.5)) * up ** (n - quotient) * down ** mm
    return h0


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


def _circle_form(spec: WeightSpec, t, angles=None):
    """(q, c, G) with h(e^{i theta}) = c e^{i q theta / 2} G(t) for theta in [0, pi]:
    G = xi + i eta, q = n + m for cos-plus-cosh, G = s Ch - i C sh of `continued_block`,
    q = n + m - 1 for the quotient family; c is a constant.  `angles` are those of
    `_block_angles` at t, if the caller has them."""
    quotient = _one_block(spec, "circle sampling formula")
    n, m, a = spec.n, spec.m, spec.a
    if angles is None:
        C, s, Ch, sh = continued_block(t, n, m, a)
    else:
        C, s, Ch, sh = _block_factors(t, angles, n, m, a)
    if not quotient:
        return n + m, (1j ** (-n)) * np.sqrt(2.0), C * Ch + 1j * (t * s * sh)
    return n + m - 1, (1j ** (1 - n)) * np.sqrt(2.0), s * Ch - 1j * (C * sh)


def _cos_to_t(cos_theta, a):
    """The t of [-a, 1] under e^{i theta}: ((1 - a) + (1 + a) cos theta)/2."""
    return np.minimum(np.maximum(0.5 * ((1.0 - a) + (1.0 + a) * cos_theta), -a), 1.0)


def _circle_t(theta, a):
    """The t of [-a, 1] under e^{i theta}."""
    return _cos_to_t(np.cos(theta), a)


def _sample_angles(n_samples):
    """The angles 2 pi k/n_samples in [0, pi] of the n_samples-th roots of unity, k = 0 up."""
    return 2.0 * np.pi * np.arange(n_samples // 2 + 1) / n_samples


def _circle_samples(q, c, theta, G, n_samples):
    """h(e^{i theta_k}) on the uniform grid from the circle form (q, c, G) at the angles
    `theta` of `_sample_angles`; those on (pi, 2pi) are exact conjugates of those on (0, pi)."""
    vals = np.empty(n_samples, dtype=complex)
    k = theta.size
    vals[:k] = c * np.exp(1j * q * theta / 2.0) * G
    vals[k:] = np.conj(vals[n_samples - k:0:-1])
    return vals


def _theta_grid_samples(spec: WeightSpec, n_samples: int):
    """h(e^{i theta_k}) on the uniform grid, theta in [0, pi] by formula and
    (pi, 2pi) as exact conjugates of those on (0, pi)."""
    theta = _sample_angles(n_samples)
    q, c, G = _circle_form(spec, _circle_t(theta, spec.a))
    return _circle_samples(q, c, theta, G, n_samples)


def _rung_sine(k, N):
    """sin(k pi/(2N)), a float for an int k and an array for an int array k; its square is
    a zero of S (k even) or C (k odd) at degree N.  np.sin gives the bits of math.sin on
    every rung up to N = 64, for an int and an array alike."""
    s = np.sin(np.pi * k / (2 * N))
    return s if s.ndim else float(s)


def _block_zeros(spec: WeightSpec):
    """The paper's roots sin^2(k pi/(2n)), -a sin^2(j pi/(2m)) from 1 down to -a:
    every zero of C, S, Ch and Sh of `continued_block` in [-a, 1] (`_rung_sine`)."""
    n, m, a = spec.n, spec.m, spec.a
    pos = _rung_sine(np.arange(n, -1, -1), n) ** 2
    neg = -a * _rung_sine(np.arange(1, m + 1), m) ** 2
    return np.concatenate([pos, neg])


def _certificate_t(spec: WeightSpec):
    """The points of the winding count: t = 1, t = -a and the midpoints between `_block_zeros`."""
    z = _block_zeros(spec)
    return np.concatenate([z[:1], 0.5 * (z[:-1] + z[1:]), z[-1:]])


def _certify_zero_free(spec: WeightSpec, form=None) -> float:
    """Winding number of h on the unit circle: 0 up to rounding, or RootInDisk.

    For real h it is the change of arg h over theta in [0, pi] divided by pi,
    that is q/2 plus the change of arg G as t runs from 1 to -a.  The parts of
    G vanish only at `_block_zeros`, where they interlace; sampled at t = 1,
    t = -a and midway between zeros (`_certificate_t`), G crosses at most one
    axis per step (two mean a zero is missing from the list), so each principal
    step, the angle of G[i+1] conj G[i], is exact and their sum is the change of
    arg G.  `form` is (q, G) of `_circle_form` at those points, if the caller has it.
    """
    if form is None:
        q, _, G = _circle_form(spec, _certificate_t(spec))
    else:
        q, G = form
    re, im = np.sign(G.real), np.sign(G.imag)
    if np.any((re[1:] != re[:-1]) & (im[1:] != im[:-1])):
        raise RootInDisk("a step of the winding count crosses both axes: a zero of G is missing")
    winding = float(np.sum(np.angle(G[1:] * np.conj(G[:-1])))) / np.pi + q / 2.0
    if abs(winding) >= 0.25:
        raise RootInDisk(f"winding number {winding:.3f}: h has zeros in the unit disk")
    return winding


def _validate_factor(spec: WeightSpec, h: RealPolynomial, rho=None) -> float:
    """max ||h|^2 - rho| / max rho on the 512 points `_RESIDUAL_THETA` of [0, pi], or
    FactorizationResidual where h has the wrong degree, h(0) <= 0 or the residual exceeds
    1e-9 max rho.  `rho` is rho at their t, if the caller has it."""
    deg = expected_rho_degree(spec)
    if h.degree != deg:
        raise FactorizationResidual(
            f"factor degree {h.degree} does not match rho degree {deg}"
        )
    if not h.coeffs[0] > 0.0:
        raise FactorizationResidual(f"h(0) = {h.coeffs[0]} is not positive")
    if rho is None:
        rho = rho_eval(spec, _cos_to_t(_RESIDUAL_COS, spec.a))
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

    The block is evaluated once, by one `_block_angles` call on three point sets
    joined: the t of the FFT samples on [0, pi], the winding count's points
    (`_certificate_t`) and the t of the residual grid `_RESIDUAL_THETA`.  The
    circle form G of the first two sets is one `_circle_form` call, and rho on
    the third is the sum of squares `_rho_block` that `rho_eval` returns.

    Samples the defining expression at the N-th roots of unity with N the
    smallest power of two >= 2 (deg + 1) and takes their FFT once; the headroom
    makes degree mistakes visible as non-negligible trailing coefficients,
    checked first.  The samples must then be conjugate symmetric within
    1e-9 * max|sample|.  Those on (pi, 2 pi) are the exact conjugates of those
    on (0, pi), so the symmetry residual is 2 max |Im h| over h(1) and h(-1);
    the imaginary residue of the coefficients, which is discarded, is at most
    that residual over N, plus FFT rounding.  Then come the residual check of
    `_validate_factor` and the winding count of `_certify_zero_free`.
    """
    quotient = _one_block(spec, "direct factorization")
    n, m, a = spec.n, spec.m, spec.a
    deg = expected_rho_degree(spec)
    n_samples = 1
    while n_samples < 2 * (deg + 1):
        n_samples *= 2
    theta = _sample_angles(n_samples)
    circle = np.concatenate([_circle_t(theta, a), _certificate_t(spec)])
    t = np.concatenate([circle, _cos_to_t(_RESIDUAL_COS, a)])
    x, y = _block_angles(t, n, m, a)
    k, j = theta.size, circle.size
    q, c, G = _circle_form(spec, circle, (x[:j], y[:j]))
    rho = _rho_block(t[j:], n, m, a, quotient, (x[j:], y[j:]))
    vals = _circle_samples(q, c, theta, G[:k], n_samples)
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
    resid = _validate_factor(spec, h, rho)
    _certify_zero_free(spec, (q, G[k:]))
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

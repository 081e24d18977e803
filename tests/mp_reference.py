"""A 40-digit mpmath reference for the block's closed forms.

It imports nothing from the library (an AST test in `test_continued_block.py`
keeps it so) and shares none of its routes:

* the block factors come from complex asin and asinh on their principal
  branches, where the library continues them to t < 0 by hand;
* rho's blocks come from mpmath's own Chebyshev polynomials,
  T_n(1 - 2t) + T_m(1 + 2t/a) and their difference over t, and their limits on
  R, cos sqrt x + cosh(alpha sqrt x) and the difference over x, from complex
  sqrt, where the library sums squares of the two angles' functions;
* the phase of a circle sample is taken at 40 digits;
* each family's distinguished polynomial is written out on its own.

Each factor is rounded to a double once it is known to 40 digits, and the
products of factors (xi, eta, the explicit polynomials, the circle samples)
are formed in double precision.  No term of these products cancels, so that
adds a few ulps, far below every bound the tests set.  Removable points are
evaluated next to the point, at a precision where the offset is invisible:
the quotients at t = 0 at t = 1e-60, and an endpoint root at 1e-60 inside the
end, at 120 digits, where a value that grows tenfold or more at 1e-70 is a
pole.  Arguments are floats or float arrays.
"""
import functools

import mpmath
import numpy as np

DPS = 40
_TINY = mpmath.mpf("1e-60")
_C2 = 2.0 / np.sqrt(np.pi)
_C2PI = np.sqrt(2.0 / np.pi)


def block(t, n, m, a):
    """(C, s, Ch, sh) = (cos A, sin A/sqrt t, cosh B, sinh B/sqrt t), A = n asin sqrt t and
    B = m asinh sqrt(t/a) by complex principal branches, as float arrays over t; at t = 0
    the values at 1e-60."""
    rows = [_trig(tk, n) + _hyp(tk, m, a) for tk in np.atleast_1d(t).tolist()]
    return tuple(np.array(column) for column in zip(*rows))


@functools.lru_cache(maxsize=None)
def _angles(t, a):
    """(sqrt x, asin sqrt x, asinh sqrt(x/a)) at x = t, or at x = 1e-60 for t = 0."""
    with mpmath.workdps(DPS):
        x = mpmath.mpf(t) if t else _TINY
        r = mpmath.sqrt(x)
        return r, mpmath.asin(r), mpmath.asinh(mpmath.sqrt(x / mpmath.mpf(a)))


@functools.lru_cache(maxsize=None)
def _trig(t, n):
    r, alpha, _ = _angles(t, 1.0)  # asin sqrt t does not depend on a
    with mpmath.workdps(DPS):
        c, s = mpmath.cos_sin(n * alpha)
        return float(mpmath.re(c)), float(mpmath.re(s / r))


@functools.lru_cache(maxsize=None)
def _hyp(t, m, a):
    r, _, beta = _angles(t, a)
    with mpmath.workdps(DPS):
        c, s = mpmath.cos_sin(1j * m * beta)  # cosh B = cos iB, sinh B = -i sin iB
        return float(mpmath.re(c)), float(mpmath.re(-1j * s / r))


def xi_eta(t, n, m, a):
    """(xi, eta) = (cos A cosh B, sin A sinh B) = (C Ch, t s sh)."""
    C, s, Ch, sh = block(t, n, m, a)
    return C * Ch, t * s * sh


def rho_block(t, n, m, a, quotient):
    """T_n(1 - 2t) + T_m(1 + 2t/a), or (T_m(1 + 2t/a) - T_n(1 - 2t))/t when quotient,
    by mpmath.chebyt, at each t; the quotient at t = 0 is the derivative there."""
    sign = -1 if quotient else 1
    out = []
    with mpmath.workdps(DPS):
        a_mp = mpmath.mpf(a)

        def plus(u):
            return mpmath.chebyt(m, 1 + 2 * u / a_mp) + sign * mpmath.chebyt(n, 1 - 2 * u)

        for tk in np.atleast_1d(t).tolist():
            if not quotient:
                out.append(plus(mpmath.mpf(tk)))
            else:
                out.append(mpmath.diff(plus, 0) if tk == 0 else plus(mpmath.mpf(tk)) / tk)
    return np.array([float(v) for v in out])


def limit_block(x, alpha, quotient):
    """cos sqrt x + cosh(alpha sqrt x), or (cosh(alpha sqrt x) - cos sqrt x)/x when quotient,
    with mpmath's complex principal sqrt, at each x; the quotient at x = 0 is the
    derivative there."""
    sign = -1 if quotient else 1
    out = []
    with mpmath.workdps(DPS):
        alpha_mp = mpmath.mpf(alpha)

        def plus(u):
            r = mpmath.sqrt(u)  # imaginary for u < 0
            return mpmath.re(mpmath.cosh(alpha_mp * r) + sign * mpmath.cos(r))

        for xk in np.atleast_1d(x).tolist():
            if not quotient:
                out.append(plus(mpmath.mpf(xk)))
            else:
                out.append(mpmath.diff(plus, 0) if xk == 0 else plus(mpmath.mpf(xk)) / xk)
    return np.array([float(v) for v in out])


def circle_samples(theta, t, n, m, a, quotient):
    """h(e^{i theta}) = c e^{i q theta/2} G(t) at each theta and its t, given so that t is
    the library's float: G = sqrt 2 cos(A - iB) = sqrt 2 (C Ch + i t s sh), c = i^-n,
    q = n + m, or G = sqrt(2/t) sin(A - iB) = sqrt 2 (s Ch - i C sh), c = i^(1-n),
    q = n + m - 1 when quotient, with the factors of `block`."""
    C, s, Ch, sh = block(t, n, m, a)
    if quotient:
        c, q, G = 1j ** (1 - n), n + m - 1, s * Ch - 1j * (C * sh)
    else:
        c, q, G = 1j ** (-n), n + m, C * Ch + 1j * (t * s * sh)
    with mpmath.workdps(DPS):
        phase = np.array([complex(*mpmath.cos_sin(q * mpmath.mpf(th) / 2))
                          for th in np.atleast_1d(theta).tolist()])
    return c * np.sqrt(2.0) * phase * G


def product(t, N, M, a, sine_pos, sine_neg, times_t):
    """(value, scale): sin(N asin sqrt t)/sqrt t or cos(N asin sqrt t), times
    sinh(M asinh sqrt(t/a))/sqrt t or cosh(M asinh sqrt(t/a)), times t when times_t; the
    scale has each factor replaced by its pair's |C| + |s| or |Ch| + |sh|."""
    C, s, Ch, sh = block(t, N, M, a)
    value = (s if sine_pos else C) * (sh if sine_neg else Ch)
    scale = (np.abs(C) + np.abs(s)) * (np.abs(Ch) + np.abs(sh))
    return (t * value, np.abs(t) * scale) if times_t else (value, scale)


def _distinguished(family, measure, n, m, a, m_prime):
    """(const, N, M, sine_pos, sine_neg, times_t, endpoint) of the family's polynomial,
    const X(N) Y(M) [t] / sqrt(1 - t) or / sqrt((1 - t)(a + t)) (endpoint 1 or 2)."""
    if family == "cos_plus_cosh" and measure == "inv_sqrt_both":
        odd = n % 2 == 1  # eta for odd n, xi for even n
        return _C2, n, m, odd, odd, odd, 0
    if family == "cos_plus_cosh":  # sqrt-both: eta / sqrt((1-t)(a+t))
        return _C2, n, m, True, True, True, 2
    if family == "squared_cos_plus_cosh":
        return _C2PI, 2 * n, 2 * m, True, True, True, 2
    if family == "cosh_minus_cos_over_t":  # sin A cosh B/sqrt t, n odd; cos A sinh B/sqrt t
        return _C2, n, m, n % 2 == 1, n % 2 == 0, False, 0
    M = m + m_prime
    if family == "product_cos_plus_cosh":
        return _C2PI, 2 * n, M, True, True, True, 2
    if family == "product_cosh_minus_cos":
        return _C2PI, 2 * n, M, True, True, False, 2
    if family == "mixed_plus_minus":
        return _C2PI, 2 * n, M, True, False, False, 1
    raise ValueError(family)


def explicit(t, family, measure, n, m, a, m_prime=None):
    """(values, scales) of the family's distinguished orthonormal polynomial at each t,
    the scale as in `product`; at an end with a root, (value, |value|) where the root
    divides a vanishing factor and (inf, inf) where it does not."""
    const, N, M, sine_pos, sine_neg, times_t, endpoint = _distinguished(
        family, measure, n, m, a, m_prime)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    value, scale = product(t, N, M, a, sine_pos, sine_neg, times_t)
    if endpoint:
        ends = (t == 1.0) | ((t == -a) & (endpoint == 2))
        with np.errstate(divide="ignore", invalid="ignore"):
            root = np.sqrt((1.0 - t) * (a + t) if endpoint == 2 else 1.0 - t)
            value, scale = value / root, scale / root
        for k in np.flatnonzero(ends):
            near, nearer = (_near_end(t[k], offset, N, M, a, sine_pos, sine_neg, times_t,
                                      endpoint) for offset in (_TINY, _TINY * 1e-10))
            pole = abs(nearer) > 10 * abs(near)  # grows like offset^(-1/2)
            value[k] = np.inf if pole else float(near)
            scale[k] = np.inf if pole else abs(float(near))
    return const * value, const * scale


def _near_end(t, offset, N, M, a, sine_pos, sine_neg, times_t, endpoint):
    """`explicit`, without its constant, offset (relative) inside the end t, at 120 digits."""
    with mpmath.workdps(3 * DPS):
        a = mpmath.mpf(a)
        x = mpmath.mpf(t) - offset if t == 1.0 else mpmath.mpf(t) + offset * a
        r = mpmath.sqrt(x)
        A, B = N * mpmath.asin(r), M * mpmath.asinh(mpmath.sqrt(x / a))
        X = mpmath.sin(A) / r if sine_pos else mpmath.cos(A)
        Y = mpmath.sinh(B) / r if sine_neg else mpmath.cosh(B)
        out = mpmath.re(X * Y) * (x if times_t else 1)
        out /= mpmath.sqrt((1 - x) * (a + x) if endpoint == 2 else 1 - x)
    return +out

"""Finite trigonometric sums, partial fractions, and their integral analogs.

The central object is

    S(n, m) = sum_{j=0}^{floor(n/2)} (-1)^j sin(pi(2j+1)/2n) cos^{m-1}(pi(2j+1)/2n),

whose generating function is the reciprocal Chebyshev value 1/T_n(e^{-i theta}):
for odd n,

    (1/2) / T_n(e^{-i theta}) = (1/n) sum_{r>=1} S(n, 2r+1) e^{i(2r+1) theta}.

The identity asin(sqrt(sin theta)) + i asinh(sqrt(sin theta)) = acos(e^{-i theta})
(theta in [0, pi/2]) links this to the sin*sinh/(cos+cosh) quotients, which are
exactly Im and Re of the left side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .errors import ParityError, PoleProximity, RangeError
from .oracle import FiniteDirect, IntegrandSpec

__all__ = [
    "s_sum",
    "theta_integral",
    "reciprocal_cheb_gen",
    "tsgf_fourier_check",
    "pf_reciprocal_T",
    "pf_reciprocal_U",
    "ramanujan_353_finite",
    "QFSymmetryResult",
    "q_f_symmetry",
    "proof_identities_check",
    "glaisher_pair",
]


def _cheb_T_any(n: int, z):
    """T_n by three-term recurrence; valid for real or complex arguments."""
    z = np.asarray(z)
    pm1 = np.ones_like(z)
    if n == 0:
        return pm1
    p = z.copy()
    for _ in range(n - 1):
        pm1, p = p, 2.0 * z * p - pm1
    return p


def s_sum(n: int, m: int) -> float:
    """Direct evaluation of the alternating sine-cosine power sum S(n, m)."""
    if n < 1 or n % 2 == 0:
        raise ParityError("S(n, m) is defined for odd n")
    if m < 1:
        raise RangeError("m must be a positive integer")
    total = 0.0
    for j in range(n // 2 + 1):
        ang = math.pi * (2 * j + 1) / (2.0 * n)
        total += ((-1.0) ** j) * math.sin(ang) * math.cos(ang) ** (m - 1)
    return total


def theta_integral(n: int, m: int, tol: float = 1e-10):
    """Oracle value of the theta-sum integral and its closed form (pi/4n) S(n, m).

    The integral over t in [0, 1] is computed after t = sin(psi), which
    absorbs the 1/sqrt(1-t^2) endpoint factor.
    """
    if n % 2 == 0 or m % 2 == 0 or m <= 1:
        raise ParityError("closed form needs odd n and odd m > 1")

    def f(psi):
        s = np.sin(psi)
        A = n * np.arcsin(np.sqrt(s))
        B = n * np.arcsinh(np.sqrt(s))
        quot = np.sin(A) * np.sinh(B) / (np.cos(2 * A) + np.cosh(2 * B))
        return quot * np.sin(m * psi)

    val, _ = oracle.integrate(IntegrandSpec(f, FiniteDirect(0.0, math.pi / 2.0)), tol=tol)
    return val, math.pi / (4.0 * n) * s_sum(n, m)


def reciprocal_cheb_gen(n: int, theta):
    """The generating function (1/2)/T_n(e^{-i theta}), smooth and 2pi-periodic.

    On [0, pi/2] its imaginary and real parts coincide with
    sin(n asin sqrt(sin theta)) sinh(n asinh sqrt(sin theta)) / (cos(2n..) + cosh(2n..))
    and the matching cos*cosh quotient.
    """
    z = np.exp(-1j * np.asarray(theta, dtype=float))
    return 0.5 / _cheb_T_any(n, z)


TSGF_R_MAX = 40  # the largest R of tsgf_fourier_check


def tsgf_fourier_check(n: int, R: int) -> float:
    """Max error between Fourier coefficients of the generating function and S(n, 2r+1)/n.

    Checks harmonics 3, 5, ..., 2R+1 in three ways: the complex coefficient of
    the full generating function, the sine coefficient of its imaginary part,
    and the cosine coefficient of its real part.
    """
    if n % 2 == 0:
        raise ParityError("generating function requires odd n")
    if R > TSGF_R_MAX:
        raise RangeError(f"R capped at {TSGF_R_MAX}")
    g = lambda th: reciprocal_cheb_gen(n, th)
    harmonics = np.arange(3, 2 * R + 2, 2)
    target = np.array([s_sum(n, int(h)) for h in harmonics]) / n
    c_exp = oracle.fourier_coeff(g, harmonics, "exp")
    c_sin = oracle.fourier_coeff(lambda th: np.imag(g(th)), harmonics, "sin")
    c_cos = oracle.fourier_coeff(lambda th: np.real(g(th)), harmonics, "cos")
    return float(max(np.max(np.abs(c - target), initial=0.0) for c in (c_exp, c_sin, c_cos)))


def pf_shift_ok(c) -> bool:
    """Whether c is a shift pf_reciprocal_T takes: c in [0, 1)."""
    return 0.0 <= c < 1.0


def pf_reciprocal_T(k: int, theta, c: float = 0.0):
    """Both sides of the shifted partial-fraction identity for 1/T_k.

    lhs evaluates the transcendental form 1/cos(k W); for theta <= pi/2,
    W = asin(sqrt(u)) + i asinh(sqrt(v)) with u = (sin theta + c)/(1+c),
    v = (sin theta + c)/(1-c), which equals acos((e^{-i theta} - ic)/sqrt(1-c^2));
    past pi/2 the acos continuation defines the left side.  rhs is the
    rational pole sum.  c = 0 recovers the plain reciprocal-Chebyshev identity.
    theta may be an array: lhs and rhs are then complex arrays of its shape,
    and PoleProximity is raised if any theta is near a pole.
    """
    if not pf_shift_ok(c):
        raise RangeError("c must lie in [0, 1)")
    scalar = np.ndim(theta) == 0
    # a scalar takes the array loops too, so it gets the value of its entry in an array
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    root = math.sqrt(1.0 - c * c)
    rotor = np.exp(-1j * theta)
    first = theta <= math.pi / 2.0 + 1e-12
    W = np.empty(theta.shape, dtype=complex)
    sin = np.sin(theta[first])
    u = (sin + c) / (1.0 + c)
    v = (sin + c) / (1.0 - c)
    W[first] = np.arcsin(np.sqrt(u)) + 1j * np.arcsinh(np.sqrt(v))
    W[~first] = np.arccos((rotor[~first] - 1j * c) / root + 0.0j)
    lhs = 1.0 / np.cos(k * W)
    angles = np.pi * (2 * np.arange(k) + 1) / (2.0 * k)
    denoms = rotor[..., None] - root * np.cos(angles) - 1j * c
    near = np.flatnonzero(np.abs(denoms) < 1e-12)
    if near.size:
        raise PoleProximity(f"pole at angle index {near[0] % k}")
    rhs = np.zeros(theta.shape, dtype=complex)
    for j in range(k):  # in index order, as the pole sum is written
        rhs += ((-1.0) ** j) * root * np.sin(angles[j]) / denoms[..., j]
    rhs /= k
    if scalar:
        return complex(lhs[0]), complex(rhs[0])
    return lhs, rhs


def pf_reciprocal_U(k: int, z):
    """Both sides of 1/((1-z^2) U_{k-1}(z)) = (1/2k) sum (-1)^{j-1}/(z - cos(pi j/k)).

    z may be an array: lhs and rhs are then complex arrays of its shape, and
    PoleProximity is raised if any z is near a pole.
    """
    scalar = np.ndim(z) == 0
    # a scalar takes the array loops too, so it gets the value of its entry in an array
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    poles = np.cos(np.pi * np.arange(1, 2 * k + 1) / k)  # -1 and 1 among them (j = k, 2k)
    if np.any(np.abs(z[..., None] - poles) < 1e-8):
        raise PoleProximity("z too close to a pole")
    # U_{k-1} by recurrence
    um1, u = np.zeros_like(z), np.ones_like(z)
    for _ in range(k - 1):
        um1, u = u, 2.0 * z * u - um1
    lhs = 1.0 / ((1.0 - z * z) * u)
    rhs = np.zeros_like(z)
    for j in range(1, 2 * k + 1):
        rhs += ((-1.0) ** (j - 1)) / (z - poles[j - 1])
    rhs /= 2.0 * k
    if scalar:
        return complex(lhs[0]), complex(rhs[0])
    return lhs, rhs


def ramanujan_353_finite(n: int, k: int, tol: float = 1e-10):
    """Oracle value of the finite Ramanujan-353 integral and its target pi/4.

    n even, k odd.  With t = sin(psi) the integrand is smooth on [0, pi/2]
    and tends to kn/2 as psi -> 0; the Gauss nodes never evaluate psi = 0.
    """
    if n % 2 == 1 or k % 2 == 0 or n < 2 or k < 1:
        raise ParityError("finite analog needs even n and odd k")

    def f(psi):
        s = np.sin(psi)
        num = np.sin(k * n * psi) * np.cos(psi)
        den = (np.cos(n * psi) + np.cosh(n * np.arcsinh(s))) * s
        return num / den

    val, _ = oracle.integrate(IntegrandSpec(f, FiniteDirect(0.0, math.pi / 2.0)), tol=tol)
    return val, math.pi / 4.0


@dataclass(frozen=True)
class QFSymmetryResult:
    max_pair_deviation: float
    max_abs_q: float
    sum_f: complex


def q_f_symmetry(nu: int, mu: int) -> QFSymmetryResult:
    """The q_j / f(j) bookkeeping behind the finite Ramanujan-353 proof.

    For even nu, q_j = (1 - sin(pi(2j-1)/2nu))/cos(pi(2j-1)/2nu) e^{-i pi(2j-1)/2nu}
    and f(j) built from it satisfy f(j) + f(nu+1-j) = 1, |q_j| < 1, and
    sum_j f(j) = nu/2.
    """
    if nu % 2 == 1 or nu < 2:
        raise ParityError("construction assumes even nu")
    if mu < 0:
        raise RangeError("mu must be nonnegative")
    f = {}
    max_q = 0.0
    for j in range(1, nu + 1):
        ang = math.pi * (2 * j - 1) / (2.0 * nu)
        q = (1.0 - math.sin(ang)) / math.cos(ang) * np.exp(-1j * ang)
        max_q = max(max_q, abs(q))
        geo = sum(q ** (2 * nu * l) for l in range(1, mu + 1))
        f[j] = (math.cos(ang) - 1j) / ((1.0 - q) * math.cos(ang)) * (2.0 + q + (1.0 + q) * geo)
    dev = max(abs(f[j] + f[nu + 1 - j] - 1.0) for j in range(1, nu + 1))
    return QFSymmetryResult(
        max_pair_deviation=float(dev),
        max_abs_q=float(max_q),
        sum_f=complex(sum(f.values())),
    )


def proof_identities_check(z: float, n: int, m: int, u: int) -> float:
    """Max error across the three discrete identities used by the single-sum proof.

    (a) tanh(z)/sinh(2nz) cosh(2uz) as an alternating sine-square pole sum,
        valid for integer |u| < n;
    (b) sum of sinh^2 z/(sin^2(pi j/m) + sinh^2 z) over j <= (m-1)/2 equals
        m tanh(z)/(2 tanh(mz)) - 1/2 for odd m;
    (c) alternating cosine sum equal to 1 for integer |u| < n.
    """
    if abs(u) >= n:
        raise RangeError("|u| must be below n")
    if m % 2 == 0:
        raise ParityError("identity (b) needs odd m")
    if z == 0.0:
        raise RangeError("z must be nonzero")
    lhs_a = math.tanh(z) / math.sinh(2.0 * n * z) * math.cosh(2.0 * u * z)
    sh2 = math.sinh(z) ** 2
    rhs_a = 0.0
    for i in range(1, 2 * n):
        s2 = math.sin(math.pi * i / (2.0 * n)) ** 2
        rhs_a += ((-1.0) ** (i - 1)) * s2 / (sh2 + s2) * math.cos(math.pi * i * u / n)
    rhs_a /= 2.0 * n
    err_a = abs(lhs_a - rhs_a)

    lhs_b = sum(
        sh2 / (math.sin(math.pi * j / m) ** 2 + sh2) for j in range(1, (m - 1) // 2 + 1)
    )
    rhs_b = m * math.tanh(z) / (2.0 * math.tanh(m * z)) - 0.5
    err_b = abs(lhs_b - rhs_b)

    cs = sum(((-1.0) ** (i - 1)) * math.cos(math.pi * i * u / n) for i in range(1, 2 * n))
    err_c = abs(cs - 1.0)
    return max(err_a, err_b, err_c)


def _sinh_over_cos_cosh(x, u):
    """sinh u / (cos 2x + cosh 2u) for u >= 0, in factors of e^-u that cannot overflow."""
    e = np.exp(-2.0 * u)
    return np.exp(-u) * -np.expm1(-2.0 * u) / (2.0 * np.cos(2.0 * x) * e + 1.0 + e * e)


def glaisher_pair(a: float, tol: float = 1e-9):
    """Theta-series value and oracle integral for the limiting sine transform.

    series = (pi^2/8) sum (-1)^j (2j+1) exp(-pi^2 (2j+1)^2 a / 8);
    integral = int_0^inf sin(sqrt x) sinh(sqrt x)/(cos 2 sqrt x + cosh 2 sqrt x)
               sin(a x) dx, computed after x = y^2, with the sinh/cosh quotient
               written in factors of e^-y, which cannot overflow.
    """
    series = 0.0
    for j in range(200):
        term = ((-1.0) ** j) * (2 * j + 1) * math.exp(-math.pi ** 2 * (2 * j + 1) ** 2 * a / 8.0)
        series += term
        if abs(term) < 1e-18 * max(abs(series), 1e-30):
            break
    series *= math.pi ** 2 / 8.0

    def f(y):
        return 2.0 * y * np.sin(y) * _sinh_over_cos_cosh(y, y) * np.sin(a * y * y)

    integral, _ = oracle.improper_integral(f, tol=tol)
    return series, integral

"""Dense real polynomials and Chebyshev primitives.

Complex points are represented by Python/numpy complex numbers throughout.
All functions accept scalars or numpy arrays and are pure.
"""
from __future__ import annotations

import numpy as np

from .errors import NoConvergence, SymmetryViolation

__all__ = [
    "RealPolynomial",
    "cheb_T",
    "cheb_U",
    "poly_from_circle_samples",
    "poly_roots",
]


class RealPolynomial:
    """Dense polynomial with real coefficients, index = power of t.

    Trailing exact zeros are trimmed on construction; the zero polynomial is
    stored as the single coefficient [0.0] and reports degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=float)).copy()
        nz = np.nonzero(c)[0]
        if nz.size == 0:
            c = np.zeros(1)
        else:
            c = c[: nz[-1] + 1]
        self.coeffs = c
        self.coeffs.flags.writeable = False

    @property
    def degree(self) -> int:
        return -1 if self.is_zero else len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == 0.0

    @property
    def leading(self) -> float:
        return float(self.coeffs[-1])

    def __call__(self, z):
        # Horner evaluation; exact for degree 0, works for real/complex arrays.
        z = np.asarray(z)
        acc = np.full(z.shape, self.coeffs[-1], dtype=np.result_type(z.dtype, float))
        for c in self.coeffs[-2::-1]:
            acc = acc * z + c
        return acc if acc.shape else acc[()]

    def derivative(self) -> "RealPolynomial":
        if self.degree < 1:
            return RealPolynomial([0.0])
        k = np.arange(1, len(self.coeffs))
        return RealPolynomial(self.coeffs[1:] * k)

    def shifted_down(self) -> "RealPolynomial":
        """Divide by t. Requires an exactly-zero constant coefficient."""
        if self.coeffs[0] != 0.0:
            raise ValueError("constant term is nonzero, cannot divide by t")
        if self.degree < 1:
            return RealPolynomial([0.0])
        return RealPolynomial(self.coeffs[1:])

    def trimmed(self, rel_tol: float = 0.0) -> "RealPolynomial":
        """Drop trailing coefficients smaller than rel_tol * max|coeff|."""
        scale = np.max(np.abs(self.coeffs))
        if scale == 0.0:
            return RealPolynomial([0.0])
        keep = np.nonzero(np.abs(self.coeffs) > rel_tol * scale)[0]
        if keep.size == 0:
            return RealPolynomial([0.0])
        return RealPolynomial(self.coeffs[: keep[-1] + 1])

    def __mul__(self, other):
        if isinstance(other, RealPolynomial):
            return RealPolynomial(np.convolve(self.coeffs, other.coeffs))
        return RealPolynomial(self.coeffs * float(other))

    __rmul__ = __mul__

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        c = a.copy()
        c[: len(b)] += b
        return RealPolynomial(c)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __repr__(self):
        return f"RealPolynomial({self.coeffs.tolist()})"


def cheb_T(n: int, x):
    """Chebyshev polynomial of the first kind, T_n(x) = cos(n arccos x).

    Stable for all real x: trig form on [-1,1], hyperbolic form outside
    with the sign (-1)^n for x < -1.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    inside = np.abs(x) <= 1.0
    out[inside] = np.cos(n * np.arccos(x[inside]))
    hi = x > 1.0
    out[hi] = np.cosh(n * np.arccosh(x[hi]))
    lo = x < -1.0
    out[lo] = ((-1.0) ** n) * np.cosh(n * np.arccosh(-x[lo]))
    return out if out.shape else out[()]


def cheb_U(n: int, x):
    """Chebyshev polynomial of the second kind, U_n(x) = sin((n+1)theta)/sin(theta).

    Near x = +-1 the quotient form loses digits, so the three-term recurrence
    is used there (U_n(1) = n+1 exactly).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    safe = np.abs(np.abs(x) - 1.0) > 1e-4
    inside = safe & (np.abs(x) < 1.0)
    th = np.arccos(x[inside])
    out[inside] = np.sin((n + 1) * th) / np.sin(th)
    hi = safe & (x > 1.0)
    u = np.arccosh(x[hi])
    out[hi] = np.sinh((n + 1) * u) / np.sinh(u)
    lo = safe & (x < -1.0)
    u = np.arccosh(-x[lo])
    out[lo] = ((-1.0) ** n) * np.sinh((n + 1) * u) / np.sinh(u)
    rec = ~safe
    if np.any(rec):
        xr = x[rec]
        pm1 = np.ones_like(xr)
        p = 2.0 * xr
        if n == 0:
            out[rec] = pm1
        else:
            for _ in range(n - 1):
                pm1, p = p, 2.0 * xr * p - pm1
            out[rec] = p
    return out if out.shape else out[()]


def poly_from_circle_samples(values, degree: int, tol: float = 1e-9) -> RealPolynomial:
    """Recover real coefficients from samples at the N-th roots of unity.

    values[k] must be p(exp(2 pi i k / N)) for a real-coefficient polynomial p
    of degree <= degree, with N > degree. Conjugate symmetry
    values[N-k] == conj(values[k]) is required within tol * max|value|;
    the imaginary residue of the recovered coefficients must stay below the
    same bound and is discarded.
    """
    values = np.asarray(values, dtype=complex)
    N = len(values)
    if N <= degree:
        raise ValueError(f"need more samples than degree: N={N}, degree={degree}")
    scale = np.max(np.abs(values))
    if scale == 0.0:
        return RealPolynomial([0.0])
    sym = np.max(np.abs(values - np.conj(values[(-np.arange(N)) % N])))
    if sym > tol * scale:
        raise SymmetryViolation(
            f"conjugate symmetry residual {sym:.3e} exceeds {tol:.1e} * {scale:.3e}"
        )
    coeffs = np.fft.fft(values) / N
    imag_res = np.max(np.abs(coeffs.imag))
    if imag_res > tol * scale:
        raise SymmetryViolation(
            f"imaginary coefficient residue {imag_res:.3e} exceeds tolerance"
        )
    return RealPolynomial(coeffs[: degree + 1].real)


def poly_roots(p: RealPolynomial, max_iter: int = 120, rel_residual: float = 1e-8):
    """All complex roots of p by Aberth-Ehrlich simultaneous iteration.

    Roots at the origin are deflated exactly first. The remaining monic
    polynomial is seeded on the circle of radius (|c0/cd|)^(1/d) with
    distinct perturbed angles. Acceptance uses the backward-error residual
    |p(z)| / sum |c_i| |z|^i, which reduces to |p(z)| <= rel_residual *
    max|coeff| for roots of modest modulus but stays meaningful for roots
    far outside the unit circle where absolute polynomial values blow up.

    Each step makes one Horner pass over a stacked table whose rows are p,
    p' (padded with a top zero) and |c|, evaluated at z, z and |z|. The
    pass at the new iterates then gives both the next Aberth correction and
    the backward error of those iterates, so no step evaluates p twice.

    Iterates that overflow make that backward error NaN; the pass that sees
    a non-finite backward error raises NoConvergence at once.
    """
    if p.degree < 1:
        raise ValueError("degree must be at least 1")
    coeffs = p.coeffs
    zero_roots = 0
    while coeffs[0] == 0.0:
        coeffs = coeffs[1:]
        zero_roots += 1
    d = len(coeffs) - 1
    roots = np.zeros(zero_roots, dtype=complex)
    if d == 0:
        return roots
    monic = coeffs / coeffs[-1]
    radius = max(abs(monic[0]) ** (1.0 / d), 1e-3)
    angles = 2.0 * np.pi * (np.arange(d) + 0.25) / d + 0.42
    z = radius * np.exp(1j * angles)

    table = np.zeros((3, d + 1), dtype=complex)
    table[0] = monic
    table[1, :d] = monic[1:] * np.arange(1, d + 1)
    table[2] = np.abs(monic)
    points = np.empty((3, d), dtype=complex)
    acc = np.empty((3, d), dtype=complex)

    for it in range(max_iter + 1):
        points[0] = z
        points[1] = z
        points[2] = np.abs(z)
        acc[...] = table[:, -1:]
        for k in range(d - 1, -1, -1):
            acc *= points
            acc += table[:, k : k + 1]
        worst = float(np.max(np.abs(acc[0]) / acc[2].real))
        if not np.isfinite(worst):
            raise NoConvergence(f"Aberth backward error is {worst} after {it} steps")
        if it and worst < 1e-15:
            break
        if it == max_iter:
            if not worst <= rel_residual / (d + 1):
                raise NoConvergence(
                    f"Aberth backward error {worst:.3e} above {rel_residual:.1e}/(d+1)"
                )
            break
        dv = np.where(acc[1] == 0, 1e-300, acc[1])
        w = acc[0] / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        step = w / denom
        z = z - step
        if np.max(np.abs(step)) < 1e-15 * (1.0 + np.max(np.abs(z))):
            break
    return np.concatenate([roots, z])

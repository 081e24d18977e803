"""Dense real polynomials, Chebyshev series on [-a, 1] and Chebyshev primitives.

Complex points are represented by Python/numpy complex numbers throughout.
All functions accept scalars or numpy arrays and are pure.  The spectral
factor's coefficients are read from one FFT of its circle samples, in
`weight_models.build_szego_factor`.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "ChebSeries",
    "RealPolynomial",
    "cheb_T",
]


class RealPolynomial:
    """Dense polynomial with real coefficients, index = power of t.

    Trailing exact zeros are dropped on construction; the zero polynomial is
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

    def __call__(self, z):
        # Horner evaluation; exact for degree 0, works for real/complex arrays.
        z = np.asarray(z)
        acc = np.full(z.shape, self.coeffs[-1], dtype=np.result_type(z.dtype, float))
        for c in self.coeffs[-2::-1]:
            acc = acc * z + c
        return acc if acc.shape else acc[()]

    def __repr__(self):
        return f"RealPolynomial({self.coeffs.tolist()})"


class ChebSeries:
    """Chebyshev series sum_j c_j T_j(x) on [-a, 1], x = (2t + a - 1)/(1 + a).

    Holds exactly degree + 1 coefficients, none dropped, so series of one
    degree have arrays of one shape. Evaluation works for every real t.
    """

    __slots__ = ("coeffs", "a")

    def __init__(self, coeffs, a: float):
        self.coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float)).copy()
        self.coeffs.flags.writeable = False
        self.a = float(a)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> float:
        """Coefficient of t^degree: c_k 2^(k-1) (2/(1+a))^k, and c_0 for k = 0."""
        k, c = self.degree, float(self.coeffs[-1])
        return c if k == 0 else c * 2.0 ** (k - 1) * (2.0 / (1.0 + self.a)) ** k

    def __call__(self, t):
        # Clenshaw's recurrence in the operation order of numpy's chebval
        x = np.asarray(t, dtype=float) * (2.0 / (1.0 + self.a)) + (self.a - 1.0) / (1.0 + self.a)
        c = self.coeffs if len(self.coeffs) > 1 else np.append(self.coeffs, 0.0)
        c0, c1, x2 = c[-2], c[-1], x + x
        for cj in c[-3::-1]:
            c0, c1 = cj - c1, c1 * x2 + c0
        out = c1 * x + c0
        return out if out.shape else out[()]

    def derivative(self) -> "ChebSeries":
        dc = np.polynomial.chebyshev.chebder(self.coeffs)  # d/dx; dx/dt = 2/(1+a)
        return ChebSeries(dc * (2.0 / (1.0 + self.a)), self.a)

    def __repr__(self):
        return f"ChebSeries({self.coeffs.tolist()}, a={self.a})"


def cheb_T(n: int, x):
    """Chebyshev polynomial of the first kind, T_n(x) = cos(n arccos x).

    Stable for all real x: trig form on [-1,1], hyperbolic form outside
    with the sign (-1)^n for x < -1.  NaN where x is NaN.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    x = np.asarray(x, dtype=float)
    out = np.full_like(x, np.nan)  # a NaN x falls in none of the three forms
    inside = np.abs(x) <= 1.0
    out[inside] = np.cos(n * np.arccos(x[inside]))
    hi = x > 1.0
    out[hi] = np.cosh(n * np.arccosh(x[hi]))
    lo = x < -1.0
    out[lo] = ((-1.0) ** n) * np.cosh(n * np.arccosh(-x[lo]))
    return out if out.shape else out[()]

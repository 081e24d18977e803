"""Dense real polynomials, Chebyshev series on [-a, 1] and the monomial table.

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
    "power_table",
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
        x = np.asarray(t, dtype=float) * (2.0 / (1.0 + self.a)) + (self.a - 1.0) / (1.0 + self.a)
        return np.polynomial.chebyshev.chebval(x, self.coeffs, tensor=False)

    def __repr__(self):
        return f"ChebSeries({self.coeffs.tolist()}, a={self.a})"


# The oracle integrates an (npts, K) table per evaluator call and sums it over the nodes.
# power_table fills K node-contiguous rows and returns their (npts, K) transpose view, so
# each column is one contiguous run of node values; numpy's chebvander has the same layout.


def power_table(t, count: int) -> np.ndarray:
    """t^0 ... t^(count-1) at the points t, shape (npts, count): np.vander(t, count,
    increasing=True) bit for bit, t^j being t^(j-1) * t, in node-contiguous columns."""
    t = np.asarray(t, dtype=float)
    rows = np.empty((count, t.size))
    if count:
        rows[0] = 1.0
    if count > 1:
        rows[1] = t
    for j in range(2, count):
        np.multiply(rows[j - 1], t, out=rows[j])
    return rows.T

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


def poly_roots(p: RealPolynomial):
    """All complex roots of p: companion-matrix eigenvalues, Newton-polished.

    Roots at the origin are deflated exactly first. `np.roots` gives the
    eigenvalues of the companion matrix of the rest, which is backward stable
    (Edelman & Murakami, Math. Comp. 64, 1995). Newton steps on the original
    coefficients then polish them, at most 8, until no root moves by more
    than 1e-15 (1 + max|z|). A root whose Newton step would land nearer to
    another root than to where it started stays put, so two roots do not
    collapse onto one. Each step is one Horner pass over the stacked rows
    p, p' and |c| at z, z and |z|, which also gives the backward error
    |p(z)| / sum |c_i| |z|^i; every root is returned at the iterate where
    that error was least, so the polish never makes a root worse. A
    non-finite coefficient or root, or a failed eigenvalue solve, raises
    NoConvergence.
    """
    if p.degree < 1:
        raise ValueError("degree must be at least 1")
    if not np.all(np.isfinite(p.coeffs)):
        raise NoConvergence(f"non-finite coefficient in {p}")
    zero_roots = int(np.flatnonzero(p.coeffs)[0])
    coeffs = p.coeffs[zero_roots:]
    d = len(coeffs) - 1
    try:
        z = np.roots(coeffs[::-1]).astype(complex)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"companion eigenvalues failed: {exc}") from exc
    table = np.zeros((3, d + 1))
    table[0] = coeffs
    table[1, :d] = coeffs[1:] * np.arange(1, d + 1)
    table[2] = np.abs(coeffs)
    best, best_err, moved = z, np.full(d, np.inf), np.inf
    for it in range(9):
        points = np.stack([z, z, np.abs(z)])
        acc = table[:, -1:] * np.ones_like(points)
        for k in range(d - 1, -1, -1):
            acc *= points
            acc += table[:, k : k + 1]
        err = np.abs(acc[0]) / acc[2].real
        better = err < best_err
        best, best_err = np.where(better, z, best), np.where(better, err, best_err)
        if it == 8 or not moved > 1e-15 * (1.0 + np.max(np.abs(z), initial=0.0)):
            break
        step = np.divide(acc[0], acc[1], out=np.zeros(d, dtype=complex), where=acc[1] != 0)
        gap = np.abs((z - step)[:, None] - z[None, :])
        np.fill_diagonal(gap, np.inf)
        step = np.where(np.abs(step) < np.min(gap, axis=1, initial=np.inf), step, 0.0)
        z = z - step
        moved = np.max(np.abs(step), initial=0.0)
    if not np.all(np.isfinite(best)):
        raise NoConvergence(f"non-finite root among {best}")
    return np.concatenate([np.zeros(zero_roots, dtype=complex), best])

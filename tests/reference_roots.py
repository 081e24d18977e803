"""The reference root finder of the tests.

The library certifies its spectral factors zero-free in the unit disk by a
winding count at the paper's known roots (`weight_models._certify_zero_free`)
and computes no roots.  This root finder is the independent check that the
certificate is compared against, on factors whose float64 coefficients carry
their zeros; the `TestRoots*` classes of `test_poly_core.py` pin its accuracy.
"""
import numpy as np

from bszego.errors import NoConvergence
from bszego.poly_core import RealPolynomial


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

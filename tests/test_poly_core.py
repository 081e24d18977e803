import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bszego.errors import NoConvergence, SymmetryViolation
from bszego.poly_core import RealPolynomial, cheb_T
from reference_roots import poly_roots


def poly_from_circle_samples(values, degree):
    """Real coefficients of p from p(exp(2 pi i k / N)), k < N, N > degree: the
    symmetry check and the FFT of `build_szego_factor`, for samples of any
    symmetry.  Conjugate symmetry and the imaginary residue of the coefficients
    must stay within 1e-9 * max|value|; the residue is discarded.  (On the
    factor's own samples the symmetry bound implies the residue bound.)"""
    values = np.asarray(values, dtype=complex)
    N = len(values)
    assert N > degree
    scale = np.max(np.abs(values))
    sym = np.max(np.abs(values - np.conj(values[(-np.arange(N)) % N])))
    if sym > 1e-9 * scale:
        raise SymmetryViolation(f"conjugate symmetry residual {sym:.3e}")
    coeffs = np.fft.fft(values) / N
    if np.max(np.abs(coeffs.imag)) > 1e-9 * scale:
        raise SymmetryViolation("imaginary coefficient residue exceeds tolerance")
    return RealPolynomial(coeffs[: degree + 1].real)


class TestChebT:
    def test_degree_zero(self):
        assert cheb_T(0, 0.7) == 1.0

    def test_cubic_at_half(self):
        assert cheb_T(3, 0.5) == pytest.approx(-1.0, abs=1e-14)

    def test_defining_identity(self):
        assert cheb_T(5, math.cos(0.3)) == pytest.approx(math.cos(1.5), abs=1e-13)

    def test_outside_interval(self):
        # T_3(x) = 4x^3 - 3x at x = 2 and x = -2
        assert cheb_T(3, 2.0) == pytest.approx(26.0, rel=1e-14)
        assert cheb_T(3, -2.0) == pytest.approx(-26.0, rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 30), st.floats(-1.0, 1.0))
    def test_matches_cosine_form(self, n, x):
        assert abs(cheb_T(n, x) - math.cos(n * math.acos(x))) <= 1e-12

    def test_array_input(self):
        x = np.linspace(-3, 3, 41)
        direct = 4 * x**3 - 3 * x
        assert np.max(np.abs(cheb_T(3, x) - direct)) < 1e-11

    def test_nan_gives_nan(self):
        # every x that none of the three forms takes must come out NaN, not whatever
        # the output buffer held
        out = cheb_T(3, [math.nan] * 8 + [0.5])
        assert np.isnan(out[:8]).all() and out[8] == cheb_T(3, 0.5)
        assert math.isnan(cheb_T(4, math.nan))

    def test_nan_leaves_the_other_values_alone(self):
        x = np.linspace(-3, 3, 61)
        mixed = x.copy()
        mixed[::4] = np.nan
        for n in (0, 1, 5, 12):
            out = cheb_T(n, mixed)
            assert np.isnan(out[::4]).all()
            keep = ~np.isnan(mixed)
            assert np.array_equal(out[keep], cheb_T(n, x[keep]))


class TestRealPolynomial:
    def test_constant_eval(self):
        p = RealPolynomial([2.0])
        assert p(123.4 + 5j) == 2.0

    def test_identity_at_i(self):
        p = RealPolynomial([0.0, 1.0])
        assert p(1j) == 1j

    def test_square_binomial(self):
        p = RealPolynomial([1.0, 2.0, 1.0])  # (1+z)^2
        assert p(1.0) == pytest.approx(4.0)

    def test_zero_normalization(self):
        assert RealPolynomial([0.0, 0.0, 0.0]).degree == -1
        assert RealPolynomial([]).is_zero

    def test_trailing_trim(self):
        assert RealPolynomial([1.0, 2.0, 0.0]).degree == 1


class TestCircleSamples:
    def test_constant(self):
        vals = np.full(4, math.sqrt(2), dtype=complex)
        p = poly_from_circle_samples(vals, 0)
        assert np.allclose(p.coeffs, [math.sqrt(2)])

    def test_z_squared(self):
        w = np.exp(2j * np.pi * np.arange(8) / 8)
        p = poly_from_circle_samples(w**2, 2)
        assert np.allclose(p.coeffs, [0.0, 0.0, 1.0], atol=1e-14)

    def test_symmetry_violation_raises(self):
        w = np.exp(2j * np.pi * np.arange(8) / 8)
        vals = w**2
        vals[3] += 0.1j
        with pytest.raises(SymmetryViolation):
            poly_from_circle_samples(vals, 2)

    def test_factor_samples_reproduce_hand_expanded_rho(self):
        # cos-plus-cosh block at n=1, m=3, a=1 expands by hand to
        # rho(t) = 2 + 16 t + 48 t^2 + 32 t^3; the recovered degree-3 factor
        # must satisfy |h(e^{i theta})|^2 = rho(t(theta)) pointwise.
        from bszego.weight_models import Family, WeightSpec, build_szego_factor

        spec = WeightSpec(1, 3, 1.0, Family.CosPlusCosh)
        h = build_szego_factor(spec).h
        assert h.degree == 3
        theta = np.linspace(0, np.pi, 64)
        t = np.cos(theta)
        rho = 2 + 16 * t + 48 * t**2 + 32 * t**3
        got = np.abs(h(np.exp(1j * theta))) ** 2
        assert np.max(np.abs(got - rho)) < 1e-10 * np.max(rho)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 64), st.integers(0, 4))
    def test_round_trip_random_coefficients(self, degree, seed):
        rng = np.random.default_rng(1000 * degree + seed)
        coeffs = rng.uniform(-1, 1, degree + 1)
        coeffs[-1] = coeffs[-1] if abs(coeffs[-1]) > 0.1 else 0.5
        n = 1
        while n < 2 * (degree + 1):
            n *= 2
        w = np.exp(2j * np.pi * np.arange(n) / n)
        vals = np.polyval(coeffs[::-1], w)
        p = poly_from_circle_samples(vals, degree)
        assert np.max(np.abs(p.coeffs - coeffs)) <= 1e-10 * np.max(np.abs(coeffs))


class TestRoots:
    def test_quadratic_real(self):
        roots = sorted(poly_roots(RealPolynomial([-1.0, 0.0, 1.0])), key=lambda z: z.real)
        assert abs(roots[0] + 1) < 1e-12 and abs(roots[1] - 1) < 1e-12

    def test_quadratic_imaginary(self):
        roots = sorted(poly_roots(RealPolynomial([1.0, 0.0, 1.0])), key=lambda z: z.imag)
        assert abs(roots[0] + 1j) < 1e-12 and abs(roots[1] - 1j) < 1e-12

    def test_factor_roots_outside_disk_with_newton_refinement(self):
        # Independent cross-check: refine each root by one Newton step and
        # re-measure the modulus.
        from bszego.weight_models import Family, WeightSpec, build_szego_factor

        spec = WeightSpec(3, 5, 2.0, Family.CosPlusCosh)
        h = build_szego_factor(spec).h
        roots = poly_roots(h)
        dh = RealPolynomial(h.coeffs[1:] * np.arange(1, len(h.coeffs)))
        refined = roots - h(roots) / dh(roots)
        assert np.min(np.abs(refined)) >= 1.0 - 1e-8

    @pytest.mark.parametrize("degree", [5, 12, 23, 40])
    def test_reconstruction(self, degree):
        rng = np.random.default_rng(degree)
        coeffs = rng.uniform(-1, 1, degree + 1)
        coeffs[-1] = 1.0
        roots = poly_roots(RealPolynomial(coeffs))
        rebuilt = np.polynomial.polynomial.polyfromroots(roots).real * coeffs[-1]
        assert np.max(np.abs(rebuilt - coeffs)) <= 1e-7 * np.max(np.abs(coeffs))

    def test_residual_contract(self):
        rng = np.random.default_rng(7)
        coeffs = rng.uniform(-1, 1, 21)
        coeffs[-1] = 1.0
        p = RealPolynomial(coeffs)
        roots = poly_roots(p)
        assert len(roots) == 20
        assert np.max(np.abs(p(roots))) <= 1e-8 * np.max(np.abs(coeffs))


def _raw_factor(family, n, m, a):
    """The spectral factor h from the circle samples, without the validation
    of build_szego_factor, so factors that it rejects are included."""
    from bszego.weight_models import (
        Family, WeightSpec, _theta_grid_samples, expected_rho_degree,
    )

    spec = WeightSpec(n, m, a, Family(family))
    deg = expected_rho_degree(spec)
    N = 1
    while N < 2 * (deg + 1):
        N *= 2
    return poly_from_circle_samples(_theta_grid_samples(spec, N), deg)


def _seeded_factor_polys(count=24, seed=7):
    """Spectral factors h of seeded draws over both base families, n + m <= 64,
    a log-uniform in [0.5, 2]."""
    rng = np.random.default_rng(seed)
    polys = []
    while len(polys) < count:
        family = ("cos_plus_cosh", "cosh_minus_cos_over_t")[len(polys) % 2]
        total = int(rng.integers(2, 65))
        n = int(rng.integers(1, total))
        a = float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))
        try:
            h = _raw_factor(family, n, total - n, a)
        except SymmetryViolation:
            continue
        if h.degree >= 1:
            polys.append(pytest.param(h, id=f"{family}-{n}-{total - n}-deg{h.degree}"))
    return polys


def _backward_errors(p, roots):
    """|p(z)| / sum |c_i| |z|^i at each root: the smallest relative change of
    the coefficients that makes z an exact root."""
    return np.abs(p(roots)) / RealPolynomial(np.abs(p.coeffs))(np.abs(roots))


def _spread_polys(count=60, seed=11):
    """Random polynomials of degree 1..63 whose coefficients spread over six
    decades; on these plain companion eigenvalues reach a backward error of
    up to about 3e4 eps, so the bound below needs the Newton polish."""
    rng = np.random.default_rng(seed)
    polys = []
    for _ in range(count):
        d = int(rng.integers(1, 64))
        polys.append(RealPolynomial(rng.standard_normal(d + 1) * 10.0 ** rng.uniform(-3, 3, d + 1)))
    return polys


EPS = np.finfo(float).eps


class TestRootsBackwardError:
    """Every root is an exact root of p with coefficients changed by at most
    (d + 1) eps relative, the rounding level of one Horner pass."""

    @pytest.mark.parametrize("h", _seeded_factor_polys())
    def test_seeded_factors(self, h):
        assert np.max(_backward_errors(h, poly_roots(h))) <= (h.degree + 1) * EPS

    def test_random_polynomials(self):
        for p in _spread_polys():
            assert np.max(_backward_errors(p, poly_roots(p))) <= (p.degree + 1) * EPS

    def test_polish_never_worse_than_eigenvalues(self):
        for p in _spread_polys() + [h.values[0] for h in _seeded_factor_polys()]:
            eig = np.roots(p.coeffs[::-1]).astype(complex)
            assert np.all(_backward_errors(p, poly_roots(p)) <= _backward_errors(p, eig))


class TestRootsDistinct:
    """From eigenvalues in a tight cluster a Newton step can land on a
    neighbour's root. Such a step is not taken, so no root is lost to a
    duplicate of another (plain Newton returns 2, 2 and 4 duplicates here)."""

    @pytest.mark.parametrize("family, n, m, a", [
        ("cos_plus_cosh", 38, 4, 1.227026336634172),
        ("cosh_minus_cos_over_t", 46, 9, 1.9283496720119073),
        ("cos_plus_cosh", 3, 51, 0.6618127002082987),
    ])
    def test_no_two_roots_collapse(self, family, n, m, a):
        h = _raw_factor(family, n, m, a)
        roots = poly_roots(h)
        gap = np.abs(roots[:, None] - roots[None, :])
        np.fill_diagonal(gap, np.inf)
        assert np.all(np.min(gap, axis=1) > 1e-7 * np.abs(roots))


class TestRootsBitIdentity:
    """Exact operations on p leave its roots unchanged bit for bit: a factor
    z^k is deflated exactly, and scaling by a power of two leaves the
    companion matrix and every Newton quotient as they were."""

    @pytest.mark.parametrize("h", _seeded_factor_polys())
    def test_seeded_factors(self, h):
        roots = poly_roots(h)
        for k in (-40, 40):
            assert np.array_equal(poly_roots(RealPolynomial(np.ldexp(h.coeffs, k))), roots)

    def test_zero_root_deflation(self):
        rng = np.random.default_rng(3)
        q = rng.uniform(-1, 1, 12)
        roots = poly_roots(RealPolynomial(np.concatenate([[0.0, 0.0, 0.0], q])))
        assert np.array_equal(roots, np.concatenate([np.zeros(3), poly_roots(RealPolynomial(q))]))
        assert np.array_equal(poly_roots(RealPolynomial([0.0, 0.0, 2.0])), np.zeros(2))


class TestRootsAgainstMpmath:
    """The roots of validated factors agree with 40-digit roots of the same
    float64 coefficients."""

    @pytest.mark.parametrize("spec", [
        (3, 5, 2.0, "cos_plus_cosh"),
        (7, 9, 1.0, "cos_plus_cosh"),
        (15, 17, 1.0, "cos_plus_cosh"),
        (12, 11, 0.5, "cosh_minus_cos_over_t"),
    ], ids=str)
    def test_factor_roots(self, spec):
        mpmath = pytest.importorskip("mpmath")
        from bszego.weight_models import Family, WeightSpec, build_szego_factor

        n, m, a, family = spec
        h = build_szego_factor(WeightSpec(n, m, a, Family(family))).h
        with mpmath.workdps(40):
            exact = mpmath.polyroots([mpmath.mpf(c) for c in h.coeffs[::-1]],
                                     maxsteps=400, extraprec=300)
            exact = np.array([complex(z) for z in exact])
        roots = poly_roots(h)
        assert len(roots) == len(exact) == h.degree
        gap = np.abs(roots[:, None] - exact[None, :])
        assert np.max(np.min(gap, axis=1) / np.abs(roots)) <= 1e-11
        assert np.max(np.min(gap, axis=0) / np.abs(exact)) <= 1e-11


class TestRootsExtreme:
    """Roots 400 and 300 decades apart come out exact."""

    @pytest.mark.parametrize("coeffs, expected", [
        ([1.0, 1e200, 1.0], [-1e-200, -1e200]),
        ([1.0, 1.0, 1e-300], [-1.0, -1e300]),
    ])
    def test_exact_roots(self, coeffs, expected):
        with np.errstate(over="ignore"):  # sum |c_i| |z|^i overflows at the large root
            roots = poly_roots(RealPolynomial(coeffs))
        roots = roots[np.argsort(np.abs(roots))]
        assert np.all(roots.imag == 0)
        assert np.allclose(roots.real, expected, rtol=4 * EPS, atol=0)


class TestRootsNonFinite:
    """A coefficient that overflowed to +-inf, or a NaN, raises NoConvergence
    instead of giving roots (np.roots would return finite ones for an
    infinite leading coefficient)."""

    @pytest.mark.parametrize("coeffs", [[1.0, np.inf, 1.0], [1.0, 1.0, -np.inf]])
    def test_overflow_raises(self, coeffs):
        with pytest.raises(NoConvergence, match="non-finite"):
            poly_roots(RealPolynomial(coeffs))

    def test_nan_raises(self):
        with pytest.raises(NoConvergence, match="non-finite"):
            poly_roots(RealPolynomial([np.nan, 1.0, 1.0]))

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bszego.errors import SymmetryViolation
from bszego.poly_core import (
    RealPolynomial,
    cheb_T,
    cheb_U,
    poly_from_circle_samples,
    poly_roots,
)


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


class TestChebU:
    def test_degree_zero(self):
        assert cheb_U(0, 0.2) == 1.0

    def test_linear(self):
        assert cheb_U(1, 0.5) == pytest.approx(1.0, abs=1e-14)

    def test_at_one(self):
        assert cheb_U(4, 1.0) == pytest.approx(5.0, abs=1e-12)

    def test_near_edges_stable(self):
        for x in (1.0 - 1e-9, -1.0 + 1e-9, 1.0, -1.0):
            # recurrence reference
            pm1, p = 1.0, 2.0 * x
            for _ in range(6 - 1):
                pm1, p = p, 2.0 * x * p - pm1
            assert cheb_U(6, x) == pytest.approx(p, rel=1e-10)


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

    def test_arithmetic(self):
        p = RealPolynomial([1.0, 1.0])
        q = RealPolynomial([-1.0, 1.0])
        assert np.allclose((p * q).coeffs, [-1.0, 0.0, 1.0])
        assert np.allclose((p + q).coeffs, [0.0, 2.0])
        assert (p - p).is_zero

    def test_derivative(self):
        p = RealPolynomial([5.0, 0.0, 3.0])
        assert np.allclose(p.derivative().coeffs, [0.0, 6.0])


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
        dh = h.derivative()
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

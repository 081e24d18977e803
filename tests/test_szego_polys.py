import math

import numpy as np
import pytest

from bszego import szego_polys
from bszego.errors import BszegoError, DegreeThreshold, DomainError, ParityError
from bszego.poly_core import ChebSeries, RealPolynomial
from bszego.quadrature import oracle_moments, weighted_oracle_integral
from bszego.szego_polys import (
    OrthoPoly,
    explicit_eval,
    explicit_family,
    kernel_eval,
    szego_orthonormal,
)
from bszego.weight_models import (
    Family,
    MeasureFactor,
    SzegoFactor,
    WeightSpec,
    _validate_factor,
    build_szego_factor,
    expected_rho_degree,
    rho_eval,
    szego_h0,
    xi_eta_eval,
)


def spec_cpc(n, m, a, mf=MeasureFactor.InvSqrtBoth):
    return WeightSpec(n, m, a, Family.CosPlusCosh, mf)


class TestSzegoConstruction:
    def test_simplest_degree_one(self):
        factor = build_szego_factor(spec_cpc(1, 1, 1.0))
        p = szego_orthonormal(factor, 1, MeasureFactor.InvSqrtBoth)
        assert np.allclose(p.poly.coeffs, [0.0, 2.0 / math.sqrt(math.pi)], atol=1e-14)

    @pytest.mark.parametrize("n, m, a, ratio_tol", [
        (3, 5, 1.0, 1e-10), (3, 5, 3.0, 1e-10), (1, 3, 0.5, 1e-10), (5, 7, 2.0, 1e-10),
        (1, 1, 1.0, 1e-14), (3, 5, 0.7, 1e-14), (7, 9, 2.0, 1e-14),
    ])
    def test_matches_explicit_family(self, n, m, a, ratio_tol):
        spec = spec_cpc(n, m, a)
        factor = build_szego_factor(spec)
        k = (n + m) // 2
        p = szego_orthonormal(factor, k, MeasureFactor.InvSqrtBoth)
        q = explicit_family(spec)
        assert p.degree == q.degree == k
        scale = np.max(np.abs(q.poly.coeffs))
        assert np.max(np.abs(p.poly.coeffs - q.poly.coeffs)) < 1e-10 * scale
        # kappa_{k+1}/kappa_k = 4/(1+a), kappa_k from the closed form and kappa_{k+1} from h(0)
        p1 = szego_orthonormal(factor, k + 1, MeasureFactor.InvSqrtBoth)
        ratio = p1.leading_coeff / q.leading_coeff
        assert ratio == pytest.approx(4.0 / (1.0 + a), rel=ratio_tol)
        # kappa_k and kappa_{k+1} both from h(0) would give 4/(1+a) for any h, so a wrong
        # h(0) must move the ratio
        c = factor.h.coeffs.copy()
        c[0] *= 1.0 + 1e-8
        off = SzegoFactor(spec, RealPolynomial(c), factor.relative_residual)
        moved = szego_orthonormal(off, k + 1, MeasureFactor.InvSqrtBoth).leading_coeff
        assert abs(moved / q.leading_coeff - ratio) >= 1e-9

    @pytest.mark.parametrize("spec, k", [
        (spec_cpc(3, 5, 2.0), 4),
        (spec_cpc(3, 5, 2.0, MeasureFactor.SqrtBoth), 2),
        (spec_cpc(1, 1, 1.0, MeasureFactor.SqrtBoth), 0),
        (spec_cpc(3, 5, 0.7, MeasureFactor.SqrtRatio), 3),
        (spec_cpc(1, 1, 1.0, MeasureFactor.SqrtRatio), 0),
    ], ids=["inv_sqrt_both", "sqrt_both", "sqrt_both-k0", "sqrt_ratio", "sqrt_ratio-k0"])
    def test_top_coefficient_from_h0(self, spec, k):
        # only h(0) reaches T_k: c_k is h(0) times the recipe's constant, times 2, the
        # T_k coefficient of U_k and W_k, for k >= 1
        factor = build_szego_factor(spec)
        p = szego_orthonormal(factor, k, spec.measure_factor)
        s, const = szego_polys._RECIPE[spec.measure_factor]
        assert p.poly.coeffs[-1] == const(spec.a) * (2.0 if s and k else 1.0) * factor.h.coeffs[0]

    def test_next_degree_closed_form(self):
        # p_{k+1} = (2/sqrt pi) { t eta - sqrt(1-t^2) xi } at a = 1
        spec = spec_cpc(3, 5, 1.0)
        factor = build_szego_factor(spec)
        p = szego_orthonormal(factor, 5, MeasureFactor.InvSqrtBoth)
        t = np.linspace(-0.999, 0.999, 50)
        xi, eta = xi_eta_eval(spec, t)
        expected = 2.0 / math.sqrt(math.pi) * (t * eta - np.sqrt(1 - t * t) * xi)
        # normalization fixes the polynomial only up to a global sign
        sign = 1.0 if np.dot(expected, p.poly(t)) >= 0 else -1.0
        assert np.max(np.abs(p.poly(t) - sign * expected)) < 1e-9

    def test_degree_threshold(self):
        factor = build_szego_factor(spec_cpc(3, 5, 1.0))
        with pytest.raises(DegreeThreshold):
            szego_orthonormal(factor, 2, MeasureFactor.InvSqrtBoth)  # l = 5 >= 4
        # l = 5 < 2*2+2 is also false at k=1 for the sqrt-both measure
        with pytest.raises(DegreeThreshold):
            szego_orthonormal(factor, 1, MeasureFactor.SqrtBoth)

    @pytest.mark.parametrize(
        "spec,k,mf",
        [
            (spec_cpc(3, 5, 1.0), 4, MeasureFactor.InvSqrtBoth),
            (spec_cpc(3, 5, 1.0), 5, MeasureFactor.InvSqrtBoth),
            (spec_cpc(3, 3, 2.0), 3, MeasureFactor.InvSqrtBoth),
            (spec_cpc(2, 4, 0.5), 3, MeasureFactor.InvSqrtBoth),
            (spec_cpc(2, 4, 0.5), 2, MeasureFactor.SqrtBoth),
            (spec_cpc(2, 3, 1.5), 2, MeasureFactor.SqrtRatio),
            (spec_cpc(4, 1, 1.0), 2, MeasureFactor.SqrtRatio),
        ],
    )
    def test_orthonormality_by_oracle(self, spec, k, mf):
        factor = build_szego_factor(spec)
        p = szego_orthonormal(factor, k, mf)
        wspec = spec.with_measure(mf)
        norm = weighted_oracle_integral(wspec, lambda t: p.poly(t) ** 2)
        assert norm == pytest.approx(1.0, abs=1e-7)
        powers = np.arange(k)

        def moments(t):
            return p.poly(t)[:, None] * np.asarray(t)[:, None] ** powers[None, :]

        vals = weighted_oracle_integral(wspec, moments)
        assert np.max(np.abs(vals)) < 1e-8

    def test_quotient_family_two_construction_routes(self):
        # cosh-minus-cos factor recipe at k = (m+n-1)/2 must reproduce the
        # closed form with known roots (up to the sign normalization)
        for n, m, a in [(3, 2, 1.0), (2, 3, 0.5), (5, 4, 2.0)]:
            spec = WeightSpec(n, m, a, Family.CoshMinusCosOverT, MeasureFactor.InvSqrtBoth)
            factor = build_szego_factor(spec)
            p = szego_orthonormal(factor, (n + m - 1) // 2, MeasureFactor.InvSqrtBoth)
            q = explicit_family(spec)
            scale = np.max(np.abs(q.poly.coeffs))
            assert np.max(np.abs(p.poly.coeffs - q.poly.coeffs)) < 1e-9 * scale

    def test_even_even_sqrt_both_two_construction_routes(self):
        spec = WeightSpec(2, 4, 0.5, Family.CosPlusCosh, MeasureFactor.SqrtBoth)
        factor = build_szego_factor(spec)
        p = szego_orthonormal(factor, 2, MeasureFactor.SqrtBoth)
        q = explicit_family(spec)
        scale = np.max(np.abs(q.poly.coeffs))
        assert np.max(np.abs(p.poly.coeffs - q.poly.coeffs)) < 1e-9 * scale

    def test_squared_family_two_construction_routes(self):
        # the squared family's factor is h^2, h the base family's
        h = build_szego_factor(WeightSpec(2, 3, 1.0)).h
        spec = WeightSpec(2, 3, 1.0, Family.SquaredCosPlusCosh, MeasureFactor.SqrtBoth)
        h2 = RealPolynomial(np.convolve(h.coeffs, h.coeffs))
        sq = SzegoFactor(spec, h2, _validate_factor(spec, h2))
        p = szego_orthonormal(sq, 4, MeasureFactor.SqrtBoth)
        q = explicit_family(spec)
        scale = np.max(np.abs(q.poly.coeffs))
        assert np.max(np.abs(p.poly.coeffs - q.poly.coeffs)) < 1e-9 * scale

    def test_opposite_parity_sqrt_ratio_closed_form(self):
        # For even n, odd m the degree-(m+n-1)/2 polynomial under
        # sqrt((1-t)/(a+t))/rho is (2/sqrt pi) eta_a / sqrt(1-t).
        spec = spec_cpc(2, 3, 1.5)
        factor = build_szego_factor(spec)
        p = szego_orthonormal(factor, 2, MeasureFactor.SqrtRatio)
        t = np.linspace(-1.45, 0.95, 40)
        eta = xi_eta_eval(spec, t)[1]
        expected = 2.0 / math.sqrt(math.pi) * eta / np.sqrt(1 - t)
        sign = np.sign(expected[np.argmax(np.abs(expected))] * p.poly(t)[np.argmax(np.abs(expected))])
        assert np.max(np.abs(p.poly(t) - sign * expected)) < 1e-10


class TestExplicitFamilies:
    def test_simplest(self):
        p = explicit_family(spec_cpc(1, 1, 1.0))
        assert p.degree == 1
        assert p.known_roots == (0.0,)

    def test_odd_odd_roots(self):
        p = explicit_family(spec_cpc(3, 5, 2.0))
        assert p.degree == 4
        expected = sorted(
            [0.0, math.sin(math.pi / 3) ** 2,
             -2 * math.sin(math.pi / 5) ** 2, -2 * math.sin(2 * math.pi / 5) ** 2]
        )
        assert np.allclose(sorted(p.known_roots), expected, atol=1e-15)

    def test_squared_family_roots(self):
        p = explicit_family(
            WeightSpec(2, 3, 1.0, Family.SquaredCosPlusCosh, MeasureFactor.SqrtBoth)
        )
        assert p.degree == 4
        expected = sorted(
            [0.0, math.sin(math.pi / 4) ** 2,
             -math.sin(math.pi / 6) ** 2, -math.sin(math.pi / 3) ** 2]
        )
        assert np.allclose(sorted(p.known_roots), expected, atol=1e-15)

    def test_degree_zero(self):
        # M = m + m' = 2 leaves no root: the polynomial is the constant 4/a sqrt(2/pi)
        spec = WeightSpec(1, 1, 2.0, Family.ProductCoshMinusCos, MeasureFactor.SqrtBoth,
                          m_prime=1)
        p = explicit_family(spec)
        assert p.degree == 0 and p.known_roots == ()
        (constant,) = p.poly.coeffs
        # c_0 = const(a) h(0), where each quotient block has h(0)^2 = 2(1+a)/a = 3
        assert szego_h0(spec) == pytest.approx(3.0, rel=1e-15)
        assert constant == szego_polys._RECIPE[MeasureFactor.SqrtBoth][1](2.0) * szego_h0(spec)
        assert constant == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-14)

    def test_wrong_claimed_root_rejected(self):
        spec = spec_cpc(3, 5, 2.0)
        p = explicit_family(spec)
        roots = list(p.known_roots)
        OrthoPoly(p.poly, spec, known_roots=tuple(roots))
        roots[1] += 1e-3
        with pytest.raises(ValueError, match="claimed root"):
            OrthoPoly(p.poly, spec, known_roots=tuple(roots))

    @pytest.mark.parametrize("spec", [
        WeightSpec(22, 41, 1e-8, Family.SquaredCosPlusCosh, MeasureFactor.SqrtBoth),
        WeightSpec(7, 57, 1e-8, Family.ProductCosPlusCosh, MeasureFactor.SqrtBoth, 57),
        WeightSpec(40, 2, 1e8, Family.MixedPlusMinus, MeasureFactor.SqrtRatio, 2),
    ], ids=["squared", "product", "mixed"])
    def test_lead_outside_the_floats_is_rejected(self, spec):
        # h(0) or the lead overflows, so no series holds the polynomial: its coefficients
        # would be NaN and its lead infinite
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="finite"):
            explicit_family(spec)

    def test_non_finite_series_rejected(self):
        spec = spec_cpc(1, 1, 1.0)
        for coeffs in ([math.nan, 1.0], [0.0, math.inf]):
            with pytest.raises(ValueError, match="finite"):
                OrthoPoly(ChebSeries(coeffs, 1.0), spec)

    def test_claimed_root_outside_the_interval_rejected(self):
        # t - 1.5 vanishes at its claimed root, which lies beyond t = 1
        spec = spec_cpc(1, 1, 1.0)
        OrthoPoly(ChebSeries([-0.5, 1.0], 1.0), spec, known_roots=(0.5,))
        with pytest.raises(ValueError, match="outside"):
            OrthoPoly(ChebSeries([-1.5, 1.0], 1.0), spec, known_roots=(1.5,))

    @pytest.mark.parametrize("spec, degree", [
        (spec_cpc(31, 33, 2.0), 32),
        (WeightSpec(31, 33, 2.0, Family.SquaredCosPlusCosh, MeasureFactor.SqrtBoth), 63),
        (WeightSpec(31, 32, 2.0, Family.CoshMinusCosOverT), 31),
    ], ids=["cos_plus_cosh", "squared_cos_plus_cosh", "cosh_minus_cos_over_t"])
    def test_high_degree_with_roots_beyond_one_builds(self, spec, degree):
        # roots reach t = -a = -2, where the terms c_i r^i that cancel in
        # p(r) are far larger than max|c|; the claimed roots are right
        p = explicit_family(spec)
        assert p.degree == len(p.known_roots) == degree
        t = np.linspace(-1.9, 0.95, 7)
        prod = np.prod(t[:, None] - np.asarray(p.known_roots), axis=1)
        assert np.allclose(np.abs(explicit_eval(spec, t) / prod), p.leading_coeff, rtol=1e-9)
        # the stored series reproduces the closed form on all of [-a, 1], to
        # rounding relative to its maximum (near t = -a for these weights)
        t = np.linspace(-spec.a, 1.0, 301)[1:-1]
        direct = explicit_eval(spec, t)
        sign = 1.0 if np.dot(direct, p(t)) >= 0 else -1.0
        assert np.max(np.abs(p(t) - sign * direct)) <= 1e-10 * np.max(np.abs(direct))
        roots = list(p.known_roots)
        roots[len(roots) // 2] += 1e-6
        with pytest.raises(ValueError, match="claimed root"):
            OrthoPoly(p.poly, spec, known_roots=tuple(roots))

    def test_sign_from_the_closed_form_not_the_fit(self):
        # c_k is 1e-16 of sum |c_j| here, so the fitted c_k has a random sign;
        # flipping the series by it broke the product-form check
        spec = spec_cpc(63, 1, 1.7998632277027276)
        p = explicit_family(spec)
        assert p.degree == 32 and p.leading_coeff > 0
        generic = szego_orthonormal(build_szego_factor(spec), 32, MeasureFactor.InvSqrtBoth)
        scale = np.max(np.abs(p.poly.coeffs))
        assert np.max(np.abs(generic.poly.coeffs - p.poly.coeffs)) <= 1e-12 * scale

    def test_parity_errors(self):
        with pytest.raises(ParityError):
            explicit_family(spec_cpc(2, 3, 1.0))
        with pytest.raises(ParityError):
            explicit_family(
                WeightSpec(3, 3, 1.0, Family.CosPlusCosh, MeasureFactor.SqrtBoth)
            )

    @pytest.mark.parametrize("n, m", [(3, 5), (2, 4), (1, 1)])
    def test_quotient_family_needs_opposite_parity(self, n, m):
        # at (3, 5, 1) the roots for odd n would give a polynomial 0.86 off
        # the orthonormal one (relative, in the coefficients)
        with pytest.raises(ParityError):
            explicit_family(WeightSpec(n, m, 1.0, Family.CoshMinusCosOverT))

    @pytest.mark.parametrize(
        "spec",
        [
            spec_cpc(3, 5, 2.0),
            spec_cpc(1, 3, 0.5),
            spec_cpc(2, 4, 1.0),
            spec_cpc(2, 2, 2.0),
            WeightSpec(4, 2, 1.5, Family.CosPlusCosh, MeasureFactor.SqrtBoth),
            WeightSpec(2, 3, 1.0, Family.SquaredCosPlusCosh, MeasureFactor.SqrtBoth),
            WeightSpec(3, 2, 1.0, Family.CoshMinusCosOverT, MeasureFactor.InvSqrtBoth),
            WeightSpec(2, 3, 0.5, Family.CoshMinusCosOverT, MeasureFactor.InvSqrtBoth),
            WeightSpec(2, 1, 1.0, Family.ProductCosPlusCosh, MeasureFactor.SqrtBoth, m_prime=1),
            WeightSpec(3, 3, 2.0, Family.ProductCosPlusCosh, MeasureFactor.SqrtBoth, m_prime=1),
            WeightSpec(3, 2, 1.0, Family.ProductCoshMinusCos, MeasureFactor.SqrtBoth, m_prime=2),
            WeightSpec(2, 2, 1.0, Family.MixedPlusMinus, MeasureFactor.SqrtRatio, m_prime=2),
            WeightSpec(3, 1, 2.0, Family.MixedPlusMinus, MeasureFactor.SqrtRatio, m_prime=3),
        ],
    )
    def test_orthonormal_and_consistent(self, spec):
        p = explicit_family(spec)
        # polynomial reconstruction agrees with the transcendental closed form
        t = np.linspace(-spec.a + 1e-3, 1 - 1e-3, 37)
        direct = explicit_eval(spec, t)
        sign = 1.0 if np.dot(direct, p.poly(t)) >= 0 else -1.0
        assert np.max(np.abs(p.poly(t) - sign * direct)) < 1e-8 * max(1.0, np.max(np.abs(direct)))
        # orthonormal under the family weight
        norm = weighted_oracle_integral(spec, lambda tt: p.poly(tt) ** 2)
        assert norm == pytest.approx(1.0, abs=1e-7)
        powers = np.arange(p.degree)
        if p.degree:
            vals = weighted_oracle_integral(
                spec,
                lambda tt: p.poly(tt)[:, None] * np.asarray(tt)[:, None] ** powers[None, :],
            )
            assert np.max(np.abs(vals)) < 1e-8


_ONE_PER_FAMILY = [
    spec_cpc(3, 5, 0.7),
    spec_cpc(4, 6, 0.7, MeasureFactor.SqrtBoth),
    WeightSpec(2, 3, 0.7, Family.SquaredCosPlusCosh, MeasureFactor.SqrtBoth),
    WeightSpec(3, 4, 1.0, Family.CoshMinusCosOverT),
    WeightSpec(2, 3, 0.7, Family.ProductCosPlusCosh, MeasureFactor.SqrtBoth, 5),
    WeightSpec(2, 3, 0.7, Family.ProductCoshMinusCos, MeasureFactor.SqrtBoth, 5),
    WeightSpec(2, 3, 0.7, Family.MixedPlusMinus, MeasureFactor.SqrtRatio, 5),
]


class TestExplicitEvalDomain:
    @pytest.mark.parametrize("spec", _ONE_PER_FAMILY, ids=lambda s: s.family.value)
    def test_outside_the_interval_raises(self, spec):
        for t in (-spec.a - 0.5, 1.5):
            with pytest.raises(DomainError):
                explicit_eval(spec, t)
            with pytest.raises(DomainError):
                explicit_eval(spec, np.array([0.2, t]))

    @pytest.mark.parametrize("spec", _ONE_PER_FAMILY, ids=lambda s: s.family.value)
    def test_scalar_in_scalar_out(self, spec):
        for t in (-0.4, 0.0, 0.3):
            value = explicit_eval(spec, t)
            assert type(value) is float
            assert value == explicit_eval(spec, np.array([t]))[0]

    @pytest.mark.parametrize("spec", _ONE_PER_FAMILY, ids=lambda s: s.family.value)
    def test_nan_raises(self, spec):
        with pytest.raises(DomainError):
            explicit_eval(spec, math.nan)
        with pytest.raises(DomainError):
            explicit_eval(spec, np.array([0.2, math.nan]))

    def test_quotient_family_angle_is_not_clamped(self):
        # min(-t/a, 1) clamped the angle and gave 10.155 at t = -1.5, outside
        # [-1, 1], where the polynomial has |p(-1.5)| = 71.09
        with pytest.raises(DomainError):
            explicit_eval(WeightSpec(3, 4, 1.0, Family.CoshMinusCosOverT), -1.5)


def _kernel_pair(n, m, a):
    """(p_k, p_{k+1}) of the generic route at k = (n + m)/2, as the kernel suite builds them."""
    factor = build_szego_factor(spec_cpc(n, m, a))
    k = (n + m) // 2
    return tuple(szego_orthonormal(factor, j, MeasureFactor.InvSqrtBoth) for j in (k, k + 1))


def ref_kernel_at_zero(pk, pk1):
    """K_k(., 0) as the kernel suite wrote it inline before `kernel_eval` took it over."""
    a = pk.poly.a
    ratio = pk.leading_coeff / pk1.leading_coeff
    num = pk(0.0) * pk1.poly.coeffs - pk1(0.0) * np.append(pk.poly.coeffs, 0.0)
    quotient = np.polynomial.chebyshev.chebdiv(num, [(1.0 - a) / (1.0 + a), 1.0])[0]
    return ChebSeries(ratio * 2.0 / (1.0 + a) * quotient, a)


# the kernel suite's default cells and two a below 1
_KERNEL_CELLS = [(n, m, a) for n in range(1, 12, 2) for m in range(n, 12, 2) if n + m <= 12
                 for a in (1.0, 2.0)] + [(3, 5, 0.5), (5, 7, 0.73)]


class TestKernel:
    def test_degree_zero_kernel_is_product(self):
        # K_0(t, u) = p_0^2 whatever p_1 is: here T_0 and T_1 scaled on [-1, 1]
        c0 = math.sqrt(2 / math.pi)
        p0 = OrthoPoly(poly=ChebSeries([c0], 1.0), weight=spec_cpc(1, 1, 1.0))
        p1 = OrthoPoly(poly=ChebSeries([0.0, 1.3], 1.0), weight=spec_cpc(1, 1, 1.0))
        for u in (-0.3, 0.0, 0.8):
            K = kernel_eval(p0, p1, u)
            assert K.degree == 0
            assert K(0.4) == pytest.approx(2 / math.pi, rel=1e-14)

    def test_needs_consecutive_degrees(self):
        pk, pk1 = _kernel_pair(3, 5, 1.0)
        with pytest.raises(ValueError):
            kernel_eval(pk1, pk, 0.0)

    @pytest.mark.parametrize("t, u", [(0.3, 0.1), (-0.4, 0.7), (0.9, -0.95)])
    def test_two_point_quotient(self, t, u):
        pk, pk1 = _kernel_pair(1, 1, 1.0)
        ratio = pk.leading_coeff / pk1.leading_coeff
        expected = ratio * (pk1(t) * pk(u) - pk(t) * pk1(u)) / (t - u)
        K = kernel_eval(pk, pk1, u)
        assert K.degree == pk.degree
        assert K(t) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n, m, a", _KERNEL_CELLS)
    def test_symmetric(self, n, m, a):
        pk, pk1 = _kernel_pair(n, m, a)
        pts = np.linspace(-a, 1.0, 9)
        K = np.array([kernel_eval(pk, pk1, u)(pts) for u in pts])  # K[i, j] = K_k(t_j, u_i)
        assert np.max(np.abs(K - K.T)) <= 1e-13 * np.max(np.abs(K))

    @pytest.mark.parametrize("n, m, a", _KERNEL_CELLS)
    def test_confluent_limit(self, n, m, a):
        # K_k(t, t) = (kappa_k/kappa_{k+1}) (p'_{k+1}(t) p_k(t) - p'_k(t) p_{k+1}(t))
        pk, pk1 = _kernel_pair(n, m, a)
        cheb = np.polynomial.chebyshev
        pts = np.linspace(-a, 1.0, 7)
        x = (2.0 * pts + a - 1.0) / (1.0 + a)

        def deriv(p):
            return cheb.chebval(x, cheb.chebder(p.poly.coeffs)) * (2.0 / (1.0 + a))

        ratio = pk.leading_coeff / pk1.leading_coeff
        want = ratio * (deriv(pk1) * pk(pts) - deriv(pk) * pk1(pts))
        got = np.array([kernel_eval(pk, pk1, t)(t) for t in pts])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_matches_direct_sum(self):
        # K_5(t, u) = sum_{j <= 5} p_j(t) p_j(u), with p_0..p_5 from the Cholesky factor
        # of the oracle's Gram matrix of 1, t, ..., t^5; the generic route has no p_j below
        # k = 3 at (3, 5)
        spec = spec_cpc(3, 5, 1.0)
        factor = build_szego_factor(spec)
        p5, p6 = (szego_orthonormal(factor, k, MeasureFactor.InvSqrtBoth) for k in (5, 6))
        mu = oracle_moments(spec, 12)
        G = np.array([[mu[i + j] for j in range(6)] for i in range(6)])
        inv = np.linalg.inv(np.linalg.cholesky(G))
        t, u = 0.4, -0.2
        direct = float((inv @ t ** np.arange(6)) @ (inv @ u ** np.arange(6)))
        assert kernel_eval(p5, p6, u)(t) == pytest.approx(direct, rel=1e-8)

    @pytest.mark.parametrize("n, m, a", _KERNEL_CELLS)
    def test_at_zero_is_the_suite_series(self, n, m, a):
        pk, pk1 = _kernel_pair(n, m, a)
        assert np.array_equal(kernel_eval(pk, pk1, 0.0).coeffs,
                              ref_kernel_at_zero(pk, pk1).coeffs)

    def test_kernel_at_origin_simplification(self):
        # with p_k(0) = 0:  K_k(t, 0) = -(kappa_k/kappa_{k+1}) p_{k+1}(0) p_k(t)/t
        pk, pk1 = _kernel_pair(1, 1, 1.0)
        ratio = pk.leading_coeff / pk1.leading_coeff
        K = kernel_eval(pk, pk1, 0.0)
        for t in (0.7, -0.4, 0.05):
            assert K(t) == pytest.approx(-ratio * pk1(0.0) * pk(t) / t, rel=1e-11)

    def test_reproducing_property(self):
        # int K_k(t, 0) dmu = 1 for n=3, m=5, a=1
        pk, pk1 = _kernel_pair(3, 5, 1.0)
        val = weighted_oracle_integral(spec_cpc(3, 5, 1.0), kernel_eval(pk, pk1, 0.0))
        assert val == pytest.approx(1.0, abs=1e-7)


class TestInterlacing:
    def test_consecutive_roots_interlace(self):
        for a in (1.0, 2.0):  # at a = 1 the map from x to t is the identity
            factor = build_szego_factor(spec_cpc(3, 5, a))
            r4, r5 = (self._roots(factor, k, a) for k in (4, 5))
            assert -a < r5[0] and r5[-1] < 1.0
            for i in range(4):
                assert r5[i] < r4[i] < r5[i + 1]

    @staticmethod
    def _roots(factor, k, a):
        p = szego_orthonormal(factor, k, MeasureFactor.InvSqrtBoth)
        x = np.polynomial.chebyshev.chebroots(p.poly.coeffs)
        assert np.max(np.abs(x.imag)) < 1e-9
        return np.sort(0.5 * ((1.0 - a) + (1.0 + a) * x.real))


class TestMomentStatements:
    def test_inverse_power_row(self):
        # int eta/(t rho) dt/sqrt((1-t)(1+t/a)) = pi/2 for odd n, m; the
        # stated measure is sqrt(a) times the orthonormality measure
        # dt/sqrt((1-t)(a+t)).
        spec = spec_cpc(3, 5, 2.0)

        def f(t):
            t = np.asarray(t)
            out = np.empty_like(t)
            small = np.abs(t) < 1e-6
            eta = xi_eta_eval(spec, t[~small])[1]
            out[~small] = eta / t[~small]
            c = spec.n * spec.m / math.sqrt(spec.a)
            slope = (1 - spec.n**2) / 6.0 + (spec.m**2 - 1) / (6.0 * spec.a)
            out[small] = c * (1.0 + slope * t[small])
            return out

        val = math.sqrt(spec.a) * weighted_oracle_integral(spec, f)
        assert val == pytest.approx(math.pi / 2, abs=1e-8)


class TestChebyshevToPower:
    """ChebSeries against numpy's Chebyshev on [-a, 1] and its conversion to powers of t."""

    @pytest.mark.parametrize("k", range(34))
    def test_bit_identical_to_numpy_convert(self, k):
        rng = np.random.default_rng(100 + k)
        for a in (0.5, 1.0, 2.0, float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))):
            c = rng.standard_normal(k + 1) * 10.0 ** rng.uniform(-6, 6, k + 1)
            if k >= 4:
                c[-2] = 0.0  # an exact zero inside the recurrence
            p = ChebSeries(c, a)
            # beyond [-a, 1] too: matched-measure densities evaluate on all of R
            t = np.linspace(-a - 3.0, 4.0, 41)
            x = t * (2.0 / (1.0 + a)) + (a - 1.0) / (1.0 + a)
            assert np.array_equal(p(t), np.polynomial.chebyshev.chebval(x, c))
            reference = np.polynomial.Chebyshev(c, domain=[-a, 1.0])
            power = reference.convert(kind=np.polynomial.Polynomial).coef
            assert p.degree == len(power) - 1 == k
            assert p.leading == pytest.approx(power[-1], rel=1e-13)

    def test_trailing_zeros_trimmed_like_numpy(self):
        # numpy's conversion drops exact trailing zeros; the series keeps every
        # coefficient, and its leading term is the power coefficient of its degree
        for c in ([0.0], [-0.0], [1.5, 0.0], [2.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0]):
            c = np.asarray(c)
            p = ChebSeries(c, 0.7)
            power = np.polynomial.Chebyshev(c, domain=[-0.7, 1.0]).convert(
                kind=np.polynomial.Polynomial).coef
            padded = np.zeros(len(c))
            padded[: len(power)] = power
            assert p.coeffs.tobytes() == c.tobytes() and p.degree == len(c) - 1
            assert p.leading == padded[-1]
            t = np.linspace(-0.7, 1.0, 9)
            assert np.allclose(p(t), np.polynomial.polynomial.polyval(t, padded), rtol=0, atol=1e-15)


def _uncached_interpolant(k, a, f):
    """`_chebyshev_interpolant` with its points and matrix built on every call."""
    x = np.cos(np.pi * (2.0 * np.arange(k + 1) + 1.0) / (2.0 * (k + 1)))
    t = 0.5 * ((1.0 - a) + (1.0 + a) * x)
    i = np.arange(k + 1)
    V = np.cos(np.outer(2 * i + 1, i) * (np.pi / (2.0 * (k + 1))))
    c = (2.0 / (k + 1)) * (f(t) @ V)
    c[0] *= 0.5
    return c


class TestChebyshevInterpolant:
    def test_grid_is_cached_read_only(self):
        x, V = szego_polys._cheb_grid(12)
        assert szego_polys._cheb_grid(12)[1] is V
        assert V.shape == (13, 13) and np.max(np.abs(V[:, 1] - x)) <= 1e-15
        for arr in (x, V):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_bit_identical_to_the_uncached_formula(self):
        rng = np.random.default_rng(18)
        for _ in range(120):
            k = int(rng.integers(0, 65))
            a = float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))
            f = ChebSeries(rng.standard_normal(k + 1), a)
            got = szego_polys._chebyshev_interpolant(k, a, f).coeffs
            assert np.array_equal(got, _uncached_interpolant(k, a, f))

    def test_agrees_with_least_squares_fit(self):
        # the transform at the roots of T_{k+1} against numpy's chebfit there
        rng = np.random.default_rng(350)
        for _ in range(350):
            k = int(rng.integers(0, 65))
            a = float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))
            f = ChebSeries(rng.standard_normal(k + 1) * 10.0 ** rng.uniform(-3, 3, k + 1), a)
            x, t = szego_polys._chebyshev_points(k, a)
            got = szego_polys._chebyshev_interpolant(k, a, f).coeffs
            want = np.polynomial.chebyshev.chebfit(x, f(t), k)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.sum(np.abs(want))


_MEASURES = (MeasureFactor.InvSqrtBoth, MeasureFactor.SqrtBoth, MeasureFactor.SqrtRatio)


def _pointwise_recipe(factor, k, mf, t):
    """The recipe evaluated at t through the circle, with h(e^{i theta}) by Horner's rule."""
    s, const = szego_polys._RECIPE[mf]
    a = factor.spec.a
    theta = np.arccos(np.clip((2.0 * t - 1.0 + a) / (1.0 + a), -1.0, 1.0))
    z = np.exp(1j * (k + 0.5 * s) * theta) * np.conj(factor.h(np.exp(1j * theta)))
    if s == 0:
        return const(a) * np.real(z)
    return const(a) * np.imag(z) / np.sin(0.5 * s * theta)


def _lattice_factors():
    """Built factors of a seeded lattice over both base families with n + m <= 64."""
    rng = np.random.default_rng(19)
    factors = []
    for family in (Family.CosPlusCosh, Family.CoshMinusCosOverT):
        for _ in range(40):
            n = int(rng.integers(1, 64))
            m = int(rng.integers(1, 65 - n))
            off_dyadic = np.exp(rng.uniform(math.log(0.5), math.log(2.0)))
            a = float(rng.choice([0.5, 1.0, 2.0, off_dyadic]))
            try:
                factors.append(build_szego_factor(WeightSpec(n, m, a, family)))
            except BszegoError:  # off-dyadic a (ROADMAP item 5)
                continue
    return factors


class TestRecipeSeries:
    """`szego_orthonormal` reads its Chebyshev series off h's power coefficients."""

    @pytest.mark.parametrize("k", range(9))
    def test_unit_factor_gives_T_U_W(self, k):
        # h = [1] (rho = 1): the recipes are T_k, U_k = 2(T_k + T_{k-2} + ...) with T_0
        # counted once, and W_k = 2(T_k + ... + T_1) + T_0
        T = np.zeros(k + 1)
        T[k] = 1.0
        U = np.zeros(k + 1)
        U[k::-2] = 2.0
        U[0] *= 0.5
        W = np.full(k + 1, 2.0)
        W[0] = 1.0
        for s, want in ((0, T), (2, U), (1, W)):
            assert np.array_equal(szego_polys._recipe_series(np.array([1.0]), k, s), want)
        theta = np.linspace(0.1, 3.0, 7)
        x = np.cos(theta)
        cheb = np.polynomial.chebyshev.chebval
        assert np.allclose(cheb(x, U), np.sin((k + 1) * theta) / np.sin(theta), atol=1e-13)
        assert np.allclose(cheb(x, W), np.sin((k + 0.5) * theta) / np.sin(0.5 * theta), atol=1e-13)

    def test_agrees_with_the_pointwise_recipe(self):
        # the threshold degree folds the most negative indices k - j; the explicit k and
        # k + 1 are the degrees the suites and perfbench build
        factors = _lattice_factors()
        assert len(factors) >= 50
        for factor in factors:
            spec = factor.spec
            l = expected_rho_degree(spec)
            explicit_k = (spec.n + spec.m - (spec.family is Family.CoshMinusCosOverT)) // 2
            for mf in _MEASURES:
                s = szego_polys._RECIPE[mf][0]
                threshold = max(0, (l - s) // 2 + 1)
                k_top = max(threshold, explicit_k)
                for k in sorted({threshold, k_top, k_top + 1}):
                    got = szego_orthonormal(factor, k, mf).poly.coeffs
                    want = szego_polys._chebyshev_interpolant(
                        k, spec.a, lambda t: _pointwise_recipe(factor, k, mf, t)).coeffs
                    assert np.max(np.abs(got - want)) <= 5e-14 * np.sum(np.abs(want))
                    if k == threshold:
                        with pytest.raises(DegreeThreshold):
                            szego_orthonormal(factor, k - 1, mf)


def _endpoint_specs():
    """Small grids of the families whose polynomial divides by an endpoint root."""
    specs = []
    for a in (0.5, 1.3, 2.0):
        specs += [spec_cpc(n, m, a, MeasureFactor.SqrtBoth) for n, m in ((2, 2), (2, 4), (4, 2))]
        for n, m in ((1, 1), (2, 3), (3, 2)):
            specs.append(WeightSpec(n, m, a, Family.SquaredCosPlusCosh, MeasureFactor.SqrtBoth))
            for family in (Family.ProductCosPlusCosh, Family.ProductCoshMinusCos):
                specs.append(WeightSpec(n, m, a, family, MeasureFactor.SqrtBoth, m + 2))
            specs.append(WeightSpec(n, m, a, Family.MixedPlusMinus, MeasureFactor.SqrtRatio, m + 2))
    return specs


@pytest.mark.parametrize("spec", _endpoint_specs(),
                         ids=lambda s: f"{s.family.value}-{s.n}-{s.m}-{s.a}")
def test_explicit_eval_takes_the_limit_at_an_endpoint_root(spec):
    # sqrt(1 - t) and sqrt(a + t) divide sines that vanish there: the closed form is
    # 0/0 at the end, and must give the polynomial's value, not +-inf
    p = explicit_family(spec)
    scale = np.sum(np.abs(p.poly.coeffs))
    inner = np.linspace(-spec.a, 1.0, 41)[1:-1]
    sign = np.sign(explicit_eval(spec, inner) @ p(inner))  # the closed form's sign
    ends = np.array([-spec.a, 1.0])
    values = explicit_eval(spec, ends)
    assert np.all(np.abs(values - sign * p(ends)) <= 1e-9 * scale), (values, sign * p(ends))
    assert [explicit_eval(spec, t) for t in ends] == values.tolist()


# ---------------------------------------------------------------------------
# the lead in closed form, c_k = const h(0) (times 2 for k >= 1 when s > 0), against the
# closed form's own values over its product form

# the measure of each family's distinguished polynomial
_EXPLICIT_MEASURES = {
    Family.CosPlusCosh: (MeasureFactor.InvSqrtBoth, MeasureFactor.SqrtBoth),
    Family.SquaredCosPlusCosh: (MeasureFactor.SqrtBoth,),
    Family.CoshMinusCosOverT: (MeasureFactor.InvSqrtBoth,),
    Family.ProductCosPlusCosh: (MeasureFactor.SqrtBoth,),
    Family.ProductCoshMinusCos: (MeasureFactor.SqrtBoth,),
    Family.MixedPlusMinus: (MeasureFactor.SqrtRatio,),
}
_EXTREME_A = (1e-8, 1e-4, 1e4, 1e8)


def _explicit_draws(family, a_of, count, seed):
    """count seeded specs of the family with a distinguished polynomial, n + m <= 64 and
    m' <= 65 - n, every third at the cap n + m >= 63; a from a_of(rng)."""
    rng = np.random.default_rng([seed, list(Family).index(family)])
    specs = []
    while len(specs) < count:
        n = int(rng.integers(1, 64))
        if len(specs) % 3:
            m = int(rng.integers(1, 65 - n))
        else:
            m = 64 - n - int(rng.integers(0, 2) if n < 63 else 0)
        m_prime = None
        if family in (Family.ProductCosPlusCosh, Family.ProductCoshMinusCos,
                      Family.MixedPlusMinus):
            m_prime = int(rng.integers(1, 65 - n))
            m_prime += (m + m_prime) % 2
        measures = _EXPLICIT_MEASURES[family]
        spec = WeightSpec(n, m, a_of(rng), family,
                          measures[int(rng.integers(len(measures)))], m_prime)
        try:
            szego_polys._distinguished(spec)
        except ParityError:
            continue
        specs.append(spec)
    return specs


def _product_form_leads(spec, roots):
    """|explicit_eval(t)/prod (t - r)| at the midpoints between adjacent roots (between the
    roots and the ends when there are fewer than two), where it is a normal float:
    away from every root, and from the ends, where asin sqrt near 1 is ill-conditioned."""
    ends = np.concatenate([[-spec.a], np.sort(roots), [1.0]])
    mids = 0.5 * (ends[:-1] + ends[1:])
    t = mids[1:-1] if len(mids) > 2 else mids
    with np.errstate(all="ignore"):
        values = np.abs(explicit_eval(spec, t))
        product = np.abs(np.prod(t[:, None] - roots, axis=1))
        lead = values / product
    return lead[(lead > 1e-300) & (lead < 1e300)]


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
def test_closed_form_lead_against_the_product_form(family):
    sample = _explicit_draws(family, lambda rng: float(np.exp(rng.uniform(np.log(0.2),
                                                                          np.log(5.0)))), 30, 34)
    extreme = {a: _explicit_draws(family, lambda rng, a=a: a, 8, 35) for a in _EXTREME_A}
    compared = []
    for spec in sample + [spec for specs in extreme.values() for spec in specs]:
        roots = np.asarray(szego_polys._explicit_roots(spec))
        leads = _product_form_leads(spec, roots)
        # c_k is the lead times ((1+a)/2)^k 2^(1-k): a series holds it where that power is
        # a float and the closed form has values to read the lead from
        if not (leads.size and len(roots) * math.log(0.5 * (1.0 + spec.a)) < 700.0):
            continue
        p = explicit_family(spec)
        assert np.max(np.abs(leads / p.leading_coeff - 1.0)) <= 1e-12, spec
        compared.append(spec)
    assert set(sample) <= set(compared)
    assert {spec.a for spec in compared} >= set(_EXTREME_A)


def test_explicit_family_evaluates_no_closed_form(monkeypatch):
    # the lead is read from h(0), not from a probe evaluation of the closed form
    def refuse(*args):
        raise AssertionError("explicit_family evaluated the closed form")

    specs = [spec for family in Family
             for spec in _explicit_draws(family, lambda rng: 1.3, 3, 36)]
    want = [explicit_family(spec).poly.coeffs for spec in specs]
    monkeypatch.setattr(szego_polys, "explicit_eval", refuse)
    monkeypatch.setattr(szego_polys, "continued_block", refuse)
    assert all(np.array_equal(explicit_family(spec).poly.coeffs, w)
               for spec, w in zip(specs, want))

import math

import numpy as np
import pytest

from bszego import szego_polys
from bszego.errors import BszegoError, DegreeThreshold, DomainError, ParityError
from bszego.poly_core import ChebSeries, RealPolynomial
from bszego.quadrature import weighted_oracle_integral
from bszego.szego_polys import (
    OrthoPoly,
    explicit_eval,
    explicit_family,
    kernel_eval,
    leading_ratio_check,
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
    xi_eta_eval,
)


def spec_cpc(n, m, a, mf=MeasureFactor.InvSqrtBoth):
    return WeightSpec(n, m, a, Family.CosPlusCosh, mf)


class TestSzegoConstruction:
    def test_simplest_degree_one(self):
        factor = build_szego_factor(spec_cpc(1, 1, 1.0))
        p = szego_orthonormal(factor, 1, MeasureFactor.InvSqrtBoth)
        assert np.allclose(p.poly.coeffs, [0.0, 2.0 / math.sqrt(math.pi)], atol=1e-14)

    def test_matches_explicit_family(self):
        spec = spec_cpc(3, 5, 1.0)
        factor = build_szego_factor(spec)
        p = szego_orthonormal(factor, 4, MeasureFactor.InvSqrtBoth)
        q = explicit_family(spec)
        assert p.degree == q.degree == 4
        scale = np.max(np.abs(q.poly.coeffs))
        assert np.max(np.abs(p.poly.coeffs - q.poly.coeffs)) < 1e-10 * scale

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
        assert constant == explicit_eval(spec, np.asarray([0.731579]))[0]
        assert constant == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), rel=1e-14)

    def test_wrong_claimed_root_rejected(self):
        spec = spec_cpc(3, 5, 2.0)
        p = explicit_family(spec)
        roots = list(p.known_roots)
        OrthoPoly(p.poly, spec, known_roots=tuple(roots))
        roots[1] += 1e-3
        with pytest.raises(ValueError, match="claimed root"):
            OrthoPoly(p.poly, spec, known_roots=tuple(roots))

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


class TestKernel:
    def test_degree_zero_kernel_is_product(self):
        p0 = OrthoPoly(poly=ChebSeries([math.sqrt(2 / math.pi)], 1.0), weight=spec_cpc(1, 1, 1.0))
        assert kernel_eval([p0], 0.4, -0.3) == pytest.approx(2 / math.pi, rel=1e-14)

    def test_constant_kernel(self):
        factor = build_szego_factor(spec_cpc(1, 1, 1.0))
        # p_0 for the constant rho has the l = 2k threshold issue; use the pair form
        p1 = szego_orthonormal(factor, 1, MeasureFactor.InvSqrtBoth)
        p2 = szego_orthonormal(factor, 2, MeasureFactor.InvSqrtBoth)
        val = kernel_eval([p1, p2], 0.3, 0.1)
        ratio = p1.leading_coeff / p2.leading_coeff
        expected = ratio * (p2.poly(0.3) * p1.poly(0.1) - p1.poly(0.3) * p2.poly(0.1)) / 0.2
        assert val == pytest.approx(expected, rel=1e-12)

    def test_pair_form_matches_direct_sum(self):
        spec = spec_cpc(3, 5, 1.0)
        factor = build_szego_factor(spec)
        ps = [szego_orthonormal(factor, k, MeasureFactor.InvSqrtBoth) for k in range(3, 7)]
        # direct sum needs p_0..p_k; build the low degrees where the
        # threshold allows (l = 5 < 2k means k >= 3)
        k = 5
        pair = kernel_eval([ps[2], ps[3]], 0.4, -0.2)
        # sum form: sum_{j=0}^{5} p_j(t) p_j(u); build j = 0..2 by
        # Gram-Schmidt against the oracle moments for reference
        from bszego.quadrature import oracle_moments

        mu = oracle_moments(spec, 12)
        G = np.array([[mu[i + j] for j in range(6)] for i in range(6)])
        L = np.linalg.cholesky(G)
        inv = np.linalg.inv(L)
        t, u = 0.4, -0.2
        tv = np.array([t**j for j in range(6)])
        uv = np.array([u**j for j in range(6)])
        direct = float((inv @ tv) @ (inv @ uv))
        assert pair == pytest.approx(direct, rel=1e-8)

    def test_confluent_limit(self):
        spec = spec_cpc(3, 5, 1.0)
        factor = build_szego_factor(spec)
        p4 = szego_orthonormal(factor, 4, MeasureFactor.InvSqrtBoth)
        p5 = szego_orthonormal(factor, 5, MeasureFactor.InvSqrtBoth)
        t0 = 0.37
        exact = kernel_eval([p4, p5], t0, t0)
        near = kernel_eval([p4, p5], t0, t0 + 1e-9)
        assert exact == pytest.approx(near, rel=1e-6)

    def test_kernel_at_origin_simplification(self):
        # with p_k(0) = 0:  K_k(t, 0) = -(kappa_k/kappa_{k+1}) p_{k+1}(0) p_k(t)/t
        factor = build_szego_factor(spec_cpc(1, 1, 1.0))
        pk = szego_orthonormal(factor, 1, MeasureFactor.InvSqrtBoth)
        pk1 = szego_orthonormal(factor, 2, MeasureFactor.InvSqrtBoth)
        ratio = pk.leading_coeff / pk1.leading_coeff
        for t in (0.7, -0.4, 0.05):
            expected = -ratio * pk1.poly(0.0) * pk.poly(t) / t
            assert kernel_eval([pk, pk1], t, 0.0) == pytest.approx(expected, rel=1e-11)

    def test_reproducing_property(self):
        # int K_k(t, 0) dmu = 1 for n=3, m=5, a=1
        spec = spec_cpc(3, 5, 1.0)
        factor = build_szego_factor(spec)
        pk = szego_orthonormal(factor, 4, MeasureFactor.InvSqrtBoth)
        pk1 = szego_orthonormal(factor, 5, MeasureFactor.InvSqrtBoth)

        def f(t):
            return np.array([kernel_eval([pk, pk1], float(tt), 0.0) for tt in np.asarray(t)])

        val = weighted_oracle_integral(spec, f)
        assert val == pytest.approx(1.0, abs=1e-7)


class TestLeadingRatio:
    @pytest.mark.parametrize(
        "n,m,a",
        [(3, 5, 1.0), (3, 5, 3.0), (1, 3, 0.5), (5, 7, 2.0)],
    )
    def test_ratio(self, n, m, a):
        dev = leading_ratio_check(spec_cpc(n, m, a))
        assert dev < 1e-10 * (1.0 + 4.0 / (1.0 + a))

    @pytest.mark.parametrize("n,m,a", [(1, 1, 1.0), (3, 5, 0.7), (7, 9, 2.0)])
    def test_kappa_k_does_not_come_from_the_factor(self, n, m, a, monkeypatch):
        # kappa_k and kappa_{k+1} both from h(0) give 4/(1+a) for any h, so a wrong
        # h(0) must show as a deviation
        build = szego_polys.build_szego_factor

        def scaled(spec):
            factor = build(spec)
            c = factor.h.coeffs.copy()
            c[0] *= 1.0 + 1e-8
            return SzegoFactor(spec, RealPolynomial(c), factor.relative_residual)

        assert leading_ratio_check(spec_cpc(n, m, a)) <= 1e-14 * 4.0 / (1.0 + a)
        monkeypatch.setattr(szego_polys, "build_szego_factor", scaled)
        assert leading_ratio_check(spec_cpc(n, m, a)) >= 1e-9

    def test_parity_guard(self):
        with pytest.raises(ParityError):
            leading_ratio_check(spec_cpc(2, 4, 1.0))


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
            dref = reference.deriv().coef if k else np.zeros(1)
            assert np.allclose(p.derivative().coeffs, dref, rtol=0.0,
                               atol=1e-12 * np.max(np.abs(dref), initial=0.0))

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

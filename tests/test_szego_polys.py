import math

import numpy as np
import pytest

from bszego.errors import DegreeThreshold, ParityError
from bszego.poly_core import ChebSeries
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
    WeightSpec,
    build_szego_factor,
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
        from bszego.weight_models import squared_factor

        base = build_szego_factor(WeightSpec(2, 3, 1.0))
        sq = squared_factor(base)
        p = szego_orthonormal(sq, 4, MeasureFactor.SqrtBoth)
        q = explicit_family(
            WeightSpec(2, 3, 1.0, Family.SquaredCosPlusCosh, MeasureFactor.SqrtBoth)
        )
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
        dev = leading_ratio_check(build_szego_factor, spec_cpc(n, m, a))
        assert dev < 1e-10 * (1.0 + 4.0 / (1.0 + a))

    def test_parity_guard(self):
        with pytest.raises(ParityError):
            leading_ratio_check(build_szego_factor, spec_cpc(2, 4, 1.0))


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

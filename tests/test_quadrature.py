import math

import mpmath
import numpy as np
import pytest

from bszego.errors import ParityError, RangeError
from bszego.poly_core import RealPolynomial, cheb_T
from bszego.quadrature import (
    _angle,
    corollary_eval,
    limit_series,
    oracle_moments,
    rule_cos_plus_cosh,
    rule_cosh_minus_cos,
    rule_squared,
    sum_form,
    sum_form_beta,
    weighted_oracle_integral,
    weights_from_moments,
)
from bszego import szego_polys
from bszego.szego_polys import explicit_family
from bszego.weight_models import Family, MeasureFactor, WeightSpec, _rung_sine
from bszego import oracle, suites


def angles(z, n, m, a):
    """(alpha_z, beta_z) as the rules take them: alpha_z = 2n asinh(a^-1/2 sin(pi z/2n)),
    beta_z = 2m asinh(a^1/2 sin(pi z/2m))."""
    return _angle(_rung_sine(z, n), n, a, True), _angle(_rung_sine(z, m), m, a, False)


def rule_sum(rule, p):
    """sum_i w_i p(x_i): the rule applied to p."""
    return float(np.dot(rule.weights, p(np.asarray(rule.nodes))))


class TestAlphaBeta:
    def test_vanishes_at_two_n(self):
        alpha, _ = angles(2 * 5, 5, 3, 1.7)
        assert abs(alpha) < 1e-15

    def test_midpoint_value(self):
        n = 4
        alpha, _ = angles(n, n, 2, 1.0)
        assert alpha == pytest.approx(2 * n * math.log(1 + math.sqrt(2)), rel=1e-14)

    def test_reflection_symmetry(self):
        n, m, a = 5, 3, 0.7
        for z in (0.5, 1.0, 3.3, 7.1):
            assert angles(2 * n - z, n, m, a)[0] == pytest.approx(
                angles(z, n, m, a)[0], rel=1e-13
            )


class TestCosPlusCoshRule:
    def test_simplest(self):
        rule = rule_cos_plus_cosh(1, 1, 1.0)
        assert rule.nodes == (0.0,)
        assert rule.weights[0] == pytest.approx(math.pi / 2, rel=1e-14)

    def test_parity_error(self):
        with pytest.raises(ParityError):
            rule_cos_plus_cosh(2, 3, 1.0)

    def test_monomial_against_oracle(self):
        rule = rule_cos_plus_cosh(3, 5, 2.0)
        spec = rule.spec
        p = RealPolynomial([0, 0, 0, 0, 1.0])
        got = rule_sum(rule, p)
        want = weighted_oracle_integral(spec, lambda t: np.asarray(t) ** 4)
        assert got == pytest.approx(want, abs=1e-9)

    def test_mass_against_oracle(self):
        rule = rule_cos_plus_cosh(3, 3, 1.0)
        got = rule_sum(rule, RealPolynomial([1.0]))
        want = weighted_oracle_integral(rule.spec, lambda t: np.ones_like(np.asarray(t)))
        assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("n,m,a", [(1, 3, 0.5), (3, 5, 1.0), (5, 3, 2.0), (7, 1, 1.0)])
    def test_full_exactness(self, n, m, a):
        rule = rule_cos_plus_cosh(n, m, a)
        mu = oracle_moments(rule.spec, rule.exact_degree, tol=1e-12)
        nodes = np.asarray(rule.nodes)
        weights = np.asarray(rule.weights)
        rng = np.random.default_rng(n * 100 + m)
        worst = 0.0
        for _ in range(100):
            c = rng.uniform(-1, 1, rule.exact_degree + 1)
            got = float(weights @ np.polyval(c[::-1], nodes))
            want = float(c @ mu)
            worst = max(worst, abs(got - want) / (1.0 + abs(want)))
        assert worst <= 1e-8

    def test_not_exact_beyond_degree(self):
        n, m, a = 3, 5, 1.0
        rule = rule_cos_plus_cosh(n, m, a)
        d = rule.exact_degree + 1
        mu = oracle_moments(rule.spec, d, tol=1e-12)
        nodes = np.asarray(rule.nodes)
        weights = np.asarray(rule.weights)
        rng = np.random.default_rng(42)
        hits = 0
        for _ in range(100):
            c = rng.uniform(-1, 1, d + 1)
            got = float(weights @ np.polyval(c[::-1], nodes))
            want = float(c @ mu)
            if abs(got - want) > 1e-6:
                hits += 1
        assert hits >= 90

    def test_positive_weights(self):
        rule = rule_cos_plus_cosh(5, 7, 0.5)
        assert all(w > 0 for w in rule.weights)


class TestSquaredRule:
    def test_simplest(self):
        rule = rule_squared(1, 1, 1.0)
        assert rule.nodes == (0.0,)
        assert rule.weights[0] == pytest.approx(math.pi / 8, rel=1e-14)
        want = weighted_oracle_integral(rule.spec, lambda t: np.ones_like(np.asarray(t)))
        assert rule.weights[0] == pytest.approx(want, abs=1e-10)

    def test_sixth_moment(self):
        rule = rule_squared(2, 3, 1.0)
        got = rule_sum(rule, RealPolynomial([0] * 6 + [1.0]))
        want = weighted_oracle_integral(rule.spec, lambda t: np.asarray(t) ** 6)
        assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 2), (4, 4), (5, 5)])
    def test_node_count(self, n, m):
        rule = rule_squared(n, m, 1.3)
        assert len(rule.nodes) == m + n - 1

    @pytest.mark.parametrize("n,m,a", [(2, 2, 1.0), (3, 4, 0.5), (5, 2, 2.0)])
    def test_full_exactness(self, n, m, a):
        rule = rule_squared(n, m, a)
        mu = oracle_moments(rule.spec, rule.exact_degree, tol=1e-12)
        nodes = np.asarray(rule.nodes)
        weights = np.asarray(rule.weights)
        rng = np.random.default_rng(11 * n + m)
        for _ in range(60):
            c = rng.uniform(-1, 1, rule.exact_degree + 1)
            got = float(weights @ np.polyval(c[::-1], nodes))
            want = float(c @ mu)
            assert abs(got - want) <= 1e-8 * (1.0 + abs(want))


class TestSignedRule:
    def test_single_negative_node(self):
        rule = rule_cosh_minus_cos(1, 2, 1.0)
        assert len(rule.nodes) == 1
        assert rule.nodes[0] == pytest.approx(-math.sin(math.pi / 4) ** 2)
        assert rule.weights[0] < 0
        got = rule_sum(rule, RealPolynomial([0.0, 1.0]))
        # oracle: int t/(cosh-cos) d-measure = int 1/rho d-measure
        want = weighted_oracle_integral(rule.spec, lambda t: np.ones_like(np.asarray(t)))
        assert got == pytest.approx(want, abs=1e-9)

    def test_quadratic(self):
        rule = rule_cosh_minus_cos(3, 2, 1.0)
        got = rule_sum(rule, RealPolynomial([0.0, 0.0, 1.0]))
        want = weighted_oracle_integral(rule.spec, lambda t: np.asarray(t))
        assert got == pytest.approx(want, abs=1e-9)

    def test_vanishing_at_dropped_nodes(self):
        rule = rule_cosh_minus_cos(3, 2, 1.0)
        r = math.sin(math.pi / 3) ** 2
        p = RealPolynomial([0.0, -r, 1.0])  # t(t - r)
        contributions = [w * (x * (x - r)) for x, w in zip(rule.nodes, rule.weights)]
        got = rule_sum(rule, p)
        assert got == pytest.approx(sum(c for c, x in zip(contributions, rule.nodes) if abs(x - r) > 1e-12))

    def test_sign_pattern(self):
        rule = rule_cosh_minus_cos(5, 4, 2.0)
        for x, w in zip(rule.nodes, rule.weights):
            assert (x > 0 and w > 0) or (x < 0 and w < 0)

    @pytest.mark.parametrize("n,m,a", [(1, 2, 1.0), (3, 2, 0.5), (5, 4, 1.0), (7, 6, 2.0)])
    def test_full_exactness_constrained(self, n, m, a):
        rule = rule_cosh_minus_cos(n, m, a)
        # moments of t^j against 1/((cosh-cos) sqrt) equal plain moments of
        # t^(j-1) against the rho = (cosh-cos)/t measure
        mu = oracle_moments(rule.spec, rule.exact_degree - 1, tol=1e-12)
        nodes = np.asarray(rule.nodes)
        weights = np.asarray(rule.weights)
        rng = np.random.default_rng(5 * n + m)
        for _ in range(60):
            c = rng.uniform(-1, 1, rule.exact_degree)  # q of degree <= d-1, p = t q
            got = float(weights @ (nodes * np.polyval(c[::-1], nodes)))
            want = float(c @ mu[: len(c)])
            assert abs(got - want) <= 1e-8 * (1.0 + abs(want))

    def test_swapped_parity_rule(self):
        rule = rule_cosh_minus_cos(2, 3, 0.5)
        assert rule.requires_p_zero_at_origin
        mu = oracle_moments(rule.spec, rule.exact_degree - 1, tol=1e-12)
        nodes = np.asarray(rule.nodes)
        weights = np.asarray(rule.weights)
        rng = np.random.default_rng(99)
        for _ in range(40):
            c = rng.uniform(-1, 1, rule.exact_degree)
            got = float(weights @ (nodes * np.polyval(c[::-1], nodes)))
            want = float(c @ mu[: len(c)])
            assert abs(got - want) <= 1e-8 * (1.0 + abs(want))

    def test_same_parity_rejected(self):
        with pytest.raises(ParityError):
            rule_cosh_minus_cos(3, 5, 1.0)


def _rules_and_specs(a, top=32):
    for n in range(1, top):
        for m in range(1, top):
            if n % 2 == 1 and m % 2 == 1:
                yield rule_cos_plus_cosh(n, m, a), WeightSpec(n, m, a)
            yield rule_squared(n, m, a), WeightSpec(
                n, m, a, Family.SquaredCosPlusCosh, MeasureFactor.SqrtBoth)
            if (n + m) % 2 == 1:
                yield rule_cosh_minus_cos(n, m, a), WeightSpec(n, m, a, Family.CoshMinusCosOverT)


RULE_A_VALUES = [0.5, 0.73, 1.1434609861934242, 2.0]


@pytest.mark.parametrize("a", RULE_A_VALUES)
def test_gauss_nodes_are_the_explicit_roots(a):
    # Gauss nodes are the zeros of the distinguished orthogonal polynomial
    count = 0
    for rule, spec in _rules_and_specs(a):
        nodes = np.sort(rule.nodes)
        roots = np.sort(szego_polys._explicit_roots(spec))
        assert np.array_equal(nodes, roots), spec
        count += 1
    assert count == 1697


# ---------------------------------------------------------------------------
# the hand-written node loops and sums the rung ladder replaced: each rule wrote
# its own ladder, and the even-n signed rule reflected the odd-n one by
# t -> -a t at (m, n, 1/a)


def ref_alpha_beta(z, n, m, a):
    alpha = 2.0 * n * math.asinh(math.sin(math.pi * z / (2.0 * n)) / math.sqrt(a))
    beta = 2.0 * m * math.asinh(math.sqrt(a) * math.sin(math.pi * z / (2.0 * m)))
    return alpha, beta


def ref_rule_cos_plus_cosh(n, m, a):
    nodes = [0.0]
    weights = [math.pi / (2.0 * m * n)]
    for i in range(1, (n - 1) // 2 + 1):
        al = ref_alpha_beta(2 * i, n, m, a)[0]
        nodes.append(math.sin(math.pi * i / n) ** 2)
        weights.append((2.0 * math.pi / n) * math.tanh(al / (2.0 * n)) / math.sinh(m * al / n))
    for j in range(1, (m - 1) // 2 + 1):
        be = ref_alpha_beta(2 * j, n, m, a)[1]
        nodes.append(-a * math.sin(math.pi * j / m) ** 2)
        weights.append((2.0 * math.pi / m) * math.tanh(be / (2.0 * m)) / math.sinh(n * be / m))
    return tuple(nodes), tuple(weights)


def ref_rule_squared(n, m, a):
    pref = math.pi * a / (2.0 * m * n)
    nodes = [0.0]
    weights = [pref / 4.0]
    for i in range(1, n):
        al = ref_alpha_beta(i, n, m, a)[0]
        nodes.append(math.sin(math.pi * i / (2.0 * n)) ** 2)
        weights.append(
            pref
            * (m * math.sinh(al / n) / math.sinh(m * al / n))
            * math.cos(math.pi * i / (2.0 * n)) ** 2
            / (math.cosh(m * al / n) + (-1.0) ** i)
        )
    for j in range(1, m):
        be = ref_alpha_beta(j, n, m, a)[1]
        nodes.append(-a * math.sin(math.pi * j / (2.0 * m)) ** 2)
        weights.append(
            pref
            * (n * math.sinh(be / m) / math.sinh(n * be / m))
            * math.cos(math.pi * j / (2.0 * m)) ** 2
            / (math.cosh(n * be / m) + (-1.0) ** j)
        )
    return tuple(nodes), tuple(weights)


def ref_rule_cosh_minus_cos(n, m, a):
    if n % 2 == 0:
        nodes, weights = ref_rule_cosh_minus_cos(m, n, 1.0 / a)
        return tuple(-a * s for s in nodes), tuple(-w for w in weights)
    nodes = []
    weights = []
    for i in range(1, (n - 1) // 2 + 1):
        al = ref_alpha_beta(2 * i, n, m, a)[0]
        nodes.append(math.sin(math.pi * i / n) ** 2)
        weights.append((2.0 * math.pi / n) * math.tanh(al / (2.0 * n)) / math.sinh(m * al / n))
    for j in range(1, m // 2 + 1):
        be = ref_alpha_beta(2 * j - 1, n, m, a)[1]
        nodes.append(-a * math.sin(math.pi * (2 * j - 1) / (2.0 * m)) ** 2)
        weights.append(-(2.0 * math.pi / m) * math.tanh(be / (2.0 * m)) / math.sinh(n * be / m))
    return tuple(nodes), tuple(weights)


def ref_sum_form_terms(n, m, a, values):
    total = 0.0
    for j in range(1, 2 * n + 1):
        al = ref_alpha_beta(j, n, m, a)[0]
        t1 = math.tanh(al / (2.0 * n))
        tm = math.tanh(m * al / (2.0 * n))
        term = t1 / tm if j % 2 == 1 else t1 * tm
        total += ((-1.0) ** (j - 1)) * term * values[j - 1]
    return math.pi / (2.0 * n) * total


def ref_sum_form_beta(n, m, a, u):
    total = 0.0
    for j in range(1, 2 * m + 1):
        be = ref_alpha_beta(j, n, m, a)[1]
        t1 = math.tanh(be / (2.0 * m))
        tn = math.tanh(n * be / (2.0 * m))
        term = t1 / tn if j % 2 == 1 else t1 * tn
        total += ((-1.0) ** (j - 1)) * term * math.cosh(u * be / m)
    return math.pi / (2.0 * m) * total


_REF_RULES = {
    Family.CosPlusCosh: ref_rule_cos_plus_cosh,
    Family.SquaredCosPlusCosh: ref_rule_squared,
    Family.CoshMinusCosOverT: ref_rule_cosh_minus_cos,
}


@pytest.mark.parametrize("a", RULE_A_VALUES)
def test_rules_unchanged(a):
    # bit for bit, except the even-n signed rule, which no longer goes through 1/a and
    # its reflection: there nodes within 2 ulp and weights within 5e-14, in node order
    reflected = 0
    for rule, spec in _rules_and_specs(a):
        nodes, weights = _REF_RULES[spec.family](spec.n, spec.m, a)
        if spec.family is not Family.CoshMinusCosOverT or spec.n % 2 == 1:
            assert (rule.nodes, rule.weights) == (nodes, weights), spec
            continue
        reflected += 1
        new, old = np.argsort(rule.nodes), np.argsort(nodes)
        got_x, want_x = np.asarray(rule.nodes)[new], np.asarray(nodes)[old]
        got_w, want_w = np.asarray(rule.weights)[new], np.asarray(weights)[old]
        assert np.all(np.abs(got_x - want_x) <= 2 * np.spacing(np.abs(want_x))), spec
        assert np.all(np.abs(got_w - want_w) <= 5e-14 * np.abs(want_w)), spec
    assert reflected == 240


@pytest.mark.parametrize("a", [0.5, 1.1434609861934242, 2.0])
def test_even_n_signed_weights_against_mpmath(a):
    # 40-digit values of the closed form: (2 pi/n) tanh(alpha/2n)/sinh(m alpha/n) at
    # sin^2(k pi/2n), k odd, and -(2 pi/m) tanh(beta/2m)/sinh(n beta/m) at
    # -a sin^2(k pi/2m), k even
    with mpmath.workdps(40):
        A = mpmath.mpf(a)
        for n in (2, 4, 6, 8):
            for m in (1, 3, 5, 7, 9):
                want = []
                for k in range(1, n, 2):
                    s = mpmath.sin(mpmath.pi * k / (2 * n))
                    al = 2 * n * mpmath.asinh(s / mpmath.sqrt(A))
                    w = (2 * mpmath.pi / n) * mpmath.tanh(al / (2 * n)) / mpmath.sinh(m * al / n)
                    want.append((s ** 2, w))
                for k in range(2, m, 2):
                    s = mpmath.sin(mpmath.pi * k / (2 * m))
                    be = 2 * m * mpmath.asinh(mpmath.sqrt(A) * s)
                    w = -(2 * mpmath.pi / m) * mpmath.tanh(be / (2 * m)) / mpmath.sinh(n * be / m)
                    want.append((-A * s ** 2, w))
                want.sort()
                rule = rule_cosh_minus_cos(n, m, a)
                got = sorted(zip(rule.nodes, rule.weights))
                assert len(got) == len(want)
                for (x, w), (wx, ww) in zip(got, want):
                    assert abs(x - float(wx)) <= 2 * np.spacing(abs(float(wx)))
                    assert abs(w - float(ww)) <= 2e-14 * abs(float(ww)), (n, m, x)


@pytest.mark.parametrize("a", RULE_A_VALUES)
def test_sum_forms_unchanged(a):
    for n in range(1, 13):
        for m in range(1, 13):
            for z in (m, n / 3):
                assert angles(z, n, m, a) == ref_alpha_beta(z, n, m, a)
            for u in range(-n + 1, n):
                values = [math.cos(math.pi * j * u / n) for j in range(1, 2 * n + 1)]
                assert sum_form(n, m, a, u) == ref_sum_form_terms(n, m, a, values)
            for u in range(-m + 1, m):
                assert sum_form_beta(n, m, a, u) == ref_sum_form_beta(n, m, a, u)


class TestApplyRule:
    def test_constant(self):
        rule = rule_cos_plus_cosh(1, 1, 1.0)
        assert rule_sum(rule, RealPolynomial([1.0])) == pytest.approx(math.pi / 2)


class TestMomentWeights:
    def test_reproduces_closed_form_rule(self):
        ref = rule_cos_plus_cosh(3, 5, 2.0)
        spec = WeightSpec(3, 5, 2.0)
        rebuilt = weights_from_moments(ref.nodes, spec, MeasureFactor.InvSqrtBoth)
        assert np.max(np.abs(np.asarray(rebuilt.weights) - np.asarray(ref.weights))) < 1e-7

    def test_single_node(self):
        spec = WeightSpec(1, 1, 1.0)
        rule = weights_from_moments([0.0], spec, MeasureFactor.InvSqrtBoth)
        assert rule.weights[0] == pytest.approx(math.pi / 2, abs=1e-10)

    def test_product_family_nodes(self):
        spec = WeightSpec(2, 1, 1.0, Family.ProductCosPlusCosh, MeasureFactor.SqrtBoth, m_prime=1)
        p = explicit_family(spec)
        rule = weights_from_moments(p.known_roots, spec, MeasureFactor.SqrtBoth)
        mu = oracle_moments(spec, rule.exact_degree)
        nodes = np.asarray(rule.nodes)
        weights = np.asarray(rule.weights)
        for j in range(rule.exact_degree + 1):
            assert float(weights @ nodes**j) == pytest.approx(float(mu[j]), abs=1e-8)

    def test_product_family_is_gaussian(self):
        # nodes at the orthogonal-polynomial roots buy exactness well beyond
        # count-1: check a few higher moments too
        spec = WeightSpec(3, 3, 2.0, Family.ProductCosPlusCosh, MeasureFactor.SqrtBoth, m_prime=1)
        p = explicit_family(spec)
        rule = weights_from_moments(p.known_roots, spec, MeasureFactor.SqrtBoth)
        deg_hi = 2 * p.degree - 1
        mu = oracle_moments(spec, deg_hi)
        nodes = np.asarray(rule.nodes)
        weights = np.asarray(rule.weights)
        for j in range(deg_hi + 1):
            assert float(weights @ nodes**j) == pytest.approx(float(mu[j]), abs=2e-8)


class TestErrorPaths:
    def test_too_many_nodes(self):
        from bszego.errors import IllConditioned

        spec = WeightSpec(1, 1, 1.0)
        with pytest.raises(IllConditioned):
            weights_from_moments(list(np.linspace(-0.9, 0.9, 25)), spec, MeasureFactor.InvSqrtBoth)

    def test_slow_convergence(self):
        from bszego.errors import SlowConvergence

        with pytest.raises(SlowConvergence):
            limit_series("CoshMinusCosX", 1e-4, None, RealPolynomial([1.0]))

    def test_alpha_beta_nonnegative_in_range(self):
        n, m, a = 5, 4, 0.7
        for z in np.linspace(0.0, 2 * n, 23):
            assert angles(z, n, m, a)[0] >= 0
        for z in np.linspace(0.0, 2 * m, 23):
            assert angles(z, n, m, a)[1] >= 0


class TestSumForm:
    def test_simplest(self):
        assert sum_form(1, 1, 1.0, 0) == pytest.approx(math.pi / 2, rel=1e-13)

    def test_range_error(self):
        with pytest.raises(RangeError):
            sum_form(3, 5, 1.0, 3)

    @pytest.mark.parametrize("n,m,a,u", [(5, 3, 2.0, 2), (3, 5, 1.0, 0), (7, 7, 0.5, -4)])
    def test_against_oracle(self, n, m, a, u):
        spec = WeightSpec(n, m, a)
        got = sum_form(n, m, a, u)
        want = weighted_oracle_integral(spec, lambda t: cheb_T(abs(u), 1.0 - 2.0 * np.asarray(t)))
        assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("n,m,a", [(3, 5, 1.0), (5, 3, 2.0), (4, 6, 0.5)])
    def test_beta_transformation(self, n, m, a):
        for u in range(min(n, m)):
            assert sum_form_beta(n, m, a, u) == pytest.approx(sum_form(n, m, a, u), abs=1e-10)

    def test_mass_consistency_with_rule(self):
        # u = 0 sum equals the rule applied to 1 (both give the weight's mass)
        n, m, a = 5, 3, 2.0
        rule = rule_cos_plus_cosh(n, m, a)
        assert sum_form(n, m, a, 0) == pytest.approx(
            rule_sum(rule, RealPolynomial([1.0])), rel=1e-12
        )


class TestCorollaries:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("a", [0.5, 1.0, 3.0])
    def test_corollary_a(self, n, a):
        closed, got = corollary_eval("A", n, a=a)
        assert closed == math.pi / 4
        assert got == pytest.approx(closed, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_corollary_b(self, n):
        closed, got = corollary_eval("B", n)
        assert got == pytest.approx(closed, abs=1e-9)

    @pytest.mark.parametrize("n,m", [(2, 2), (1, 3), (2, 4), (3, 5), (4, 4)])
    def test_corollary_c(self, n, m):
        closed, got = corollary_eval("C", n, m=m)
        assert got == pytest.approx(closed, abs=1e-8)

    def test_corollary_c_parity(self):
        with pytest.raises(ParityError):
            corollary_eval("C", 2, m=3)


class TestLimitSeries:
    def test_two_cosh_product_constant(self):
        val = limit_series("TwoCoshProduct", 1.0, 1.0, RealPolynomial([1.0]))
        # leading term is pi p(0)/(alpha+beta) = pi/2; the j >= 1 corrections
        # decay like e^{-pi j} but the first ones are visible (~0.32 total here)
        assert abs(val - math.pi / 2) < 0.5

        def f(x):
            x = np.asarray(x)
            out = np.empty_like(x)
            pos = x >= 0
            r = np.sqrt(x[pos])
            out[pos] = 1.0 / (np.cos(r) + np.cosh(r)) ** 2
            r = np.sqrt(-x[~pos])
            out[~pos] = 1.0 / (np.cosh(r) + np.cos(r)) ** 2
            return out

        want, _ = oracle.improper_integral(f, "Exponential", tol=1e-9, two_sided=True)
        assert val == pytest.approx(want, abs=1e-6)

    def test_two_cosh_product_quadratic(self):
        p = RealPolynomial([0.3, -1.2, 0.7])
        val = limit_series("TwoCoshProduct", 1.5, 0.7, p)

        def f(x):
            x = np.asarray(x)
            out = np.empty_like(x)
            pos = x >= 0
            r = np.sqrt(x[pos])
            out[pos] = p(x[pos]) / (
                (np.cos(r) + np.cosh(1.5 * r)) * (np.cos(r) + np.cosh(0.7 * r))
            )
            r = np.sqrt(-x[~pos])
            out[~pos] = p(x[~pos]) / (
                (np.cosh(r) + np.cos(1.5 * r)) * (np.cosh(r) + np.cos(0.7 * r))
            )
            return out

        want, _ = oracle.improper_integral(f, "Exponential", tol=1e-9, two_sided=True, block=20.0)
        assert val == pytest.approx(want, abs=1e-6 * (1 + abs(want)))

    def test_cosh_minus_cos_variants_agree(self):
        p = RealPolynomial([1.0, 0.5])
        v0 = limit_series("CoshMinusCosX", 1.3, None, p, variant=0)
        v1 = limit_series("CoshMinusCosX", 1.3, None, p, variant=1)
        assert v0 == pytest.approx(v1, abs=1e-10 * (1 + abs(v0)))

    def test_cosh_minus_cos_against_oracle(self):
        alpha = 1.0
        p = RealPolynomial([1.0])
        series = limit_series("CoshMinusCosX", alpha, None, p)

        def f(x):
            x = np.asarray(x)
            out = np.empty_like(x)
            pos = x >= 1e-12
            r = np.sqrt(x[pos])
            out[pos] = x[pos] / (np.cosh(alpha * r) - np.cos(r))
            neg = x <= -1e-12
            r = np.sqrt(-x[neg])
            out[neg] = x[neg] / (np.cos(alpha * r) - np.cosh(r))
            out[~(pos | neg)] = 2.0 / (alpha**2 + 1.0)
            return out

        want, _ = oracle.improper_integral(f, "Exponential", tol=1e-9, two_sided=True, block=30.0)
        assert series == pytest.approx(want / (4 * math.pi**4), abs=1e-6 * (1 + abs(series)))

    def test_mixed_against_oracle(self):
        alpha = beta = 1.0
        p = RealPolynomial([1.0])
        series = limit_series("MixedX", alpha, beta, p)

        def f(x):
            x = np.asarray(x)
            out = np.empty_like(x)
            pos = x >= 1e-12
            r = np.sqrt(x[pos])
            out[pos] = x[pos] / ((np.cosh(alpha * r) + np.cos(r)) * (np.cosh(beta * r) - np.cos(r)))
            neg = x <= -1e-12
            r = np.sqrt(-x[neg])
            out[neg] = x[neg] / ((np.cos(alpha * r) + np.cosh(r)) * (np.cos(beta * r) - np.cosh(r)))
            out[~(pos | neg)] = 1.0 / (beta**2 + 1.0)
            return out

        want, _ = oracle.improper_integral(f, "Exponential", tol=1e-9, two_sided=True, block=30.0)
        assert series == pytest.approx(want / (2 * math.pi**4), abs=1e-6 * (1 + abs(series)))

    def test_product_cosh_minus_cos_against_oracle(self):
        alpha, beta = 1.2, 0.8
        p = RealPolynomial([1.0])
        series = limit_series("ProductCoshMinusCosX2", alpha, beta, p)

        def f(x):
            x = np.asarray(x)
            out = np.empty_like(x)
            pos = x >= 1e-12
            r = np.sqrt(x[pos])
            out[pos] = x[pos] ** 2 / (
                (np.cosh(alpha * r) - np.cos(r)) * (np.cosh(beta * r) - np.cos(r))
            )
            neg = x <= -1e-12
            r = np.sqrt(-x[neg])
            out[neg] = x[neg] ** 2 / (
                (np.cos(alpha * r) - np.cosh(r)) * (np.cos(beta * r) - np.cosh(r))
            )
            out[~(pos | neg)] = 4.0 / ((alpha**2 + 1) * (beta**2 + 1))
            return out

        want, _ = oracle.improper_integral(f, "Exponential", tol=1e-9, two_sided=True, block=30.0)
        assert series == pytest.approx(want / (2 * math.pi**6), abs=1e-6 * (1 + abs(series)))


def _loop_exactness(rule, seed, signed=False):
    """The rule-exactness check as written before the matrix form: 100
    consecutive seeded draws, one np.polyval per polynomial."""
    degree = rule.exact_degree - 1 if signed else rule.exact_degree
    mu = oracle_moments(rule.spec, degree, tol=1e-12)
    nodes = np.asarray(rule.nodes)
    weights = np.asarray(rule.weights)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        c = rng.uniform(-1.0, 1.0, degree + 1)
        vals = np.polyval(c[::-1], nodes)
        got = float(weights @ (nodes * vals if signed else vals))
        want = float(c @ mu)
        worst = max(worst, abs(got - want) / (1.0 + abs(want)))
    return worst


class TestMonomialTables:
    """Power-moment integrands are cumulative-product Vandermonde tables,
    and the rule-exactness check is two matrix products."""

    @pytest.mark.parametrize("builder, n, m, a, seed, signed, bound", [
        (rule_cos_plus_cosh, 3, 5, 0.5, suites._SEED + 3 * 37 + 5, False, 1e-14),
        (rule_cos_plus_cosh, 7, 9, 1.0, suites._SEED + 7 * 37 + 9, False, 1e-14),
        # nodes up to -2 and degree 15: |t|^15 reaches 3.3e4, and the
        # returned error is itself rounding noise (2.3e-13 in either form)
        (rule_cos_plus_cosh, 1, 15, 2.0, suites._SEED + 1 * 37 + 15, False, 1e-13),
        (rule_squared, 2, 3, 1.0, suites._SEED + 2 * 101 + 3, False, 1e-14),
        (rule_squared, 5, 5, 2.0, suites._SEED + 5 * 101 + 5, False, 1e-14),
        (rule_cosh_minus_cos, 3, 4, 0.5, suites._SEED + 3 * 11 + 4, True, 1e-14),
        (rule_cosh_minus_cos, 7, 6, 1.0, suites._SEED + 7 * 11 + 6, True, 1e-14),
    ])
    def test_exactness_matches_loop_form(self, builder, n, m, a, seed, signed, bound):
        # oracle_moments is deterministic, so both forms see the same mu
        rule = builder(n, m, a)
        got = suites._exactness(rule, seed, signed=signed)
        assert got == pytest.approx(_loop_exactness(rule, seed, signed=signed), rel=0, abs=bound)

    @pytest.mark.parametrize("d", [0, 1, 5, 15, 30])
    def test_one_draw_is_the_stacked_draws(self, d):
        one = np.random.default_rng(d + 11).uniform(-1.0, 1.0, (100, d + 1))
        rng = np.random.default_rng(d + 11)
        stacked = np.stack([rng.uniform(-1.0, 1.0, d + 1) for _ in range(100)])
        assert np.array_equal(one, stacked)

    @pytest.mark.parametrize("n, m, a", [(3, 5, 0.5), (1, 15, 2.0)])
    def test_oracle_moments_match_pow_table(self, n, m, a):
        rule = rule_cos_plus_cosh(n, m, a)
        powers = np.arange(rule.exact_degree + 1)
        want = np.asarray(weighted_oracle_integral(
            rule.spec, lambda t: np.asarray(t)[:, None] ** powers[None, :], tol=1e-12
        ))
        got = oracle_moments(rule.spec, rule.exact_degree, tol=1e-12)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bszego import weight_models
from bszego.errors import BszegoError, DomainError, FactorizationResidual, ParityError, RootInDisk
from bszego.poly_core import RealPolynomial
from bszego.weight_models import (
    Family,
    MeasureFactor,
    WeightSpec,
    build_szego_factor,
    continued_block,
    expected_rho_degree,
    rho_eval,
    xi_eta_eval,
)
from reference_roots import poly_roots


def square_of_factor(base):
    """h^2, the factor of rho^2, once `_validate_factor` has checked it against the
    squared family's rho: its degree, h^2(0) > 0 and the residual."""
    h2 = RealPolynomial(np.convolve(base.h.coeffs, base.h.coeffs))
    weight_models._validate_factor(
        WeightSpec(base.spec.n, base.spec.m, base.spec.a, Family.SquaredCosPlusCosh), h2)
    return h2


def brute_force_fejer_riesz(rho_of_t, a, degree):
    """Independent factorization oracle: interpolate rho(cos theta) as a cosine
    polynomial, form the Laurent symbol z^l rho((z + 1/z) -> t), take the roots
    of that 2l-degree polynomial, and keep one of each reciprocal pair (the
    ones outside the closed unit disk, pairing boundary roots evenly)."""
    l = degree
    N = 4 * (l + 1)
    theta = 2 * np.pi * np.arange(N) / N
    t = 0.5 * ((1 - a) + (1 + a) * np.cos(theta))
    g = rho_of_t(np.clip(t, -a, 1.0))
    c = np.fft.fft(g) / N  # cosine coefficients: c[j] = r_j / 2 for j > 0
    r = np.concatenate([c[l:0:-1], [c[0]], c[1 : l + 1]]).real  # z^-l .. z^l
    # symbol P(z) = z^l * sum r_j z^j, a degree-2l polynomial
    P = np.array(r, dtype=float)
    roots = np.roots(P[::-1])
    roots = sorted(roots, key=lambda z: -abs(z))
    outside = roots[:l]
    h = np.polynomial.polynomial.polyfromroots(outside)
    # normalize: |h(1)|^2 = rho(t(theta=0)) and h(0) > 0
    scale = math.sqrt(float(rho_of_t(np.asarray([1.0]))[0])) / abs(np.polynomial.polynomial.polyval(1.0, h))
    h = h * scale
    if h[0].real < 0:
        h = -h
    return h.real


@pytest.mark.parametrize(
    "n,m,a,t,expected",
    [
        (1, 1, 1.0, 0.3, 2.0),
        (1, 1, 1.0, -0.9, 2.0),
    ],
)
def test_rho_constant_case(n, m, a, t, expected):
    spec = WeightSpec(n, m, a)
    assert rho_eval(spec, t) == pytest.approx(expected, abs=1e-14)


def test_rho_hand_expansion():
    spec = WeightSpec(1, 3, 1.0)
    for t in (-0.8, -0.3, 0.0, 0.4, 1.0):
        expected = 2 + 16 * t + 48 * t**2 + 32 * t**3
        assert rho_eval(spec, t) == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_rho_squared_family():
    spec = WeightSpec(1, 1, 1.0, Family.SquaredCosPlusCosh)
    assert rho_eval(spec, 0.3) == pytest.approx(4.0, abs=1e-13)


def test_rho_domain_error():
    spec = WeightSpec(2, 3, 1.0)
    with pytest.raises(DomainError):
        rho_eval(spec, 1.5)
    with pytest.raises(DomainError):
        rho_eval(spec, -1.1)


def test_nan_is_outside_the_domain():
    # NaN fails every comparison, so it must be rejected rather than let through
    spec = WeightSpec(2, 3, 1.0)
    for t in (math.nan, np.array([0.2, math.nan]), np.array([math.nan, -0.5])):
        with pytest.raises(DomainError):
            rho_eval(spec, t)
        with pytest.raises(DomainError):
            xi_eta_eval(spec, t)


def test_rho_cosh_minus_cos_series_guard():
    spec = WeightSpec(3, 2, 1.0, Family.CoshMinusCosOverT)
    # limit value at 0 is 2(m^2/a + n^2) = 2(4 + 9) = 26
    assert rho_eval(spec, 0.0) == pytest.approx(26.0, abs=1e-10)
    # continuity across the guard boundary
    left = rho_eval(spec, 0.9999999e-6)
    right = rho_eval(spec, 1.0000001e-6)
    assert abs(left - right) < 1e-9 * 26


def test_rho_positivity_all_families():
    cases = [
        WeightSpec(3, 5, 0.5),
        WeightSpec(2, 4, 2.0),
        WeightSpec(2, 3, 1.0, Family.SquaredCosPlusCosh),
        WeightSpec(3, 2, 0.5, Family.CoshMinusCosOverT),
        WeightSpec(2, 5, 2.0, Family.CoshMinusCosOverT),
        WeightSpec(2, 1, 1.0, Family.ProductCosPlusCosh, m_prime=3),
        WeightSpec(3, 2, 2.0, Family.ProductCoshMinusCos, m_prime=2),
        WeightSpec(2, 2, 0.5, Family.MixedPlusMinus, m_prime=2),
    ]
    for spec in cases:
        t = np.linspace(-spec.a, 1.0, 1000)
        vals = rho_eval(spec, t)
        assert np.all(vals > 0), spec


def test_rho_swap_symmetry_exact_at_a_one():
    spec = WeightSpec(3, 5, 1.0)
    swapped = WeightSpec(5, 3, 1.0)
    t = np.linspace(-1, 1, 101)
    lhs = rho_eval(spec, t)
    rhs = rho_eval(swapped, -t)
    assert np.array_equal(lhs, rhs)


class TestXiEta:
    def test_at_origin(self):
        assert xi_eta_eval(WeightSpec(1, 1, 1.0), 0.0) == (1.0, 0.0)

    def test_identity_links_to_rho(self):
        spec = WeightSpec(3, 5, 2.0)
        for t in (-1.7, -0.5, 0.0, 0.5, 0.99):
            xi, eta = xi_eta_eval(spec, t)
            rho = rho_eval(spec, t)
            assert 2 * (xi * xi + eta * eta) == pytest.approx(rho, rel=1e-11)

    def test_continuation_matches_complex_arithmetic(self):
        # Complex-arithmetic reference for t < 0: evaluate the defining
        # formula with principal branches and take real parts.
        n, m, a = 3, 5, 2.0
        spec = WeightSpec(n, m, a)
        for t in (-1.0, -1.9, -0.2):
            z = complex(t)
            xi_c = cmath.cos(n * cmath.asin(cmath.sqrt(z))) * cmath.cosh(
                m * cmath.asinh(cmath.sqrt(z / a))
            )
            eta_c = cmath.sin(n * cmath.asin(cmath.sqrt(z))) * cmath.sinh(
                m * cmath.asinh(cmath.sqrt(z / a))
            )
            xi, eta = xi_eta_eval(spec, t)
            assert xi == pytest.approx(xi_c.real, rel=1e-12)
            assert abs(xi_c.imag) < 1e-12 * (1 + abs(xi))
            assert eta == pytest.approx(eta_c.real, rel=1e-12)
            assert abs(eta_c.imag) < 1e-12 * (1 + abs(eta))

    def test_exact_values_on_negative_axis(self):
        # n=3, m=5, a=2.  At t=-1: xi = cos(5 pi/4) cosh(3 asinh 1) = -5,
        # eta = -sin(5 pi/4) sinh(3 asinh 1) = 7 sqrt(2)/2, and
        # rho(-1) = T_3(3) + T_5(0) = 99.  At the endpoint t=-2:
        # xi = cos(5 pi/2) ... = 0, eta = -sinh(3 asinh sqrt 2) = -11 sqrt 2,
        # rho(-2) = T_3(5) + T_5(-1) = 484.
        spec = WeightSpec(3, 5, 2.0)
        xi, eta = xi_eta_eval(spec, -1.0)
        assert xi == pytest.approx(-5.0, rel=1e-13)
        assert eta == pytest.approx(7 * math.sqrt(2) / 2, rel=1e-13)
        assert rho_eval(spec, -1.0) == pytest.approx(99.0, rel=1e-13)
        xi2, eta2 = xi_eta_eval(spec, -2.0)
        assert abs(xi2) < 1e-13 * 22
        assert eta2 == pytest.approx(-11 * math.sqrt(2), rel=1e-13)
        assert rho_eval(spec, -2.0) == pytest.approx(484.0, rel=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 8),
        st.integers(1, 8),
        st.sampled_from([0.5, 1.0, 2.0]),
        st.floats(0.0, 1.0),
    )
    def test_identity_property(self, n, m, a, frac):
        spec = WeightSpec(n, m, a)
        t = -a + frac * (1 + a)
        xi, eta = xi_eta_eval(spec, t)
        assert 2 * (xi * xi + eta * eta) == pytest.approx(rho_eval(spec, t), rel=1e-11)


class TestSpecValidation:
    def test_basic(self):
        with pytest.raises(ValueError):
            WeightSpec(0, 1, 1.0)
        with pytest.raises(ValueError):
            WeightSpec(1, 1, -1.0)
        with pytest.raises(ValueError):
            WeightSpec(40, 30, 1.0)

    def test_parity_rules(self):
        with pytest.raises(ParityError):
            WeightSpec(2, 1, 1.0, Family.ProductCosPlusCosh, m_prime=2)
        with pytest.raises(ValueError):
            WeightSpec(2, 1, 1.0, Family.ProductCosPlusCosh)


class TestFactor:
    def test_constant_factor(self):
        factor = build_szego_factor(WeightSpec(1, 1, 1.0))
        assert factor.h.degree == 0
        assert factor.h.coeffs[0] == pytest.approx(math.sqrt(2), rel=1e-14)

    def test_cubic_factor_against_brute_force(self):
        spec = WeightSpec(1, 3, 1.0)
        factor = build_szego_factor(spec)
        ref = brute_force_fejer_riesz(lambda t: rho_eval(spec, t), 1.0, 3)
        assert np.max(np.abs(factor.h.coeffs - ref)) < 1e-8 * np.max(np.abs(ref))

    def test_cosh_minus_cos_factor_against_brute_force(self):
        spec = WeightSpec(3, 2, 1.0, Family.CoshMinusCosOverT)
        factor = build_szego_factor(spec)
        assert factor.h.degree == expected_rho_degree(spec) == 2
        ref = brute_force_fejer_riesz(lambda t: rho_eval(spec, t), 1.0, 2)
        assert np.max(np.abs(factor.h.coeffs - ref)) < 1e-8 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "spec",
        [
            WeightSpec(3, 5, 2.0),
            WeightSpec(2, 4, 0.5),
            WeightSpec(3, 3, 1.0),
            WeightSpec(3, 3, 2.0),
            WeightSpec(5, 2, 1.0),
            WeightSpec(1, 2, 1.0, Family.CoshMinusCosOverT),
            WeightSpec(4, 4, 1.0, Family.CoshMinusCosOverT),
            WeightSpec(15, 17, 2.0),
        ],
    )
    def test_invariants_on_grid(self, spec):
        factor = build_szego_factor(spec)
        assert factor.h.degree == expected_rho_degree(spec)
        assert factor.h(0.0) > 0
        theta = np.linspace(0, np.pi, 512)
        t = np.clip(0.5 * ((1 - spec.a) + (1 + spec.a) * np.cos(theta)), -spec.a, 1)
        rho = rho_eval(spec, t)
        resid = np.max(np.abs(np.abs(factor.h(np.exp(1j * theta))) ** 2 - rho))
        assert resid <= 1e-9 * np.max(rho)

    def test_degree_formula_against_trailing_coefficients(self):
        # deg rho = m for m > n and 2 floor(m/2) for m = n at a = 1: verify by
        # interpolating rho itself and inspecting trailing coefficients.
        for n, m in [(1, 3), (3, 5), (3, 3), (5, 5)]:
            spec = WeightSpec(n, m, 1.0)
            deg = expected_rho_degree(spec)
            expected = m if m > n else 2 * (m // 2)
            assert deg == expected
            ts = np.cos(np.pi * (2 * np.arange(deg + 3) + 1) / (2 * (deg + 3)))
            vals = rho_eval(spec, ts)
            coeffs = np.polynomial.chebyshev.cheb2poly(
                np.polynomial.chebyshev.chebfit(ts, vals, deg + 2)
            )
            assert np.all(np.abs(coeffs[deg + 1 :]) < 1e-8 * np.max(np.abs(coeffs)))
            assert abs(coeffs[deg]) > 1e-8 * np.max(np.abs(coeffs))

    def test_squared_constant(self):
        base = build_szego_factor(WeightSpec(1, 1, 1.0))
        h2 = square_of_factor(base)
        assert h2.degree == 0
        assert h2.coeffs[0] == pytest.approx(2.0, rel=1e-14)

    def test_squared_cubic(self):
        base = build_szego_factor(WeightSpec(1, 3, 1.0))
        h2 = square_of_factor(base)
        assert h2.degree == 6
        # |h^2(e^{i th})|^2 must equal rho^2 pointwise
        theta = np.linspace(0, np.pi, 200)
        rho2 = rho_eval(WeightSpec(1, 3, 1.0), np.cos(theta)) ** 2
        resid = np.abs(np.abs(h2(np.exp(1j * theta))) ** 2 - rho2)
        assert np.max(resid) <= 1e-9 * np.max(rho2)

    def test_squared_residual_general_a(self):
        base = build_szego_factor(WeightSpec(3, 3, 2.0))
        h2 = square_of_factor(base)
        theta = np.linspace(0, np.pi, 300)
        t = np.clip(0.5 * (-1 + 3 * np.cos(theta)), -2, 1)
        rho2 = rho_eval(WeightSpec(3, 3, 2.0), t) ** 2
        resid = np.abs(np.abs(h2(np.exp(1j * theta))) ** 2 - rho2)
        assert np.max(resid) <= 1e-9 * np.max(rho2)

    def test_no_factor_for_product_families(self):
        with pytest.raises(ParityError):
            build_szego_factor(WeightSpec(2, 1, 1.0, Family.ProductCosPlusCosh, m_prime=1))


def _degree_specs(family):
    """n, m <= 6 at a = 0.5, 1, 2 and an off-dyadic a, with m' = m - 2 and m + 2
    where the family has a second block, so m' = n and m = n at a = 1 are reached."""
    second = any(uses_m_prime for _, uses_m_prime in weight_models._BLOCKS[family])
    for a, n, m in itertools.product((0.5, 1.0, 2.0, 1.1434609861934242), range(1, 7), range(1, 7)):
        for m_prime in ((m - 2, m + 2) if second else (None,)):
            if m_prime is None or m_prime >= 1:
                yield WeightSpec(n, m, a, family, m_prime=m_prime)


@pytest.mark.parametrize("family", list(Family))
def test_degree_is_that_of_the_values(family):
    # rho's Chebyshev interpolant on [-a, 1] at degree d + 2 ends at degree d,
    # the a = 1 cancellations of each block included
    specs = list(_degree_specs(family))
    assert any(spec.a == 1.0 and spec.n == spec.m for spec in specs)
    for spec in specs:
        d, a = expected_rho_degree(spec), spec.a
        c = np.polynomial.chebyshev.chebinterpolate(
            lambda x: rho_eval(spec, 0.5 * ((1.0 - a) + (1.0 + a) * x)), d + 2)
        top = np.max(np.abs(c))
        assert abs(c[d]) > 1e-9 * top, spec
        assert np.all(np.abs(c[d + 1:]) < 1e-12 * top), spec


def _lattice_specs(count=400, seed=12):
    """Seeded specs over both base families, n + m <= 64, a log-uniform in
    [0.5, 2] (so almost every a is off the dyadic grid)."""
    rng = np.random.default_rng(seed)
    specs = []
    for i in range(count):
        family = (Family.CosPlusCosh, Family.CoshMinusCosOverT)[i % 2]
        total = int(rng.integers(2, 65))
        n = int(rng.integers(1, total))
        a = float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))
        specs.append(WeightSpec(n, total - n, a, family))
    return specs


def _fine_grid_winding(spec, n_samples=2**16):
    """Winding number of the circle samples of h around 0, summed over a
    fine grid; every step must stay well below pi for the sum to count."""
    vals = weight_models._theta_grid_samples(spec, n_samples)
    steps = np.angle(np.roll(vals, -1) / vals)
    assert np.max(np.abs(steps)) < 0.75 * np.pi
    return float(np.sum(steps)) / (2.0 * np.pi)


def _form_without_sign(spec, t):
    """The cos-plus-cosh circle form with sign(t) dropped from eta."""
    n, m, a = spec.n, spec.m, spec.a
    C, S, Ch, Sh = continued_block(t, n, m, a)
    return n + m, (1j ** (-n)) * np.sqrt(2.0), C * Ch + 1j * (S * Sh)


_circle_form = weight_models._circle_form


def _form_with_phase_plus_one(spec, t):
    """The circle form with the phase exponent q/2 raised by one."""
    q, c, G = _circle_form(spec, t)
    return q + 2, c, G


class TestZeroFreeCertificate:
    def test_agrees_with_fine_grid_winding(self):
        for spec in _lattice_specs():
            assert abs(weight_models._certify_zero_free(spec)) < 1e-9
            assert abs(_fine_grid_winding(spec)) < 1e-9

    def test_reference_roots_lie_outside_the_disk(self):
        # where |h| on the circle stays above 1e-6 max |h|, the float64
        # coefficients carry their zeros and a root finder can see them
        checked = 0
        for spec in _lattice_specs():
            try:
                h = build_szego_factor(spec).h
            except BszegoError:
                continue
            values = np.abs(h(np.exp(1j * np.linspace(0.0, np.pi, 4096))))
            if h.degree >= 1 and np.min(values) >= 1e-6 * np.max(values):
                assert np.min(np.abs(poly_roots(h))) > 1.0
                checked += 1
        assert checked >= 100

    @pytest.mark.parametrize("n, m, a", [(3, 5, 2.0), (7, 9, 0.7), (15, 16, 1.3), (2, 1, 0.5), (1, 1, 1.0)])
    def test_dropped_sign_is_counted_and_rejected(self, monkeypatch, n, m, a):
        # eta without sign(t) turns the other way on t < 0: m zeros in the disk
        spec = WeightSpec(n, m, a)
        monkeypatch.setattr(weight_models, "_circle_form", _form_without_sign)
        assert _fine_grid_winding(spec) == pytest.approx(m, abs=1e-9)
        with pytest.raises(RootInDisk, match=f"winding number {m}.000:"):
            weight_models._certify_zero_free(spec)

    @pytest.mark.parametrize("family", [Family.CosPlusCosh, Family.CoshMinusCosOverT])
    @pytest.mark.parametrize("n, m, a", [(3, 5, 2.0), (7, 9, 0.7), (2, 1, 0.5), (1, 1, 1.0)])
    def test_phase_off_by_one_is_counted_and_rejected(self, monkeypatch, family, n, m, a):
        spec = WeightSpec(n, m, a, family)
        monkeypatch.setattr(weight_models, "_circle_form", _form_with_phase_plus_one)
        assert _fine_grid_winding(spec) == pytest.approx(1.0, abs=1e-9)
        with pytest.raises(RootInDisk, match="winding number 1.000:"):
            weight_models._certify_zero_free(spec)

    @pytest.mark.parametrize("family", [Family.CosPlusCosh, Family.CoshMinusCosOverT])
    def test_zero_list_missing_a_root(self, monkeypatch, family):
        spec = WeightSpec(7, 9, 0.7, family)
        zeros = weight_models._block_zeros(spec)
        outcomes = []
        for i in range(1, len(zeros) - 1):
            monkeypatch.setattr(weight_models, "_block_zeros", lambda s, i=i: np.delete(zeros, i))
            try:
                outcomes.append(weight_models._certify_zero_free(spec))
            except RootInDisk as exc:
                assert "crosses both axes" in str(exc)
                outcomes.append(None)
        # a step that now spans two axis crossings is caught; next to an
        # endpoint, or to t = 0 where the quotient family's G does not
        # vanish, a step spans one crossing still and counts right
        assert all(w is None or abs(w) < 1e-9 for w in outcomes)
        assert outcomes.count(None) >= len(outcomes) // 2
        monkeypatch.setattr(weight_models, "_block_zeros", lambda s: np.delete(zeros, 4))
        with pytest.raises(RootInDisk):
            weight_models._certify_zero_free(spec)

    def test_winding_is_the_unwrapped_change_of_arg(self):
        # the sum of principal steps angle(G[i+1] conj G[i]) against np.unwrap
        for spec in _lattice_specs():
            z = weight_models._block_zeros(spec)
            t = np.concatenate([z[:1], 0.5 * (z[:-1] + z[1:]), z[-1:]])
            q, _, G = _circle_form(spec, t)
            arg = np.unwrap(np.angle(G))
            want = float(arg[-1] - arg[0]) / np.pi + q / 2.0
            assert abs(weight_models._certify_zero_free(spec) - want) <= 1e-12

    def test_high_degree_cell_builds(self):
        # the float64 roots of this h put a pair inside the disk, yet the
        # formula it samples is zero-free there
        spec = WeightSpec(31, 33, 0.5)
        factor = build_szego_factor(spec)
        assert factor.h.degree == expected_rho_degree(spec) == 33
        assert factor.relative_residual <= 1e-9


def _horner_residual(spec, h):
    """max |h(e^{i theta})|^2 - rho| on the 512-point grid of `_validate_factor`, with h
    evaluated by Horner's rule at each point."""
    theta = np.linspace(0.0, np.pi, 512)
    t = np.clip(0.5 * ((1.0 - spec.a) + (1.0 + spec.a) * np.cos(theta)), -spec.a, 1.0)
    rho = rho_eval(spec, t)
    return float(np.max(np.abs(np.abs(h(np.exp(1j * theta))) ** 2 - rho))), float(np.max(rho))


def _built_factors():
    """The factors of the lattice specs that build."""
    factors = []
    for spec in _lattice_specs():
        try:
            factors.append(build_szego_factor(spec))
        except BszegoError:
            continue
    return factors


class TestFactorResidual:
    """`_validate_factor` reads |h| on its grid from one real FFT of the coefficients."""

    def test_real_fft_residual_is_the_horner_residual(self):
        factors = _built_factors()
        assert len(factors) >= 200
        for factor in factors:
            want, rho_max = _horner_residual(factor.spec, factor.h)
            assert abs(factor.relative_residual - want / rho_max) <= 1e-14

    def test_one_moved_coefficient_is_caught(self):
        rng = np.random.default_rng(18)
        for factor in _built_factors():
            c = factor.h.coeffs.copy()
            j = int(rng.integers(0, len(c)))
            c[j] += 1e-6 * np.max(np.abs(c))
            with pytest.raises(FactorizationResidual, match="residual"):
                weight_models._validate_factor(factor.spec, RealPolynomial(c))

    def test_non_finite_coefficient_is_caught(self):
        factor = build_szego_factor(WeightSpec(3, 5, 2.0))
        for bad in (np.nan, np.inf):
            c = factor.h.coeffs.copy()
            c[-2] = bad
            with np.errstate(invalid="ignore"), pytest.raises(FactorizationResidual):
                weight_models._validate_factor(factor.spec, RealPolynomial(c))

    def test_symmetry_residual_bounds_the_imaginary_residue(self):
        # the samples on (pi, 2 pi) are exact conjugates, so the symmetry residual is
        # that of h(1) and h(-1) alone, and the coefficients' imaginary residue, which
        # the build discards, keeps below half the bound wherever the residual passes
        passed = 0
        for spec in _lattice_specs():
            deg, N = expected_rho_degree(spec), 1
            while N < 2 * (deg + 1):
                N *= 2
            vals = weight_models._theta_grid_samples(spec, N)
            sym = np.max(np.abs(vals - np.conj(vals[-np.arange(N) % N])))
            assert sym == 2.0 * max(abs(vals[0].imag), abs(vals[N // 2].imag))
            bound = 1e-9 * np.max(np.abs(vals))
            if sym <= bound:
                assert np.max(np.abs(np.fft.fft(vals).imag)) / N < 0.5 * bound, spec
                passed += 1
        assert passed >= 300

    def test_degree_mismatch_is_reported_before_symmetry(self):
        # these samples break conjugate symmetry too, but the trailing coefficient
        # mass is checked first, so the build raises FactorizationResidual
        spec = WeightSpec(5, 7, 1.8339058723339285)
        vals = weight_models._theta_grid_samples(spec, 16)
        assert np.max(np.abs(vals - np.conj(vals[-np.arange(16) % 16]))) > 1e-9 * np.max(np.abs(vals))
        with pytest.raises(FactorizationResidual, match="trailing coefficient mass"):
            build_szego_factor(spec)


@pytest.mark.parametrize("a", [1e-3, 1e-5])
def test_quotient_family_builds_at_small_a(a):
    build_szego_factor(WeightSpec(2, 3, a, Family.CoshMinusCosOverT))


@pytest.mark.xfail(
    strict=True,
    raises=FactorizationResidual,
    reason="series_guard's band |t| < 1e-6 is absolute, but the quotient's two-term series "
    "holds only for |t| << a/M^2: at a = 1e-7 the circle samples take their t = 0 value "
    "over all of [-a, 0], and the trailing coefficient mass is 2.2e3",
)
def test_quotient_family_builds_below_the_series_radius():
    build_szego_factor(WeightSpec(2, 3, 1e-7, Family.CoshMinusCosOverT))

import dataclasses
import math

import numpy as np
import pytest

from bszego import oracle, suites, weight_models
from bszego.pick_measures import (
    MatchedMeasure,
    PickFunction,
    density,
    matched_measure,
    matched_pair,
    moment_match_all,
    moment_match_check,
    pick_eval,
)
from bszego.quadrature import oracle_moments
from bszego.szego_polys import OrthoPoly
from bszego.weight_models import Family, MeasureFactor, WeightSpec, xi_eta_eval


def cpc(n, m, a=1.0):
    return WeightSpec(n, m, a, Family.CosPlusCosh, MeasureFactor.InvSqrtBoth)


class TestPickFunction:
    def test_constant(self):
        phi = PickFunction(0.0, 1j)
        assert pick_eval(phi, 7.0) == 1j

    def test_one_pole_value(self):
        phi = PickFunction(1.0, 1j, ((1.0, -1j),))
        # 0 + i - 1/(0 + i) = i + i = 2i
        assert pick_eval(phi, 0.0) == pytest.approx(2j)

    def test_imaginary_part_floor(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            beta = float(rng.uniform(0, 2))
            gamma = complex(rng.uniform(-1, 1), rng.uniform(0.1, 2))
            terms = tuple(
                (float(rng.uniform(0, 3)), complex(rng.uniform(-2, 2), -float(rng.uniform(0.1, 2))))
                for _ in range(rng.integers(0, 3))
            )
            phi = PickFunction(beta, gamma, terms)
            x = np.linspace(-50, 50, 301)
            assert np.all(np.imag(pick_eval(phi, x)) >= gamma.imag - 1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            PickFunction(-1.0, 1j)
        with pytest.raises(ValueError):
            PickFunction(0.0, 1.0)
        with pytest.raises(ValueError):
            PickFunction(0.0, 1j, ((1.0, +1j),))
        with pytest.raises(ValueError):
            PickFunction(0.0, 1j, ((-1.0, -1j),))


class TestDensity:
    def test_positive_everywhere(self):
        meas = matched_measure(cpc(3, 3), PickFunction(0.0, 1j))
        x = np.linspace(-30, 30, 1001)
        assert np.all(density(meas, x) > 0)

    def test_tail_decay_on_log_grid(self):
        # beta = 0 measure2 densities fall like x^(-2k); the k = 1 case is
        # exactly quadratic, and every case decays at least quadratically,
        # which is what the real-line substitution relies on.
        xs = np.array([1e2, 1e3, 1e4, 1e5])
        meas1 = matched_measure(cpc(1, 1), PickFunction(0.0, 1j))
        slopes = np.diff(np.log(density(meas1, xs))) / np.diff(np.log(xs))
        assert np.max(np.abs(slopes + 2.0)) < 0.05
        meas2 = matched_measure(cpc(3, 5), PickFunction(0.0, 1j))
        slopes = np.diff(np.log(density(meas2, xs))) / np.diff(np.log(xs))
        assert np.all(slopes < -2.0)
        assert np.max(np.abs(slopes + 2.0 * meas2.k)) < 0.05

    def test_explicit_quotient_identity(self):
        # |sqrt(1-x^2) xi - (phi - x) eta|^2 = (pi/4) |phi p_k - p_{k-1}|^2
        # on [-1, 1] for the odd/odd a=1 pair.
        spec = cpc(3, 5)
        meas = matched_measure(spec, PickFunction(0.0, 2j))
        x = np.linspace(-0.95, 0.95, 31)
        xi, eta = xi_eta_eval(spec, x)
        phi = pick_eval(meas.phi, x)
        lhs = np.abs(np.sqrt(1 - x * x) * xi - (phi - x) * eta) ** 2
        rhs = math.pi / 4 * np.abs(phi * meas.p_k(x) - meas.p_km1(x)) ** 2
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(lhs))

    def test_section10_closed_form_for_p_km1(self):
        spec = cpc(3, 5)
        meas = matched_measure(spec, PickFunction(0.0, 1j))
        x = np.linspace(-0.9, 0.9, 25)
        xi, eta = xi_eta_eval(spec, x)
        closed = 2.0 / math.sqrt(math.pi) * (x * eta + np.sqrt(1 - x * x) * xi)
        got = meas.p_km1(x)
        sign = 1.0 if np.dot(closed, got) >= 0 else -1.0
        assert np.max(np.abs(got - sign * closed)) < 1e-9


class TestMomentMatching:
    def test_simplest_mass(self):
        meas = matched_measure(cpc(1, 1), PickFunction(0.0, 1j))
        lhs, rhs = moment_match_check(meas, 0)
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_three_five_all_orders(self):
        meas = matched_measure(cpc(3, 5), PickFunction(0.0, 1j))
        lhs, rhs = moment_match_all(meas)
        assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) < 1e-6

    def test_measure5_with_pole(self):
        # With beta > 0 the measure5 combination pairs the linear growth of
        # phi with the lower-degree polynomial, so the large-semicircle
        # integral in the contour argument no longer vanishes at the top
        # degree: moments 0..2k-3 match, while moment 2k-2 falls short by
        # exactly c_{2k-2} beta / (kappa_k (kappa_k + beta kappa_{k-1})).
        phi = PickFunction(1.0, 1j, ((1.0, -1j),))
        meas = matched_measure(cpc(3, 3), phi, form="measure5")
        lhs, rhs = moment_match_all(meas)
        assert np.max(np.abs(lhs - rhs)[:-1] / (1.0 + np.abs(rhs)[:-1])) < 1e-6
        kk = meas.p_k.leading_coeff
        kkm1 = meas.p_km1.leading_coeff
        deficit = phi.beta / (kk * (kk + phi.beta * kkm1))
        assert (rhs[-1] - lhs[-1]) == pytest.approx(deficit, rel=1e-5)

    def test_measure5_without_linear_growth_matches_fully(self):
        # beta = 0 with a pole: full range j = 0..2k-2 matches.
        phi = PickFunction(0.0, 1j, ((1.0, -1j),))
        meas = matched_measure(cpc(3, 3), phi, form="measure5")
        lhs, rhs = moment_match_all(meas)
        assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) < 1e-6

    def test_measure2_with_linear_growth_matches_fully(self):
        phi = PickFunction(1.0, 1j, ((1.0, -1j),))
        meas = matched_measure(cpc(3, 3), phi, form="measure2")
        lhs, rhs = moment_match_all(meas)
        assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) < 1e-6

    def test_constant_gamma_specialization(self):
        # with no poles and beta = 0 the statement reduces to the plain
        # constant-gamma identity
        for form in ("measure2", "measure5"):
            meas = matched_measure(cpc(3, 3), PickFunction(0.0, 1.0 + 1.0j), form=form)
            lhs, rhs = moment_match_all(meas)
            assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) < 1e-6

    def test_boundary_moment_breaks(self):
        # phi = i at n = m keeps the density symmetric and both sides of the
        # odd boundary moment vanish together; a generic phi breaks it.
        meas = matched_measure(cpc(3, 3), PickFunction(0.0, 1.0 + 1.0j))
        lhs, rhs = moment_match_check(meas, 2 * meas.k - 1)
        assert abs(lhs - rhs) > 1e-4

    def test_invalid_order(self):
        meas = matched_measure(cpc(1, 1), PickFunction(0.0, 1j))
        with pytest.raises(ValueError):
            moment_match_check(meas, 2)


class TestMatchedPair:
    def test_measure_is_its_pair_with_phi_and_form(self):
        spec, phi = cpc(3, 5), PickFunction(0.5, 1.0 + 1.0j, ((1.0, -1j),))
        pair = matched_pair(spec)
        assert pair.moments == tuple(oracle_moments(pair.base_spec, 2 * pair.k - 1))
        for form in ("measure2", "measure5"):
            got, want = matched_measure(spec, phi, form), pair.measure(phi, form)
            assert type(got) is type(want) is MatchedMeasure
            for field in dataclasses.fields(MatchedMeasure):
                a, b = getattr(got, field.name), getattr(want, field.name)
                if isinstance(a, OrthoPoly):
                    assert (a.degree, a.leading_coeff, a.weight) == (b.degree, b.leading_coeff, b.weight)
                    assert np.array_equal(a.poly.coeffs, b.poly.coeffs)
                else:
                    assert a == b, field.name
            assert (got.phi, got.form) == (phi, form)
        with pytest.raises(ValueError):
            pair.measure(phi, "measure3")
        with pytest.raises(ValueError):
            matched_pair(cpc(2, 4))

    @pytest.mark.parametrize("n, m", [(1, 1), (3, 3), (3, 5), (5, 3), (5, 5)])
    def test_boundary_cell_builds_one_pair(self, monkeypatch, n, m):
        # the factor (and its root check) is built once for the cell's 30
        # draws; every draw is still checked, and each breaks moment 2k-1
        roots, checks = [], []
        poly_roots, check = weight_models.poly_roots, suites.moment_match_check

        def counted_roots(*args, **kwargs):
            roots.append(args)
            return poly_roots(*args, **kwargs)

        def recorded_check(meas, j, tol):
            lhs, rhs = check(meas, j, tol=tol)
            checks.append(abs(lhs - rhs) > 1e-4 * max(1e-8, abs(lhs) + abs(rhs)))
            return lhs, rhs

        monkeypatch.setattr(weight_models, "poly_roots", counted_roots)
        monkeypatch.setattr(suites, "moment_match_check", recorded_check)
        assert suites._measure3_boundary(n, m) == 0.0
        assert len(roots) == (0 if n + m == 2 else 1)  # k = 1 normalises a constant instead
        assert len(checks) == 30 and all(checks)


class TestMomentTable:
    @pytest.mark.parametrize("n, m", [(1, 1), (3, 3), (3, 5), (5, 3), (5, 5)])
    @pytest.mark.parametrize("phi, form", [("i", "measure2"), ("pole", "measure5")])
    def test_moment_match_all_matches_pow_table(self, n, m, phi, form):
        # the cumulative-product monomial table against the elementwise pow
        # table it replaced, on the matched pairs the measure3 cells build
        meas = matched_measure(WeightSpec(n, m, 1.0), suites._PHI_SET[phi], form=form)
        lhs, _ = moment_match_all(meas, tol=1e-9)
        powers = np.arange(2 * meas.k - 1)

        def f(x):
            return np.asarray(x)[:, None] ** powers[None, :] * density(meas, x)[:, None]

        want = np.asarray(oracle.improper_integral(f, decay="RationalOrder2", tol=1e-9))
        assert np.max(np.abs(lhs - want)) <= 1e-12

import dataclasses
import math
from itertools import product

import numpy as np
import pytest

from bszego import oracle, pick_measures, suites, weight_models
from bszego.pick_measures import (
    MatchedMeasure,
    MatchedPair,
    PickFunction,
    boundary_moments,
    densities,
    matched_pair,
    moment_match_all,
    pick_eval,
)
from bszego.quadrature import oracle_moments
from bszego.weight_models import Family, MeasureFactor, WeightSpec, xi_eta_eval


def cpc(n, m, a=1.0):
    return WeightSpec(n, m, a, Family.CosPlusCosh, MeasureFactor.InvSqrtBoth)


# the constructible pairs the measure3 cells are run on
PAIRS = [(1, 1), (3, 3), (3, 5), (5, 3), (5, 5)]


def one_pick(phi, x):
    """phi(x) for one Pick function alone (the reference for `pick_eval`)."""
    x = np.asarray(x, dtype=float)
    out = phi.beta * x + complex(phi.gamma)
    for c_r, z_r in phi.terms:
        out = out - c_r / (x - complex(z_r))
    return out


def one_draw_density(meas, x):
    """The density formula evaluated for one measure alone (the reference for `densities`)."""
    x = np.asarray(x, dtype=float)
    ph = one_pick(meas.phi, x)
    if meas.form == "measure2":
        denom = np.abs(ph * meas.p_k(x) - meas.p_km1(x)) ** 2
    else:
        denom = np.abs(meas.p_k(x) + ph * meas.p_km1(x)) ** 2
    return np.imag(ph) / np.pi / denom


def density(meas, x):
    """The one-draw column of `densities`."""
    return densities(meas, [(meas.phi, meas.form)], x)[..., 0]


def match_one(meas, tol=1e-8):
    """`moment_match_all` on the measure's one draw; returns (lhs, rhs)."""
    ((lhs, _),), rhs = moment_match_all(meas, [(meas.phi, meas.form)], tol=tol)
    return lhs, rhs


class TestPickFunction:
    def test_constant(self):
        phi = PickFunction(0.0, 1j)
        assert pick_eval([phi], 7.0).tolist() == [1j]

    def test_one_pole_value(self):
        phi = PickFunction(1.0, 1j, ((1.0, -1j),))
        # 0 + i - 1/(0 + i) = i + i = 2i
        assert pick_eval([phi], 0.0)[0] == pytest.approx(2j)

    def test_imaginary_part_floor(self):
        # 20 phis with 0 to 2 pole terms, evaluated together: each column is
        # its one-phi formula bit for bit, and keeps Im phi >= Im gamma
        rng = np.random.default_rng(0)
        phis = []
        for _ in range(20):
            beta = float(rng.uniform(0, 2))
            gamma = complex(rng.uniform(-1, 1), rng.uniform(0.1, 2))
            terms = tuple(
                (float(rng.uniform(0, 3)), complex(rng.uniform(-2, 2), -float(rng.uniform(0.1, 2))))
                for _ in range(rng.integers(0, 3))
            )
            phis.append(PickFunction(beta, gamma, terms))
        x = np.linspace(-50, 50, 301)
        table = pick_eval(phis, x)
        assert table.shape == (x.size, len(phis))
        for d, phi in enumerate(phis):
            assert np.array_equal(table[:, d], one_pick(phi, x))
            assert np.all(np.imag(table[:, d]) >= phi.gamma.imag - 1e-12)

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
        meas = matched_pair(cpc(3, 3)).measure(PickFunction(0.0, 1j))
        x = np.linspace(-30, 30, 1001)
        assert np.all(density(meas, x) > 0)

    def test_tail_decay_on_log_grid(self):
        # beta = 0 measure2 densities fall like x^(-2k); the k = 1 case is
        # exactly quadratic, and every case decays at least quadratically,
        # which is what the real-line substitution relies on.
        xs = np.array([1e2, 1e3, 1e4, 1e5])
        meas1 = matched_pair(cpc(1, 1)).measure(PickFunction(0.0, 1j))
        slopes = np.diff(np.log(density(meas1, xs))) / np.diff(np.log(xs))
        assert np.max(np.abs(slopes + 2.0)) < 0.05
        meas2 = matched_pair(cpc(3, 5)).measure(PickFunction(0.0, 1j))
        slopes = np.diff(np.log(density(meas2, xs))) / np.diff(np.log(xs))
        assert np.all(slopes < -2.0)
        assert np.max(np.abs(slopes + 2.0 * meas2.k)) < 0.05

    @pytest.mark.parametrize("n, m", PAIRS)
    def test_density_is_the_one_draw_formula_bit_for_bit(self, n, m):
        pair = matched_pair(WeightSpec(n, m, 1.0))
        x = np.linspace(-60.0, 60.0, 2001)
        draws = list(product(suites._PHI_SET.values(), ("measure2", "measure5")))
        table = densities(pair, draws, x)
        assert table.shape == (x.size, len(draws))
        for d, (phi, form) in enumerate(draws):
            assert np.array_equal(table[:, d], one_draw_density(pair.measure(phi, form), x))

    def test_unknown_form_rejected(self):
        pair = matched_pair(cpc(1, 1))
        with pytest.raises(ValueError):
            densities(pair, [(PickFunction(0.0, 1j), "measure3")], np.zeros(3))

    def test_explicit_quotient_identity(self):
        # |sqrt(1-x^2) xi - (phi - x) eta|^2 = (pi/4) |phi p_k - p_{k-1}|^2
        # on [-1, 1] for the odd/odd a=1 pair.
        spec = cpc(3, 5)
        meas = matched_pair(spec).measure(PickFunction(0.0, 2j))
        x = np.linspace(-0.95, 0.95, 31)
        xi, eta = xi_eta_eval(spec, x)
        phi = pick_eval([meas.phi], x)[:, 0]
        lhs = np.abs(np.sqrt(1 - x * x) * xi - (phi - x) * eta) ** 2
        rhs = math.pi / 4 * np.abs(phi * meas.p_k(x) - meas.p_km1(x)) ** 2
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(lhs))

    def test_section10_closed_form_for_p_km1(self):
        spec = cpc(3, 5)
        meas = matched_pair(spec).measure(PickFunction(0.0, 1j))
        x = np.linspace(-0.9, 0.9, 25)
        xi, eta = xi_eta_eval(spec, x)
        closed = 2.0 / math.sqrt(math.pi) * (x * eta + np.sqrt(1 - x * x) * xi)
        got = meas.p_km1(x)
        sign = 1.0 if np.dot(closed, got) >= 0 else -1.0
        assert np.max(np.abs(got - sign * closed)) < 1e-9


class TestMomentMatching:
    def test_simplest_mass(self):
        meas = matched_pair(cpc(1, 1)).measure(PickFunction(0.0, 1j))
        lhs, rhs = match_one(meas)
        assert lhs[0] == pytest.approx(rhs[0], rel=1e-6)

    def test_three_five_all_orders(self):
        meas = matched_pair(cpc(3, 5)).measure(PickFunction(0.0, 1j))
        lhs, rhs = match_one(meas)
        assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) < 1e-6

    def test_measure5_with_pole(self):
        # With beta > 0 the measure5 combination pairs the linear growth of
        # phi with the lower-degree polynomial, so the large-semicircle
        # integral in the contour argument no longer vanishes at the top
        # degree: moments 0..2k-3 match, while moment 2k-2 falls short by
        # exactly c_{2k-2} beta / (kappa_k (kappa_k + beta kappa_{k-1})).
        phi = PickFunction(1.0, 1j, ((1.0, -1j),))
        meas = matched_pair(cpc(3, 3)).measure(phi, form="measure5")
        lhs, rhs = match_one(meas)
        assert np.max(np.abs(lhs - rhs)[:-1] / (1.0 + np.abs(rhs)[:-1])) < 1e-6
        kk = meas.p_k.leading_coeff
        kkm1 = meas.p_km1.leading_coeff
        deficit = phi.beta / (kk * (kk + phi.beta * kkm1))
        assert (rhs[-1] - lhs[-1]) == pytest.approx(deficit, rel=1e-5)

    def test_measure5_without_linear_growth_matches_fully(self):
        # beta = 0 with a pole: full range j = 0..2k-2 matches.
        phi = PickFunction(0.0, 1j, ((1.0, -1j),))
        meas = matched_pair(cpc(3, 3)).measure(phi, form="measure5")
        lhs, rhs = match_one(meas)
        assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) < 1e-6

    def test_measure2_with_linear_growth_matches_fully(self):
        phi = PickFunction(1.0, 1j, ((1.0, -1j),))
        meas = matched_pair(cpc(3, 3)).measure(phi, form="measure2")
        lhs, rhs = match_one(meas)
        assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) < 1e-6

    def test_constant_gamma_specialization(self):
        # with no poles and beta = 0 the statement reduces to the plain
        # constant-gamma identity
        for form in ("measure2", "measure5"):
            meas = matched_pair(cpc(3, 3)).measure(PickFunction(0.0, 1.0 + 1.0j), form=form)
            lhs, rhs = match_one(meas)
            assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) < 1e-6

    def test_boundary_moment_breaks(self):
        # phi = i at n = m keeps the density symmetric and both sides of the
        # odd boundary moment vanish together; a generic phi breaks it.
        meas = matched_pair(cpc(3, 3)).measure(PickFunction(0.0, 1.0 + 1.0j))
        (lhs,), rhs = boundary_moments(meas, [(meas.phi, meas.form)])
        assert abs(lhs - rhs) > 1e-4


class TestMatchedPair:
    def test_measure_is_its_pair_with_phi_and_form(self):
        spec, phi = cpc(3, 5), PickFunction(0.5, 1.0 + 1.0j, ((1.0, -1j),))
        pair = matched_pair(spec)
        assert pair.moments == tuple(oracle_moments(pair.base_spec, 2 * pair.k - 1))
        for form in ("measure2", "measure5"):
            got = pair.measure(phi, form)
            assert type(got) is MatchedMeasure
            for field in dataclasses.fields(MatchedPair):
                assert getattr(got, field.name) is getattr(pair, field.name), field.name
            assert (got.phi, got.form) == (phi, form)
        with pytest.raises(ValueError):
            pair.measure(phi, "measure3")
        with pytest.raises(ValueError):
            matched_pair(cpc(2, 4))

    @pytest.mark.parametrize("n, m", PAIRS)
    def test_boundary_cell_builds_one_pair(self, monkeypatch, n, m):
        # the factor (and its zero-free certificate) is built once for the
        # cell's 30 draws; every draw is still checked, and each breaks moment 2k-1
        certified, checks = [], []
        winding, batched = weight_models._certify_zero_free, suites.boundary_moments

        def counted_winding(spec):
            certified.append(spec)
            return winding(spec)

        def recorded_batch(pair, draws, tol):
            lhs, rhs = batched(pair, draws, tol=tol)
            checks.extend(abs(l - rhs) > 1e-4 * max(1e-8, abs(l) + abs(rhs)) for l in lhs)
            return lhs, rhs

        monkeypatch.setattr(weight_models, "_certify_zero_free", counted_winding)
        monkeypatch.setattr(suites, "boundary_moments", recorded_batch)
        assert suites._measure3_boundary(lambda: matched_pair(WeightSpec(n, m, 1.0)), n, m) == 0.0
        assert len(certified) == (0 if n + m == 2 else 1)  # k = 1 normalises a constant instead
        assert len(checks) == 30 and all(checks)

    def test_one_pair_per_run_verify_call(self, monkeypatch):
        # the nine cells of (3, 5) share one pair; the next call builds its own
        certified = []
        winding = weight_models._certify_zero_free
        monkeypatch.setattr(weight_models, "_certify_zero_free",
                            lambda spec: certified.append(spec) or winding(spec))
        # and the eight moment rows of a pair are one oracle pass
        passes = []
        improper = oracle.improper_integral
        monkeypatch.setattr(oracle, "improper_integral",
                            lambda *args, **kwargs: passes.append(args) or improper(*args, **kwargs))
        grids = {"measure3": {"pairs": [[3, 5]]}}
        first = suites.run_verify("measure3", grids=grids)
        assert len(first) == 9 and len(certified) == 1 and len(passes) == 1
        second = suites.run_verify("measure3", grids=grids)
        assert len(certified) == 2 and len(passes) == 2
        assert [r.core_dict() for r in first] == [r.core_dict() for r in second]

    def test_a_draw_that_never_settles_fails_alone(self, monkeypatch):
        # one draw's density gets a jump of 200 at x = 0.3, which bisection
        # never resolves to its budget; only its record fails, and the other
        # eight records of the pair are those of an undisturbed run
        grids = {"measure3": {"pairs": [[1, 1]]}}
        before = suites.run_verify("measure3", grids=grids)
        target = (suites._PHI_SET["1+i"], "measure5")
        plain = pick_measures.densities

        def spiked(pair, draws, x):
            out = plain(pair, draws, x)
            for d, draw in enumerate(draws):
                if draw == target:
                    out[..., d] += 100.0 * np.sign(x - 0.3) * np.exp(-(x - 0.3) ** 2)
            return out

        monkeypatch.setattr(pick_measures, "densities", spiked)
        after = suites.run_verify("measure3", grids=grids)
        broken = [r for r in after if r.params.get("phi") == "1+i" and r.params.get("form") == "measure5"]
        assert len(broken) == 1 and broken[0].error == "NoConvergence" and not broken[0].passed
        assert ([r.core_dict() for r in after if r not in broken]
                == [r.core_dict() for r in before if r.params != broken[0].params])

    def test_failed_pair_build_fails_each_cell(self, monkeypatch):
        # p_(k-1) of (1, 3) is past its degree threshold: one build attempt,
        # and each of the nine cells is its own failed record
        builds = []
        monkeypatch.setattr(suites, "matched_pair",
                            lambda spec: builds.append(spec) or matched_pair(spec))
        records = suites.run_verify("measure3", grids={"measure3": {"pairs": [[1, 3]]}})
        assert len(builds) == 1
        assert len(records) == 9
        assert {r.theorem_id for r in records} == {"measure3", "measure3_boundary"}
        for r in records:
            assert (r.passed, r.error) == (False, "DegreeThreshold")
            assert math.isinf(r.abs_error)


class TestBoundaryMoments:
    @pytest.mark.parametrize("n, m", PAIRS)
    def test_batched_draws_match_a_tight_reference(self, monkeypatch, n, m):
        # the shared pass refines every draw where the largest one needs it,
        # so small draws keep their digits (worst seen 9.7e-11, at (5, 5))
        seen = []

        def recorded(pair, draws, tol):
            lhs, rhs = boundary_moments(pair, draws, tol=tol)
            seen.append((pair, draws, lhs))
            return lhs, rhs

        monkeypatch.setattr(suites, "boundary_moments", recorded)
        suites._measure3_boundary(lambda: matched_pair(WeightSpec(n, m, 1.0)), n, m)
        ((pair, draws, lhs),) = seen
        j = 2 * pair.k - 1
        for (phi, form), got in zip(draws, lhs):
            meas = pair.measure(phi, form)
            spec = oracle.IntegrandSpec(lambda x: x ** j * one_draw_density(meas, x),
                                        oracle.FiniteDirect(-60.0, 60.0))
            want, _ = oracle.integrate(spec, tol=1e-13)
            assert abs(got - want) <= 1e-9 * abs(want)


class TestMomentTable:
    @pytest.mark.parametrize("n, m", [(1, 1), (3, 3), (3, 5), (5, 3), (5, 5)])
    @pytest.mark.parametrize("phi, form", [("i", "measure2"), ("pole", "measure5")])
    def test_moment_match_all_matches_pow_table(self, n, m, phi, form):
        # the draw's row of the eight-draw pass the measure3 cells make, against
        # a pass of that draw alone with the elementwise pow table, on the
        # matched pairs the measure3 cells build
        pair = matched_pair(WeightSpec(n, m, 1.0))
        draws = [(suites._PHI_SET[p], f) for p, f in product(suites._PHI_SET, ("measure2", "measure5"))]
        rows, _ = moment_match_all(pair, draws, tol=1e-9)
        lhs, _ = rows[draws.index((suites._PHI_SET[phi], form))]
        meas = pair.measure(suites._PHI_SET[phi], form=form)
        powers = np.arange(2 * meas.k - 1)

        def f(x):
            return np.asarray(x)[:, None] ** powers[None, :] * one_draw_density(meas, x)[:, None]

        want, _ = oracle.improper_integral(f, decay="RationalOrder2", tol=1e-9)
        assert np.max(np.abs(lhs - want)) <= 1e-12

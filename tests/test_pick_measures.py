import math
from itertools import product

import numpy as np
import pytest

from bszego import oracle, pick_measures, suites, weight_models
from bszego.pick_measures import (
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


def one_parts(phi, x):
    """(Re phi, Im phi) for one Pick function alone, in real arithmetic: with
    z_r = p_r - i q_r and d = x - p_r, w = c_r/(d^2 + q_r^2) per pole term adds -w d to
    the real part and w q_r to the imaginary part."""
    x = np.asarray(x, dtype=float)
    gamma = complex(phi.gamma)
    re, im = phi.beta * x + gamma.real, np.full(x.shape, gamma.imag)
    for c_r, z_r in phi.terms:
        p_r, q_r = complex(z_r).real, -complex(z_r).imag
        d = x - p_r
        w = c_r / (d * d + q_r * q_r)
        re, im = re - w * d, im + w * q_r
    return re, im


def one_pick(phi, x):
    """phi(x) for one Pick function alone (the reference for `pick_eval`)."""
    re, im = one_parts(phi, x)
    return re + 1j * im


def one_draw_density(pair, phi, form, x):
    """The density formula evaluated for one draw alone (the reference for `densities`):
    Im phi / (pi |phi u - v|^2) with (u, v) = (p_k, p_{k-1}) for measure2 and
    (p_{k-1}, -p_k) for measure5, |phi u - v|^2 summed from its real and imaginary parts."""
    x = np.asarray(x, dtype=float)
    re, im = one_parts(phi, x)
    pk, pkm1 = pair.p_k(x), pair.p_km1(x)
    u, v = (pk, pkm1) if form == "measure2" else (pkm1, -pk)
    return im / (np.pi * ((re * u - v) ** 2 + (im * u) ** 2))


def complex_pick(phi, x):
    """phi(x) in complex arithmetic, a second reference independent of the real one."""
    x = np.asarray(x, dtype=float)
    out = phi.beta * x + complex(phi.gamma)
    for c_r, z_r in phi.terms:
        out = out - c_r / (x - complex(z_r))
    return out


def complex_density(pair, phi, form, x):
    """The density from the complex phi: Im phi / (pi |phi p_k - p_{k-1}|^2) for
    measure2 and Im phi / (pi |p_k + phi p_{k-1}|^2) for measure5."""
    x = np.asarray(x, dtype=float)
    ph = complex_pick(phi, x)
    if form == "measure2":
        denom = np.abs(ph * pair.p_k(x) - pair.p_km1(x)) ** 2
    else:
        denom = np.abs(pair.p_k(x) + ph * pair.p_km1(x)) ** 2
    return np.imag(ph) / np.pi / denom


def pick_scale(phi, x):
    """|beta x| + |gamma| + sum c_r/|x - z_r|, the size of phi's terms at x."""
    x = np.asarray(x, dtype=float)
    out = np.abs(phi.beta * x) + abs(complex(phi.gamma))
    for c_r, z_r in phi.terms:
        out = out + c_r / np.abs(x - complex(z_r))
    return out


def random_phis(rng, count, max_terms):
    """count Pick functions with 0 to max_terms pole terms each."""
    phis = []
    for _ in range(count):
        beta = float(rng.choice([0.0, rng.uniform(0.3, 1.5)]))
        gamma = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 2.0))
        terms = tuple(
            (float(rng.uniform(0.2, 2.0)), complex(rng.uniform(-1, 1), -float(rng.uniform(0.3, 1.5))))
            for _ in range(rng.integers(0, max_terms + 1))
        )
        phis.append(PickFunction(beta, gamma, terms))
    return phis


# real points of every size the oracle passes can reach, |x| from 1e-8 to 1e15
WIDE_X = np.concatenate([-np.logspace(15, -8, 231), [0.0], np.logspace(-8, 15, 231),
                         np.linspace(-60.0, 60.0, 241)])
EPS = np.finfo(float).eps


def density(pair, phi, x, form="measure2"):
    """The one-draw column of `densities`."""
    return densities(pair, [(phi, form)], x)[..., 0]


def match_one(pair, phi, form="measure2", tol=1e-8):
    """`moment_match_all` on one draw; returns (lhs, rhs)."""
    ((lhs, _),), rhs = moment_match_all(pair, [(phi, form)], tol=tol)
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

    def test_agrees_with_the_complex_formula(self):
        # the real-arithmetic phi against complex division, within 8 eps of the size of
        # its terms (worst seen 1.9 eps), for phis with 0 to 3 pole terms
        phis = random_phis(np.random.default_rng(1), 60, 3) + list(suites._PHI_SET.values())
        table = pick_eval(phis, WIDE_X)
        for d, phi in enumerate(phis):
            err = np.abs(table[:, d] - complex_pick(phi, WIDE_X))
            assert np.all(err <= 8 * EPS * pick_scale(phi, WIDE_X))

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
        pair = matched_pair(cpc(3, 3))
        x = np.linspace(-30, 30, 1001)
        assert np.all(density(pair, PickFunction(0.0, 1j), x) > 0)

    def test_tail_decay_on_log_grid(self):
        # beta = 0 measure2 densities fall like x^(-2k); the k = 1 case is
        # exactly quadratic, and every case decays at least quadratically,
        # which is what the real-line substitution relies on.
        xs = np.array([1e2, 1e3, 1e4, 1e5])
        phi = PickFunction(0.0, 1j)
        pair1 = matched_pair(cpc(1, 1))
        slopes = np.diff(np.log(density(pair1, phi, xs))) / np.diff(np.log(xs))
        assert np.max(np.abs(slopes + 2.0)) < 0.05
        pair2 = matched_pair(cpc(3, 5))
        slopes = np.diff(np.log(density(pair2, phi, xs))) / np.diff(np.log(xs))
        assert np.all(slopes < -2.0)
        assert np.max(np.abs(slopes + 2.0 * pair2.k)) < 0.05

    @pytest.mark.parametrize("n, m", PAIRS)
    def test_density_is_the_one_draw_formula_bit_for_bit(self, n, m):
        pair = matched_pair(WeightSpec(n, m, 1.0))
        x = np.linspace(-60.0, 60.0, 2001)
        draws = list(product(suites._PHI_SET.values(), ("measure2", "measure5")))
        table = densities(pair, draws, x)
        assert table.shape == (x.size, len(draws))
        for d, (phi, form) in enumerate(draws):
            assert np.array_equal(table[:, d], one_draw_density(pair, phi, form, x))

    @pytest.mark.parametrize("n, m", PAIRS)
    def test_density_agrees_with_the_complex_formula(self, n, m):
        # against |phi u - v| from complex phi, within 16 eps relative (worst seen
        # 6.1 eps), on _PHI_SET and 100 sets of boundary draws, |x| from 1e-8 to 1e15
        pair = matched_pair(WeightSpec(n, m, 1.0))
        draws = list(product(suites._PHI_SET.values(), ("measure2", "measure5")))
        for seed in range(100):
            draws += suites._boundary_draws(np.random.default_rng(seed))
        table = densities(pair, draws, WIDE_X)
        for d, (phi, form) in enumerate(draws):
            want = complex_density(pair, phi, form, WIDE_X)
            assert np.all(np.abs(table[:, d] - want) <= 16 * EPS * want)

    @pytest.mark.parametrize("n, m", PAIRS)
    def test_batched_pole_padding_keeps_every_draw(self, n, m):
        # 0 to 3 pole terms per phi, both forms interleaved: the padding is per term
        # index, and each column is still its one-draw value bit for bit, up to 1e15
        pair = matched_pair(WeightSpec(n, m, 1.0))
        phis = random_phis(np.random.default_rng(n * 10 + m), 24, 3)
        draws = [(phi, ("measure2", "measure5")[d % 2]) for d, phi in enumerate(phis)]
        assert {len(phi.terms) for phi in phis} == {0, 1, 2, 3}
        table = densities(pair, draws, WIDE_X)
        for d, (phi, form) in enumerate(draws):
            assert np.array_equal(table[:, d], one_draw_density(pair, phi, form, WIDE_X))
            want = complex_density(pair, phi, form, WIDE_X)
            assert np.all(np.abs(table[:, d] - want) <= 16 * EPS * want)

    def test_unknown_form_rejected(self):
        pair = matched_pair(cpc(1, 1))
        with pytest.raises(ValueError):
            densities(pair, [(PickFunction(0.0, 1j), "measure3")], np.zeros(3))

    def test_explicit_quotient_identity(self):
        # |sqrt(1-x^2) xi - (phi - x) eta|^2 = (pi/4) |phi p_k - p_{k-1}|^2
        # on [-1, 1] for the odd/odd a=1 pair.
        spec = cpc(3, 5)
        pair = matched_pair(spec)
        x = np.linspace(-0.95, 0.95, 31)
        xi, eta = xi_eta_eval(spec, x)
        phi = pick_eval([PickFunction(0.0, 2j)], x)[:, 0]
        lhs = np.abs(np.sqrt(1 - x * x) * xi - (phi - x) * eta) ** 2
        rhs = math.pi / 4 * np.abs(phi * pair.p_k(x) - pair.p_km1(x)) ** 2
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(lhs))

    def test_section10_closed_form_for_p_km1(self):
        spec = cpc(3, 5)
        pair = matched_pair(spec)
        x = np.linspace(-0.9, 0.9, 25)
        xi, eta = xi_eta_eval(spec, x)
        closed = 2.0 / math.sqrt(math.pi) * (x * eta + np.sqrt(1 - x * x) * xi)
        got = pair.p_km1(x)
        sign = 1.0 if np.dot(closed, got) >= 0 else -1.0
        assert np.max(np.abs(got - sign * closed)) < 1e-9


class TestMomentMatching:
    def test_simplest_mass(self):
        lhs, rhs = match_one(matched_pair(cpc(1, 1)), PickFunction(0.0, 1j))
        assert lhs[0] == pytest.approx(rhs[0], rel=1e-6)

    def test_three_five_all_orders(self):
        lhs, rhs = match_one(matched_pair(cpc(3, 5)), PickFunction(0.0, 1j))
        assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) < 1e-6

    def test_measure5_with_pole(self):
        # With beta > 0 the measure5 combination pairs the linear growth of
        # phi with the lower-degree polynomial, so the large-semicircle
        # integral in the contour argument no longer vanishes at the top
        # degree: moments 0..2k-3 match, while moment 2k-2 falls short by
        # exactly c_{2k-2} beta / (kappa_k (kappa_k + beta kappa_{k-1})).
        phi = PickFunction(1.0, 1j, ((1.0, -1j),))
        pair = matched_pair(cpc(3, 3))
        lhs, rhs = match_one(pair, phi, form="measure5")
        assert np.max(np.abs(lhs - rhs)[:-1] / (1.0 + np.abs(rhs)[:-1])) < 1e-6
        kk = pair.p_k.leading_coeff
        kkm1 = pair.p_km1.leading_coeff
        deficit = phi.beta / (kk * (kk + phi.beta * kkm1))
        assert (rhs[-1] - lhs[-1]) == pytest.approx(deficit, rel=1e-5)

    def test_measure5_without_linear_growth_matches_fully(self):
        # beta = 0 with a pole: full range j = 0..2k-2 matches.
        phi = PickFunction(0.0, 1j, ((1.0, -1j),))
        lhs, rhs = match_one(matched_pair(cpc(3, 3)), phi, form="measure5")
        assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) < 1e-6

    def test_measure2_with_linear_growth_matches_fully(self):
        phi = PickFunction(1.0, 1j, ((1.0, -1j),))
        lhs, rhs = match_one(matched_pair(cpc(3, 3)), phi, form="measure2")
        assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) < 1e-6

    def test_constant_gamma_specialization(self):
        # with no poles and beta = 0 the statement reduces to the plain
        # constant-gamma identity
        pair = matched_pair(cpc(3, 3))
        for form in ("measure2", "measure5"):
            lhs, rhs = match_one(pair, PickFunction(0.0, 1.0 + 1.0j), form=form)
            assert np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))) < 1e-6

    def test_boundary_moment_breaks(self):
        # phi = i at n = m keeps the density symmetric and both sides of the
        # odd boundary moment vanish together; a generic phi breaks it.
        (lhs,), rhs = boundary_moments(matched_pair(cpc(3, 3)),
                                       [(PickFunction(0.0, 1.0 + 1.0j), "measure2")])
        assert abs(lhs - rhs) > 1e-4


class TestMatchedPair:
    def test_pair_serves_every_draw(self):
        # a measure is the pair with one (phi, form) draw: the pair holds the base
        # moments, and each form of a draw reads the pair's polynomials
        spec, phi = cpc(3, 5), PickFunction(0.5, 1.0 + 1.0j, ((1.0, -1j),))
        pair = matched_pair(spec)
        assert pair.moments == tuple(oracle_moments(pair.base_spec, 2 * pair.k - 1))
        x = np.linspace(-5.0, 5.0, 11)
        for form in ("measure2", "measure5"):
            assert np.array_equal(density(pair, phi, x, form), one_draw_density(pair, phi, form, x))
        with pytest.raises(ValueError):
            density(pair, phi, x, "measure3")
        with pytest.raises(ValueError):
            matched_pair(cpc(2, 4))

    @pytest.mark.parametrize("n, m", PAIRS)
    def test_boundary_cell_builds_one_pair(self, monkeypatch, n, m):
        # the factor (and its zero-free certificate) is built once for the
        # cell's 30 draws; every draw is still checked, and each breaks moment 2k-1
        certified, checks = [], []
        winding, batched = weight_models._certify_zero_free, suites.boundary_moments

        def counted_winding(spec, *form):
            certified.append(spec)
            return winding(spec, *form)

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
                            lambda spec, *form: certified.append(spec) or winding(spec, *form))
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
            spec = oracle.IntegrandSpec(lambda x: x ** j * one_draw_density(pair, phi, form, x),
                                        oracle.FiniteDirect(-60.0, 60.0))
            want, _ = oracle.integrate(spec, tol=1e-13)
            assert abs(got - want) <= 1e-9 * abs(want)


    @pytest.mark.parametrize("n, m", [(7, 7), (5, 7), (7, 5)])
    def test_boundary_pass_at_k_7_matches_a_tight_reference(self, monkeypatch, n, m):
        # the pass on the rational map keeps 1e-9 where the pass over [-60, 60] in x
        # lost digits (1.4e-7 off at (7, 7)); 4.8e-10 is the worst seen, at (7, 7)
        self.test_batched_draws_match_a_tight_reference(monkeypatch, n, m)
        # the map takes s* to 60 to within 2 ulp of s*: x changes by x'(s*) ulp(s*),
        # about 113 ulp of 60, from one double s to the next
        s = pick_measures._S_CUT
        x, jac = oracle._rational_map(np.float64(s))
        assert abs(x - pick_measures._CUT) <= 2.0 * np.spacing(s) * jac
        assert pick_measures._CUT == 60.0

    @pytest.mark.parametrize("seeds", ["pairs", "more"])
    def test_boundary_draws_equal_scalar_draws(self, seeds):
        # the draws read from one rng.random array are the doubles, in the same order,
        # of one rng.uniform call per uniform, for the seed of every odd pair up to the
        # n + m <= 64 cap and for 1000 more seeds
        if seeds == "pairs":
            seeds = sorted({suites._SEED + 13 * n + m
                            for n in range(1, 64, 2) for m in range(1, 65 - n, 2)})
        else:
            seeds = range(10_000, 11_000)
        for seed in seeds:
            want = scalar_boundary_draws(np.random.default_rng(seed))
            got = suites._boundary_draws(np.random.default_rng(seed))
            assert got == want and repr(got) == repr(want)


def scalar_boundary_draws(rng):
    """The boundary cell's 30 draws, one rng.uniform call per uniform."""
    draws = []
    for _ in range(30):
        form = "measure2" if rng.uniform() < 0.5 else "measure5"
        beta = 0.0
        if form == "measure5" and rng.uniform() < 0.5:
            beta = float(rng.uniform(0.3, 1.5))
        gamma = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 2.0))
        terms = ()
        if rng.uniform() < 0.5:
            c = float(rng.uniform(0.2, 2.0))
            terms = ((c, complex(rng.uniform(-1, 1), -float(rng.uniform(0.3, 1.5)))),)
        draws.append((PickFunction(beta, gamma, terms), form))
    return draws


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
        powers = np.arange(2 * pair.k - 1)

        def f(x):
            dens = one_draw_density(pair, suites._PHI_SET[phi], form, x)
            return np.asarray(x)[:, None] ** powers[None, :] * dens[:, None]

        want, _ = oracle.improper_integral(f, tol=1e-9, two_sided=True)
        assert np.max(np.abs(lhs - want)) <= 1e-12

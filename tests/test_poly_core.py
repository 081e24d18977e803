import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bszego.errors import NoConvergence, SymmetryViolation
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


def _reference_roots(p, max_iter=120, rel_residual=1e-8):
    """Aberth iteration as written before the stacked Horner pass: one Horner
    pass per row, and a separate backward-error pass after every step."""
    coeffs = p.coeffs
    zero_roots = 0
    while coeffs[0] == 0.0:
        coeffs = coeffs[1:]
        zero_roots += 1
    d = len(coeffs) - 1
    roots = [0.0 + 0.0j] * zero_roots
    if d == 0:
        return np.asarray(roots)
    monic = coeffs / coeffs[-1]
    radius = max(abs(monic[0]) ** (1.0 / d), 1e-3)
    angles = 2.0 * np.pi * (np.arange(d) + 0.25) / d + 0.42
    z = radius * np.exp(1j * angles)
    dcoef = monic[1:] * np.arange(1, d + 1)
    abs_monic = np.abs(monic)

    def horner(c, x):
        acc = np.full_like(x, c[-1])
        for ck in c[-2::-1]:
            acc = acc * x + ck
        return acc

    def backward_error(x):
        return np.abs(horner(monic, x)) / horner(abs_monic, np.abs(x).astype(complex)).real

    converged = False
    for _ in range(max_iter):
        pv = horner(monic, z)
        dv = horner(dcoef, z)
        dv = np.where(dv == 0, 1e-300, dv)
        w = pv / dv
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = np.sum(1.0 / diff, axis=1)
        denom = 1.0 - w * s
        denom = np.where(np.abs(denom) < 1e-300, 1e-300, denom)
        step = w / denom
        z = z - step
        if np.max(np.abs(step)) < 1e-15 * (1.0 + np.max(np.abs(z))):
            converged = True
            break
        if np.max(backward_error(z)) < 1e-15:
            converged = True
            break
    worst = float(np.max(backward_error(z)))
    if not converged and worst > rel_residual / (d + 1):
        raise NoConvergence(f"Aberth backward error {worst:.3e} above {rel_residual:.1e}/(d+1)")
    return np.concatenate([np.asarray(roots, dtype=complex), z])


def _seeded_factor_polys(count=24, seed=7):
    """Spectral factors h of seeded draws over both base families, n + m <= 64,
    a log-uniform in [0.5, 2]; built from the circle samples without the
    validation, so factors that build_szego_factor rejects are included."""
    from bszego.weight_models import (
        Family, WeightSpec, _theta_grid_samples, expected_rho_degree,
    )

    rng = np.random.default_rng(seed)
    polys = []
    while len(polys) < count:
        family = (Family.CosPlusCosh, Family.CoshMinusCosOverT)[len(polys) % 2]
        total = int(rng.integers(2, 65))
        n = int(rng.integers(1, total))
        a = float(np.exp(rng.uniform(math.log(0.5), math.log(2.0))))
        spec = WeightSpec(n, total - n, a, family)
        deg = expected_rho_degree(spec)
        N = 1
        while N < 2 * (deg + 1):
            N *= 2
        try:
            h = poly_from_circle_samples(_theta_grid_samples(spec, N), deg)
        except SymmetryViolation:
            continue
        if h.degree >= 1:
            polys.append(pytest.param(h, id=f"{family.value}-{spec.n}-{spec.m}-deg{h.degree}"))
    return polys


class TestRootsBitIdentity:
    """The stacked Horner pass does the floating-point operations of the
    per-row passes: iterates, stopping tests and errors are unchanged."""

    @pytest.mark.parametrize("h", _seeded_factor_polys())
    def test_seeded_factors(self, h):
        assert np.array_equal(poly_roots(h), _reference_roots(h))

    def test_zero_root_deflation(self):
        rng = np.random.default_rng(3)
        p = RealPolynomial(np.concatenate([[0.0, 0.0, 0.0], rng.uniform(-1, 1, 12)]))
        roots = poly_roots(p)
        assert np.array_equal(roots, _reference_roots(p))
        assert np.count_nonzero(roots == 0) == 3
        only_zeros = RealPolynomial([0.0, 0.0, 2.0])
        assert np.array_equal(poly_roots(only_zeros), _reference_roots(only_zeros))

    @pytest.mark.parametrize("max_iter", [0, 1, 3])
    def test_no_convergence_within_budget(self, max_iter):
        p = RealPolynomial(np.random.default_rng(40).uniform(-1, 1, 41))
        with pytest.raises(NoConvergence) as ours:
            poly_roots(p, max_iter=max_iter)
        with pytest.raises(NoConvergence) as reference:
            _reference_roots(p, max_iter=max_iter)
        assert str(ours.value) == str(reference.value)


class TestRootsNonFinite:
    """Iterates that overflow raise NoConvergence instead of returning NaN roots."""

    @pytest.mark.parametrize("coeffs", [[1.0, 1e200, 1.0], [1.0, 1.0, 1e-300]])
    def test_overflow_raises(self, coeffs):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NoConvergence, match="not finite|nan"):
                poly_roots(RealPolynomial(coeffs))

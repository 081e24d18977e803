import cmath
import math

import numpy as np
import pytest

from bszego.errors import ParityError, PoleProximity, RangeError
from bszego.trig_identities import (
    glaisher_pair,
    pf_reciprocal_T,
    pf_reciprocal_U,
    proof_identities_check,
    q_f_symmetry,
    ramanujan_353_finite,
    reciprocal_cheb_gen,
    s_sum,
    theta_integral,
    tsgf_fourier_check,
)


class TestSSum:
    def test_n_one(self):
        assert s_sum(1, 1) == pytest.approx(1.0)
        for m in (2, 3, 7):
            assert s_sum(1, m) == pytest.approx(0.0, abs=1e-16)

    def test_three_three(self):
        assert s_sum(3, 3) == pytest.approx(0.375, abs=1e-15)

    def test_even_n_rejected(self):
        with pytest.raises(ParityError):
            s_sum(4, 3)


class TestThetaIntegral:
    def test_three_three(self):
        integral, closed = theta_integral(3, 3)
        assert closed == pytest.approx(math.pi / 12 * 0.375, rel=1e-15)
        assert integral == pytest.approx(closed, abs=1e-9)

    def test_five_three(self):
        integral, closed = theta_integral(5, 3)
        assert integral == pytest.approx(closed, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
    @pytest.mark.parametrize("m", [3, 5, 7, 9])
    def test_grid(self, n, m):
        integral, closed = theta_integral(n, m)
        assert abs(integral - closed) <= 1e-8

    def test_m_one_rejected(self):
        with pytest.raises(ParityError):
            theta_integral(3, 1)


class TestGeneratingFunction:
    def test_quotient_forms_on_quarter_period(self):
        # Im and Re of (1/2)/T_n(e^{-i theta}) equal the sin*sinh and cos*cosh
        # quotients for theta in [0, pi/2].
        n = 5
        theta = np.linspace(1e-3, math.pi / 2 - 1e-3, 41)
        g = reciprocal_cheb_gen(n, theta)
        s = np.sin(theta)
        A = n * np.arcsin(np.sqrt(s))
        B = n * np.arcsinh(np.sqrt(s))
        den = np.cos(2 * A) + np.cosh(2 * B)
        assert np.max(np.abs(np.imag(g) - np.sin(A) * np.sinh(B) / den)) < 1e-13
        assert np.max(np.abs(np.real(g) - np.cos(A) * np.cosh(B) / den)) < 1e-13

    def test_degenerate_n_one(self):
        # S(1, 2r+1) = 0 for r >= 1: every checked harmonic vanishes
        assert tsgf_fourier_check(1, 10) < 1e-14

    def test_n_three(self):
        assert tsgf_fourier_check(3, 10) <= 1e-8

    def test_n_seven(self):
        assert tsgf_fourier_check(7, 20) <= 1e-7

    def test_r_cap(self):
        with pytest.raises(RangeError):
            tsgf_fourier_check(3, 41)


class TestPartialFractionT:
    def test_single_term(self):
        lhs, rhs = pf_reciprocal_T(1, math.pi / 2, 0.0)
        # 1/T_1(e^{-i theta}) = 1/e^{-i theta} at theta = pi/2 is i
        assert lhs == pytest.approx(1j, abs=1e-14)
        assert rhs == pytest.approx(1j, abs=1e-14)

    @pytest.mark.parametrize("k,c,theta", [(4, 0.0, 0.7), (3, 0.5, 1.1), (6, 0.9, 0.3)])
    def test_agreement(self, k, c, theta):
        lhs, rhs = pf_reciprocal_T(k, theta, c)
        assert abs(lhs - rhs) < 1e-10

    def test_agreement_past_quarter_period(self):
        for theta in (1.8, 2.5, 3.0):
            lhs, rhs = pf_reciprocal_T(5, theta, 0.3)
            assert abs(lhs - rhs) < 1e-10

    def test_random_points(self):
        rng = np.random.default_rng(3)
        for k in (1, 2, 5, 8):
            for c in (0.0, 0.3, 0.9):
                for theta in rng.uniform(0, math.pi, 25):
                    lhs, rhs = pf_reciprocal_T(k, float(theta), c)
                    assert abs(lhs - rhs) < 1e-10

    def test_array_equals_scalar_calls(self):
        rng = np.random.default_rng(4)
        for k in range(1, 9):
            for c in (0.0, 0.3, 0.9):
                thetas = rng.uniform(0, math.pi, 100)
                lhs, rhs = pf_reciprocal_T(k, thetas, c)
                assert lhs.shape == rhs.shape == thetas.shape
                for theta, left, right in zip(thetas, lhs, rhs):
                    assert pf_reciprocal_T(k, float(theta), c) == (left, right)


class TestPartialFractionU:
    def test_k_one(self):
        z = 0.3 + 0.4j
        lhs, rhs = pf_reciprocal_U(1, z)
        assert lhs == pytest.approx(1.0 / (1.0 - z * z), abs=1e-14)
        assert abs(lhs - rhs) < 1e-13

    def test_k_three_complex(self):
        lhs, rhs = pf_reciprocal_U(3, 0.4 + 0.2j)
        assert abs(lhs - rhs) < 1e-10

    def test_k_five_outside(self):
        lhs, rhs = pf_reciprocal_U(5, 2.0 + 0.0j)
        assert abs(lhs - rhs) < 1e-10

    def test_pole_guard(self):
        with pytest.raises(PoleProximity):
            pf_reciprocal_U(3, complex(math.cos(math.pi / 3), 0.0))
        with pytest.raises(PoleProximity):  # one pole among the points
            pf_reciprocal_U(3, np.array([0.4 + 0.2j, -1.0, 2.0]))

    def test_array_equals_scalar_calls(self):
        rng = np.random.default_rng(5)
        for k in range(1, 9):
            draws = rng.uniform([-2.0, -1.5], [2.0, 1.5], size=(100, 2))
            zs = draws[:, 0] + 1j * draws[:, 1]
            lhs, rhs = pf_reciprocal_U(k, zs)
            assert lhs.shape == rhs.shape == zs.shape
            for z, left, right in zip(zs, lhs, rhs):
                assert pf_reciprocal_U(k, complex(z)) == (left, right)

    def test_paired_draws_equal_scalar_draws(self):
        # the pf_U cells draw (Re z, Im z) pairs in one call; the stream is that of
        # the pairs drawn one double at a time, and ends at the same place
        batched, scalar = np.random.default_rng(11), np.random.default_rng(11)
        draws = batched.uniform([-2.0, -1.5], [2.0, 1.5], size=(100, 2))
        pairs = [(scalar.uniform(-2, 2), scalar.uniform(-1.5, 1.5)) for _ in range(100)]
        assert np.array_equal(draws, np.array(pairs))
        assert batched.uniform() == scalar.uniform()


class TestRamanujan353:
    def test_analytic_reduction(self):
        integral, target = ramanujan_353_finite(2, 1)
        assert target == math.pi / 4
        assert integral == pytest.approx(target, abs=1e-10)

    def test_four_three(self):
        integral, target = ramanujan_353_finite(4, 3)
        assert integral == pytest.approx(math.pi / 4, abs=1e-9)

    def test_parity_guards(self):
        with pytest.raises(ParityError):
            ramanujan_353_finite(3, 1)
        with pytest.raises(ParityError):
            ramanujan_353_finite(2, 2)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_grid(self, n, k):
        integral, _ = ramanujan_353_finite(n, k)
        assert integral == pytest.approx(math.pi / 4, abs=1e-8)


class TestQFSymmetry:
    def test_small(self):
        res = q_f_symmetry(2, 0)
        assert res.max_pair_deviation <= 1e-12
        assert res.max_abs_q < 1.0

    def test_with_geometric_part(self):
        res = q_f_symmetry(4, 1)
        assert res.max_pair_deviation <= 1e-12
        assert res.sum_f == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("nu", list(range(2, 21, 2)))
    def test_grid(self, nu):
        res = q_f_symmetry(nu, 2)
        assert res.max_pair_deviation <= 1e-12
        assert res.max_abs_q < 1.0
        assert res.sum_f == pytest.approx(nu / 2.0, abs=1e-12)

    def test_odd_nu_rejected(self):
        with pytest.raises(ParityError):
            q_f_symmetry(3, 0)


class TestProofIdentities:
    def test_simplest(self):
        assert proof_identities_check(0.5, 1, 1, 0) <= 1e-13

    def test_stated_samples(self):
        assert proof_identities_check(0.3, 4, 5, 2) <= 1e-12
        assert proof_identities_check(1.2, 4, 5, 2) <= 1e-12

    def test_random_samples(self):
        rng = np.random.default_rng(17)
        for n in (2, 3, 5, 8):
            for m in (1, 3, 5, 9):
                for u in range(-n + 1, n):
                    z = float(rng.uniform(0.1, 2.0))
                    assert proof_identities_check(z, n, m, u) <= 1e-12


class TestGlaisher:
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_theta_series(self, a):
        series, integral = glaisher_pair(a)
        assert integral == pytest.approx(series, abs=1e-6)

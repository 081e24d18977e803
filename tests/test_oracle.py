import math

import numpy as np
import pytest

from bszego import oracle
from bszego.oracle import (
    FiniteDirect,
    IntegrandSpec,
    RealLineRational,
    SingularityGuard,
    ThetaSubstituted,
)


def test_chebyshev_mass():
    spec = IntegrandSpec(lambda t: np.full_like(t, 0.5), ThetaSubstituted(1.0))
    val, err = oracle.integrate(spec, tol=1e-12)
    assert val == pytest.approx(math.pi / 2, abs=1e-12)
    assert err <= 1e-12 * (1 + abs(val))


def test_orthogonality_integral_vanishes():
    # sin*sinh numerator against the cos-plus-cosh weight at a = 1,
    # first power moment: exactly zero by the orthogonality statement.
    n, m = 3, 5

    def g(t):
        t = np.asarray(t)
        out = np.empty_like(t)
        pos = t >= 0
        A = n * np.arcsin(np.sqrt(t[pos]))
        B = m * np.arcsinh(np.sqrt(t[pos]))
        out[pos] = np.sin(A) * np.sinh(B) / (np.cos(2 * A) + np.cosh(2 * B))
        tn = t[~pos]
        P = m * np.arcsin(np.sqrt(-tn))
        Q = n * np.arcsinh(np.sqrt(-tn))
        out[~pos] = -np.sin(P) * np.sinh(Q) / (np.cos(2 * P) + np.cosh(2 * Q))
        return out * t

    val, _ = oracle.integrate(IntegrandSpec(g, ThetaSubstituted(1.0)), tol=1e-11)
    assert abs(val) < 1e-9


def test_one_parameter_family_integral():
    # int_0^1 sin(n asin t) sinh(n asinh(t/a)) / (cos(2n asin t) + cosh(2n asinh(t/a)))
    #   dt / (t sqrt((1-t^2)(1+t^2/a^2)))  =  arctan(a)/2   (odd n)
    n, a = 3, 2.0

    def f(psi):
        t = np.sin(psi)
        A = n * np.arcsin(t)
        B = n * np.arcsinh(t / a)
        return np.sin(A) * np.sinh(B) / (
            (np.cos(2 * A) + np.cosh(2 * B)) * t * np.sqrt(1 + t * t / (a * a))
        )

    def series(psi):
        return n * n * psi / (2.0 * a)

    spec = IntegrandSpec(f, FiniteDirect(0.0, math.pi / 2), (SingularityGuard(0.0, 1e-6, series),))
    val, _ = oracle.integrate(spec, tol=1e-11)
    assert val == pytest.approx(math.atan(a) / 2, abs=1e-9)


def test_fourier_cos_basis():
    assert oracle.fourier_coeff(np.cos, 1, "cos") == pytest.approx(1.0, abs=1e-12)


def test_fourier_constant_high_harmonic():
    assert oracle.fourier_coeff(lambda th: np.ones_like(th), 3, "cos") == pytest.approx(0.0, abs=1e-13)


def test_fourier_cross_module_generating_function():
    from bszego.trig_identities import reciprocal_cheb_gen, s_sum

    got = oracle.fourier_coeff(lambda th: np.imag(reciprocal_cheb_gen(3, th)), 3, "sin")
    assert got == pytest.approx(s_sum(3, 3) / 3, abs=1e-8)


def test_improper_glaisher_arctan():
    def f(x):
        return np.sin(x) * np.sinh(x) / (np.cos(2 * x) + np.cosh(2 * x)) / x

    def series(x):
        return x / 2.0

    wrapped = oracle._guarded(f, (SingularityGuard(0.0, 1e-6, series),))
    val = oracle.improper_integral(wrapped, "Exponential", tol=1e-10)
    assert val == pytest.approx(math.pi / 8, abs=1e-8)


def test_improper_fourth_moment_vanishes():
    def f(x):
        return np.sin(x) * np.sinh(x) / (np.cos(2 * x) + np.cosh(2 * x)) * x**3

    val = oracle.improper_integral(f, "Exponential", tol=1e-10)
    assert abs(val) < 1e-8


def test_improper_squared_denominator():
    alpha = math.pi / 4

    def f(x):
        return (
            np.sin(x * math.sin(alpha)) * np.sinh(x * math.cos(alpha))
            / (np.cosh(x * math.cos(alpha)) + np.cos(x * math.sin(alpha))) ** 2 / x
        )

    def series(x):
        return x * math.sin(alpha) * math.cos(alpha) / 4.0

    wrapped = oracle._guarded(f, (SingularityGuard(0.0, 1e-6, series),))
    val = oracle.improper_integral(wrapped, "Exponential", tol=1e-10)
    assert val == pytest.approx(alpha / 2, abs=1e-8)


def test_rational_substitution():
    # int_R dx/(1+x^2) = pi
    val = oracle.improper_integral(lambda x: 1.0 / (1.0 + x * x), "RationalOrder2", tol=1e-11)
    assert val == pytest.approx(math.pi, abs=1e-10)


def test_vector_integrand():
    powers = np.arange(4)

    def f(t):
        return np.asarray(t)[:, None] ** powers[None, :]

    spec = IntegrandSpec(f, ThetaSubstituted(1.0))
    vals, _ = oracle.integrate(spec, tol=1e-12)
    # Chebyshev moments: pi, 0, pi/2, 0
    assert np.allclose(vals, [math.pi, 0.0, math.pi / 2, 0.0], atol=1e-11)


def test_self_consistency_tolerance_halving():
    def g(t):
        return 1.0 / (2.0 + np.sin(7 * np.asarray(t)))

    spec = IntegrandSpec(g, FiniteDirect(0.0, 3.0))
    v1, e1 = oracle.integrate(spec, tol=1e-8)
    v2, _ = oracle.integrate(spec, tol=5e-9)
    assert abs(v1 - v2) <= max(e1, 1e-12)


def test_guard_boundary_continuity():
    # eta/t integrand: the two-term series and the direct formula must agree
    # at the guard boundary to 1e-9.
    n, m, a = 3, 5, 2.0

    def direct(t):
        t = np.asarray(t)
        A = n * np.arcsin(np.sqrt(t))
        B = m * np.arcsinh(np.sqrt(t / a))
        return np.sin(A) * np.sinh(B) / t

    def series(t):
        c = n * m / math.sqrt(a)
        slope = (1 - n * n) / 6.0 + (m * m - 1) / (6.0 * a)
        return c * (1.0 + slope * np.asarray(t))

    edge = np.array([1e-6, 1.0000001e-6, 0.9999999e-6])
    assert np.max(np.abs(direct(edge) - series(edge))) < 1e-9


def test_rational_interval_kind_through_integrate():
    spec = IntegrandSpec(lambda x: 1.0 / (4.0 + x * x), RealLineRational())
    val, _ = oracle.integrate(spec, tol=1e-10)
    assert val == pytest.approx(math.pi / 2, abs=1e-9)


def test_no_convergence_carries_best_estimate():
    from bszego.errors import NoConvergence

    # a jump discontinuity defeats bisection refinement at any depth
    spec = IntegrandSpec(lambda x: np.sign(x - 1 / math.e), FiniteDirect(0.0, 1.0))
    with pytest.raises(NoConvergence) as info:
        oracle.integrate(spec, tol=1e-13)
    assert info.value.best is not None


# ---------------------------------------------------------------------------
# the doubling trapezoid path for ThetaSubstituted with weight_power -1, +1


def test_trapezoid_agrees_with_bisection_where_the_weight_nearly_vanishes():
    # moments t^0..t^15 against the quad1 weight at (1, 15, 0.5), where rho dips to 0.011
    from bszego.weight_models import WeightSpec, weight_base

    base, power = weight_base(WeightSpec(1, 15, 0.5))
    powers = np.arange(16)

    def f(t):
        t = np.asarray(t)
        return t[:, None] ** powers[None, :] * np.asarray(base(t))[:, None]

    mu, err = oracle.integrate(IntegrandSpec(f, ThetaSubstituted(0.5, power)), tol=1e-12)
    ref, _ = oracle._adaptive(oracle._theta_integrand(f, 0.5, power), 0.0, math.pi, 1e-12)
    assert np.all(np.abs(mu - ref) <= 1e-12 * (1.0 + np.abs(mu)))
    assert 0.0 < err <= 1e-12 * (1.0 + np.max(np.abs(mu)))


def test_non_finite_sample_falls_back_to_bisection():
    # NaN at t = 0, the theta = pi/2 node of every trapezoid rule at a = 1;
    # no Gauss node of the bisection lands there
    seen = []

    def f(t):
        t = np.asarray(t)
        seen.append(t.size)
        return np.where(np.abs(t) < 1e-15, np.nan, np.exp(t))

    spec = IntegrandSpec(f, ThetaSubstituted(1.0, weight_power=+1))
    val, err = oracle.integrate(spec, tol=1e-12)
    ref, ref_err = oracle._adaptive(oracle._theta_integrand(f, 1.0, +1), 0.0, math.pi, 1e-12)
    assert seen[0] == oracle._TRAP_START + 1  # the trapezoid rule was tried first
    assert (val, err) == (ref, ref_err)
    # int_{-1}^{1} e^t sqrt(1 - t^2) dt = pi I_1(1)
    assert val == pytest.approx(math.pi * 0.5651591039924851, abs=1e-12)


def test_plain_dt_never_takes_the_trapezoid(monkeypatch):
    taken = []
    periodic = oracle._periodic

    def recording(g, tol):
        taken.append(tol)
        return periodic(g, tol)

    monkeypatch.setattr(oracle, "_periodic", recording)
    spec = IntegrandSpec(lambda t: np.asarray(t) ** 2, ThetaSubstituted(1.0, weight_power=0))
    val, _ = oracle.integrate(spec, tol=1e-12)
    assert val == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert taken == []
    for power in (-1, +1):
        oracle.integrate(IntegrandSpec(lambda t: np.ones_like(t), ThetaSubstituted(1.0, power)))
    assert len(taken) == 2


def test_trapezoid_samples_in_bounded_chunks():
    # a pole at t = 1 + 1e-6 keeps the doubling going well past the chunk size
    delta = 1e-6
    sizes = []

    def f(t):
        t = np.asarray(t)
        sizes.append(t.size)
        return (1.0 / (1.0 + delta - t))[:, None] * np.stack([np.ones_like(t), t, t * t], axis=-1)

    vals, _ = oracle.integrate(IntegrandSpec(f, ThetaSubstituted(1.0)), tol=1e-11)
    assert max(sizes) == oracle._TRAP_CHUNK
    # int_{-1}^{1} dt / ((c - t) sqrt(1 - t^2)) = pi / sqrt(c^2 - 1), c = 1 + delta
    c = 1.0 + delta
    i0 = math.pi / math.sqrt(c * c - 1.0)
    assert vals[0] == pytest.approx(i0, rel=1e-10)
    assert vals[1] == pytest.approx(c * i0 - math.pi, rel=1e-10)  # t = c - (c - t)


def test_oracle_imports_only_stdlib_numpy_and_errors():
    # the oracle must stay independent of every closed-form module
    import ast
    import sys
    from pathlib import Path

    tree = ast.parse(Path(oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                assert node.module == "errors" or (
                    node.module is None and [a.name for a in node.names] == ["errors"]
                ), ast.dump(node)
                continue
            roots = [node.module.split(".")[0]]
        else:
            continue
        for root in roots:
            assert root == "numpy" or root in sys.stdlib_module_names, root

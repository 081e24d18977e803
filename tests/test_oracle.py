import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bszego import oracle
from bszego.errors import NoConvergence
from bszego.oracle import FiniteDirect, IntegrandSpec, ThetaSubstituted
from bszego.trig_identities import _sinh_over_cos_cosh  # sinh u/(cos 2x + cosh 2u), no overflow


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

    spec = IntegrandSpec(f, FiniteDirect(0.0, math.pi / 2))  # no Gauss node at psi = 0
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
        return np.sinc(x / np.pi) * _sinh_over_cos_cosh(x, x)

    val, err = oracle.improper_integral(f, tol=1e-10)
    assert val == pytest.approx(math.pi / 8, abs=1e-8)
    assert 0.0 < err <= 1e-10


def test_improper_fourth_moment_vanishes():
    def f(x):
        return np.sin(x) * _sinh_over_cos_cosh(x, x) * x**3

    val, err = oracle.improper_integral(f, tol=1e-10)
    assert abs(val) < 1e-8
    assert 0.0 < err <= 1e-10


def test_improper_squared_denominator():
    alpha = math.pi / 4
    sa, ca = math.sin(alpha), math.cos(alpha)

    def f(x):
        # sin v / x * sinh u / (cosh u + cos v)^2 with u = x ca, v = x sa, in factors of e^-u
        e = np.exp(-x * ca)
        quotient = 2.0 * e * -np.expm1(-2.0 * x * ca) / (1.0 + 2.0 * np.cos(x * sa) * e + e * e) ** 2
        return sa * np.sinc(x * sa / np.pi) * quotient

    val, err = oracle.improper_integral(f, tol=1e-10)
    assert val == pytest.approx(alpha / 2, abs=1e-8)
    assert 0.0 < err <= 1e-10


def test_rational_substitution():
    # int_R dx/(1+x^2) = pi
    val, err = oracle.improper_integral(lambda x: 1.0 / (1.0 + x * x), tol=1e-11, two_sided=True)
    assert val == pytest.approx(math.pi, abs=1e-10)
    assert 0.0 < err <= 1e-11 * (1.0 + abs(val))


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


def test_rational_interval_kind_through_integrate():
    val, err = oracle.improper_integral(lambda x: 1.0 / (4.0 + x * x), tol=1e-10, two_sided=True)
    assert val == pytest.approx(math.pi / 2, abs=1e-9)
    assert 0.0 < err <= 1e-10 * (1.0 + abs(val))


def test_no_convergence_carries_best_estimate():
    # a jump discontinuity defeats bisection refinement at any depth
    spec = IntegrandSpec(lambda x: np.sign(x - 1 / math.e), FiniteDirect(0.0, 1.0))
    with pytest.raises(NoConvergence) as info:
        oracle.integrate(spec, tol=1e-13)
    assert info.value.best is not None


# ---------------------------------------------------------------------------
# the doubling trapezoid path for every ThetaSubstituted weight_power >= -1


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


@pytest.mark.parametrize("power, expected", [
    (+1, math.pi * 0.5651591039924851),  # int_{-1}^{1} e^t sqrt(1 - t^2) dt = pi I_1(1)
    (0, math.e - 1.0 / math.e),
], ids=["sqrt_both", "plain_dt"])
def test_non_finite_sample_falls_back_to_bisection(power, expected):
    # NaN at t = 0, the theta = pi/2 node of every trapezoid rule at a = 1;
    # no Gauss node of the bisection lands there
    seen = []

    def f(t):
        t = np.asarray(t)
        seen.append(t.size)
        return np.where(np.abs(t) < 1e-15, np.nan, np.exp(t))

    spec = IntegrandSpec(f, ThetaSubstituted(1.0, weight_power=power))
    val, err = oracle.integrate(spec, tol=1e-12)
    ref, ref_err = oracle._adaptive(oracle._theta_integrand(f, 1.0, power), 0.0, math.pi, 1e-12)
    assert seen[0] == oracle._FIRST_CALL  # the periodic rules were tried first: T_64 ... T_512
    assert (val, err) == (ref, ref_err)
    assert val == pytest.approx(expected, abs=1e-12)


def test_non_finite_sample_below_the_table_falls_back_to_bisection():
    # 1/(1.0001 - t) at a = 1 (t = cos theta) settles at T_2048; a NaN at one of the nodes
    # that T_2048 adds, past the first call's table, is seen in its level's node sum
    theta = oracle._midpoints(1024)[300]
    bad = 0.5 * (0.0 + 2.0 * np.cos(theta))  # the oracle's t at that node, bit for bit
    calls = []

    def f(t):
        calls.append(t.size)
        return np.where(t == bad, np.nan, 1.0 / (1.0001 - t))

    def clean(t):
        return 1.0 / (1.0001 - t)

    spec = IntegrandSpec(f, ThetaSubstituted(1.0, -1))
    val, err = oracle.integrate(spec, tol=1e-11)
    ref, ref_err = oracle._adaptive(oracle._theta_integrand(f, 1.0, -1), 0.0, math.pi, 1e-11)
    assert calls[:3] == [oracle._FIRST_CALL, 512, 1024]  # T_64 ... T_512, T_1024, T_2048
    assert (val, err) == (ref, ref_err)
    assert oracle._periodic(oracle._theta_integrand(clean, 1.0, -1), 1e-11) is not None


def test_finite_samples_whose_level_sum_overflows_take_bisection():
    # 65 samples of 1e307 overflow T_64's node sum; every 15-point panel sum stays finite
    calls = []

    def f(t):
        calls.append(t.size)
        return np.full(t.shape, 1e307)

    with np.errstate(over="ignore"):
        val, err = oracle.integrate(IntegrandSpec(f, ThetaSubstituted(1.0, -1)), tol=1e-12)
    ref, ref_err = oracle._adaptive(oracle._theta_integrand(f, 1.0, -1), 0.0, math.pi, 1e-12)
    # the first call was the trapezoid table, the second bisection's tree of 31 panels
    assert calls[:2] == [oracle._FIRST_CALL, 31 * oracle._GX.size]
    assert (val, err) == (ref, ref_err)
    assert val == pytest.approx(math.pi * 1e307, rel=1e-14)


def test_a_level_sum_that_overflows_warns_nothing():
    # the case above, with warnings as errors: the handled overflow of T_64's node sum
    # raises no RuntimeWarning, and the value is the one computed with overflow ignored
    spec = IntegrandSpec(lambda t: np.full(t.shape, 1e307), ThetaSubstituted(1.0, -1))
    with np.errstate(over="ignore"):
        want = oracle.integrate(spec, tol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert oracle.integrate(spec, tol=1e-12) == want


def test_a_table_level_never_reached_neither_counts_nor_warns():
    # exp(t) settles at T_128; the midpoints that T_256 and T_512 add, the first call's
    # nodes j pi/512 with j not a multiple of 4, are summed with the rest of the table,
    # but +inf and -inf inside each of the two levels (an inf - inf sum, each) change
    # nothing and warn nothing
    def clean(t):
        return np.exp(t)

    def f(t):
        out = np.exp(t)
        if t.size == oracle._FIRST_CALL:
            out[1::4], out[3::4] = np.inf, -np.inf  # T_512's midpoints
            out[2::8], out[6::8] = np.inf, -np.inf  # T_256's midpoints
        return out

    want = oracle.integrate(IntegrandSpec(clean, ThetaSubstituted(1.0, -1)), tol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert oracle.integrate(IntegrandSpec(f, ThetaSubstituted(1.0, -1)), tol=1e-12) == want


def test_an_evaluator_overflow_warning_reaches_the_caller():
    # the node sums are taken with overflow ignored, the evaluator calls are not: every
    # call, the table's and each one below it (T_1024 and T_2048 here), warns once
    calls = []

    def f(t):
        calls.append(t.size)
        np.float64(1e308) * 10.0  # the evaluator's own overflow
        return 1.0 / (1.0001 - t)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        oracle.integrate(IntegrandSpec(f, ThetaSubstituted(1.0, -1)), tol=1e-11)
    assert calls[:3] == [oracle._FIRST_CALL, 512, 1024]
    overflows = [w for w in caught if "overflow" in str(w.message)]
    assert len(overflows) == len(calls)
    assert all(w.category is RuntimeWarning for w in overflows)


def _out_of_place(vals, w):
    vals, w = np.asarray(vals), np.asarray(w)
    return vals * w.reshape(w.shape + (1,) * (vals.ndim - 1))


def _scaling_cases():
    """(the read-only arrays returned so far, evaluators by kind): evaluators whose tables
    the oracle must scale out of place, and a writeable float64 table it scales in place."""
    returned = []

    def read_only(t):
        out = np.exp(t)
        out.flags.writeable = False
        returned.append((out, out.copy()))
        return out

    return returned, {
        "own_input": lambda t: t,
        "read_only": read_only,
        "int_table": lambda t: np.full((t.size, 2), [1, 3]),
        "scalar": lambda t: 2.0,
        "float_table": lambda t: np.exp(t)[:, None] * np.stack([np.ones_like(t), t], 1),
    }


@pytest.mark.parametrize("kind", ["own_input", "read_only", "int_table", "scalar", "float_table"])
@pytest.mark.parametrize("power", [0, +1], ids=["plain_dt", "sqrt_both"])
def test_jacobian_scaling_keeps_the_out_of_place_bits(monkeypatch, power, kind):
    a = 0.5
    returned, cases = _scaling_cases()
    f = cases[kind]
    theta = oracle._THETA
    got = oracle._theta_integrand(f, a, power)(theta)
    t = np.clip(0.5 * ((1.0 - a) + (1.0 + a) * np.cos(theta)), -a, 1.0)
    want = _out_of_place(f(t), (0.5 * (1.0 + a) * np.sin(theta)) ** (power + 1))
    assert got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)
    spec = IntegrandSpec(f, ThetaSubstituted(a, power))
    value = oracle.integrate(spec, tol=1e-12)
    monkeypatch.setattr(oracle, "_scaled", _out_of_place)
    _outcomes_equal(value, oracle.integrate(spec, tol=1e-12))
    assert returned or kind != "read_only"
    for out, copy in returned:  # no read-only table was written
        assert np.array_equal(out, copy)


def test_a_writeable_float_table_is_scaled_in_place():
    tables = []

    def f(t):
        tables.append(np.stack([np.ones_like(t), t]).T)  # node-contiguous columns
        return tables[-1]

    got = oracle._theta_integrand(f, 0.5, +1)(oracle._THETA)
    assert got is tables[0] and not got.flags.c_contiguous


def test_every_theta_integral_takes_the_periodic_rules(monkeypatch):
    taken = []
    periodic = oracle._periodic

    def recording(g, tol):
        taken.append(tol)
        return periodic(g, tol)

    monkeypatch.setattr(oracle, "_periodic", recording)
    for power in (-1, 0, +1):
        oracle.integrate(IntegrandSpec(lambda t: np.ones_like(t), ThetaSubstituted(1.0, power)))
    assert len(taken) == 3


@pytest.mark.parametrize("power", [-3, -2, 2, 0.5])
def test_weight_power_other_than_minus_one_zero_or_one_is_rejected(power):
    # the three weights the periodic rules take; -2 would make g infinite at theta = 0
    with pytest.raises(ValueError, match="weight_power"):
        ThetaSubstituted(1.0, weight_power=power)


def test_plain_dt_with_a_square_root_factor_settles_through_the_trapezoid():
    # g = sin(theta)^2 e^(cos theta) is even and smooth: the trapezoid rule settles first
    def f(t):
        t = np.asarray(t)
        return np.sqrt(1.0 - t * t) * np.exp(t)

    g, calls = _recording(f)
    val, err = oracle.integrate(IntegrandSpec(g, ThetaSubstituted(1.0, 0)), tol=1e-12)
    assert len(calls) == 1
    assert (val, err) == oracle._periodic(oracle._theta_integrand(f, 1.0, 0), 1e-12)
    assert val == pytest.approx(math.pi * 0.5651591039924851, abs=1e-14)  # pi I_1(1)


@settings(max_examples=40, deadline=None)
@given(st.floats(0.25, 4.0), st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=41))
def test_plain_dt_polynomials_match_exact_references(a, coeffs):
    # p has degree <= 40 in x = (2t - (1 - a))/(1 + a), which maps [-a, 1] onto [-1, 1];
    # dt = h dx and (1 - t)(a + t) = h^2 (1 - x^2), with h = (1 + a)/2
    poly = np.polynomial.polynomial
    coeffs = np.asarray(coeffs)
    h = 0.5 * (1.0 + a)

    def p(t):
        return poly.polyval((2.0 * np.asarray(t) - (1.0 - a)) / (1.0 + a), coeffs)

    def p_root(t):
        t = np.asarray(t)
        return p(t) * np.sqrt(np.clip((1.0 - t) * (a + t), 0.0, None))

    antiderivative = poly.polyint(coeffs)
    plain = h * (poly.polyval(1.0, antiderivative) - poly.polyval(-1.0, antiderivative))
    # Gauss-Chebyshev of the second kind with 41 nodes: exact to degree 81 in x
    angle = np.arange(1, 42) * (math.pi / 42)
    root = h * h * math.pi / 42 * np.sum(np.sin(angle) ** 2 * poly.polyval(np.cos(angle), coeffs))
    for f, ref in ((p, plain), (p_root, root)):
        val, _ = oracle.integrate(IntegrandSpec(f, ThetaSubstituted(a, 0)), tol=1e-13)
        assert abs(val - ref) <= 1e-12 * (1.0 + abs(ref))


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


# ---------------------------------------------------------------------------
# level-batched bisection against a depth-first reference


def _depth_first(f, lo, hi, tol):
    """One panel per evaluator call, depth first: the bisection before level batching.

    Returns (value, err_est, accepted panels as (lo, hi) in position order,
    the number of panels split or accepted at each depth).
    """

    def panel(a, b):
        mid, hw = 0.5 * (a + b), 0.5 * (b - a)
        vals = np.asarray(f(mid + hw * oracle._GX))
        if vals.ndim == 1:
            return hw * float(np.dot(oracle._GW, vals))
        return hw * (oracle._GW @ vals)

    width = hi - lo
    coarse = panel(lo, hi)
    rough = np.max(np.abs(np.atleast_1d(coarse)))
    stack = [(lo, hi, coarse, 0)]
    accepted = []
    per_depth = [0] * (oracle._MAX_DEPTH + 1)
    err = 0.0
    while stack:
        a, b, ca, depth = stack.pop()
        per_depth[depth] += 1
        m = 0.5 * (a + b)
        left, right = panel(a, m), panel(m, b)
        fine = left + right
        diff = np.max(np.abs(np.atleast_1d(fine - ca)))
        budget = tol * max(1.0, rough) * max((b - a) / width, 1e-6)
        if diff <= 0.25 * budget or depth >= oracle._MAX_DEPTH:
            if depth >= oracle._MAX_DEPTH and diff > budget:
                raise NoConvergence("not converged", best=fine, err_est=diff)
            accepted.append((a, b, fine))
            err += diff / 15.0
        else:
            stack.append((m, b, right, depth + 1))
            stack.append((a, m, left, depth + 1))
    total = accepted[0][2]
    for _, _, v in accepted[1:]:
        total = total + v
    return total, err, [(a, b) for a, b, _ in accepted], [p for p in per_depth if p]


def _recording(f):
    """f, and the list of the point arrays it is called with."""
    calls = []

    def g(x):
        calls.append(np.array(x))
        return f(x)

    return g, calls


def _kinked(x):
    # a kink at 0.3, a steep bump at 2 and a fast oscillation: refinement goes
    # many levels deep, and some levels hold more panels than one call takes
    x = np.asarray(x)
    return np.abs(x - 0.3) ** 1.5 + 1.0 / (1e-3 + (x - 2.0) ** 2) + np.cos(1000.0 * x)


def _kinked_columns(x):
    x = np.asarray(x)
    return np.stack([_kinked(x), np.cos(7.0 * x), x ** 3 * np.exp(-x)], axis=-1)


@pytest.mark.parametrize("f", [_kinked, _kinked_columns], ids=["scalar", "npts_by_3"])
def test_level_batching_accepts_the_depth_first_panels(f):
    tol = 1e-12
    g, batched = _recording(f)
    value, err = oracle._adaptive(g, 0.0, 3.0, tol)
    h, reference = _recording(f)
    ref_value, ref_err, panels, per_depth = _depth_first(h, 0.0, 3.0, tol)
    # the same panels were split, so both evaluated the same points
    assert len(reference) == 1 + 2 * (2 * len(panels) - 1)
    assert np.array_equal(np.sort(np.concatenate(batched)), np.sort(np.concatenate(reference)))
    scale = 1.0 + np.abs(ref_value)
    assert np.all(np.abs(np.asarray(value) - ref_value) <= 1e-15 * scale)
    assert abs(err - ref_err) <= 1e-15 * np.max(scale)
    # no call above the chunk bound, at most (levels x chunks) calls after the first
    assert max(c.size for c in batched) <= oracle._TRAP_CHUNK
    halves_per_call = oracle._TRAP_CHUNK // oracle._GX.size
    chunks = -(-2 * max(per_depth) // halves_per_call)
    assert chunks > 1
    assert len(batched) <= 1 + len(per_depth) * chunks


def test_panel_budget_stops_an_integrand_that_never_settles():
    # sin(1e8 x) needs panels narrower than about 1e-8 on [0, 1], far more
    # than the budget: every panel splits at every level until it runs out
    sizes = []

    def f(x):
        sizes.append(x.size)
        return np.sin(1e8 * x)

    with pytest.raises(NoConvergence, match="panels") as info:
        oracle._adaptive(f, 0.0, 1.0, 1e-10)
    assert np.isfinite(info.value.best) and info.value.err_est > 1e-10
    # each panel ever opened is evaluated twice: at most 2 (2 _MAX_PANELS - 1) halves
    assert sum(sizes) <= oracle._GX.size * (1 + 4 * oracle._MAX_PANELS)
    assert max(sizes) <= oracle._TRAP_CHUNK


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


# ---------------------------------------------------------------------------
# grouped evaluators: independent integrals in lock-step on shared calls


def _grouped(columns, groups):
    """A grouped evaluator, (npts, G, K): group g's column j is groups[g](x) * x**j."""

    def f(x):
        x = np.asarray(x)
        powers = x[:, None] ** np.arange(columns)
        return np.stack([g(x)[:, None] * powers for g in groups], axis=1)

    return f


_GROUPS = (_kinked, lambda x: np.cos(7.0 * x), lambda x: 1e6 * x ** 3 * np.exp(-x))


def _c_ordered(f):
    """f with its values copied into a C-ordered table."""
    return lambda x: np.ascontiguousarray(f(x))


def _node_contiguous(f):
    """f with its (npts, ...) values returned as the view of a node-major buffer, whose
    node axis is last and contiguous (the layout of `poly_core.power_table`)."""

    def g(x):
        vals = np.asarray(f(x))
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(vals, 0, -1)), -1, 0)

    return g


@pytest.mark.parametrize("columns", [1, 2, 3])
def test_lock_step_groups_equal_solo_runs(columns):
    tol = 1e-12
    g, batched = _recording(_grouped(columns, _GROUPS))
    outcomes = oracle._adaptive(g, 0.0, 3.0, tol)
    assert len(outcomes) == len(_GROUPS)
    solo_points = []
    for outcome, group in zip(outcomes, _GROUPS):
        h, reference = _recording(lambda x: _grouped(columns, [group])(x)[:, 0, :])
        ref_value, ref_err, _, _ = _depth_first(h, 0.0, 3.0, tol)
        value, err = outcome
        assert value.shape == (columns,)
        scale = 1.0 + np.abs(ref_value)
        assert np.all(np.abs(value - ref_value) <= 1e-15 * scale)
        assert abs(err - ref_err) <= 1e-15 * np.max(scale)
        solo_points.append(np.concatenate(reference))
    # the cos(7x) and kinked groups keep their own share beside the 1e6 group:
    # a share of tol * 1e6 would have accepted their panels far sooner
    union = np.unique(np.concatenate(solo_points))
    assert np.array_equal(np.unique(np.concatenate(batched)), union)
    assert max(c.size for c in batched) <= oracle._TRAP_CHUNK


def test_a_group_that_never_settles_fails_alone():
    # sin(1e8 x) runs out of panels, as in the test above; exp(x) beside it
    # finishes with the value and error estimate of its own run
    def f(x):
        return np.stack([np.sin(1e8 * x), np.exp(x)], axis=-1)[:, :, None]

    restless, smooth = oracle._adaptive(f, 0.0, 1.0, 1e-10)
    assert isinstance(restless, NoConvergence) and "panels" in str(restless)
    assert restless.best.shape == (1,) and np.isfinite(restless.best[0])
    ref_value, ref_err = oracle._adaptive(np.exp, 0.0, 1.0, 1e-10)
    value, err = smooth
    assert abs(value[0] - ref_value) <= 1e-15 * (1.0 + abs(ref_value))
    assert abs(err - ref_err) <= 1e-15 * (1.0 + abs(ref_value))
    assert value[0] == pytest.approx(math.e - 1.0, abs=1e-10)


def test_grouped_rational_substitution():
    # int_R dx/(c^2 + x^2) = pi/c, one group per c; each outcome is (value, err_est)
    cs = np.array([1.0, 2.0, 30.0])

    def f(x):
        return (1.0 / (cs ** 2 + np.asarray(x)[:, None] ** 2))[:, :, None]

    outcomes = oracle.improper_integral(f, tol=1e-11, two_sided=True)
    for c, (value, err) in zip(cs, outcomes):
        assert value[0] == pytest.approx(math.pi / c, abs=1e-10)
        assert err <= 1e-11 * (1.0 + abs(value[0]))


def _solo(f, lo, hi, tol):
    """_adaptive over one interval, with a NoConvergence returned instead of raised."""
    try:
        return oracle._adaptive(f, lo, hi, tol)
    except NoConvergence as exc:
        return exc


def _same_outcome(one, other):
    """Bit-for-bit equality of two outcomes, or of two lists of them."""
    if isinstance(one, list):
        assert isinstance(other, list) and len(one) == len(other)
        for x, y in zip(one, other):
            _same_outcome(x, y)
    elif isinstance(one, NoConvergence):
        assert isinstance(other, NoConvergence) and str(one) == str(other)
        assert np.array_equal(one.best, other.best) and one.err_est == other.err_est
    else:
        (value, err), (other_value, other_err) = one, other
        assert np.array_equal(value, other_value) and err == other_err


def _lorentzians(x):
    # int_R dx/(c^2 + x^2) = pi/c, in three columns
    return 1.0 / (np.array([1.0, 2.0, 30.0]) ** 2 + np.asarray(x)[:, None] ** 2)


def _step_on_a_bump(x):
    # exp(-x^2) doubled past x = 1/3: the jump is never resolved, and on either map the
    # integral ends at _MAX_DEPTH
    x = np.asarray(x)
    return np.exp(-x * x) * (1.0 + (x > 1.0 / 3.0))


@pytest.mark.parametrize("two_sided", [False, True], ids=["one_sided", "two_sided"])
@pytest.mark.parametrize("f", [lambda x: 1.0 / (1.0 + x * x), _lorentzians,
                               lambda x: _lorentzians(x)[:, :, None], _step_on_a_bump],
                         ids=["scalar", "npts_by_3", "grouped", "never_settles"])
def test_improper_integral_is_one_pass_on_the_map(f, two_sided):
    try:
        outcome = oracle.improper_integral(f, tol=1e-11, two_sided=two_sided)
    except NoConvergence as exc:
        outcome = exc
    lo = -1.0 if two_sided else 0.0
    _same_outcome(outcome, _solo(oracle.RationalImage(f), lo, 1.0, 1e-11))
    if f is _step_on_a_bump:
        assert isinstance(outcome, NoConvergence) and "depth" in str(outcome)


@pytest.mark.parametrize("two_sided", [False, True], ids=["one_sided", "two_sided"])
def test_one_sided_improper_integral_evaluates_no_negative_x(two_sided):
    # the first panel of the one-sided map starts at s = 0, which no Gauss node touches;
    # the two-sided map evaluates both signs and, from its first panel, s = 0 itself
    g, calls = _recording(lambda x: np.exp(-np.asarray(x) ** 2))
    value, _ = oracle.improper_integral(g, tol=1e-12, two_sided=two_sided)
    x = np.concatenate(calls)
    assert value == pytest.approx(math.sqrt(math.pi) / (1.0 if two_sided else 2.0), rel=1e-12)
    if two_sided:
        assert x.min() < 0.0 < x.max() and np.any(x == 0.0)
    else:
        assert x.min() > 0.0


@pytest.mark.parametrize("shape", [
    (1, 1, 1), (7, 1, 3), (31, 1, 2), (32, 1, 2), (4, 8, 5), (2000, 1, 3), (2000, 8, 5),
    (64, 30, 1), (3, 8, 15),
])
def test_per_panel_worst_component_is_the_trailing_max(shape):
    # `_adaptive`'s per-panel worst component of a (P, G, K) table is d.max(axis=2)
    # bit for bit on either side of its size switch, NaN and inf included
    rng = np.random.default_rng(sum(shape))
    d = np.abs(rng.standard_normal(shape)) * 10.0 ** rng.uniform(-30.0, 30.0, shape)
    d.flat[rng.integers(0, d.size, 3)] = [np.nan, np.inf, 0.0]
    assert np.array_equal(oracle._worst(d), d.max(axis=2), equal_nan=True)


# ---------------------------------------------------------------------------
# the first evaluator call: the nested rules up to _FIRST_CALL points at once


def _one_level_per_call(monkeypatch, run):
    """run() with a first call of one level (T_64's nodes, or the one-panel tree)."""
    with monkeypatch.context() as m:
        m.setattr(oracle, "_FIRST_CALL", 0)
        return run()


def _near_pole(theta):
    # 1/(1 + 1e-4 - cos theta): the doublings run past T_512 before they agree
    return 1.0 / (1.0001 - np.cos(np.asarray(theta)))


def _near_pole_columns(theta):
    theta = np.asarray(theta)
    return _near_pole(theta)[:, None] * np.stack([np.ones_like(theta), np.cos(theta)], axis=-1)


@pytest.mark.parametrize("g", [_near_pole, _near_pole_columns, _node_contiguous(_near_pole_columns),
                               lambda x: np.exp(np.cos(x))],
                         ids=["scalar", "npts_by_2", "npts_by_2_node_contiguous",
                              "settles_in_the_batch"])
def test_trapezoid_first_call_equals_one_level_per_call(monkeypatch, g):
    f, batched = _recording(g)
    h, reference = _recording(g)
    value, err = oracle._periodic(f, 1e-13)
    ref_value, ref_err = _one_level_per_call(monkeypatch, lambda: oracle._periodic(h, 1e-13))
    assert np.array_equal(value, ref_value) and err == ref_err
    assert batched[0].size == oracle._FIRST_CALL and reference[0].size == oracle._TRAP_START + 1
    # the first call holds, as strided slices, the nodes the reference takes in its first
    # four calls: T_64's, then the midpoints that each doubling to T_512 adds
    step = (oracle._FIRST_CALL - 1) // oracle._TRAP_START
    assert np.array_equal(batched[0][::step], reference[0])
    for call in reference[1:4]:
        assert np.array_equal(batched[0][step // 2::step], call)
        step //= 2
    assert [c.size for c in batched[1:]] == [c.size for c in reference[4:]]


def test_theta_table_holds_the_nested_rules_of_the_first_call():
    theta = oracle._THETA
    assert theta.size == oracle._FIRST_CALL and not theta.flags.writeable
    top, n = theta.size - 1, oracle._TRAP_START
    while n <= top:
        j = theta[::top // n] * (n / math.pi)  # T_n's nodes are j pi/n, j = 0..n, in order
        assert np.array_equal(np.rint(j), np.arange(n + 1.0))
        assert np.max(np.abs(j - np.rint(j))) <= 1e-12
        if n < top:  # the midpoints T_2n adds, bit for bit those of a call below the table
            assert np.array_equal(theta[top // (2 * n)::top // n], oracle._midpoints(n))
        n *= 2


def test_a_chunk_of_midpoints_is_its_slice_of_the_level():
    # the chunks below the table build their own midpoints, on the bits of the whole level
    n = oracle._TRAP_MAX // 2
    level = oracle._midpoints(n)
    for start in range(0, n, oracle._TRAP_CHUNK):
        stop = min(n, start + oracle._TRAP_CHUNK)
        assert np.array_equal(oracle._midpoints(n, start, stop), level[start:stop])


def test_first_call_larger_than_the_table_reads_it_whole(monkeypatch):
    # a _FIRST_CALL raised after import may not truncate a rule: T_1024 and beyond take
    # their midpoints from the evaluator, and the result equals the imported setting's
    value, err = oracle._periodic(_near_pole, 1e-13)
    g, calls = _recording(_near_pole)
    with monkeypatch.context() as m:
        m.setattr(oracle, "_FIRST_CALL", 4 * oracle._FIRST_CALL)
        assert oracle._periodic(g, 1e-13) == (value, err)
    assert calls[0].size == oracle._THETA.size and len(calls) > 1
    assert value == pytest.approx(math.pi / math.sqrt(1.0001 ** 2 - 1.0), rel=1e-12)


@pytest.mark.parametrize("f", [_kinked, _kinked_columns, _node_contiguous(_kinked_columns),
                               _grouped(3, _GROUPS), np.exp],
                         ids=["scalar", "npts_by_3", "npts_by_3_node_contiguous", "grouped",
                              "settles_in_the_batch"])
def test_bisection_first_call_equals_one_level_per_call(monkeypatch, f):
    g, batched = _recording(f)
    h, reference = _recording(f)
    outcome = oracle._adaptive(g, 0.0, 3.0, 1e-12)
    ref_outcome = _one_level_per_call(monkeypatch, lambda: oracle._adaptive(h, 0.0, 3.0, 1e-12))
    if not isinstance(outcome, list):
        outcome, ref_outcome = [outcome], [ref_outcome]
    for (value, err), (ref_value, ref_err) in zip(outcome, ref_outcome):
        assert np.array_equal(value, ref_value) and err == ref_err
    # one call for the complete tree to 16 panels (31 panels), one per level below it
    assert batched[0].size == oracle._GX.size * 31 <= oracle._FIRST_CALL
    assert reference[0].size == oracle._GX.size
    assert len(batched) == max(1, len(reference) - 4)


def test_panel_sums_do_not_depend_on_the_batch():
    rng = np.random.default_rng(7)
    lo = np.sort(rng.uniform(0.0, 3.0, 300))
    hi = lo + rng.uniform(1e-6, 1.0, lo.size)
    for f in (_kinked, _kinked_columns, _node_contiguous(_kinked_columns), _grouped(3, _GROUPS)):
        together = oracle._panels(f, lo, hi)
        alone = [oracle._panels(f, lo[i:i + 1], hi[i:i + 1]) for i in range(lo.size)]
        assert np.array_equal(together, np.concatenate(alone))


# ---------------------------------------------------------------------------
# the evaluator's memory layout: node sums take an order that the table's shape fixes


def _outcomes_equal(one, other):
    one, other = (x if isinstance(x, list) else [x] for x in (one, other))
    assert len(one) == len(other)
    for (value, err), (other_value, other_err) in zip(one, other):
        assert np.array_equal(value, other_value) and err == other_err


def _near_pole_moments(theta):
    theta = np.asarray(theta)
    return _near_pole(theta)[:, None] * np.cos(theta)[:, None] ** np.arange(9)


@pytest.mark.parametrize("g", [_near_pole_columns, _near_pole_moments], ids=["npts_by_2", "npts_by_9"])
def test_trapezoid_sums_do_not_depend_on_the_layout(g):
    node = _node_contiguous(g)
    assert node(np.linspace(0.0, 1.0, 5)).flags.f_contiguous
    _outcomes_equal(oracle._periodic(node, 1e-13), oracle._periodic(_c_ordered(g), 1e-13))


@pytest.mark.parametrize("f", [_kinked_columns, _grouped(3, _GROUPS), _grouped(1, _GROUPS)],
                         ids=["npts_by_3", "grouped", "grouped_one_column"])
def test_bisection_sums_do_not_depend_on_the_layout(f):
    _outcomes_equal(oracle._adaptive(_node_contiguous(f), 0.0, 3.0, 1e-12),
                    oracle._adaptive(_c_ordered(f), 0.0, 3.0, 1e-12))


@pytest.mark.parametrize("interval", [ThetaSubstituted(0.5, +1), ThetaSubstituted(2.0, -1),
                                      ThetaSubstituted(1.0, 0), FiniteDirect(-0.5, 1.0)],
                         ids=["theta_plus", "theta_minus", "theta_plain", "finite"])
def test_integrate_does_not_depend_on_the_layout(interval):
    def f(t):  # a near pole at t = -0.4 with eight moments
        t = np.asarray(t)
        return (1.0 / (1e-3 + (t + 0.4) ** 2))[:, None] * t[:, None] ** np.arange(8)

    _outcomes_equal(oracle.integrate(IntegrandSpec(_node_contiguous(f), interval), tol=1e-12),
                    oracle.integrate(IntegrandSpec(_c_ordered(f), interval), tol=1e-12))


def test_nan_beyond_the_reached_rules_changes_nothing():
    # exp(cos theta) settles at T_128, and a panel polynomial at the first bisection;
    # NaN at every node that only an unreached finer rule or panel holds is never read
    def poisoned(f, size, reached):
        def g(x):
            out = np.array(f(x), dtype=float)
            if x.size == size:
                unreached = np.ones(out.shape, dtype=bool)
                unreached[reached] = False
                out[unreached] = np.nan
            return out
        return _recording(g)

    smooth = lambda theta: np.exp(np.cos(theta))  # noqa: E731
    g, calls = poisoned(smooth, oracle._FIRST_CALL, slice(None, None, 4))  # T_128's nodes
    assert oracle._periodic(g, 1e-12) == oracle._periodic(smooth, 1e-12)
    assert len(calls) == 1
    cubic = lambda x: x ** 3 - x  # noqa: E731
    g, calls = poisoned(cubic, oracle._GX.size * 31, slice(oracle._GX.size * 3))  # levels 0 and 1
    assert oracle._adaptive(g, 0.0, 1.0, 1e-12) == oracle._adaptive(cubic, 0.0, 1.0, 1e-12)
    assert len(calls) == 1


def test_an_integral_settled_in_the_first_call_calls_once():
    for interval in (ThetaSubstituted(1.0, -1), ThetaSubstituted(0.5, +1), FiniteDirect(0.0, 1.0)):
        f, calls = _recording(np.exp)
        oracle.integrate(IntegrandSpec(f, interval), tol=1e-12)
        assert len(calls) == 1, interval
    # plain dt with the factor sqrt((1-t)(a+t)) that every plain-dt integrand of the suites has
    f, calls = _recording(lambda t: np.sqrt(np.clip((1.0 - t) * (0.5 + t), 0.0, None)) * np.exp(t))
    oracle.integrate(IntegrandSpec(f, ThetaSubstituted(0.5, 0)), tol=1e-12)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Fourier coefficients: every harmonic from one sampling


def _fourier_reference(g, harmonic, kind):
    """The coefficient as the mean of the samples times the harmonic."""
    theta = 2.0 * np.pi * np.arange(oracle._FOURIER_POINTS) / oracle._FOURIER_POINTS
    vals = np.asarray(g(theta))
    if kind == "exp":
        return np.mean(vals * np.exp(-1j * harmonic * theta))
    if harmonic == 0:
        return np.mean(np.real(vals))
    wave = np.cos(harmonic * theta) if kind == "cos" else np.sin(harmonic * theta)
    return 2.0 * np.mean(np.real(vals) * wave)


@pytest.mark.parametrize("kind", ["cos", "sin", "exp"])
def test_fourier_harmonics_from_one_fft(kind):
    def g(theta):  # |g| <= 1, complex, with every harmonic present
        return 0.5 / (1.5 - np.exp(1j * np.asarray(theta)))

    harmonics = [0, 1, 2, 3, 5, 17, 100, oracle._FOURIER_POINTS // 2 - 1]
    f, calls = _recording(g)
    got = oracle.fourier_coeff(f, harmonics, kind)
    assert len(calls) == 1 and got.shape == (len(harmonics),)
    want = np.array([_fourier_reference(g, h, kind) for h in harmonics])
    assert np.all(np.abs(got - want) <= 1e-15)
    for h, value in zip(harmonics, got):
        one = oracle.fourier_coeff(g, h, kind)
        assert isinstance(one, complex if kind == "exp" else float) and one == value


@pytest.mark.parametrize("harmonic", [-1, oracle._FOURIER_POINTS // 2, 2.5, 3.0, True, [1, -2]])
def test_fourier_rejects_harmonics_that_alias(harmonic):
    f, calls = _recording(np.cos)
    with pytest.raises(ValueError, match="harmonics"):
        oracle.fourier_coeff(f, harmonic, "cos")
    assert calls == []


@pytest.mark.parametrize("harmonic", [0, 3])
def test_fourier_rejects_an_unknown_kind(harmonic):
    f, calls = _recording(np.cos)
    with pytest.raises(ValueError, match="kind"):
        oracle.fourier_coeff(f, harmonic, "bogus")
    assert calls == []


# ---------------------------------------------------------------------------
# a zero-width interval, and the rational map


def _no_warnings(run):
    """run(), with any warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run()


def test_zero_width_interval_is_zero():
    # its one panel holds all of its width: accepted at depth 0 with value 0 and error 0
    g, calls = _recording(np.exp)
    assert _no_warnings(lambda: oracle.integrate(IntegrandSpec(g, FiniteDirect(1.0, 1.0)))) == (0.0, 0.0)
    assert len(calls) == 1
    value, err = _no_warnings(lambda: oracle._adaptive(_kinked_columns, 2.0, 2.0, 1e-12))
    assert np.array_equal(value, np.zeros(3)) and err == 0.0


@pytest.mark.parametrize("make", [
    lambda: FiniteDirect(math.nan, 1.0),
    lambda: FiniteDirect(0.0, math.inf),
    lambda: FiniteDirect(-math.inf, 0.0),
    lambda: ThetaSubstituted(math.nan),
    lambda: ThetaSubstituted(math.inf, 0),
    lambda: ThetaSubstituted(-1.0, +1),  # -a = 1: the interval [1, 1] has no theta map
], ids=["lo_nan", "hi_inf", "lo_minus_inf", "a_nan", "a_inf", "a_minus_one"])
def test_malformed_interval_ends_are_rejected_up_front(make):
    with pytest.raises(ValueError, match="needs"):
        _no_warnings(make)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus_inf"])
@pytest.mark.parametrize("call", [
    lambda g, tol: oracle.integrate(IntegrandSpec(g, ThetaSubstituted(1.0)), tol=tol),
    lambda g, tol: oracle.integrate(IntegrandSpec(g, FiniteDirect(0.0, 1.0)), tol=tol),
    lambda g, tol: oracle.improper_integral(g, tol=tol),
    lambda g, tol: oracle.improper_integral(g, tol=tol, two_sided=True),
], ids=["theta", "finite", "improper", "improper_two_sided"])
def test_non_finite_tolerance_is_rejected_up_front(call, tol):
    # a NaN tol ran to the panel budget and an infinite one took the first level unchecked
    g, calls = _recording(lambda x: 1.0 / (1.0 + x * x))
    with pytest.raises(ValueError, match="tol must be finite"):
        call(g, tol)
    assert calls == []


def test_zero_width_interval_in_a_group_run():
    outcomes = _no_warnings(lambda: oracle._adaptive(_grouped(2, _GROUPS), 0.3, 0.3, 1e-12))
    assert len(outcomes) == len(_GROUPS)
    for value, err in outcomes:
        assert np.array_equal(value, np.zeros(2)) and err == 0.0


def test_rational_image_of_a_truncation():
    # over [-s, s] the image integrates over [-x(s), x(s)]: int_{-5}^{5} dx/(1+x^2)
    s = 10.0 / (1.0 + math.sqrt(101.0))
    x, jac = oracle._rational_map(np.array([s]))
    assert x[0] == pytest.approx(5.0, rel=1e-14)
    assert jac[0] == pytest.approx((1.0 + s * s) / (1.0 - s * s) ** 2, rel=1e-15)
    g = oracle.RationalImage(lambda x: 1.0 / (1.0 + x * x))
    value, _ = oracle.integrate(IntegrandSpec(g, FiniteDirect(-s, s)), tol=1e-12)
    assert value == pytest.approx(2.0 * math.atan(x[0]), rel=1e-12)

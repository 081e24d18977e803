import math

import numpy as np
import pytest

from bszego import oracle
from bszego.errors import NoConvergence
from bszego.oracle import (
    FiniteDirect,
    IntegrandSpec,
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
    val, err = oracle.improper_integral(wrapped, "Exponential", tol=1e-10)
    assert val == pytest.approx(math.pi / 8, abs=1e-8)
    assert 0.0 < err <= 1e-10


def test_improper_fourth_moment_vanishes():
    def f(x):
        return np.sin(x) * np.sinh(x) / (np.cos(2 * x) + np.cosh(2 * x)) * x**3

    val, err = oracle.improper_integral(f, "Exponential", tol=1e-10)
    assert abs(val) < 1e-8
    assert 0.0 < err <= 1e-10


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
    val, err = oracle.improper_integral(wrapped, "Exponential", tol=1e-10)
    assert val == pytest.approx(alpha / 2, abs=1e-8)
    assert 0.0 < err <= 1e-10


def test_rational_substitution():
    # int_R dx/(1+x^2) = pi
    val, err = oracle.improper_integral(lambda x: 1.0 / (1.0 + x * x), "RationalOrder2", tol=1e-11)
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
    val, err = oracle.improper_integral(lambda x: 1.0 / (4.0 + x * x), decay="RationalOrder2",
                                        tol=1e-10)
    assert val == pytest.approx(math.pi / 2, abs=1e-9)
    assert 0.0 < err <= 1e-10 * (1.0 + abs(val))


def test_no_convergence_carries_best_estimate():
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
    assert seen[0] == oracle._FIRST_CALL  # the trapezoid rule was tried first: T_64 ... T_512
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

    outcomes = oracle.improper_integral(f, "RationalOrder2", tol=1e-11)
    for c, (value, err) in zip(cs, outcomes):
        assert value[0] == pytest.approx(math.pi / c, abs=1e-10)
        assert err <= 1e-11 * (1.0 + abs(value[0]))


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


@pytest.mark.parametrize("g", [_near_pole, _near_pole_columns, lambda x: np.exp(np.cos(x))],
                         ids=["scalar", "npts_by_2", "settles_in_the_batch"])
def test_trapezoid_first_call_equals_one_level_per_call(monkeypatch, g):
    f, batched = _recording(g)
    h, reference = _recording(g)
    value, err = oracle._periodic(f, 1e-13)
    ref_value, ref_err = _one_level_per_call(monkeypatch, lambda: oracle._periodic(h, 1e-13))
    assert np.array_equal(value, ref_value) and err == ref_err
    assert batched[0].size == oracle._FIRST_CALL and reference[0].size == oracle._TRAP_START + 1
    # the first call starts with the nodes the reference takes in its first four calls
    first = np.concatenate(reference[:4])
    assert np.array_equal(batched[0][:first.size], first)
    assert [c.size for c in batched[1:]] == [c.size for c in reference[4:]]


@pytest.mark.parametrize("f", [_kinked, _kinked_columns, _grouped(3, _GROUPS), np.exp],
                         ids=["scalar", "npts_by_3", "grouped", "settles_in_the_batch"])
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
    for f in (_kinked, _kinked_columns, _grouped(3, _GROUPS)):
        together = oracle._panels(f, lo, hi)
        alone = [oracle._panels(f, lo[i:i + 1], hi[i:i + 1]) for i in range(lo.size)]
        assert np.array_equal(together, np.concatenate(alone))


def test_nan_beyond_the_reached_rules_changes_nothing():
    # exp(cos theta) settles at T_128, and a panel polynomial at the first bisection;
    # NaN at every node that only an unreached finer rule or panel holds is never read
    def poisoned(f, size, clean):
        def g(x):
            out = np.array(f(x), dtype=float)
            if x.size == size:
                out[clean:] = np.nan
            return out
        return _recording(g)

    smooth = lambda theta: np.exp(np.cos(theta))  # noqa: E731
    g, calls = poisoned(smooth, oracle._FIRST_CALL, 2 * 128 + 1)  # T_512's own nodes
    assert oracle._periodic(g, 1e-12) == oracle._periodic(smooth, 1e-12)
    assert len(calls) == 1
    cubic = lambda x: x ** 3 - x  # noqa: E731
    g, calls = poisoned(cubic, oracle._GX.size * 31, oracle._GX.size * 3)  # levels 2 to 4
    assert oracle._adaptive(g, 0.0, 1.0, 1e-12) == oracle._adaptive(cubic, 0.0, 1.0, 1e-12)
    assert len(calls) == 1


def test_an_integral_settled_in_the_first_call_calls_once():
    for interval in (ThetaSubstituted(1.0, -1), ThetaSubstituted(0.5, +1), FiniteDirect(0.0, 1.0)):
        f, calls = _recording(np.exp)
        oracle.integrate(IntegrandSpec(f, interval), tol=1e-12)
        assert len(calls) == 1, interval

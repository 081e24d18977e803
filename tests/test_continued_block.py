"""The block cos(n asin sqrt t), cosh(m asinh sqrt(t/a)) and every closed form built on it.

`continued_block` gives the block's four factors as entire functions of t,
on both sides of t = 0, and rho's blocks are sums of squares of the two
angles' functions.  Their values, and those of xi/eta, the factor's circle
samples and the explicit orthonormal polynomials, are checked against the
40-digit mpmath reference of `mp_reference.py` (block factors from complex
asin and asinh, rho from Chebyshev polynomials), on the same `PAIRS` x
`A_VALUES` x `t_grid` inputs, and rho's n, m -> infinity limit on R
(`limit_rho`) against the same reference's complex sqrt form.  Each
bound is relative: to |xi| + |eta|, to |rho| or |h|, which have no zeros, or,
for a product of block factors, which has, to the same product with each
factor replaced by its pair's |C| + |s| or |Ch| + |sh|.  The known roots are
pinned bit for bit against a hand-written copy, and the last section keeps
the continuation, the root ladders and the rules written once.
"""
import ast
import math
from itertools import product
from pathlib import Path

import mpmath
import numpy as np
import pytest

import mp_reference as ref
from bszego import quadrature, suites, szego_polys, trig_identities, weight_models
from bszego.errors import FactorizationResidual, ParityError
from bszego.szego_polys import explicit_eval
from bszego.weight_models import (
    Family,
    MeasureFactor,
    WeightSpec,
    build_szego_factor,
    continued_block,
    limit_rho,
    rho_eval,
    xi_eta_eval,
)

A_VALUES = [0.5, 1.1434609861934242, 2.0]
PAIRS = [(1, 1), (1, 2), (2, 1), (3, 5), (4, 6), (5, 2), (6, 3), (7, 9), (12, 7), (31, 33)]


def t_grid(a, size=200):
    rng = np.random.default_rng([20240718, int(a * 1e6)])
    special = [-a, -1e-6, -1e-7, 0.0, 1e-7, 1e-6, 1.0]
    return np.sort(np.concatenate([special, rng.uniform(-a, 1.0, size)]))


def assert_within(got, want, scale, bound):
    """|got - want| <= bound * scale, where a zero scale (t s sh at t = 0) needs got == want."""
    with np.errstate(invalid="ignore"):
        err = np.where(got == want, 0.0, np.abs(got - want) / scale)
    assert np.all(err <= bound), (float(np.max(err)), int(np.argmax(err)))


# ---------------------------------------------------------------------------
# the closed forms against the 40-digit reference


@pytest.mark.parametrize("a", A_VALUES)
@pytest.mark.parametrize("n, m", PAIRS)
def test_xi_eta_against_reference(n, m, a):
    t = t_grid(a)
    xi, eta = xi_eta_eval(WeightSpec(n, m, a), t)
    want_xi, want_eta = ref.xi_eta(t, n, m, a)
    scale = np.abs(want_xi) + np.abs(want_eta)
    assert_within(xi, want_xi, scale, 1e-13)
    assert_within(eta, want_eta, scale, 1e-13)


@pytest.mark.parametrize("a", A_VALUES)
@pytest.mark.parametrize("n, m", PAIRS)
def test_rho_quotient_against_reference(n, m, a):
    t = t_grid(a)
    want = ref.rho_block(t, n, m, a, True)
    assert_within(rho_eval(WeightSpec(n, m, a, Family.CoshMinusCosOverT), t), want, want, 5e-14)


LIMIT_X = np.array([0.0] + [sign * v for v in (1e-14, 1e-11, 1e-8, 1e-4, 1.0, 10.0, 1e3)
                             for sign in (1.0, -1.0)])


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0, 1.3, 2.0])
@pytest.mark.parametrize("family", [Family.CosPlusCosh, Family.CoshMinusCosOverT])
def test_limit_rho_against_reference(family, alpha):
    # each block's n, m -> infinity limit on R, next to x = 0 on both sides too, where the
    # quotient (cosh(alpha sqrt x) - cos sqrt x)/x written out loses digits to cancellation
    want = ref.limit_block(LIMIT_X, alpha, family is Family.CoshMinusCosOverT)
    got = limit_rho(family, alpha, None, LIMIT_X)
    assert_within(got, want, want, 1e-14)
    assert [limit_rho(family, alpha, None, x) for x in LIMIT_X] == got.tolist()


@pytest.mark.parametrize("a", A_VALUES)
@pytest.mark.parametrize("family", [Family.CosPlusCosh, Family.CoshMinusCosOverT])
@pytest.mark.parametrize("n, m", PAIRS)
def test_theta_grid_samples_against_reference(n, m, a, family):
    spec = WeightSpec(n, m, a, family)
    # theta_k = 2 pi k/N: the grids of 8 and 64 samples are every 32nd and 4th of 256's,
    # the same floats, so the reference is taken once, on the upper half of 256
    theta = 2.0 * np.pi * np.arange(129) / 256
    reference = ref.circle_samples(theta, weight_models._circle_t(theta, a), n, m, a,
                                   family is not Family.CosPlusCosh)
    for n_samples in (8, 64, 256):
        got = weight_models._theta_grid_samples(spec, n_samples)
        theta = 2.0 * np.pi * np.arange(n_samples) / n_samples
        upper = theta <= np.pi + 1e-15
        t = weight_models._circle_t(theta[upper], a)
        want = reference[:: 256 // n_samples]
        # where t rounds to an ulp inside an end, asin sqrt turns the rounding of t/a or
        # of sqrt t into an angle error of sqrt(eps): the endpoint defect of ROADMAP item 5
        off_end = ((np.abs(t + a) <= 4e-16 * a) & (t != -a)) | ((1.0 - t <= 4e-16) & (t != 1.0))
        assert_within(got[upper][~off_end], want[~off_end], np.abs(want[~off_end]), 3e-13)
        assert_within(got[upper][off_end], want[off_end], np.abs(want[off_end]), 1e-8 * (n + m))
        # the samples on (pi, 2 pi) are the exact conjugates of those on (0, pi)
        idx = np.flatnonzero(~upper)
        assert np.array_equal(got[idx], np.conj(got[n_samples - idx]))


@pytest.mark.parametrize("a", A_VALUES)
@pytest.mark.parametrize("n, M", [(1, 2), (2, 4), (3, 8), (5, 6), (16, 30)])
def test_sin2n_sinhM_products_against_reference(n, M, a):
    # sin(2n asin sqrt t) sinh(M asinh sqrt(t/a)), bare and over t, as the square suite
    # and the product families write them: t s sh and s sh
    t = t_grid(a)
    _, s, _, sh = continued_block(t, 2 * n, M, a)
    over_t, scale = ref.product(t, 2 * n, M, a, True, True, False)
    assert_within(s * sh, over_t, scale, 5e-14)
    assert_within(t * s * sh, t * over_t, np.abs(t) * scale, 5e-14)


def explicit_specs(a):
    for n, m in PAIRS:
        yield WeightSpec(n, m, a)
        yield WeightSpec(n, m, a, measure_factor=MeasureFactor.SqrtBoth)
        yield WeightSpec(n, m, a, Family.SquaredCosPlusCosh, MeasureFactor.SqrtBoth)
        yield WeightSpec(n, m, a, Family.CoshMinusCosOverT)
    for n, m, mp in [(1, 1, 1), (2, 3, 5), (3, 4, 2), (5, 7, 9), (8, 20, 10)]:
        yield WeightSpec(n, m, a, Family.ProductCosPlusCosh, MeasureFactor.SqrtBoth, mp)
        yield WeightSpec(n, m, a, Family.ProductCoshMinusCos, MeasureFactor.SqrtBoth, mp)
        yield WeightSpec(n, m, a, Family.MixedPlusMinus, MeasureFactor.SqrtRatio, mp)


def ref_explicit(spec, t):
    """The reference's values and scales of the family's polynomial at each t."""
    return ref.explicit(t, spec.family.value, spec.measure_factor.value, spec.n, spec.m,
                        spec.a, spec.m_prime)


@pytest.mark.parametrize("a", A_VALUES)
def test_explicit_eval_against_reference(a):
    t = t_grid(a)
    specs = list(explicit_specs(a))
    assert {s.family for s in specs} == set(Family)
    for spec in specs:
        with np.errstate(divide="ignore", invalid="ignore"):  # sqrt kernel is 0 at both ends
            got = explicit_eval(spec, t)
        want, scale = ref_explicit(spec, t)
        # a pole where the endpoint root divides a factor that does not vanish, at the
        # two ends only; where it does vanish, both sides take the limit
        pole = np.isinf(want)
        assert np.all((t[pole] == -a) | (t[pole] == 1.0))
        assert np.all(np.isinf(got[pole]))
        assert_within(got[~pole], want[~pole], scale[~pole], 5e-14)


@pytest.mark.parametrize("a", A_VALUES)
def test_explicit_family_against_reference(a):
    # the product form lead * prod (t - r), with the lead from h(0) in closed form, against
    # the reference's values at the midpoints between adjacent roots, away from every root
    built = 0
    for spec in explicit_specs(a):
        try:
            p = szego_polys.explicit_family(spec)
        except ParityError:
            continue
        roots = np.asarray(p.known_roots)
        ends = np.concatenate([[-a], roots, [1.0]])
        t = 0.5 * (ends[:-1] + ends[1:])
        t = t[1:-1] if len(t) > 2 else t
        want = np.abs(ref_explicit(spec, t)[0])
        got = p.leading_coeff * np.abs(np.prod(t[:, None] - roots, axis=1))
        assert np.max(np.abs(got - want) / want) <= 1e-13, spec
        built += 1
    assert built > len(list(explicit_specs(a))) // 2


# ---------------------------------------------------------------------------
# the known roots against a hand-written copy


def ref_explicit_roots(spec):
    n, m, a = spec.n, spec.m, spec.a
    fam, mf = spec.family, spec.measure_factor

    def pos_roots(den, count):
        return [math.sin(math.pi * i / den) ** 2 for i in range(1, count + 1)]

    def neg_roots(den, count, odd_numerators=False):
        if odd_numerators:
            return [-a * math.sin(math.pi * (2 * j - 1) / den) ** 2 for j in range(1, count + 1)]
        return [-a * math.sin(math.pi * j / den) ** 2 for j in range(1, count + 1)]

    if fam is Family.CosPlusCosh and mf is MeasureFactor.InvSqrtBoth:
        if n % 2 == 1 and m % 2 == 1:
            return [0.0] + pos_roots(n, (n - 1) // 2) + neg_roots(m, (m - 1) // 2)
        if n % 2 == 0 and m % 2 == 0:
            return (
                [math.sin(math.pi * (2 * i - 1) / (2 * n)) ** 2 for i in range(1, n // 2 + 1)]
                + neg_roots(2 * m, m // 2, odd_numerators=True)
            )
        raise ParityError("cos-plus-cosh explicit forms need n, m of equal parity")
    if fam is Family.CosPlusCosh and mf is MeasureFactor.SqrtBoth:
        if n % 2 == 0 and m % 2 == 0:
            return [0.0] + pos_roots(n, n // 2 - 1) + neg_roots(m, m // 2 - 1)
        raise ParityError("sqrt-both explicit form needs even n, m")
    if fam is Family.SquaredCosPlusCosh:
        if mf is not MeasureFactor.SqrtBoth:
            raise ParityError("squared family polynomial lives under the sqrt-both measure")
        return [0.0] + pos_roots(2 * n, n - 1) + neg_roots(2 * m, m - 1)
    if fam is Family.CoshMinusCosOverT:
        if mf is not MeasureFactor.InvSqrtBoth:
            raise ParityError("cosh-minus-cos polynomial lives under the inv-sqrt-both measure")
        if (n + m) % 2 == 0:
            raise ParityError("cosh-minus-cos explicit form needs n, m of opposite parity")
        if n % 2 == 1:
            return pos_roots(n, (n - 1) // 2) + neg_roots(2 * m, m // 2, odd_numerators=True)
        return (
            [math.sin(math.pi * (2 * i - 1) / (2 * n)) ** 2 for i in range(1, n // 2 + 1)]
            + neg_roots(m, (m - 1) // 2)
        )
    M = (m + spec.m_prime) if spec.m_prime is not None else None
    if fam is Family.ProductCosPlusCosh:
        if mf is not MeasureFactor.SqrtBoth:
            raise ParityError("product polynomial lives under the sqrt-both measure")
        return [0.0] + pos_roots(2 * n, n - 1) + neg_roots(M, M // 2 - 1)
    if fam is Family.ProductCoshMinusCos:
        if mf is not MeasureFactor.SqrtBoth:
            raise ParityError("product polynomial lives under the sqrt-both measure")
        return pos_roots(2 * n, n - 1) + neg_roots(M, M // 2 - 1)
    if fam is Family.MixedPlusMinus:
        if mf is not MeasureFactor.SqrtRatio:
            raise ParityError("mixed polynomial lives under the sqrt-ratio measure")
        return pos_roots(2 * n, n - 1) + neg_roots(2 * M, M // 2, odd_numerators=True)
    raise ParityError(f"no explicit polynomial for {fam} with {mf}")


def _roots_outcome(roots_of, spec):
    try:
        return np.sort(np.asarray(roots_of(spec), dtype=float)).tobytes()
    except ParityError as exc:
        return f"ParityError: {exc}"


def root_specs(a, top=17):
    for family, mf, n, m in product(Family, MeasureFactor, range(1, top), range(1, top)):
        if any(second for _, second in weight_models._BLOCKS[family]):
            for mp in range(2 - m % 2, 9, 2):  # m + m' even
                yield WeightSpec(n, m, a, family, mf, mp)
        else:
            yield WeightSpec(n, m, a, family, mf)


@pytest.mark.parametrize("a", A_VALUES)
def test_explicit_roots_unchanged(a):
    # every family and measure factor: the same sorted roots, bit for bit,
    # or the same ParityError with the same message
    outcomes = [
        (_roots_outcome(szego_polys._explicit_roots, spec),
         _roots_outcome(ref_explicit_roots, spec))
        for spec in root_specs(a)
    ]
    assert all(new == old for new, old in outcomes)
    assert 1000 < sum(isinstance(old, bytes) for _, old in outcomes) < len(outcomes)


def _masked_block_angles(t, n, m, a, maps):
    """`_block_angles` as it was written with boolean-mask gathers and scatters."""
    trig, hyp = maps
    t = np.asarray(t, dtype=float)
    x, y = np.empty_like(t), np.empty_like(t)
    pos = t >= 0.0
    tp, tn = t[pos], t[~pos]
    x[pos], y[pos] = n * trig(tp), m * hyp(tp / a)
    x[~pos], y[~pos] = m * trig(-tn / a), n * hyp(-tn)
    return x, y


@pytest.mark.parametrize("maps", [weight_models._FINITE_MAPS, (np.sqrt, np.sqrt)],
                         ids=["finite", "limit"])
@pytest.mark.parametrize("a", [0.2, 0.5, 1.0, 1.1434609861934242, 2.0, 5.0])
def test_block_angles_equal_the_masked_form_bit_for_bit(a, maps):
    rng = np.random.default_rng([34, int(a * 1e6)])
    for size in (1, 15, 513, 4096):
        t = np.concatenate([rng.uniform(-a, 1.0, size), [0.0, -0.0, 1.0, -a]])
        for n, m in ((1, 1), (2, 5), (31, 33), (63, 1)):
            got = weight_models._block_angles(t, n, m, a, maps)
            want = _masked_block_angles(t, n, m, a, maps)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), (size, n, m)


# ---------------------------------------------------------------------------
# the helper against complex asin and asinh


def _complex_block(t, n, m, a):
    """cos A, sin A/sqrt t, cosh B and sinh B/sqrt t by complex asin and asinh, at 1e-60
    for t = 0."""
    x = mpmath.mpf(float(t)) if t else mpmath.mpf("1e-60")
    A = n * mpmath.asin(mpmath.sqrt(x))
    B = m * mpmath.asinh(mpmath.sqrt(x / a))
    r = mpmath.sqrt(x)
    return [complex(mpmath.cos(A)), complex(mpmath.sin(A) / r),
            complex(mpmath.cosh(B)), complex(mpmath.sinh(B) / r)]


@pytest.mark.parametrize("a", A_VALUES)
@pytest.mark.parametrize("n, m", [(1, 1), (2, 5), (7, 4), (31, 33), (64, 2)])
def test_continued_block_matches_complex_functions(n, m, a):
    # for t < 0, asin sqrt t = i asinh sqrt(-t) and asinh sqrt(t/a) = i asin sqrt(-t/a):
    # cos A, cosh B and the sines over sqrt t stay real, and s(0) = n, sh(0) = m/sqrt(a)
    t = t_grid(a, size=60)
    C, s, Ch, sh = continued_block(t, n, m, a)
    with mpmath.workdps(40):
        want = [_complex_block(tk, n, m, a) for tk in t]
    for k, tk in enumerate(t):
        got = [C[k], s[k], Ch[k], sh[k]]
        for pair in (slice(0, 2), slice(2, 4)):
            scale = abs(want[k][pair][0]) + abs(want[k][pair][1])
            for g, w in zip(got[pair], want[k][pair]):
                assert abs(w.imag) <= 1e-30 * scale
                assert abs(g - w.real) <= 1e-13 * scale, (tk, g, w)
    zero = np.flatnonzero(t == 0.0)
    assert s[zero].tolist() == [n] and sh[zero].tolist() == [m / math.sqrt(a)]


@pytest.mark.parametrize("a", A_VALUES)
@pytest.mark.parametrize("N, M", [(1, 1), (2, 5), (7, 4), (62, 33)])
@pytest.mark.parametrize("sine_pos, sine_neg", list(product([True, False], repeat=2)))
def test_block_products_through_zero(N, M, a, sine_pos, sine_neg):
    # the four products X(N) Y(M) of the closed forms, sines over sqrt|t|: from 1e-12 out to
    # 1e-4 on either side they keep their digits, with no band or series to switch to; at
    # t = 0 they are the limits' product, and at +-1e-300, where complex asin at 40 digits
    # loses the reference, within an ulp or two of it
    h = np.array([1e-12, 1e-8, 1e-7, 1e-6, 1e-4])
    t = np.concatenate([-h[::-1], h])
    C, s, Ch, sh = continued_block(t, N, M, a)
    got = (s if sine_pos else C) * (sh if sine_neg else Ch)
    want, _ = ref.product(t, N, M, a, sine_pos, sine_neg, False)
    assert_within(got, want, np.abs(want), 1e-14)
    at_zero = (N if sine_pos else 1.0) * (M / math.sqrt(a) if sine_neg else 1.0)
    C, s, Ch, sh = continued_block(np.array([-1e-300, 0.0, 1e-300]), N, M, a)
    got = (s if sine_pos else C) * (sh if sine_neg else Ch)
    assert got[1] == at_zero
    assert_within(got, at_zero, at_zero, 5e-16)


def test_reference_imports_nothing_from_the_library():
    tree = ast.parse(Path(ref.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert not node.level, ast.dump(node)
            names = [node.module]
        else:
            continue
        assert all(name.split(".")[0] in ("functools", "mpmath", "numpy") for name in names), names


# ---------------------------------------------------------------------------
# accuracy where the sum and the difference of Chebyshev polynomials cancelled


@pytest.mark.parametrize("n, m, a", [(1, 63, 0.5), (1, 47, 0.5)])
def test_rho_relative_accuracy_near_its_minimum(n, m, a):
    # rho dips to 6.2e-4 at t = -3.1e-4 and to 1.1e-3 at t = -5.6e-4
    t = -np.logspace(-4, -3, 101)
    want = ref.rho_block(t, n, m, a, False)
    assert_within(rho_eval(WeightSpec(n, m, a), t), want, want, 1e-13)


@pytest.mark.parametrize("n, m, a", [(15, 16, 0.5), (31, 32, 2.0)])
def test_quotient_rho_relative_accuracy_near_zero(n, m, a):
    t = np.concatenate([-a * np.logspace(-12, 0, 61), np.logspace(-12, 0, 61)])
    want = ref.rho_block(t, n, m, a, True)
    assert_within(rho_eval(WeightSpec(n, m, a, Family.CoshMinusCosOverT), t), want, want, 1e-13)


@pytest.mark.parametrize("spec", [
    WeightSpec(31, 32, 0.5, Family.CoshMinusCosOverT),
    WeightSpec(32, 31, 2.0, Family.CoshMinusCosOverT),
    WeightSpec(15, 17, 1.0, Family.MixedPlusMinus, MeasureFactor.SqrtRatio, 31),
    WeightSpec(31, 33, 0.5, Family.MixedPlusMinus, MeasureFactor.SqrtRatio, 31),
    WeightSpec(15, 17, 2.0, Family.ProductCoshMinusCos, MeasureFactor.SqrtBoth, 31),
    WeightSpec(31, 33, 0.5, Family.ProductCoshMinusCos, MeasureFactor.SqrtBoth, 33),
], ids=lambda spec: f"{spec.family.value}-{spec.n}-{spec.m}-{spec.a}")
def test_explicit_eval_relative_accuracy_near_zero(spec):
    # degrees 31 to 62; none of these polynomials vanishes at t = 0
    assert 31 <= len(szego_polys._explicit_roots(spec)) <= 62
    t = np.concatenate([-spec.a * np.logspace(-12, -4, 41), np.logspace(-12, -4, 41)])
    want = ref_explicit(spec, t)[0]
    assert_within(explicit_eval(spec, t), want, np.abs(want), 1e-13)


# ---------------------------------------------------------------------------
# "written once"


def _sites(source, match):
    """The outermost function around each node of the source that matches."""
    tree = ast.parse(source)
    owner = {}
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            for node in ast.walk(fn):
                owner.setdefault(node, getattr(fn, "name", "<lambda>"))
    return [owner.get(node, "<module>") for node in ast.walk(tree) if match(node)]


def _is_asin_of_sqrt(node):
    return (
        isinstance(node, ast.Call)
        and ast.unparse(node.func) in ("np.arcsin", "np.arcsinh")
        and node.args
        and isinstance(node.args[0], ast.Call)
        and ast.unparse(node.args[0].func) == "np.sqrt"
    )


def _mentions_t(node):
    return any(isinstance(sub, ast.Name) and sub.id in ("t", "tt") for sub in ast.walk(node))


def _is_t_or_root(node):
    """t or tt, under any number of np.sqrt, np.abs and minus signs."""
    while True:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) in ("np.sqrt", "np.abs")
              and len(node.args) == 1):
            node = node.args[0]
        else:
            return isinstance(node, ast.Name) and node.id in ("t", "tt")


def _is_sign_or_quotient_by_t(node):
    """np.sign of t, a division by t, |t| or sqrt|t|, or sqrt|t| itself (t or tt)."""
    if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.sign":
        return any(_mentions_t(arg) for arg in node.args)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return _is_t_or_root(node.right)
    return (isinstance(node, ast.Call) and ast.unparse(node.func) == "np.sqrt"
            and ast.unparse(node.args[0]) in ("np.abs(t)", "np.abs(tt)"))


def _is_continuation(node):
    """A call on -t or -x (or on that over something), or cos or cosh handed on as a value,
    in a call or a tuple: the two ways of continuing a block to t < 0 by hand."""
    values = node.args if isinstance(node, ast.Call) else getattr(node, "elts", [])
    if any(ast.unparse(value) in ("np.cos", "np.cosh", "math.cos", "math.cosh")
           for value in values):
        return True
    return isinstance(node, ast.Call) and any(
        _is_negated_variable(arg.left if isinstance(arg, ast.BinOp) else arg)
        for arg in node.args)


def _is_negated_variable(node):
    """-t, -tt, -tn or -x, of a name or a subscript of one."""
    return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and any(isinstance(sub, ast.Name) and sub.id in ("t", "tt", "tn", "x")
                    for sub in ast.walk(node.operand)))


def _is_root_ladder(node):
    """sin(... pi ...) ** 2."""
    return (
        isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and ast.unparse(node.right) == "2"
        and isinstance(node.left, ast.Call)
        and ast.unparse(node.left.func) in ("math.sin", "np.sin")
        and "pi" in ast.unparse(node.left)
    )


def _is_rung_sine(node):
    """sin(... pi ...), squared or not: a rung of the root ladder."""
    return (
        isinstance(node, ast.Call)
        and ast.unparse(node.func) in ("math.sin", "np.sin")
        and "pi" in ast.unparse(node)
    )


def _is_rule_call(node):
    """A call of a rule builder, such as a rule built from its reflection."""
    return isinstance(node, ast.Call) and ast.unparse(node.func).startswith("rule_")


def _source(module):
    return Path(module.__file__).read_text()


def _is_angle_map(node):
    """Any call of asin or asinh, on any argument."""
    return isinstance(node, ast.Call) and ast.unparse(node.func) in (
        "np.arcsin", "np.arcsinh", "math.asin", "math.asinh")


def test_continuation_is_written_once():
    sites = {mod.__name__: _sites(_source(mod), _is_asin_of_sqrt)
             for mod in (weight_models, szego_polys)}
    assert sites == {
        "bszego.weight_models": ["<lambda>", "<lambda>"],  # the finite angle maps
        "bszego.szego_polys": [],
    }
    # the oracle integrands in suites and trig_identities read the block from
    # continued_block and call no angle map at all; pf_reciprocal_T's W is the complex acos
    # of the shifted partial-fraction identity, not a block
    sites = {mod.__name__: _sites(_source(mod), _is_angle_map) for mod in (suites, trig_identities)}
    assert sites == {
        "bszego.suites": [],
        "bszego.trig_identities": ["pf_reciprocal_T", "pf_reciprocal_T"],
    }
    # t is negated in _block_angles alone, once, for the angle maps, finite or their
    # limit, at |t|; and nothing else swaps cos and cosh at t < 0
    assert _sites(_source(weight_models), _is_continuation) == ["_block_angles"]
    for mod in (szego_polys, suites, trig_identities):
        assert _sites(_source(mod), _is_continuation) == []
    # every closed form is a product of the entire block factors: the one quotient by
    # sqrt|t|, with its limit at t = 0, is taken in _sines_over_root, and no sign(t) is left
    assert _sites(_source(weight_models), _is_sign_or_quotient_by_t) == ["_sines_over_root"]
    for mod in (szego_polys, suites, trig_identities):
        assert _sites(_source(mod), _is_sign_or_quotient_by_t) == []
    # the root ladders are written once too
    # the ladder's sine is written once, in weight_models; the known roots, the
    # winding count's zeros and the Gauss rules read its rungs, and no rule is
    # built from another
    assert _sites(_source(weight_models), _is_rung_sine) == ["_rung_sine"]
    for mod in (szego_polys, quadrature):
        assert _sites(_source(mod), _is_rung_sine) == []
    for mod in (weight_models, szego_polys, quadrature):
        assert _sites(_source(mod), _is_root_ladder) == []
    assert _sites(_source(quadrature), _is_rule_call) == []


# the helper that continued the four limiting-series weights to x < 0 by hand, in place of
# `limit_rho`: at x < 0 it handed g (cosh, cos) for (cos, cosh)
_CONTINUED = """def _continued(g):
    def f(x):
        x = np.asarray(x)
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = g(x[pos], np.sqrt(x[pos]), np.cos, np.cosh)
        out[~pos] = g(x[~pos], np.sqrt(-x[~pos]), np.cosh, np.cos)
        return out

    return f"""

# the block written out by hand in the theta-sum, Ramanujan-353 and form1 integrands, in
# place of continued_block
_THETA_BLOCK = """C, s, Ch, sh = continued_block(t, n, n, 1.0)
        xi, eta = C * Ch, t * s * sh
        return eta / (2.0 * (xi * xi + eta * eta)) * np.sin(m * psi)"""
_THETA_BY_HAND = """A = n * np.arcsin(np.sqrt(t))
        B = n * np.arcsinh(np.sqrt(t))
        quot = np.sin(A) * np.sinh(B) / (np.cos(2 * A) + np.cosh(2 * B))
        return quot * np.sin(m * psi)"""
_RAMANUJAN_BLOCK = """C, r, Ch, sh = continued_block(s * s, n // 2, n // 2, 1.0)
        xi, eta = C * Ch, s * s * r * sh
        return np.sin(k * n * psi) * np.cos(psi) / (2.0 * (xi * xi + eta * eta) * s)"""
_RAMANUJAN_BY_HAND = """num = np.sin(k * n * psi) * np.cos(psi)
        den = (np.cos(n * psi) + np.cosh(n * np.arcsinh(s))) * s
        return num / den"""
_FORM1_BLOCK = """C, s, Ch, sh = continued_block(t * t, n, n, a * a)
        xi, eta = C * Ch, t * t * s * sh
        # eta/sin psi is t s sh, with no 0/0 at psi = 0
        return t * s * sh / (2.0 * (xi * xi + eta * eta) * np.sqrt(1 + t * t / (a * a)))"""
_FORM1_BY_HAND = """A = n * np.arcsin(t)
        B = n * np.arcsinh(t / a)
        return np.sin(A) * np.sinh(B) / (
            (np.cos(2 * A) + np.cosh(2 * B)) * t * np.sqrt(1 + t * t / (a * a))
        )"""


@pytest.mark.parametrize("module, before, after, match, owner", [
    (szego_polys, "val = X * Y", "val = np.sign(tt) * S * Sh", _is_sign_or_quotient_by_t,
     "explicit_eval"),
    (szego_polys, "val = X * Y", "val = X * Y / np.sqrt(np.abs(tt))", _is_sign_or_quotient_by_t,
     "explicit_eval"),
    (suites, "over_t = s * sh", "over_t = np.sign(t) * S * Sh / t", _is_sign_or_quotient_by_t,
     "_square"),
    (suites, "eta_t = s * sh", "eta_t = xi_eta_eval(spec, t)[1] / t", _is_sign_or_quotient_by_t,
     "_orthogonality_rows"),
    (weight_models, "s * Ch - 1j * (C * sh)", "np.sqrt(2.0 / np.abs(t)) * (S * Ch - 1j * C * Sh)",
     _is_sign_or_quotient_by_t, "_circle_form"),
    (weight_models, "eta = tt * s * sh", "eta = np.sign(tt) * S * Sh", _is_sign_or_quotient_by_t,
     "xi_eta_eval"),
    (szego_polys, "out = d.const * val", "out = d.const * val * math.sin(math.pi / 3) ** 2",
     _is_root_ladder, "explicit_eval"),
    (szego_polys, "tt = _check_domain(t, a)", "tt = np.arcsin(np.sqrt(_check_domain(t, a)))",
     _is_asin_of_sqrt, "explicit_eval"),
    (szego_polys, "_rung_sine(k, N).tolist()", "np.sin(np.pi * k / (2 * N)).tolist()",
     _is_rung_sine, "_ladder"),
    (suites, "def _limit_integral(", _CONTINUED + "\n\n\ndef _limit_integral(", _is_continuation,
     "_continued"),
    (suites, "series = quad.limit_series(\"TwoCoshProduct\", alpha, beta, p)",
     "r = np.sqrt(-x[x < 0])\n    series = quad.limit_series(\"TwoCoshProduct\", alpha, beta, p)",
     _is_continuation, "_two_cosh_series"),
    (suites, "    return _improper(lambda x: p(x) / limit_rho(",
     "    cos, cosh = (np.cos, np.cosh) if alpha > 0 else (np.cosh, np.cos)\n"
     "    return _improper(lambda x: p(x) / limit_rho(",
     _is_continuation, "_limit_integral"),
    (weight_models, "_rung_sine(np.arange(1, m + 1), m) ** 2",
     "np.sin(np.pi * np.arange(1, m + 1) / (2 * m)) ** 2", _is_root_ladder, "_block_zeros"),
    (quadrature, "return _gauss_rule(spec, _tanh_over_sinh, math.pi",
     "nodes = [math.sin(math.pi * i / n) ** 2 for i in range(1, (n + 1) // 2)]\n"
     "    return _gauss_rule(spec, _tanh_over_sinh, math.pi",
     _is_root_ladder, "rule_cos_plus_cosh"),
    (quadrature, "spec = WeightSpec(n, m, a, Family.CoshMinusCosOverT",
     "reflected = n % 2 == 0 and rule_cosh_minus_cos(m, n, 1.0 / a)\n"
     "    spec = WeightSpec(n, m, a, Family.CoshMinusCosOverT",
     _is_rule_call, "rule_cosh_minus_cos"),
    (trig_identities, _THETA_BLOCK, _THETA_BY_HAND, _is_angle_map, "theta_integral"),
    (trig_identities, _RAMANUJAN_BLOCK, _RAMANUJAN_BY_HAND, _is_angle_map,
     "ramanujan_353_finite"),
    (suites, _FORM1_BLOCK, _FORM1_BY_HAND, _is_angle_map, "_form1"),
], ids=["sign(t) back in explicit_eval", "sqrt|t| quotient in explicit_eval",
        "quotient by t in the square suite", "quotient by t in the orthogonality rows",
        "sqrt(2/|t|) in the circle form", "sign(t) back in xi_eta_eval",
        "root ladder outside the helper", "continuation outside the helper",
        "rung sine outside the helper", "continuation helper back in the suites",
        "square root of -x in a series cell", "cos and cosh swapped as values",
        "root ladder in the winding count's zeros",
        "hand-written ladder in a rule builder",
        "signed rule built from its reflection", "block by hand in the theta-sum integral",
        "block by hand in the Ramanujan-353 integral", "block by hand in form1"])
def test_written_once_checks_catch_a_mutation(module, before, after, match, owner):
    source = _source(module)
    assert source.count(before) == 1
    assert owner not in _sites(source, match)
    assert owner in _sites(source.replace(before, after), match)


# ---------------------------------------------------------------------------
# the endpoint defect the helper leaves for later


@pytest.mark.xfail(
    strict=True,
    raises=FactorizationResidual,
    reason="t = ((1-a) + (1+a) cos theta)/2 at theta = pi rounds to -a + 2.2e-16 for this a, "
    "and asin sqrt turns that epsilon into sqrt(2 eps) = 1.49e-8 of trailing mass, "
    "above the 1e-8 bound; exact complements 1 - t and a + t taken from theta fix it",
)
def test_off_dyadic_a_builds_a_factor():
    build_szego_factor(WeightSpec(1, 1, 1.1434609861934242))

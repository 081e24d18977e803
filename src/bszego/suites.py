"""Registered verification suites: every closed form against the oracle.

Check model.  A suite is a description: the theorem ids it checks, a default
tolerance and one cell function per theorem id, listed by cell sources.  The
sources' declarations are the one place a suite's grid axes are named, each
with its default (the acceptance configuration), which a config's grid
overrides; `_check_grids` reads them and `_KINDS`.  A cell is one record: its
function gets the record's params and returns either a pair ``(closed, got)``
with error ``|closed - got|``, or a worst error it took over a sub-sweep.  A
record passes iff its error is within its tolerance.
One runner does the rest: per-cell timing, the records, tolerance resolution
(``tol_override`` > ``tolerances[suite]`` > the default), the sort and the
dispatch.  A few checks keep a fixed tolerance; the limiting series use
``tol * (1 + |series|)``.  Random sampling is seeded, each cell from its own
params, so a record does not depend on the other cells a grid lists.

Fault isolation.  A cell that raises a BszegoError yields one failed record
(closed_form 0, oracle_value and abs_error inf, the cell's tolerance) whose
``error`` names the exception class, and the sweep goes on.  Any other
exception propagates: a grid the library rejects is a usage error.
"""
from __future__ import annotations

import json
import math
import numbers
import sys
import time
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Dict, List, NamedTuple, Optional

import numpy as np

from . import oracle
from . import quadrature as quad
from . import trig_identities as trig
from .errors import BszegoError, NoConvergence, UnknownSuite
from .pick_measures import PickFunction, boundary_moments, matched_pair, moment_match_all
from .poly_core import RealPolynomial, power_table
from .szego_polys import kernel_eval, szego_orthonormal
from .weight_models import (
    _PARAM_CAP,
    Family,
    MeasureFactor,
    WeightSpec,
    build_szego_factor,
    continued_block,
    limit_rho,
    xi_eta_eval,
)

__all__ = ["VerificationRecord", "SUITES", "SUITE_CRITERIA", "run_verify"]

_SEED = 20240718


@dataclass(frozen=True)
class VerificationRecord:
    theorem_id: str
    params: dict
    closed_form: float
    oracle_value: float
    abs_error: float
    tol: float
    passed: bool
    runtime_ms: int
    error: Optional[str] = None  # exception class of a cell that raised

    def sort_key(self):
        """The order of records in a run and in a report: theorem id, then params."""
        return self.theorem_id, json.dumps(self.params, sort_keys=True)

    def core_dict(self) -> dict:
        """The fields that repeat exactly from run to run, in field order."""
        return {
            "theorem_id": self.theorem_id,
            "params": dict(self.params),
            "closed_form": self.closed_form,
            "oracle_value": self.oracle_value,
            "abs_error": self.abs_error,
            "tol": self.tol,
            "passed": self.passed,
        }


# ---------------------------------------------------------------------------
# the runner


class _Cell(NamedTuple):
    """One record's worth of work: ``run(**params)`` gives (closed, got) or a worst error."""

    theorem_id: str
    params: dict
    run: Callable
    tol: float
    closed: float = 0.0  # closed_form of a worst-error record
    relative: bool = False  # the tolerance is tol * (1 + |closed|)


def _run_cells(cells) -> List[VerificationRecord]:
    """Run the cells in order; each record is built as its cell finishes."""
    records = []
    for cell in cells:
        t0 = time.perf_counter()
        closed, tol, error = cell.closed, cell.tol, None
        try:
            out = cell.run(**cell.params)
        except BszegoError as exc:
            closed, got, err, error = 0.0, math.inf, math.inf, type(exc).__name__
        else:
            if isinstance(out, tuple):
                closed, got = out
                finite = math.isfinite(closed) and math.isfinite(got)
                err = abs(closed - got) if finite else math.inf
                if cell.relative:
                    tol = tol * (1.0 + abs(closed))
            else:
                got = err = out
        records.append(
            VerificationRecord(
                theorem_id=cell.theorem_id,
                params=cell.params,
                closed_form=float(closed),
                oracle_value=float(got),
                abs_error=float(err),
                tol=float(tol),
                passed=bool(err <= tol),
                runtime_ms=int((time.perf_counter() - t0) * 1000),
                error=error,
            )
        )
    return records


def _listed(sources, grid, tol):
    """The sources' cells; each source gets the grid laid over its declared defaults."""
    return (cell for source in sources for cell in source({**source.axes, **grid}, tol))


def _suite(default_tol, sources):
    """A SUITES entry: each source's ``(grid, tol)`` yields cells, the runner runs them."""

    def suite(grid, tol):
        return _run_cells(_listed(sources, grid, default_tol if tol is None else tol))

    return suite


def _source(axes, cap=None):
    """Decorator: declare a cell source's axes and their defaults.  n and m together
    bring the scalar axis ``n_plus_m_max``, the n + m cap (default ``cap``, None: none)."""

    def declare(source):
        source.axes = {**axes, "n_plus_m_max": cap} if "n" in axes and "m" in axes else dict(axes)
        return source

    return declare


def _product(grid, axes, keep=None):
    """Params dicts over the named axes of a full grid, first axis outermost; ``keep(n, m)``
    filters (n, m) pairs, and with n and m among the axes ``n_plus_m_max`` caps n + m."""
    cap = grid["n_plus_m_max"] if "n" in axes and "m" in axes else None
    for values in product(*(grid[name] for name in axes)):
        p = dict(zip(axes, values))
        if keep is not None and not keep(p["n"], p["m"]):
            continue
        if cap is not None and p["n"] + p["m"] > cap:
            continue
        yield p


def _cells(theorem_id, axes, keep=None, cap=None, tol=None):
    """Decorator: the cell function, as a source of one cell per grid point (fixed ``tol``)."""

    def source_of(run):
        @_source(axes, cap)
        def source(grid, suite_tol):
            for p in _product(grid, axes, keep):
                yield _Cell(theorem_id, p, run, suite_tol if tol is None else tol)

        return source

    return source_of


def _both_odd(n, m):
    return n % 2 == 1 and m % 2 == 1


_A = [0.5, 1.0, 2.0]


# ---------------------------------------------------------------------------
# orthogonality rows and rule exactness


def _head_and_scaled_powers(head, scale, t, count):
    """The node-major table [head, scale, scale t, ..., scale t^(count-1)], (npts, count + 1)."""
    rows = np.empty((count + 1, t.size))
    rows[0] = head
    np.multiply(power_table(t, count).T, scale, out=rows[1:])
    return rows.T


def _orthogonality_rows(spec, scale, j_sin, cos_measure, j_cos):
    """Worst deviation of the rows scale * int eta/t = pi/2 and int eta t^j = 0,
    j <= j_sin (against spec), and int xi t^j = 0, j <= j_cos (against cos_measure)."""

    def f_sin(t):
        _, s, _, sh = continued_block(t, spec.n, spec.m, spec.a)
        eta_t = s * sh  # eta/t
        return _head_and_scaled_powers(eta_t, t * eta_t, t, j_sin + 1)

    vals = scale * np.asarray(quad.weighted_oracle_integral(spec, f_sin, tol=1e-11))
    worst = max(abs(vals[0] - math.pi / 2), float(np.max(np.abs(vals[1:]))))
    if j_cos >= 0:
        def f_cos(t):
            xi = xi_eta_eval(spec, t)[0]
            powers = power_table(t, j_cos + 1)
            powers *= xi[:, None]
            return powers

        cspec = spec.with_measure(cos_measure)
        vals2 = np.asarray(quad.weighted_oracle_integral(cspec, f_cos, tol=1e-11))
        worst = max(worst, float(np.max(np.abs(vals2))))
    return worst


@_cells("T1star", {"n": [1, 3, 5, 7], "m": [1, 3, 5, 7], "a": _A}, keep=_both_odd)
def _t1star(n, m, a):
    # companion rows: cos*cosh numerator, plain dt, j <= (m+n-4)/2
    spec = WeightSpec(n, m, a)
    j_sin, j_cos = (m + n - 2) // 2, (m + n - 4) // 2
    return _orthogonality_rows(spec, math.sqrt(a), j_sin, MeasureFactor.PlainDt, j_cos)


@_cells("even_parity", {"n": [2, 4, 6], "m": [2, 4, 6], "a": _A},
        keep=lambda n, m: n % 2 == 0 and m % 2 == 0)
def _even_parity(n, m, a):
    spec = WeightSpec(n, m, a, measure_factor=MeasureFactor.PlainDt)
    j_sin, j_cos = (m + n - 4) // 2, (m + n - 2) // 2
    return _orthogonality_rows(spec, 1.0, j_sin, MeasureFactor.InvSqrtBoth, j_cos)


@_cells("square", {"n": [1, 2, 3], "m": [1, 2, 3], "a": _A})
def _square(n, m, a):
    spec = WeightSpec(n, m, a, Family.SquaredCosPlusCosh, MeasureFactor.PlainDt)

    def f(t):
        _, s, _, sh = continued_block(t, 2 * n, 2 * m, a)
        over_t = s * sh  # sin(2n asin sqrt t) sinh(2m asinh sqrt(t/a)) / t
        return _head_and_scaled_powers(over_t, t * over_t, t, m + n - 1)

    vals = np.asarray(quad.weighted_oracle_integral(spec, f, tol=1e-11))
    return max(abs(vals[0] - math.pi / 2), float(np.max(np.abs(vals[1:]))))


def _exactness(rule, seed, signed=False):
    """Worst relative error of the rule over 100 seeded random polynomials.

    The polynomials are the rows of one seeded (100, d+1) coefficient draw,
    the same numbers as 100 consecutive draws of d+1.  Both sides are matrix
    products: the rule applies the node Vandermonde table, the oracle side
    the moment vector.  A signed rule integrates t p(t): moments of t^j for
    j = 1..d against the signed weight equal plain moments of t^(j-1)
    against rho = (cosh-cos)/t.
    """
    degree = rule.exact_degree - 1 if signed else rule.exact_degree
    mu = quad.oracle_moments(rule.spec, degree, tol=1e-12)
    nodes = np.asarray(rule.nodes)
    weights = np.asarray(rule.weights)
    coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, (100, degree + 1))
    vals = coeffs @ np.vander(nodes, degree + 1, increasing=True).T
    got = (vals * nodes if signed else vals) @ weights
    want = coeffs @ mu
    return float(np.max(np.abs(got - want) / (1.0 + np.abs(want))))


@_cells("quad1", {"n": list(range(1, 16, 2)), "m": list(range(1, 16, 2)), "a": _A},
        keep=_both_odd, cap=16)
def _quad1(n, m, a):
    return _exactness(quad.rule_cos_plus_cosh(n, m, a), _SEED + n * 37 + m)


@_cells("quad_squared", {"n": [1, 2, 3, 4, 5], "m": [1, 2, 3, 4, 5], "a": _A})
def _quad_squared(n, m, a):
    return _exactness(quad.rule_squared(n, m, a), _SEED + n * 101 + m)


@_cells("quad_signed", {"n": [1, 3, 5, 7], "m": [2, 4, 6], "a": _A})
def _quad_signed(n, m, a):
    return _exactness(quad.rule_cosh_minus_cos(n, m, a), _SEED + n * 11 + m, signed=True)


# ---------------------------------------------------------------------------
# corollaries, single sums, spectral factors, kernels


@_cells("corollary_A", {"n": [1, 2, 3, 4, 5, 6], "a": [0.5, 1.0, 3.0]})
def _corollary_a(n, a):
    return quad.corollary_eval("A", n, a=a, tol=1e-11)


@_cells("corollary_B", {"n": [1, 2, 3, 4, 5, 6]})
def _corollary_b(n):
    return quad.corollary_eval("B", n, tol=1e-11)


@_cells("corollary_C", {"n": list(range(1, 12)), "m": list(range(1, 12))},
        keep=lambda n, m: m >= n and (n - m) % 2 == 0, cap=12)
def _corollary_c(n, m):
    return quad.corollary_eval("C", n, m=m, tol=1e-10)


_NMA7 = {"n": list(range(1, 8)), "m": list(range(1, 8)), "a": _A}


@_cells("gen_fn", _NMA7)
def _gen_fn(n, m, a):
    def f(t):
        return np.polynomial.chebyshev.chebvander(1.0 - 2.0 * np.asarray(t), n - 1)

    mu = np.atleast_1d(np.asarray(quad.weighted_oracle_integral(WeightSpec(n, m, a), f, tol=1e-11)))
    rows = quad._alternating_rows(n, m, a)  # one rung table for every u
    return max(abs(quad.sum_form(n, m, a, u, rows) - float(mu[u])) for u in range(n))


@_cells("gen_fn_beta", _NMA7, tol=1e-10)
def _gen_fn_beta(n, m, a):
    rows, rows_beta = quad._alternating_rows(n, m, a), quad._alternating_rows(n, m, a, beta=True)
    deviations = (abs(quad.sum_form_beta(n, m, a, u, rows_beta) - quad.sum_form(n, m, a, u, rows))
                  for u in range(min(n, m)))
    return max(deviations, default=0.0)


# grid sample up to n+m = 64.  The corner (31, 33, 0.5) is left out: when
# zero-freeness was checked on the float64 roots of h, the eps-level
# cancellation of the inverse transform pushed a near-circle root pair inside
# the disk there.  The winding-number certificate accepts it now, but adding
# it changes the sweep's pinned records, so it waits for a widening of the grid.
_PLUS, _MINUS = Family.CosPlusCosh.value, Family.CoshMinusCosOverT.value
_FACTOR_GRID = (
    [(_PLUS, n, m, _A) for n, m in [(1, 1), (1, 3), (3, 5), (2, 4), (5, 2), (3, 3), (7, 9)]]
    + [(_PLUS, 15, 17, _A), (_PLUS, 29, 31, [0.5]), (_PLUS, 31, 33, [1.0, 2.0])]
    + [(_MINUS, n, m, _A) for n, m in [(3, 2), (2, 3), (1, 2), (5, 4), (4, 4), (15, 16)]]
)


@_source({"combos": _FACTOR_GRID})
def _fejer_riesz_cells(grid, tol):
    for family, n, m, a_list in grid["combos"]:
        for a in a_list:
            params = {"family": family, "n": n, "m": m, "a": a}
            yield _Cell("fejer_riesz", params, _fejer_riesz, tol)


def _fejer_riesz(family, n, m, a):
    # raises on a wrong degree, h(0) <= 0, a residual above 1e-9 max rho or a nonzero winding number
    return build_szego_factor(WeightSpec(n, m, a, Family(family))).relative_residual


@_cells("kernel", {"n": [1, 3, 5, 7, 9, 11], "m": [1, 3, 5, 7, 9, 11], "a": [1.0, 2.0]},
        keep=lambda n, m: _both_odd(n, m) and m >= n, cap=12)
def _kernel(n, m, a):
    spec = WeightSpec(n, m, a)
    factor = build_szego_factor(spec)
    k = (n + m) // 2
    pk = szego_orthonormal(factor, k, MeasureFactor.InvSqrtBoth)
    pk1 = szego_orthonormal(factor, k + 1, MeasureFactor.InvSqrtBoth)
    # reproducing property: int K_k(t, 0) dmu(t) = p_0(0) int p_0 dmu = 1
    return 1.0, quad.weighted_oracle_integral(spec, kernel_eval(pk, pk1, 0.0), tol=1e-10)


# ---------------------------------------------------------------------------
# matched measures


_PHI_SET = {
    "i": PickFunction(0.0, 1j),
    "2i": PickFunction(0.0, 2j),
    "1+i": PickFunction(0.0, 1.0 + 1.0j),
    "pole": PickFunction(1.0, 1j, ((1.0, -1j),)),
}


def _once(build):
    """A getter for build(), called on first use; a BszegoError it raises is raised again
    on every call, so each cell sharing the getter still fails on its own."""
    memo = []

    def get():
        if not memo:
            try:
                memo.append((build(), None))
            except BszegoError as exc:
                memo.append((None, exc))
        value, exc = memo[0]
        if exc is not None:
            raise exc
        return value

    return get


@_source({"pairs": [(1, 1), (3, 3), (3, 5)]})
def _measure3_cells(grid, tol):
    # the nine cells of an (n, m) share one matched pair, built (its spec too, so
    # listing the cells builds nothing) by the first cell that runs, and the eight
    # moment rows share one oracle pass; both live as long as this generator, one
    # run_verify call
    draws = list(product(_PHI_SET, ("measure2", "measure5")))
    for n, m in grid["pairs"]:
        pair = _once(lambda n=n, m=m: matched_pair(WeightSpec(n, m, 1.0)))
        moments = _once(lambda pair=pair: moment_match_all(
            pair(), [(_PHI_SET[phi], form) for phi, form in draws], tol=1e-9))
        for row, (phi, form) in enumerate(draws):
            params = {"n": n, "m": m, "phi": phi, "form": form}
            yield _Cell("measure3", params, partial(_measure3, moments, row), tol)
        yield _Cell("measure3_boundary", {"n": n, "m": m}, partial(_measure3_boundary, pair),
                    0.0, closed=0.9)


def _measure3(moments, row, n, m, phi, form):
    rows, rhs = moments()
    if isinstance(rows[row], NoConvergence):
        raise rows[row]
    lhs, _ = rows[row]
    return float(np.max(np.abs(lhs - rhs) / (1.0 + np.abs(rhs))))


def _boundary_draws(rng):
    """The 30 random (phi, form) draws of a boundary cell.  A draw takes at most 9
    uniforms, read in turn from one rng.random array; lo + (hi - lo) u is the double
    rng.uniform(lo, hi) gives, so the draws are those of one rng.uniform call each."""
    u = iter(rng.random(30 * 9).tolist())

    def uniform(lo=0.0, hi=1.0):
        return lo + (hi - lo) * next(u)

    draws = []
    for _ in range(30):
        form = "measure2" if uniform() < 0.5 else "measure5"
        beta = 0.0
        if form == "measure5" and uniform() < 0.5:
            beta = uniform(0.3, 1.5)
        gamma = complex(uniform(-1.5, 1.5), uniform(0.2, 2.0))
        terms = ()
        if uniform() < 0.5:
            c = uniform(0.2, 2.0)
            terms = ((c, complex(uniform(-1.0, 1.0), -uniform(0.3, 1.5))),)
        draws.append((PickFunction(beta, gamma, terms), form))
    return draws


def _measure3_boundary(pair, n, m):
    # boundary sharpness: moment 2k-1 must generically break (relative
    # deviation, matching the tolerance convention of the j <= 2k-2 rows).
    # phi with beta > 0 under the measure2 form is excluded: there the
    # linear growth restores the large-semicircle decay and the 2k-1
    # moment genuinely matches, so the boundary is not sharp in that
    # sub-class.  The 30 draws share the pair and one oracle pass.
    draws = _boundary_draws(np.random.default_rng(_SEED + n * 13 + m))
    lhs, rhs = boundary_moments(pair(), draws, tol=1e-10)
    hits = np.count_nonzero(np.abs(lhs - rhs) > 1e-4 * np.maximum(1e-8, np.abs(lhs) + abs(rhs)))
    return max(0.0, 0.9 - hits / len(draws))


# ---------------------------------------------------------------------------
# trig identities


@_cells("353m", {"n": [2, 4, 6, 8], "k": [1, 3, 5]})
def _ramanujan_353(n, k):
    got, closed = trig.ramanujan_353_finite(n, k, tol=1e-10)
    return closed, got


@_cells("353m_qf", {"nu": list(range(2, 21, 2))}, tol=1e-12)
def _q_f_symmetry(nu):
    res = trig.q_f_symmetry(nu, 2)
    bounded = 0.0 if res.max_abs_q < 1.0 else math.inf
    return max(res.max_pair_deviation, abs(res.sum_f - nu / 2.0), bounded)


@_cells("tt", {"n": [1, 3, 5, 7, 9], "m": [3, 5, 7, 9]})
def _theta_integral(n, m):
    got, closed = trig.theta_integral(n, m, tol=1e-10)
    return closed, got


@_source({"n": [3, 5, 7], "R": 20})
def _tsgf_cells(grid, tol):
    for n in grid["n"]:
        yield _Cell("tsgf", {"n": n}, partial(trig.tsgf_fourier_check, R=grid["R"]), tol)


@_cells("pf_T", {"k": list(range(1, 9)), "c": [0.0, 0.3, 0.9]})
def _pf_T(k, c):
    theta = np.random.default_rng(_SEED + 23 * k).uniform(0.0, math.pi, 100)  # every c of a k
    lhs, rhs = trig.pf_reciprocal_T(k, theta, c)
    return float(np.max(np.abs(lhs - rhs)))


@_cells("pf_U", {"k": list(range(1, 9))})
def _pf_U(k):
    rng = np.random.default_rng(_SEED + 23 * k + 1)
    draws = rng.uniform([-2.0, -1.5], [2.0, 1.5], size=(100, 2))  # 100 (Re z, Im z) pairs
    z = draws[:, 0] + 1j * draws[:, 1]
    poles = np.cos(np.pi * np.arange(1, 2 * k + 1) / k)
    z = z[np.min(np.abs(z[:, None] - poles), axis=1) >= 1e-3]
    lhs, rhs = trig.pf_reciprocal_U(k, z)
    return float(np.max(np.abs(lhs - rhs), initial=0.0))


@_cells("proof_ids", {"n": list(range(1, 9)), "m": [1, 3, 5, 7, 9]})
def _proof_ids(n, m):
    rng = np.random.default_rng(_SEED + 17 * n + m)
    worst = 0.0
    for u in range(-n + 1, n):
        z = float(rng.uniform(0.05, 2.5))
        worst = max(worst, trig.proof_identities_check(z, n, m, u))
    return worst


# ---------------------------------------------------------------------------
# limiting / improper checks


@_source({"a": _A, "k": [1, 2], "n_form1": [1, 3, 5], "n_even": [2, 4], "cmc_alpha": [0.8, 1.3],
          "alpha": [math.pi / 6, math.pi / 4, 1.0], "two_cosh": [(1.0, 1.0), (1.5, 0.7)]})
def _limiting_cells(grid, tol):
    for a in grid["a"]:
        yield _Cell("arctan1", {"a": a}, _arctan1, tol)
    for k in grid["k"]:
        yield _Cell("vanishing_moment", {"k": k}, _vanishing_moment, tol)
    for n, a in product(grid["n_form1"], grid["a"]):
        yield _Cell("form1", {"n": n, "a": a}, _form1, tol)
    for n in grid["n_even"]:
        yield _Cell("coscosheven", {"n": n}, _coscosheven, tol)
    for alpha in grid["alpha"]:
        yield _Cell("alpha_integral", {"alpha": alpha}, _alpha_integral, tol)
    # limiting series vs oracle integrals over R
    for (alpha, beta), deg in product(grid["two_cosh"], range(3)):
        params = {"alpha": alpha, "beta": beta, "deg": deg}
        yield _Cell("two_cosh_series", params, _two_cosh_series, tol, relative=True)
    for alpha in grid["cmc_alpha"]:
        yield _Cell("cmc_series_parity", {"alpha": alpha}, _cmc_series_parity, 1e-10, relative=True)
        yield _Cell("cmc_series", {"alpha": alpha}, _cmc_series, tol, relative=True)
    params = {"alpha": 1.2, "beta": 0.8}
    yield _Cell("product_cmc_series", params, _product_cmc_series, tol, relative=True)
    yield _Cell("mixed_series", {"alpha": 1.0, "beta": 1.0}, _mixed_series, tol, relative=True)
    for a in grid["a"]:
        yield _Cell("glaisher_theta", {"a": a}, lambda a: trig.glaisher_pair(a, tol=1e-10), tol)


def _improper(f, two_sided=False):
    """Oracle integral of f over (0, inf), or over R when two_sided."""
    value, _ = oracle.improper_integral(f, tol=1e-10, two_sided=two_sided)
    return value


def _arctan1(a):
    def f(x):
        return np.sinc(x / np.pi) * trig._sinh_over_cos_cosh(x, x / a)

    return math.atan(a) / 2.0, _improper(f)


def _vanishing_moment(k):
    def f(x):
        return np.sin(x) * trig._sinh_over_cos_cosh(x, x) * x ** (4 * k - 1)

    return 0.0, _improper(f)


def _form1(n, a):
    def f(psi):
        t = np.sin(psi)
        C, s, Ch, sh = continued_block(t * t, n, n, a * a)
        xi, eta = C * Ch, t * t * s * sh
        # eta/sin psi is t s sh, with no 0/0 at psi = 0
        return t * s * sh / (2.0 * (xi * xi + eta * eta) * np.sqrt(1 + t * t / (a * a)))

    spec = oracle.IntegrandSpec(f, oracle.FiniteDirect(0.0, math.pi / 2))
    return math.atan(a) / 2.0, oracle.integrate(spec, tol=1e-10)[0]


def _coscosheven(n):
    def f(psi):
        t = np.sin(psi)
        C, s, Ch, sh = continued_block(t * t, n, n, 1.0)
        xi, eta = C * Ch, t * t * s * sh
        return xi / (2.0 * (xi * xi + eta * eta)) * t / np.sqrt(1 + t * t)

    spec = oracle.IntegrandSpec(f, oracle.FiniteDirect(0.0, math.pi / 2))
    return 0.0, oracle.integrate(spec, tol=1e-10)[0]


def _alpha_integral(alpha):
    sa, ca = math.sin(alpha), math.cos(alpha)

    def f(x):
        # sin v / x * sinh u / (cosh u + cos v)^2 with u = x ca, v = x sa, in factors of e^-u
        u, v = x * ca, x * sa
        e = np.exp(-u)
        quotient = 2.0 * e * -np.expm1(-2.0 * u) / (1.0 + 2.0 * np.cos(v) * e + e * e) ** 2
        return sa * np.sinc(v / np.pi) * quotient

    return alpha / 2.0, _improper(f)


_TWO_COSH_COEFFS = ([1.0], [0.0, 1.0], [0.3, -1.2, 0.7])  # test polynomial by degree
_ONE = RealPolynomial([1.0])
_CMC_P = RealPolynomial([1.0, 0.5])  # the test polynomial of the cosh-minus-cos series


def _limit_integral(family, alpha, beta, p):
    """Oracle integral over R of p/`limit_rho`(family, alpha, beta, .)."""
    return _improper(lambda x: p(x) / limit_rho(family, alpha, beta, x), two_sided=True)


def _two_cosh_series(alpha, beta, deg):
    p = RealPolynomial(_TWO_COSH_COEFFS[deg])
    series = quad.limit_series("TwoCoshProduct", alpha, beta, p)
    return series, _limit_integral(Family.ProductCosPlusCosh, alpha, beta, p)


def _cmc_series_parity(alpha):
    v0 = quad.limit_series("CoshMinusCosX", alpha, None, _CMC_P, variant=0)
    return v0, quad.limit_series("CoshMinusCosX", alpha, None, _CMC_P, variant=1)


def _cmc_series(alpha):
    v0 = quad.limit_series("CoshMinusCosX", alpha, None, _CMC_P, variant=0)
    integral = _limit_integral(Family.CoshMinusCosOverT, alpha, None, _CMC_P)
    return v0, integral / (4.0 * math.pi ** 4)


def _product_cmc_series(alpha, beta):
    series = quad.limit_series("ProductCoshMinusCosX2", alpha, beta, _ONE)
    integral = _limit_integral(Family.ProductCoshMinusCos, alpha, beta, _ONE)
    return series, integral / (2.0 * math.pi ** 6)


def _mixed_series(alpha, beta):
    series = quad.limit_series("MixedX", alpha, beta, _ONE)
    integral = _limit_integral(Family.MixedPlusMinus, alpha, beta, _ONE)
    return series, integral / (2.0 * math.pi ** 4)


# ---------------------------------------------------------------------------
# registry: suite id -> (acceptance criterion, default tolerance, cell sources)

_REGISTRY = {
    "T1star": (1, 1e-8, [_t1star]),
    "even_parity": (2, 1e-8, [_even_parity]),
    "square": (3, 1e-8, [_square]),
    "quad1": (4, 1e-8, [_quad1]),
    "quad_squared": (5, 1e-8, [_quad_squared]),
    "quad_signed": (6, 1e-8, [_quad_signed]),
    "corollary_A": (7, 1e-9, [_corollary_a]),
    "corollary_B": (7, 1e-9, [_corollary_b]),
    "corollary_C": (7, 1e-8, [_corollary_c]),
    "gen_fn": (8, 1e-8, [_gen_fn, _gen_fn_beta]),
    "fejer_riesz": (9, 1e-9, [_fejer_riesz_cells]),
    "kernel": (10, 1e-7, [_kernel]),
    "measure3": (11, 1e-6, [_measure3_cells]),
    "353m": (12, 1e-8, [_ramanujan_353, _q_f_symmetry]),
    "tt": (13, 1e-8, [_theta_integral]),
    "tsgf": (13, 1e-7, [_tsgf_cells]),
    "pf": (14, 1e-10, [_pf_T, _pf_U]),
    "limiting": (15, 1e-6, [_limiting_cells]),
    "proof_ids": (16, 1e-12, [_proof_ids]),
}
SUITES: Dict[str, Callable] = {sid: _suite(tol, src) for sid, (_, tol, src) in _REGISTRY.items()}
# acceptance-criterion coverage (criterion index by suite)
SUITE_CRITERIA: Dict[str, int] = {sid: crit for sid, (crit, _, _) in _REGISTRY.items()}


def _positive_int(v):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v > 0


def _real(v, positive=True):
    # abs(v) <= max double is False for NaN, for +-inf and for an int too large for a double
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max and (v > 0 or not positive))


def _odd(v):
    return _positive_int(v) and v % 2 == 1


def _even(v):
    return _positive_int(v) and v % 2 == 0


def _pairs_of(ok):
    return lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(ok, v))


# axis name, in any suite -> (what it takes, the test of a value, whether it is one value);
# an axis of one suite only takes the values its closed form holds for
_KINDS = {
    **dict.fromkeys(["n", "m", "k"], ("positive integers", _positive_int, False)),
    **dict.fromkeys(["nu", "n_even"], ("positive even integers", _even, False)),
    "n_form1": ("positive odd integers", _odd, False),
    "n_plus_m_max": ("a positive integer or null", lambda v: v is None or _positive_int(v), True),
    "R": (f"a positive integer at most {trig.TSGF_R_MAX}",
          lambda v: _positive_int(v) and v <= trig.TSGF_R_MAX, True),
    **dict.fromkeys(["a", "alpha", "cmc_alpha"], ("finite positive reals", _real, False)),
    "c": ("reals in [0, 1)", lambda v: _real(v, positive=False) and trig.pf_shift_ok(v), False),
    "pairs": ("[n, m] pairs of positive odd integers", _pairs_of(_odd), False),
    "two_cosh": ("[alpha, beta] pairs of finite positive reals", _pairs_of(_real), False),
    "combos": ("[family, n, m, [a, ...]] entries with a known family, positive integers n, m "
               "and finite positive reals a",
               lambda v: isinstance(v, (list, tuple)) and len(v) == 4
               and v[0] in [f.value for f in Family]
               and _positive_int(v[1]) and _positive_int(v[2])
               and isinstance(v[3], (list, tuple)) and all(map(_real, v[3])), False),
}


def _check_suite_ids(what, by_suite):
    """Reject a key of a config's grids or tolerances that is no suite id, which would
    otherwise be ignored: ValueError names it and the known ids."""
    for name in by_suite:
        if name not in _REGISTRY:
            raise ValueError(f"{what}: unknown suite {name!r}; known: {sorted(SUITES)}")


def _check_grids(grids):
    """Reject a malformed grid before any cell runs; the ValueError names the suite.
    It reads only the sources' declared axes and `_KINDS`: in turn, a key that is no
    suite id, a grid that is no dict, an undeclared axis, a value of the wrong shape or
    kind; then, on the listed cells (listing runs none), a grid that lists no cell and
    a cell whose n, m or n + m is past the cap."""
    if not isinstance(grids, dict):
        raise ValueError(f"grids must map suite ids to grids, got {grids!r}")
    _check_suite_ids("grids", grids)
    for name, grid in grids.items():
        where = f"grid of suite {name!r}"
        if not isinstance(grid, dict):
            raise ValueError(f"{where} must map axes to values, got {grid!r}")
        sources = _REGISTRY[name][2]
        axes = {axis for source in sources for axis in source.axes}  # as declared
        for axis, values in grid.items():
            if axis not in axes:
                raise ValueError(f"{where}: unknown axis {axis!r}; its cells read {sorted(axes)}")
            want, ok, scalar = _KINDS[axis]
            if not (scalar or isinstance(values, (list, tuple))):
                raise ValueError(f"{where}: axis {axis!r} needs a list of values, got {values!r}")
            for v in [values] if scalar else values:
                if not ok(v):
                    raise ValueError(f"{where}: axis {axis!r} needs {want}, got {v!r}")
        params = [cell.params for cell in _listed(sources, grid, None)]
        if not params:
            raise ValueError(f"{where} lists no cell: {grid!r}")
        for p in params:
            n, m = p.get("n", 0), p.get("m", 0)
            for bound, value in (("n", n), ("m", m), ("n + m", n + m)):
                if value > _PARAM_CAP:
                    raise ValueError(f"{where}: params {p!r} exceed {bound} <= {_PARAM_CAP}")


def _check_tolerances(tolerances, tol_override):
    """Reject, before any cell runs, a tolerance that checks nothing: not a
    number, NaN (fails every record), +inf (passes every record) or negative
    (fails every record).  The ValueError names the suite or the override."""
    if not isinstance(tolerances, dict):
        raise ValueError(f"tolerances must map suite ids to numbers, got {tolerances!r}")
    _check_suite_ids("tolerances", tolerances)
    named = [(f"suite {name!r}", tol) for name, tol in tolerances.items()]
    if tol_override is not None:
        named.append(("the override", tol_override))
    for name, tol in named:
        if isinstance(tol, bool) or not isinstance(tol, (int, float)):
            raise ValueError(f"tolerance of {name} must be a number, got {tol!r}")
        if not (math.isfinite(tol) and tol >= 0):
            raise ValueError(f"tolerance of {name} must be finite and non-negative, got {tol!r}")


def run_verify(
    suite: str = "all",
    grids: Optional[dict] = None,
    tolerances: Optional[dict] = None,
    tol_override: Optional[float] = None,
) -> List[VerificationRecord]:
    """Run one suite or all of them, in turn; returns records sorted deterministically."""
    grids = grids or {}
    tolerances = tolerances or {}
    _check_grids(grids)
    _check_tolerances(tolerances, tol_override)
    if suite == "all":
        names = sorted(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise UnknownSuite(f"unknown suite {suite!r}; known: {sorted(SUITES)}")
    records: List[VerificationRecord] = []
    for name in names:
        tol = tol_override if tol_override is not None else tolerances.get(name)
        records.extend(SUITES[name](grids.get(name, {}), tol))
    records.sort(key=lambda r: r.sort_key())
    return records

#!/usr/bin/env python3
"""Time the primitive, oracle, spectral-factor and matched-measure layers: the least of
R repeats of K calls, per call.

Times `build_szego_factor`, `_certify_zero_free`, `szego_orthonormal` (degree k of
the explicit family, measure inv_sqrt_both, on a factor built beforehand) and
`explicit_family` on four specs, and the matched-measure layers on the five pairs
the measure3 cells run: `matched_pair`, and on a pair built beforehand
`pick_eval` and `densities` (465 points in [-60, 60], the boundary cell's 30
draws, their arrays built once as an oracle pass builds them), `boundary_moments`
(those 30 draws, tol 1e-10) and `moment_match_all` (the eight draws of the moment
cells, tol 1e-9), as the cells call them.  Times `oracle.improper_integral` on three
limiting cells: the call each cell makes, with its integrand and arguments, caught
while the cell runs once (one-sided arctan1 at a = 1, two-sided two_cosh_series at
(1.5, 0.7, 2), one-sided glaisher_theta at a = 2), with the evaluator points of one
call.  Times the primitives `rho_eval`, `xi_eta_eval` and `explicit_eval` of the quad1
cell (15, 1, 2.0) at 513 and 4096 points of [-a, 1] (the sizes of an oracle
integral's first and of its deepest evaluator calls), and that cell's theta integral,
`oracle_moments` to degree 15 at tol 1e-12, which runs the doubling trapezoid rule to
its deepest level of the default sweep, with its evaluator points.  Counts the minor
page faults of two `run_verify("all")` sweeps in turn, before any timing, with
getrusage(RUSAGE_SELF) on this process: the first sweep's include the first calls'
set-up, the second's are the steady state.

Prints one row per layer and spec in microseconds per call, or one JSON
document with --json.  The least of the repeats is the figure least disturbed by
other load on the host; compare two commits by running this script from each
checkout on the same host, in turns.

Usage:
    python scripts/bench_layers.py [--repeat 7] [--number 200] [--json]
"""
import argparse
import json
import pathlib
import resource
import sys
import timeit

# Import bszego from this checkout's src, so the script runs without installing.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from bszego import oracle, pick_measures, quadrature, suites, weight_models  # noqa: E402
from bszego.pick_measures import (  # noqa: E402
    boundary_moments,
    matched_pair,
    moment_match_all,
    pick_eval,
)
from bszego.szego_polys import explicit_eval, explicit_family, szego_orthonormal  # noqa: E402
from bszego.weight_models import (  # noqa: E402
    Family,
    MeasureFactor,
    WeightSpec,
    build_szego_factor,
    rho_eval,
    xi_eta_eval,
)

SPECS = [
    WeightSpec(1, 1, 1.0),
    WeightSpec(15, 17, 1.0),
    WeightSpec(31, 33, 2.0),
    WeightSpec(15, 16, 1.0, Family.CoshMinusCosOverT),
]


# the pairs of the measure3 cells
PAIRS = [WeightSpec(n, m, 1.0) for n, m in [(1, 1), (3, 3), (3, 5), (5, 3), (5, 5)]]


def _label(spec):
    return f"{spec.family.value}({spec.n}, {spec.m}, {spec.a})"


def _calls(spec):
    """(layer name, zero-argument call) for the spec; the factor is built once, up front."""
    factor = build_szego_factor(spec)
    k = (spec.n + spec.m - (spec.family is Family.CoshMinusCosOverT)) // 2
    return [
        ("build_szego_factor", lambda: build_szego_factor(spec)),
        ("_certify_zero_free", lambda: weight_models._certify_zero_free(spec)),
        ("szego_orthonormal", lambda: szego_orthonormal(factor, k, MeasureFactor.InvSqrtBoth)),
        ("explicit_family", lambda: explicit_family(spec)),
    ]


def _pair_calls(spec):
    """(layer name, zero-argument call) of the matched-measure layers on the pair, with the
    draws of its boundary cell and of its moment cells; the pair is built once, up front."""
    pair = matched_pair(spec)
    boundary = suites._boundary_draws(np.random.default_rng(suites._SEED + 13 * spec.n + spec.m))
    draws = pick_measures._Draws(boundary)
    x = np.linspace(-60.0, 60.0, 465)
    moments = [(suites._PHI_SET[phi], form) for phi in suites._PHI_SET
               for form in ("measure2", "measure5")]
    return [
        ("matched_pair", lambda: matched_pair(spec)),
        ("pick_eval", lambda: pick_eval(draws.phis, x)),
        ("densities", lambda: pick_measures.densities(pair, draws, x)),
        ("boundary_moments", lambda: boundary_moments(pair, boundary, tol=1e-10)),
        ("moment_match_all", lambda: moment_match_all(pair, moments, tol=1e-9)),
    ]


# the limiting cells whose improper integral is timed
IMPROPER = [
    ("arctan1", {"a": 1.0}),
    ("two_cosh_series", {"alpha": 1.5, "beta": 0.7, "deg": 2}),
    ("glaisher_theta", {"a": 2.0}),
]


def _improper_calls():
    """(label, zero-argument call, evaluator points per call) of the improper_integral call
    each IMPROPER cell makes, caught while the cell runs once."""
    cells = {(c.theorem_id, json.dumps(c.params, sort_keys=True)): c
             for c in suites._limiting_cells(suites._limiting_cells.axes, None)}
    real = oracle.improper_integral
    calls = []
    for theorem_id, params in IMPROPER:
        cell = cells[(theorem_id, json.dumps(params, sort_keys=True))]
        seen = []
        oracle.improper_integral = lambda *args, **kw: seen.append((args, kw)) or real(*args, **kw)
        try:
            cell.run(**cell.params)
        finally:
            oracle.improper_integral = real
        (f, *args), kw = seen[0]
        points = []
        real(lambda x: points.append(np.size(x)) or f(x), *args, **kw)
        label = f"{theorem_id}({', '.join(str(v) for v in params.values())})"
        calls.append((label, lambda f=f, args=args, kw=kw: real(f, *args, **kw), sum(points)))
    return calls


# the quad1 cell whose theta integral runs deepest in the default sweep (65 537 points)
DEEP = WeightSpec(15, 1, 2.0)
PRIMITIVE_POINTS = (513, 4096)


def _primitive_calls():
    """(label, (layer name, zero-argument call)) of rho_eval, xi_eta_eval and explicit_eval
    on DEEP at PRIMITIVE_POINTS evenly spaced points of [-a, 1]."""
    calls = []
    for layer, primitive in (("rho_eval", rho_eval), ("xi_eta_eval", xi_eta_eval),
                             ("explicit_eval", explicit_eval)):
        for npts in PRIMITIVE_POINTS:
            t = np.linspace(-DEEP.a, 1.0, npts)
            calls.append((f"{_label(DEEP)} {npts} points",
                          (layer, lambda primitive=primitive, t=t: primitive(DEEP, t))))
    return calls


def _deep_theta_call():
    """(label, zero-argument call, evaluator points per call) of oracle_moments on DEEP as
    its quad1 cell calls it; the points are counted on the monomial tables it builds."""
    rule = quadrature.rule_cos_plus_cosh(DEEP.n, DEEP.m, DEEP.a)

    def call():
        return quadrature.oracle_moments(rule.spec, rule.exact_degree, tol=1e-12)

    real, points = quadrature.power_table, []
    quadrature.power_table = lambda t, count: points.append(np.size(t)) or real(t, count)
    try:
        call()
    finally:
        quadrature.power_table = real
    return f"quad1({DEEP.n}, {DEEP.m}, {DEEP.a})", call, sum(points)


def _sweep_faults(sweeps=2):
    """Minor page faults of each of `sweeps` run_verify("all") calls in turn, in this
    process."""
    faults = []
    for _ in range(sweeps):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        suites.run_verify("all")
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return faults


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=7, help="R, the repeats (default 7)")
    ap.add_argument("--number", type=int, default=200, help="K, calls per repeat (default 200)")
    ap.add_argument("--json", action="store_true", help="print one JSON document")
    args = ap.parse_args()
    if args.repeat < 1 or args.number < 1:
        ap.error("--repeat and --number must be at least 1")
    faults = _sweep_faults()
    us, points = {}, {"improper_integral": {}, "oracle_moments": {}}
    timed = [(_label(spec), call) for spec in SPECS for call in _calls(spec)]
    timed += [(_label(spec), call) for spec in PAIRS for call in _pair_calls(spec)]
    for label, call, count in _improper_calls():
        timed.append((label, ("improper_integral", call)))
        points["improper_integral"][label] = count
    timed += _primitive_calls()
    label, call, count = _deep_theta_call()
    timed.append((label, ("oracle_moments", call)))
    points["oracle_moments"][label] = count
    for label, (layer, call) in timed:
        least = min(timeit.repeat(call, number=args.number, repeat=args.repeat))
        us.setdefault(layer, {})[label] = round(1e6 * least / args.number, 2)
    if args.json:
        print(json.dumps({"unit": "us per call", "repeat": args.repeat, "number": args.number,
                          "layers": us,
                          **{f"{layer} points per call": row for layer, row in points.items()},
                          "run_verify('all') minor faults": faults}, indent=2))
        return 0
    print(f"run_verify('all') minor faults: {faults[0]} (first sweep), {faults[1]} (second)")
    for layer, row in us.items():
        for label, value in row.items():
            count = f" {points[layer][label]:8d} points" if layer in points else ""
            print(f"{layer:20s} {label:36s} {value:10.2f} us{count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

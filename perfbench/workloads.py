"""Workload generators, per-op runners and the output gate.

Everything here is imported by the worker process after ``src`` of the
checkout has been put first on ``sys.path``; nothing imports ``bszego`` at
module level so the generators can be tested without running the program.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# ---------------------------------------------------------------------------
# sweep: the acceptance configuration through the CLI entry point

SWEEP_ARGV = ["verify", "--suite", "all", "--jobs", "1", "--format", "json"]
SWEEP_RECORDS = 907
# sha256 over each record's (theorem_id, params, tol, passed), in report order,
# taken at the commit that introduced this benchmark.  Record values
# (closed_form, oracle_value, abs_error) are left out so a more accurate
# oracle does not trip the gate; a changed grid, tolerance or verdict does.
SWEEP_FINGERPRINT = "30ec5108269f497f21d17d9c65019cbeba08c0b65e0a2e1cc8665883339cdecf"
# The documented C11 deficit: measure5 form with the beta > 0 "pole" map.
SWEEP_KNOWN_RED = [
    ("measure3", {"form": "measure5", "m": 1, "n": 1, "phi": "pole"}),
    ("measure3", {"form": "measure5", "m": 3, "n": 3, "phi": "pole"}),
    ("measure3", {"form": "measure5", "m": 5, "n": 3, "phi": "pole"}),
]


def sweep_fingerprint(records) -> str:
    """Hash of the verdict-defining fields of report records (dicts)."""
    rows = [[r["theorem_id"], r["params"], r["tol"], r["passed"]] for r in records]
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def check_sweep(doc) -> list:
    """Gate for one sweep report; returns a list of mismatch messages."""
    records = doc["records"]
    problems = []
    if len(records) != SWEEP_RECORDS:
        problems.append(f"sweep: {len(records)} records, expected {SWEEP_RECORDS}")
    red = [(r["theorem_id"], r["params"]) for r in records if not r["passed"]]
    if red != SWEEP_KNOWN_RED:
        problems.append(f"sweep: failing records {red}, expected {SWEEP_KNOWN_RED}")
    got = sweep_fingerprint(records)
    if got != SWEEP_FINGERPRINT:
        problems.append(f"sweep: fingerprint {got} != pinned {SWEEP_FINGERPRINT}")
    return problems


# ---------------------------------------------------------------------------
# cells_mixed: single-cell run_verify calls across the oracle-bearing suites

CELL_SUITES = [
    "T1star", "even_parity", "square", "quad1", "quad_squared",
    "quad_signed", "gen_fn", "kernel", "measure3",
]
CELLS_PER_SUITE = 45  # 405 cells, so the tail is the 11th largest (p97.5)
# Default tolerance of every record a cell can emit.  A record whose tol
# differs was loosened or tightened behind the benchmark's back.
DEFAULT_TOL = {
    "T1star": 1e-8,
    "even_parity": 1e-8,
    "square": 1e-8,
    "quad1": 1e-8,
    "quad_squared": 1e-8,
    "quad_signed": 1e-8,
    "gen_fn": 1e-8,
    "gen_fn_beta": 1e-10,
    "kernel": 1e-7,
    "measure3": 1e-6,
    "measure3_boundary": 0.0,
}
# (n, m) for which a matched measure exists: k - 1 = 0 or deg rho < 2(k - 1).
MEASURE3_PAIRS = [(1, 1), (3, 3), (3, 5), (5, 3), (5, 5)]
# Quadrature cells whose weight nearly vanishes on [-a, 1] need deep adaptive
# refinement (0.4 to 11 s each).  They stay in `sweep`; here they would turn
# the per-cell tail into a handful of outliers.
NEAR_DEGENERATE_MIN_WEIGHT = 0.03
A_LO, A_HI = 0.5, 2.0
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _odd(lo, hi):
    return [k for k in range(lo, hi + 1) if k % 2 == 1]


def _even(lo, hi):
    return [k for k in range(lo, hi + 1) if k % 2 == 0]


# (n values, m values, admissible (n, m) predicate) per a-bearing suite,
# following each suite's default grid.  gen_fn reaches n = m = 8 so the
# gen_fn_beta accuracy defect at (8, 8, a ~ 1.5) can be drawn.
_NM_SPACE = {
    "T1star": (_odd(1, 7), _odd(1, 7), lambda n, m: True),
    "even_parity": (_even(2, 6), _even(2, 6), lambda n, m: True),
    "square": ([1, 2, 3], [1, 2, 3], lambda n, m: True),
    "quad1": (_odd(1, 15), _odd(1, 15), lambda n, m: n + m <= 16),
    "quad_squared": ([1, 2, 3, 4, 5], [1, 2, 3, 4, 5], lambda n, m: True),
    "quad_signed": (_odd(1, 7), _even(2, 6), lambda n, m: True),
    "gen_fn": (list(range(1, 9)), list(range(1, 9)), lambda n, m: True),
    "kernel": (_odd(1, 11), _odd(1, 11), lambda n, m: m >= n and n + m <= 12),
}


def _systematic(rng, items, k):
    """k items evenly spaced through `items` from a random start.

    A seed then changes which items are drawn but hardly the mix, so the
    cost of a run does not hinge on how many expensive draws came up.
    """
    step = len(items) / k
    start = rng.uniform(0.0, step)
    return [items[int(start + i * step) % len(items)] for i in range(k)]


def _lattice_a(rng, k):
    """k values of a, log-uniform in [A_LO, A_HI], on a randomly shifted
    golden-ratio lattice.

    Zipped with the systematic draws above, the i-th item gets the i-th a, so
    the draws cover (item, log a) evenly, one in each of k log-strata of a:
    how many draws land in a region where the library fails hardly changes
    from seed to seed.
    """
    u = (rng.uniform() + np.arange(k) * GOLDEN) % 1.0
    return [float(A_LO * (A_HI / A_LO) ** x) for x in u]


def cos_plus_cosh_min(n: int, m: int, a: float) -> float:
    """min over [-a, 1] of T_n(1 - 2t) + T_m(1 + 2t/a), on a fine grid.

    Computed with numpy's Chebyshev module, independently of bszego.
    """
    t = np.linspace(-a, 1.0, 20001)
    cheb = np.polynomial.chebyshev.chebval
    return float(np.min(cheb(1.0 - 2.0 * t, [0] * n + [1]) + cheb(1.0 + 2.0 * t / a, [0] * m + [1])))


def near_degenerate(suite: str, n: int, m: int, a: float) -> bool:
    if suite == "quad1":
        return cos_plus_cosh_min(n, m, a) < NEAR_DEGENERATE_MIN_WEIGHT
    if suite == "quad_squared":
        return cos_plus_cosh_min(n, m, a) ** 2 < NEAR_DEGENERATE_MIN_WEIGHT
    return False


def _suite_cells(rng, suite: str):
    if suite == "measure3":
        return [(suite, {"pairs": [MEASURE3_PAIRS[k % len(MEASURE3_PAIRS)]]})
                for k in range(CELLS_PER_SUITE)]
    ns, ms, ok = _NM_SPACE[suite]
    pairs = [(n, m) for n in ns for m in ms if ok(n, m)]
    cells = []
    for (n, m), a in zip(_systematic(rng, pairs, CELLS_PER_SUITE),
                         _lattice_a(rng, CELLS_PER_SUITE)):
        while near_degenerate(suite, n, m, a):  # keep a, take another pair
            n, m = pairs[rng.integers(len(pairs))]
        cells.append((suite, {"n": [n], "m": [m], "a": [a]}))
    return cells


def cell_list(seed: int):
    """The cells of a seed: CELLS_PER_SUITE per suite, shuffled.

    measure3 has no `a`; its pairs are cycled so every seed carries the same
    measure3 cost.
    """
    rng = np.random.default_rng([seed, 1])
    cells = [c for s in CELL_SUITES for c in _suite_cells(rng, s)]
    order = rng.permutation(len(cells))
    return [cells[i] for i in order]


def check_cell(suite: str, records) -> list:
    """Gate for one cell's records (VerificationRecord objects)."""
    problems = []
    if not records:
        problems.append(f"{suite}: cell produced no records")
    for r in records:
        want = DEFAULT_TOL.get(r.theorem_id)
        if want is None or r.tol != want:
            problems.append(f"{r.theorem_id} {r.params}: tol {r.tol} != default {want}")
        if r.passed != (r.abs_error <= r.tol):
            problems.append(f"{r.theorem_id} {r.params}: verdict disagrees with abs_error/tol")
    return problems


# ---------------------------------------------------------------------------
# factor_build: spectral factor -> generic orthonormal polynomial vs explicit

FACTOR_OPS = 1200  # the tail is the 11th largest of 1200 (p99.2)
PARAM_CAP = 64  # n + m cap of WeightSpec
# Relative coefficient tolerance between the generic and explicit
# polynomials.  The worst seen over about 12 000 draws at the commit that
# introduced the benchmark was 3.9e-7 (power-basis coefficients of degree ~30).
FACTOR_REL_TOL = 1e-5
FAMILIES = ("cos_plus_cosh", "cosh_minus_cos_over_t")


def _factor_pairs(family: str):
    """Admissible (n, m), ordered by n + m so systematic draws stratify the degree.

    The explicit forms need n, m of equal parity for cos_plus_cosh and of
    opposite parity for cosh_minus_cos_over_t.
    """
    same = family == FAMILIES[0]
    pairs = [
        (n, m)
        for n in range(1, PARAM_CAP)
        for m in range(1, PARAM_CAP + 1 - n)
        if ((n + m) % 2 == 0) == same
    ]
    return sorted(pairs, key=lambda p: (p[0] + p[1], p[0]))


_PAIRS = {f: _factor_pairs(f) for f in FAMILIES}


def factor_list(seed: int):
    """(family, n, m, a) draws of a seed, half from each base family,
    uniform over admissible pairs and log-uniform in a, both stratified."""
    rng = np.random.default_rng([seed, 2])
    half = FACTOR_OPS // 2
    ops = [
        (family, n, m, a)
        for family in FAMILIES
        for (n, m), a in zip(_systematic(rng, _PAIRS[family], half), _lattice_a(rng, half))
    ]
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def explicit_degree(family: str, n: int, m: int) -> int:
    return (n + m) // 2 if family == FAMILIES[0] else (n + m - 1) // 2


def factor_mismatch(generic, explicit) -> float:
    """max |c_generic - c_explicit| / max |c_explicit| (inf on degree mismatch)."""
    cg = np.asarray(generic.poly.coeffs)
    ce = np.asarray(explicit.poly.coeffs)
    if cg.shape != ce.shape:
        return math.inf
    return float(np.max(np.abs(cg - ce)) / np.max(np.abs(ce)))

"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (run with -s to see them live) and
asserts that every record of the corresponding verification sweep passed.

Criterion 11 is asserted exactly as stated and is expected to stay red:
the measure5 moment identity genuinely fails at the top order 2k-2 whenever
the rational map has a linear term (beta > 0) -- the large-semicircle
integral behind the identity no longer vanishes, and the observed deficit
equals c_{2k-2} beta / (kappa_k (kappa_k + beta kappa_{k-1})) exactly.  See
the companion test below, which pins that corrected statement and passes.
"""
import math
from collections import Counter

import numpy as np
import pytest

from bszego.pick_measures import PickFunction, matched_pair, moment_match_all
from bszego.suites import run_verify as _run_verify
from bszego.weight_models import WeightSpec

_CACHE = {}


def run_verify(suite):
    # each suite sweep is deterministic, so share one run across the module
    if suite not in _CACHE:
        _CACHE[suite] = _run_verify(suite)
    return _CACHE[suite]


def _report(criterion: str, records) -> list:
    bad = [r for r in records if not r.passed]
    status = "PASS" if not bad else "FAIL"
    print(f"acceptance {criterion}: {status} ({len(records) - len(bad)}/{len(records)} records)")
    for r in bad[:8]:
        print(f"    failed: {r.theorem_id} {r.params} err={r.abs_error:.3e} tol={r.tol:.1e}")
    return bad


def _assert_all(criterion, records):
    bad = _report(criterion, records)
    assert not bad, f"{criterion}: {len(bad)} of {len(records)} records failed"


def test_c01_odd_orthogonality_rows():
    _assert_all("criterion 01 (odd-parameter orthogonality rows)", run_verify("T1star"))


def test_c02_even_orthogonality_rows():
    _assert_all("criterion 02 (even-parameter rows)", run_verify("even_parity"))


def test_c03_squared_weight_rows():
    _assert_all("criterion 03 (squared-weight rows)", run_verify("square"))


def test_c04_gauss_rule_exactness():
    _assert_all("criterion 04 (closed-form rule exactness)", run_verify("quad1"))


def test_c05_squared_rule_exactness():
    _assert_all("criterion 05 (squared-weight rule exactness)", run_verify("quad_squared"))


def test_c06_signed_rule_exactness():
    _assert_all("criterion 06 (signed rule exactness)", run_verify("quad_signed"))


def test_c07_corollaries():
    records = (
        run_verify("corollary_A") + run_verify("corollary_B") + run_verify("corollary_C")
    )
    _assert_all("criterion 07 (corollary integrals)", records)


def test_c08_single_sum_forms():
    _assert_all("criterion 08 (single-sum forms + beta variant)", run_verify("gen_fn"))


def test_c09_spectral_factor_validation():
    _assert_all("criterion 09 (spectral factor validation)", run_verify("fejer_riesz"))


def test_c10_kernel_reproducing():
    _assert_all("criterion 10 (kernel reproducing property)", run_verify("kernel"))


def test_c11_matched_measures_as_stated():
    # Asserted exactly as stated; the measure5/beta>0 cells fail by a genuine
    # small deficit at the top moment (see module docstring and the ledger).
    _assert_all("criterion 11 (matched-moment measures, as stated)", run_verify("measure3"))


def test_c11_matched_measures_attainable_part_and_deficit_formula():
    records = run_verify("measure3")
    affected = [
        r for r in records
        if r.theorem_id == "measure3"
        and r.params.get("phi") == "pole"
        and r.params.get("form") == "measure5"
    ]
    rest = [r for r in records if r not in affected]
    _report("criterion 11 (attainable part)", rest)
    assert all(r.passed for r in rest)
    # the failing cells break by exactly the predicted top-moment deficit
    phi = PickFunction(1.0, 1j, ((1.0, -1j),))
    for n, m in [(1, 1), (3, 3), (3, 5)]:
        pair = matched_pair(WeightSpec(n, m, 1.0))
        ((lhs, _),), rhs = moment_match_all(pair, [(phi, "measure5")], tol=1e-9)
        if pair.k > 1:  # moments below the top one all match
            assert np.max(np.abs(lhs - rhs)[:-1] / (1.0 + np.abs(rhs)[:-1])) < 1e-6
        kk, km = pair.p_k.leading_coeff, pair.p_km1.leading_coeff
        deficit = phi.beta / (kk * (kk + phi.beta * km))
        assert rhs[-1] - lhs[-1] == pytest.approx(deficit, rel=1e-4)
    print("acceptance criterion 11 (corrected statement incl. deficit formula): PASS")


def test_c12_ramanujan_353_finite():
    _assert_all("criterion 12 (finite Ramanujan-353 analog)", run_verify("353m"))


def test_c13_theta_sums_and_generating_functions():
    records = run_verify("tt") + run_verify("tsgf")
    _assert_all("criterion 13 (theta-sum integral + generating function)", records)


def test_c14_partial_fractions():
    _assert_all("criterion 14 (partial-fraction identities)", run_verify("pf"))


def test_c15_limiting_and_improper():
    _assert_all("criterion 15 (limiting/improper checks)", run_verify("limiting"))


def test_c15_improper_integrals_on_the_map_are_accurate(monkeypatch):
    # every limiting record whose oracle value is an improper integral lands within
    # 1e-12 (1 + |closed form|): on the rational map the integral over R is one pass,
    # with no truncation and no tail budget
    from bszego import oracle, suites

    calls = []
    improper = oracle.improper_integral
    monkeypatch.setattr(oracle, "improper_integral",
                        lambda *args, **kwargs: calls.append(args) or improper(*args, **kwargs))
    checked = []
    _, tol, sources = suites._REGISTRY["limiting"]
    for cell in suites._listed(sources, {}, tol):
        before = len(calls)
        (record,) = suites._run_cells([cell])
        if len(calls) > before:
            checked.append(record)
    assert len(checked) == 21
    bad = [(r.theorem_id, r.params, r.abs_error) for r in checked
           if not r.abs_error <= 1e-12 * (1.0 + abs(r.closed_form))]
    assert not bad, bad


def test_c16_proof_identities():
    _assert_all("criterion 16 (discrete proof identities)", run_verify("proof_ids"))


def test_full_suite_runtime_budget():
    # the spec asks for the whole verification sweep under 120 s; this is a
    # fresh timed run (the cache is bypassed) whose result seeds the cache
    # for the isolation test below
    import time

    t0 = time.time()
    _CACHE["all"] = _run_verify("all")
    elapsed = time.time() - t0
    print(f"acceptance runtime: all suites in {elapsed:.1f}s")
    assert elapsed < 120.0


def test_c11_known_defect_is_isolated():
    # guard: nothing else in the complete sweep fails
    records = run_verify("all")
    bad = [r for r in records if not r.passed]
    assert all(
        r.theorem_id == "measure3"
        and r.params.get("phi") == "pole"
        and r.params.get("form") == "measure5"
        for r in bad
    ), f"unexpected failures: {[(r.theorem_id, r.params) for r in bad]}"
    assert len(bad) == 3


# records per theorem id in the complete acceptance sweep (907 in total); a
# dropped or duplicated cell changes this table
_RECORDS_PER_THEOREM = {
    "353m": 12, "353m_qf": 10, "T1star": 48, "alpha_integral": 3, "arctan1": 3,
    "cmc_series": 2, "cmc_series_parity": 2, "corollary_A": 18, "corollary_B": 6,
    "corollary_C": 21, "coscosheven": 2, "even_parity": 27, "fejer_riesz": 45,
    "form1": 9, "gen_fn": 147, "gen_fn_beta": 147, "glaisher_theta": 3, "kernel": 24,
    "measure3": 24, "measure3_boundary": 3, "mixed_series": 1, "pf_T": 24, "pf_U": 8,
    "product_cmc_series": 1, "proof_ids": 40, "quad1": 108, "quad_signed": 36,
    "quad_squared": 75, "square": 27, "tsgf": 3, "tt": 20, "two_cosh_series": 6,
    "vanishing_moment": 2,
}


def test_full_sweep_record_counts():
    records = run_verify("all")
    assert Counter(r.theorem_id for r in records) == _RECORDS_PER_THEOREM
    assert len(records) == 907
    assert all(r.error is None for r in records)


@pytest.mark.parametrize("n, m", [(1, 63), (63, 1)])
def test_quad1_cap_cells_at_a_one_pass(n, m):
    # outside the default grid: with rho a sum of squares, 1/rho has relative accuracy
    # where rho dips to its minimum, and the oracle settles these cells
    grid = {"n": [n], "m": [m], "a": [1.0], "n_plus_m_max": 64}
    (record,) = _run_verify("quad1", grids={"quad1": grid})
    assert record.passed and record.error is None, record


def test_cell_whose_integral_never_settles_fails_in_bounded_memory():
    # the kernel integrand at (1, 31, 1) never settles: bisection must stop at
    # its panel budget with one NoConvergence record, not grow its point
    # tables until a MemoryError ends the sweep.  The child interpreter has a
    # 2 GB address-space limit, so a regression fails instead of exhausting
    # the host, and it reports its own peak resident set.
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import bszego

    code = (
        "import json, resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2 * 10**9, 2 * 10**9))\n"
        "from bszego.suites import run_verify\n"
        "grid = {'n': [1], 'm': [31], 'a': [1.0], 'n_plus_m_max': 64}\n"
        "records = run_verify('kernel', grids={'kernel': grid})\n"
        "print(json.dumps({'records': [[r.passed, r.error] for r in records],\n"
        "                  'maxrss_kb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(bszego.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    doc = json.loads(out.stdout.splitlines()[-1])
    assert doc["records"] == [[False, "NoConvergence"]]
    assert doc["maxrss_kb"] < 300 * 1024

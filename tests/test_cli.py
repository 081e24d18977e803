import ast
import dataclasses
import io
import json
import math
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from bszego import cli, suites
from bszego.cli import main, records_to_csv, records_to_json, records_to_text
from bszego.suites import SUITE_CRITERIA, SUITES, VerificationRecord, run_verify
from bszego.weight_models import Family


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRuleCommand:
    def test_simplest_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "rule", "--n", "1", "--m", "1", "--a", "1",
                               "--family", "cos_plus_cosh", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["nodes"] == [0.0]
        assert doc["weights"] == [1.5707963267948966]
        assert doc["exact_degree"] == 1
        assert doc["constraint"] is None
        assert doc["spec"]["family"] == "cos_plus_cosh"

    def test_csv_row_count(self, capsys):
        code, out, _ = run_cli(capsys, "rule", "--n", "3", "--m", "5", "--a", "2",
                               "--family", "cos_plus_cosh", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "node,weight"
        assert len(lines) == 1 + 4  # (m+n)/2 nodes

    def test_constraint_flag_in_schema(self, capsys):
        code, out, _ = run_cli(capsys, "rule", "--n", "3", "--m", "2", "--a", "1",
                               "--family", "cosh_minus_cos_over_t", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["constraint"] == {"p_zero_at_origin": True}

    def test_parity_error_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "rule", "--n", "2", "--m", "3", "--a", "1",
                               "--family", "cos_plus_cosh")
        assert code == 2
        assert "odd" in err

    def test_seventeen_digit_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "rule", "--n", "3", "--m", "5", "--a", "2",
                               "--family", "cos_plus_cosh", "--format", "csv")
        from bszego.quadrature import rule_cos_plus_cosh

        rule = rule_cos_plus_cosh(3, 5, 2.0)
        lines = out.strip().splitlines()[1:]
        for (node, weight), line in zip(zip(rule.nodes, rule.weights), lines):
            ns, ws = line.split(",")
            assert float(ns) == node
            assert float(ws) == weight


class TestVerifyCommand:
    def test_single_suite_green(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "corollary_B", "--format", "text")
        assert code == 0
        assert "6/6 passed" in out

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nope")
        assert code == 2
        assert "unknown suite" in err

    def test_json_report_determinism(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            code, _, _ = run_cli(capsys, "verify", "--suite", "corollary_B",
                                 "--format", "json", "--out", str(p))
            assert code == 0
        d1, d2 = json.loads(p1.read_text()), json.loads(p2.read_text())
        d1.pop("runtimes_ms")
        d2.pop("runtimes_ms")
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_config_grid_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "suites": ["tt"],
            "grids": {"tt": {"n": [3], "m": [3, 5]}},
            "output": {"format": "text"},
        }))
        code, out, _ = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 0
        assert "2/2 passed" in out

    def test_jobs_flag(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "corollary_B",
                               "--jobs", "4", "--format", "text")
        assert code == 0

    def test_raising_cell_fails_without_traceback(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "suites": ["kernel"],
            "grids": {"kernel": {"n": [31], "m": [33], "a": [0.5], "n_plus_m_max": 64}},
        }))
        code, out, err = run_cli(capsys, "verify", "--config", str(cfg))
        assert code == 1
        assert "raised=NoConvergence" in out
        assert "0/1 passed" in out
        assert "Traceback" not in err


def _write(path, text):
    path.write_text(text)
    return str(path)


# each case is a usage error: exit code 2 and one "error:" line, no traceback
USAGE_ERRORS = {
    "grid_over_param_cap": lambda tmp: ["verify", "--config", _write(
        tmp / "cfg.json", json.dumps({"grids": {"quad_squared": {"n": [40], "m": [30]}},
                                      "suites": ["quad_squared"]}))],
    "missing_config": lambda tmp: ["verify", "--config", str(tmp / "absent.json")],
    "config_not_json": lambda tmp: ["verify", "--config", _write(tmp / "cfg.json", "{suites")],
    "negative_a": lambda tmp: ["rule", "--n", "1", "--m", "1", "--a", "-1",
                               "--family", "cos_plus_cosh"],
    "missing_report": lambda tmp: ["report", "--in", str(tmp / "absent.json")],
    "unknown_family": lambda tmp: ["rule", "--n", "1", "--m", "1", "--a", "1",
                                   "--family", "nope"],
    "report_not_a_report": lambda tmp: ["report", "--in", _write(tmp / "r.json", "{}")],
    "report_record_without_params": lambda tmp: ["report", "--in", _write(
        tmp / "r.json", json.dumps([{"theorem_id": "x"}]))],
    "grid_axis_not_a_list": lambda tmp: ["verify", "--config", _write(
        tmp / "cfg.json", json.dumps({"grids": {"tt": {"n": 3}}}))],
    "unknown_output_format": lambda tmp: ["verify", "--config", _write(
        tmp / "cfg.json", json.dumps({"suites": ["corollary_B"], "output": {"format": "xml"}}))],
    "tolerance_not_a_number": lambda tmp: ["verify", "--config", _write(
        tmp / "cfg.json", json.dumps({"suites": ["corollary_B"],
                                      "tolerances": {"corollary_B": "1e-8"}}))],
    "suites_a_string": lambda tmp: ["verify", "--config", _write(
        tmp / "cfg.json", json.dumps({"suites": "corollary_B"}))],
    # an empty list runs no suite, so nothing would check the config's grids
    "suites_empty": lambda tmp: ["verify", "--config", _write(
        tmp / "cfg.json", json.dumps({"suites": [], "grids": 1}))],
    "config_not_an_object": lambda tmp: ["verify", "--config", _write(tmp / "cfg.json", "[]")],
    "output_not_an_object": lambda tmp: ["verify", "--config", _write(
        tmp / "cfg.json", json.dumps({"suites": ["corollary_B"], "output": "json"}))],
    "unknown_suite_in_list": lambda tmp: ["verify", "--config", _write(
        tmp / "cfg.json", json.dumps({"suites": ["corollary_B", "nope"]}))],
    # a tolerance that fails every record (negative, NaN) or passes every one (inf)
    "tol_negative": lambda tmp: ["verify", "--suite", "corollary_B", "--tol", "-1"],
    "tol_nan": lambda tmp: ["verify", "--suite", "corollary_B", "--tol", "nan"],
    "tol_inf": lambda tmp: ["verify", "--suite", "corollary_B", "--tol", "inf"],
    "tol_minus_inf": lambda tmp: ["verify", "--suite", "corollary_B", "--tol=-inf"],
    "tolerance_negative": lambda tmp: ["verify", "--config", _write(
        tmp / "cfg.json", json.dumps({"suites": ["corollary_B"],
                                      "tolerances": {"corollary_B": -1}}))],
    "tolerance_nan": lambda tmp: ["verify", "--config", _write(
        tmp / "cfg.json", json.dumps({"suites": ["corollary_B"],
                                      "tolerances": {"corollary_B": math.nan}}))],
    "tolerance_inf": lambda tmp: ["verify", "--config", _write(
        tmp / "cfg.json", json.dumps({"suites": ["corollary_B"],
                                      "tolerances": {"corollary_B": math.inf}}))],
    # measure3 pairs: not a pair, the wrong length, even degrees
    "measure3_pairs_flat": lambda tmp: ["verify", "--config", _write(
        tmp / "cfg.json", json.dumps({"grids": {"measure3": {"pairs": [3, 5]}}}))],
    "measure3_pair_too_short": lambda tmp: ["verify", "--config", _write(
        tmp / "cfg.json", json.dumps({"grids": {"measure3": {"pairs": [[3]]}}}))],
    "measure3_pair_too_long": lambda tmp: ["verify", "--config", _write(
        tmp / "cfg.json", json.dumps({"grids": {"measure3": {"pairs": [[3, 5, 7]]}}}))],
    "measure3_pair_even": lambda tmp: ["verify", "--config", _write(
        tmp / "cfg.json", json.dumps({"grids": {"measure3": {"pairs": [[2, 4]]}}}))],
    # a non-integer n (a bad value of n), and a kernel pair of even degrees (lists no cell)
    "grid_lists_no_cell_quad1": lambda tmp: ["verify", "--config", _write(
        tmp / "cfg.json", json.dumps({"suites": ["quad1"], "grids": {"quad1": {"n": [1.5]}}}))],
    "grid_lists_no_cell_kernel": lambda tmp: ["verify", "--config", _write(
        tmp / "cfg.json", json.dumps({"suites": ["kernel"],
                                      "grids": {"kernel": {"n": [2], "m": [2]}}}))],
    "rule_a_inf": lambda tmp: ["rule", "--n", "3", "--m", "5", "--a", "inf",
                               "--family", "cos_plus_cosh"],
    "rule_a_nan": lambda tmp: ["rule", "--n", "3", "--m", "5", "--a", "nan",
                               "--family", "cos_plus_cosh"],
    "rule_a_overflows": lambda tmp: ["rule", "--n", "3", "--m", "5", "--a", "1e300",
                                     "--family", "cos_plus_cosh"],
    "rule_a_underflows": lambda tmp: ["rule", "--n", "3", "--m", "4", "--a", "1e30",
                                      "--family", "squared_cos_plus_cosh"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_exit_2(capsys, tmp_path, case):
    code, out, err = run_cli(capsys, *USAGE_ERRORS[case](tmp_path))
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_bad_tolerance_rejected_before_any_suite_runs(capsys, monkeypatch):
    ran = []
    monkeypatch.setitem(SUITES, "corollary_B", lambda grid, tol: ran.append(grid) or [])
    code, out, err = run_cli(capsys, "verify", "--suite", "corollary_B", "--tol", "nan")
    assert code == 2
    assert err.startswith("error: tolerance of the override must be finite")
    assert ran == [] and out == ""


def test_bad_measure3_pairs_rejected_before_any_suite_runs(capsys, tmp_path, monkeypatch):
    ran = []
    monkeypatch.setitem(SUITES, "corollary_B", lambda grid, tol: ran.append(grid) or [])
    cfg = _write(tmp_path / "cfg.json", json.dumps({
        "suites": ["corollary_B", "measure3"], "grids": {"measure3": {"pairs": [[2, 4]]}}}))
    code, out, err = run_cli(capsys, "verify", "--config", cfg)
    assert code == 2
    assert err.startswith("error: grid of suite 'measure3': axis 'pairs'")
    assert ran == [] and out == ""


@pytest.mark.parametrize("config, message", [
    ({"suites": ["corollary_B", "measure3"], "grids": {"measure3": {"pairs": [[31, 35]]}}},
     "error: grid of suite 'measure3': params {'n': 31, 'm': 35,"),
    ({"suites": ["corollary_B", "quad_squared"],
      "grids": {"quad_squared": {"n": [40], "m": [30]}}},
     "error: grid of suite 'quad_squared': params {'n': 40, 'm': 30,"),
], ids=["measure3_pairs", "grid_over_param_cap"])
def test_params_past_the_cap_rejected_before_any_suite_runs(capsys, tmp_path, monkeypatch,
                                                             config, message):
    ran = []
    monkeypatch.setitem(SUITES, "corollary_B", lambda grid, tol: ran.append(grid) or [])
    code, out, err = run_cli(capsys, "verify", "--config",
                             _write(tmp_path / "cfg.json", json.dumps(config)))
    assert code == 2
    assert err.startswith(message) and err.rstrip().endswith("exceed n + m <= 64")
    assert ran == [] and out == ""


@pytest.mark.parametrize("suite, grid", [("kernel", {"n": [2], "m": [2]})],
                         ids=["kernel_even_pair"])
def test_grid_that_lists_no_cell_rejected_before_any_suite_runs(capsys, tmp_path, monkeypatch,
                                                                suite, grid):
    ran = []
    monkeypatch.setitem(SUITES, "corollary_B", lambda grid, tol: ran.append(grid) or [])
    cfg = _write(tmp_path / "cfg.json",
                 json.dumps({"suites": ["corollary_B", suite], "grids": {suite: grid}}))
    code, out, err = run_cli(capsys, "verify", "--config", cfg)
    assert code == 2
    assert err.startswith(f"error: grid of suite {suite!r} lists no cell")
    assert ran == [] and out == ""


@pytest.mark.parametrize("suite, axis, value", [
    ("quad1", "n", ["a"]),
    ("quad1", "a", ["x"]),
    ("quad1", "n_plus_m_max", "x"),
    ("gen_fn", "n", [True]),
    ("tt", "n", [0]),
    ("quad1", "n", [1.5]),
    ("pf", "k", [-3]),
    ("pf", "k", [2.5]),
    ("pf", "c", ["x"]),
    ("limiting", "two_cosh", [[1.0]]),
    ("limiting", "two_cosh", [[1.0, "x"]]),
    ("limiting", "alpha", ["x"]),
    ("limiting", "alpha", [True]),
    ("tsgf", "R", -1),
    ("tsgf", "R", "x"),
    ("fejer_riesz", "combos", [["cos_plus_cosh", 1, 1, ["x"]]]),
    ("limiting", "n_even", [3]),
    ("limiting", "n_form1", [2]),
    ("353m", "nu", [3]),
    ("pf", "c", [1.0]),
    ("pf", "c", [-0.5]),
    ("tsgf", "R", 41),
], ids=["quad1_n_a_string", "quad1_a_a_string", "quad1_cap_a_string", "gen_fn_n_bool",
        "tt_n_zero", "quad1_non_integer_n", "pf_k_negative", "pf_k_non_integer", "pf_c_string",
        "limiting_two_cosh_short", "limiting_two_cosh_string", "limiting_alpha_string",
        "limiting_alpha_bool", "tsgf_R_negative", "tsgf_R_string", "fejer_riesz_a_string",
        "limiting_n_even_odd", "limiting_n_form1_even", "353m_nu_odd", "pf_c_one",
        "pf_c_negative", "tsgf_R_past_its_cap"])
def test_bad_axis_value_rejected_before_any_suite_runs(capsys, tmp_path, monkeypatch,
                                                       suite, axis, value):
    # before, the first three ended in a TypeError traceback, gen_fn in "an integer is
    # required" and tt in "0/4 passed", all with exit 1; quad1 n [1.5] was "lists no
    # cell"; pf k [-3] and two_cosh [[1.0]] exited 2 from numpy or an unpacking while
    # cells ran, alpha [true] ran as 1.0 and R -1 checked no harmonic (exit 0), and the
    # other string and non-integer values ended in a TypeError traceback, exit 1; the
    # last six each gave a red record and exit 1, their closed forms not holding there
    ran = []
    monkeypatch.setitem(SUITES, "corollary_B", lambda grid, tol: ran.append(grid) or [])
    cfg = _write(tmp_path / "cfg.json",
                 json.dumps({"suites": ["corollary_B", suite], "grids": {suite: {axis: value}}}))
    code, out, err = run_cli(capsys, "verify", "--config", cfg)
    bad = value if axis in ("n_plus_m_max", "R") else value[0]
    assert code == 2
    assert err.startswith(f"error: grid of suite {suite!r}: axis {axis!r} needs ")
    assert err.rstrip().endswith(f"got {bad!r}") and "Traceback" not in err
    assert ran == [] and out == ""


@pytest.mark.parametrize("n", [1000000000, 65], ids=["n_1e9", "n_65"])
def test_integer_n_past_the_cap_rejected_before_any_suite_runs(capsys, tmp_path, monkeypatch,
                                                               recwarn, n):
    # before, corollary_B at n = 10^9 warned of an overflow in cosh and printed
    # "0/1 passed", exit 1; an n or m alone past the cap is now a usage error
    ran = []
    monkeypatch.setitem(SUITES, "corollary_A", lambda grid, tol: ran.append(grid) or [])
    cfg = _write(tmp_path / "cfg.json", json.dumps(
        {"suites": ["corollary_A", "corollary_B"], "grids": {"corollary_B": {"n": [n]}}}))
    code, out, err = run_cli(capsys, "verify", "--config", cfg)
    assert code == 2
    assert err == f"error: grid of suite 'corollary_B': params {{'n': {n}}} exceed n <= 64\n"
    assert ran == [] and out == "" and len(recwarn) == 0


@pytest.mark.parametrize("suite, axis, value", [
    ("quad1", "bogus", [1]),
    ("corollary_B", "m", [3]),
    ("measure3", "a", [1.0]),
    ("corollary_A", "n_plus_m_max", 4),
    ("corollary_B", "n_plus_m_max", 4),
    ("353m", "n_plus_m_max", 4),
    ("tsgf", "n_plus_m_max", 4),
], ids=["quad1_bogus", "corollary_B_m", "measure3_a", "corollary_A_cap", "corollary_B_cap",
        "353m_cap", "tsgf_cap"])
def test_unknown_axis_rejected_before_any_suite_runs(capsys, tmp_path, monkeypatch,
                                                     suite, axis, value):
    # before, the axis was ignored: quad1 with "bogus" ran its 108 default records, exit 0;
    # n_plus_m_max on a suite without both n and m ended in a KeyError traceback, exit 1
    ran = []
    monkeypatch.setitem(SUITES, "tt", lambda grid, tol: ran.append(grid) or [])
    cfg = _write(tmp_path / "cfg.json",
                 json.dumps({"suites": ["tt", suite], "grids": {suite: {axis: value}}}))
    code, out, err = run_cli(capsys, "verify", "--config", cfg)
    assert code == 2
    assert err.startswith(f"error: grid of suite {suite!r}: unknown axis {axis!r}; its cells read ")
    assert "Traceback" not in err and ran == [] and out == ""


@pytest.mark.parametrize("suite, n, m", [
    ("T1star", 1, 1), ("even_parity", 2, 2), ("square", 1, 1), ("quad1", 1, 1),
    ("quad_squared", 1, 1), ("quad_signed", 1, 2), ("gen_fn", 1, 1), ("kernel", 1, 1),
])
def test_single_cell_n_m_a_grids_stay_valid(suite, n, m):
    # the single-cell configs of these suites name n, m and a; every one is an axis their
    # cells read, so none is rejected as unknown
    from bszego.suites import _check_grids

    _check_grids({suite: {"n": [n], "m": [m], "a": [1.0]}})


def test_integer_n_at_the_cap_runs(capsys, tmp_path):
    cfg = _write(tmp_path / "cfg.json", json.dumps(
        {"suites": ["corollary_B"], "grids": {"corollary_B": {"n": [64]}}}))
    code, out, err = run_cli(capsys, "verify", "--config", cfg)
    assert (code, err) == (0, "") and "1/1 passed" in out


def test_zero_tolerance_is_accepted(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "corollary_B", "--tol", "0")
    assert code in (0, 1) and err == ""


@pytest.mark.parametrize("suite_list", [["corollary_B", "nope"], ["all", "nope"]],
                         ids=["beside_a_suite", "beside_all"])
def test_unknown_suite_rejected_before_any_suite_runs(capsys, tmp_path, monkeypatch,
                                                      suite_list):
    # beside "all", "nope" was dropped and every suite ran
    ran = []
    for sid in SUITES:
        monkeypatch.setitem(SUITES, sid, lambda grid, tol: ran.append(grid) or [])
    cfg = _write(tmp_path / "cfg.json", json.dumps({"suites": suite_list}))
    code, out, err = run_cli(capsys, "verify", "--config", cfg)
    assert code == 2
    assert err.startswith("error: unknown suite 'nope'")
    assert ran == [] and out == ""


@pytest.mark.parametrize("config, what", [
    ({"grids": {"quadl": {"n": [3]}}}, "grids"),
    ({"tolerances": {"quadl": 1e-3}}, "tolerances"),
], ids=["grids", "tolerances"])
def test_unknown_suite_id_in_a_config_rejected_before_any_suite_runs(capsys, tmp_path,
                                                                     monkeypatch, config, what):
    # before, the key was ignored: corollary_B ran its defaults, "6/6 passed", exit 0
    ran = []
    monkeypatch.setitem(SUITES, "corollary_B", lambda grid, tol: ran.append(grid) or [])
    cfg = _write(tmp_path / "cfg.json", json.dumps(config))
    code, out, err = run_cli(capsys, "verify", "--suite", "corollary_B", "--config", cfg)
    assert code == 2
    assert err.startswith(f"error: {what}: unknown suite 'quadl'; known: {sorted(SUITES)}")
    assert "Traceback" not in err and ran == [] and out == ""


def test_fejer_riesz_combos_from_a_config(capsys, tmp_path):
    # JSON names a family by its string value
    cfg = _write(tmp_path / "cfg.json", json.dumps({
        "suites": ["fejer_riesz"],
        "grids": {"fejer_riesz": {"combos": [["cos_plus_cosh", 1, 1, [1.0]]]}}}))
    code, out, err = run_cli(capsys, "verify", "--config", cfg, "--format", "json")
    assert code == 0 and err == ""
    (record,) = json.loads(out)["records"]
    assert record["params"] == {"family": "cos_plus_cosh", "n": 1, "m": 1, "a": 1.0}
    assert record["passed"]


def test_unknown_family_in_combos_rejected_before_any_suite_runs(capsys, tmp_path, monkeypatch):
    ran = []
    for sid in ("corollary_B", "fejer_riesz"):
        monkeypatch.setitem(SUITES, sid, lambda grid, tol: ran.append(grid) or [])
    cfg = _write(tmp_path / "cfg.json", json.dumps({
        "suites": ["corollary_B", "fejer_riesz"],
        "grids": {"fejer_riesz": {"combos": [["nope", 1, 1, [1.0]]]}}}))
    code, out, err = run_cli(capsys, "verify", "--config", cfg)
    assert code == 2
    assert err.startswith("error: grid of suite 'fejer_riesz': axis 'combos'")
    assert "['nope', 1, 1, [1.0]]" in err
    assert ran == [] and out == ""


@pytest.mark.parametrize("combo", [
    ["cos_plus_cosh", 1, 1, 1.0],  # a scalar a
    ["cos_plus_cosh", 1],  # too short
    ["cos_plus_cosh", 1, 1, [1.0], 2],  # too long
    ["cos_plus_cosh", 1.5, 1, [1.0]],  # n not an integer
    "cos_plus_cosh",  # not an entry
], ids=["scalar_a", "short", "long", "float_n", "string"])
def test_malformed_combos_rejected_before_any_suite_runs(capsys, tmp_path, monkeypatch, combo):
    ran = []
    for sid in ("corollary_B", "fejer_riesz"):
        monkeypatch.setitem(SUITES, sid, lambda grid, tol: ran.append(grid) or [])
    cfg = _write(tmp_path / "cfg.json", json.dumps({
        "suites": ["corollary_B", "fejer_riesz"], "grids": {"fejer_riesz": {"combos": [combo]}}}))
    code, out, err = run_cli(capsys, "verify", "--config", cfg)
    assert code == 2
    assert err.startswith("error: grid of suite 'fejer_riesz': axis 'combos'")
    assert "Traceback" not in err
    assert ran == [] and out == ""


# generated configs: known and junk suite ids and axis names, and values of every JSON
# type, nested lists included, beside lists of small positive numbers, which reach the
# listing of cells, its n + m cap and its filters
_VALUES = st.one_of(
    st.lists(st.integers(1, 40), max_size=3),
    st.lists(st.floats(0.1, 3.0), max_size=3),
    st.recursive(st.one_of(st.integers(-2, 70), st.integers(), st.floats(), st.booleans(),
                           st.sampled_from(["", "x", "3", "nope"] + [f.value for f in Family])),
                 lambda inner: st.lists(inner, max_size=3), max_leaves=8))


def _mostly(usual, rare):
    """usual, and one draw in eight rare."""
    return st.integers(0, 7).flatmap(lambda k: rare if k == 0 else usual)


def _grid_of(suite):
    """A suite id and a grid over the axes it declares, an axis it does not, or a junk grid."""
    sources = suites._REGISTRY[suite][2] if suite in SUITES else []
    names = sorted({axis for source in sources for axis in source.axes} | {"bogus", "n"})
    grid = _mostly(st.dictionaries(st.sampled_from(names), _VALUES, max_size=3), _VALUES)
    return st.tuples(st.just(suite), grid)


_GRIDS = st.lists(st.sampled_from(sorted(SUITES) + ["quadl"]).flatmap(_grid_of),
                  max_size=2).map(dict)


@settings(max_examples=150, deadline=None)
@given(grids=_mostly(_GRIDS, _VALUES),
       suite_list=st.one_of(st.none(), st.lists(st.sampled_from(sorted(SUITES) + ["all", "nope"]),
                                                max_size=2)))
def test_generated_configs_exit_0_1_or_2_and_a_rejected_one_runs_no_cell(grids, suite_list):
    config = {"grids": grids} if suite_list is None else {"grids": grids, "suites": suite_list}
    ran = []
    recorders = {sid: lambda grid, tol: ran.append(grid) or [] for sid in SUITES}
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(SUITES, recorders):
        cfg = _write(Path(tmp) / "cfg.json", json.dumps(config))
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify", "--config", cfg])
    assert code in (0, 1, 2) and "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ") and ran == [] and out.getvalue() == ""
    grids = grids or {}  # as run_verify reads it
    try:
        suites._check_grids(grids)
    except ValueError:
        accepted = False
    else:
        accepted = True
        # an accepted grid lists every suite's cells without raising
        for name, (_, tol, sources) in suites._REGISTRY.items():
            list(suites._listed(sources, grids.get(name, {}), tol))
    bad_list = suite_list is not None and (suite_list == [] or "nope" in suite_list)
    assert (code == 2) == (not accepted or bad_list)


def _grid_get_owners(source):
    """The functions of the source that call .get on a grid."""
    return [fn.name for fn in ast.walk(ast.parse(source)) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "get"
            and ast.unparse(node.func.value) == "grid"]


def test_grid_axes_are_read_from_the_declaration():
    # every source is handed its declared defaults under the grid, so none reads an axis
    # with a default of its own
    source = Path(suites.__file__).read_text()
    assert _grid_get_owners(source) == []
    before = '    for k in grid["k"]:\n        yield _Cell("vanishing_moment"'
    assert source.count(before) == 1
    mutated = source.replace(before, before.replace('grid["k"]', 'grid.get("k", [1, 2])'))
    assert _grid_get_owners(mutated) == ["_limiting_cells"]


def _readme_table(header):
    """The rows, as lists of cells, of the README table under the given header row."""
    lines = Path(__file__).parent.parent.joinpath("README.md").read_text().splitlines()
    start = lines.index(header) + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split(" | ")])
    return rows


def test_readme_grid_axes_match_the_declarations():
    kinds = {axis: want for names, want in _readme_table("| axis | values |")
             for axis in re.findall(r"`(\w+)`", names)}
    assert kinds == {axis: want for axis, (want, _, _) in suites._KINDS.items()}
    documented = {}
    for suite, axes in _readme_table("| suite | axes and their defaults |"):
        pairs = (re.fullmatch(r"`(\w+)` (.*)", axis).groups() for axis in axes.split("; "))
        documented[suite.strip("`")] = {name: json.loads(default) for name, default in pairs}
    declared = {}
    for name, (_, _, sources) in suites._REGISTRY.items():
        declared[name] = {}
        for source in sources:
            for axis, default in source.axes.items():
                default = json.loads(json.dumps(default))
                # a suite's sources that share an axis share its default
                assert declared[name].setdefault(axis, default) == default
    assert documented == declared


def _listed_cells(suite, grid):
    return [(cell.theorem_id, cell.params)
            for cell in suites._listed(suites._REGISTRY[suite][2], grid, None)]


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_the_declared_defaults_as_a_config_grid_list_the_default_cells(suite):
    # each suite's declared axes, written to JSON as a config would (n_plus_m_max null
    # among them), pass the grid check and list the cells of the default run
    grid = json.loads(json.dumps({axis: default for source in suites._REGISTRY[suite][2]
                                  for axis, default in source.axes.items()}))
    suites._check_grids({suite: grid})
    assert _listed_cells(suite, grid) == _listed_cells(suite, {})


def test_a_null_cap_in_a_config_means_no_bound(capsys, tmp_path):
    # before, null, the default of eight suites' n_plus_m_max, was rejected with exit 2
    cfg = _write(tmp_path / "cfg.json", json.dumps({
        "suites": ["tt"], "grids": {"tt": {"n": [3], "m": [3, 5], "n_plus_m_max": None}}}))
    code, out, _ = run_cli(capsys, "verify", "--config", cfg, "--format", "text")
    assert code == 0 and "2/2 passed" in out


def test_listed_suites_run_once_each_and_their_records_come_sorted(capsys, tmp_path):
    # before, a suite listed twice ran twice ("2/2 passed" for one cell), and records
    # came in list order
    grids = {"tt": {"n": [3], "m": [3, 5]}, "353m": {"n": [2], "k": [1], "nu": [2]}}
    cfg = _write(tmp_path / "twice.json", json.dumps({
        "suites": ["tt", "tt"], "grids": {"tt": {"n": [3], "m": [3]}}}))
    code, out, _ = run_cli(capsys, "verify", "--config", cfg, "--format", "text")
    assert code == 0 and out.endswith("\n1/1 passed\n")
    cfg = _write(tmp_path / "mixed.json", json.dumps({"suites": ["tt", "353m", "tt"],
                                                      "grids": grids}))
    code, out, _ = run_cli(capsys, "verify", "--config", cfg, "--format", "json")
    records = [r for s in ("353m", "tt") for r in run_verify(s, grids=grids)]
    assert [r.theorem_id for r in records] == ["353m", "353m_qf", "tt", "tt"]
    assert code == 0 and json.loads(out)["records"] == [r.core_dict() for r in records]


def test_records_sort_by_their_own_key_when_the_class_name_is_rebound(capsys, monkeypatch):
    # a caller may rebind VerificationRecord in the package's modules to a stamping
    # constructor wrapper, as perfbench's sweep does; sorting reads each record's method
    def stamped(*args, **kwargs):
        return VerificationRecord(*args, **kwargs)

    for module in (suites, cli):
        monkeypatch.setattr(module, "VerificationRecord", stamped)
    code, out, _ = run_cli(capsys, "verify", "--suite", "corollary_B", "--format", "text")
    assert code == 0 and "6/6 passed" in out


@pytest.mark.parametrize("suite", ["pf", "proof_ids"])
def test_a_cell_run_alone_gives_its_record_of_the_default_run(suite):
    # each cell draws from a stream seeded by its own params; before, one stream ran
    # through the grid, so a record moved with the cells listed before it
    for record in run_verify(suite):
        grid = {axis: [value] for axis, value in record.params.items()}
        if record.theorem_id == "pf_U":
            grid["c"] = []  # no pf_T cell beside it
        alone = [r for r in run_verify(suite, grids={suite: grid})
                 if r.sort_key() == record.sort_key()]
        assert [r.core_dict() for r in alone] == [record.core_dict()]


class TestFaultIsolation:
    @pytest.mark.parametrize("grid, error", [
        ({"n": [31], "m": [33], "a": [0.5], "n_plus_m_max": 64}, "NoConvergence"),
        ({"n": [1], "m": [1], "a": [1.1434609861934242]}, "FactorizationResidual"),
    ])
    def test_raising_kernel_cell_is_one_failed_record(self, grid, error):
        (r,) = run_verify("kernel", grids={"kernel": grid})
        assert r.passed is False
        assert r.error == error
        assert r.tol == 1e-7
        assert r.closed_form == 0.0
        assert math.isinf(r.abs_error) and math.isinf(r.oracle_value)
        assert "error" not in r.core_dict()

    def test_sweep_goes_on_past_a_raising_cell(self):
        # the first cell raises FactorizationResidual, the second one passes
        grid = {"n": [1], "m": [1], "a": [1.1434609861934242, 1.0]}
        records = run_verify("kernel", grids={"kernel": grid})
        assert [(r.params["a"], r.passed, r.error) for r in records] == [
            (1.0, True, None), (1.1434609861934242, False, "FactorizationResidual"),
        ]


class TestReportCommand:
    def _mk_record(self, passed, i=0):
        return VerificationRecord(
            theorem_id="demo", params={"i": i}, closed_form=1.0,
            oracle_value=1.0 if passed else 2.0,
            abs_error=0.0 if passed else 1.0, tol=1e-8, passed=passed, runtime_ms=1,
        )

    def test_empty(self, capsys, tmp_path):
        p = tmp_path / "r.json"
        p.write_text(records_to_json([]))
        code, out, _ = run_cli(capsys, "report", "--in", str(p), "--format", "text")
        assert code == 0
        assert "0/0 passed" in out
        code, out, _ = run_cli(capsys, "report", "--in", str(p), "--format", "csv")
        assert out.startswith("theorem_id,params,")

    def test_all_passing(self, capsys, tmp_path):
        p = tmp_path / "r.json"
        p.write_text(records_to_json([self._mk_record(True, i) for i in range(3)]))
        code, out, _ = run_cli(capsys, "report", "--in", str(p), "--format", "text")
        assert code == 0
        assert "3/3 passed" in out

    def test_mixed_exits_nonzero(self, capsys, tmp_path):
        p = tmp_path / "r.json"
        p.write_text(records_to_json([self._mk_record(True), self._mk_record(False, 1)]))
        code, out, _ = run_cli(capsys, "report", "--in", str(p), "--format", "text")
        assert code == 1
        assert "1/2 passed" in out


class TestRunVerifyGrids:
    def test_quad1_grid_override_gives_27_records(self):
        records = run_verify("quad1", grids={"quad1": {"n": [1, 3, 5], "m": [1, 3, 5]}})
        assert len(records) == 27
        assert all(r.passed for r in records)

    def test_353m_grid_override(self):
        records = run_verify("353m", grids={"353m": {"n": [2, 4], "k": [1, 3], "nu": []}})
        assert len(records) == 4
        assert all(r.passed for r in records)
        assert all(abs(r.closed_form - math.pi / 4) < 1e-15 for r in records)

    def test_corollary_a_value_independent_of_params(self):
        records = run_verify("corollary_A")
        assert all(r.closed_form == math.pi / 4 for r in records)
        values = {round(r.oracle_value, 10) for r in records}
        assert values == {round(math.pi / 4, 10)}


    def test_scalar_axis_rejected_before_any_cell_runs(self):
        # the bad grid belongs to a suite that is not even run
        with pytest.raises(ValueError, match="'tt'.*'n'"):
            run_verify("corollary_B", grids={"tt": {"n": 3}})
        with pytest.raises(ValueError, match="'tt'"):
            run_verify("tt", grids={"tt": [3]})

    def test_scalar_keys_stay_scalars(self):
        (r,) = run_verify("tsgf", grids={"tsgf": {"n": [3], "R": 20}})
        assert r.passed
        records = run_verify("corollary_C", grids={"corollary_C": {"n_plus_m_max": 4}})
        assert {(r.params["n"], r.params["m"]) for r in records} == {(1, 1), (1, 3), (2, 2)}


class TestRegistry:
    def test_every_suite_covers_a_criterion(self):
        assert set(SUITE_CRITERIA) == set(SUITES)
        for suite, crit in SUITE_CRITERIA.items():
            assert 1 <= crit <= 16

    def test_all_sixteen_criteria_covered(self):
        assert set(SUITE_CRITERIA.values()) == set(range(1, 17))

    def test_record_invariant(self):
        for r in run_verify("corollary_B"):
            assert r.passed == (r.abs_error <= r.tol)
            assert math.isfinite(r.closed_form)

    def test_renderers(self):
        records = run_verify("corollary_B")
        assert "corollary_B" in records_to_csv(records)
        assert "passed" in records_to_text(records)
        doc = json.loads(records_to_json(records))
        assert doc["summary"]["total"] == len(records)
        assert len(doc["runtimes_ms"]) == len(records)
        assert "runtime" not in json.dumps(doc["records"])


class TestCoreDict:
    @pytest.mark.parametrize("error", [None, "RootInDisk"])
    def test_equals_asdict_without_runtime_and_error(self, error):
        rec = VerificationRecord(
            theorem_id="demo", params={"n": 3, "m": 5, "a": 0.5}, closed_form=1.5,
            oracle_value=1.25, abs_error=0.25, tol=1e-8, passed=False, runtime_ms=7, error=error,
        )
        want = {k: v for k, v in dataclasses.asdict(rec).items() if k not in ("runtime_ms", "error")}
        got = rec.core_dict()
        assert got == want
        assert list(got) == list(want)
        assert got["params"] is not rec.params

import dataclasses
import json
import math

import pytest

from bszego.cli import main, records_to_csv, records_to_json, records_to_text
from bszego.suites import SUITE_CRITERIA, SUITES, VerificationRecord, run_verify


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


def test_zero_tolerance_is_accepted(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "corollary_B", "--tol", "0")
    assert code in (0, 1) and err == ""


def test_unknown_suite_rejected_before_any_suite_runs(capsys, tmp_path, monkeypatch):
    ran = []
    monkeypatch.setitem(SUITES, "corollary_B", lambda grid, tol: ran.append(grid) or [])
    cfg = _write(tmp_path / "cfg.json", json.dumps({"suites": ["corollary_B", "nope"]}))
    code, out, err = run_cli(capsys, "verify", "--config", cfg)
    assert code == 2
    assert err.startswith("error: unknown suite 'nope'")
    assert ran == [] and out == ""


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

"""The drivers in scripts/ run from a plain checkout, without PYTHONPATH."""
import os
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script, *args, cwd):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )


def test_compare_reports_help(tmp_path):
    proc = _run("compare_reports.py", "--help", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "OLD" in proc.stdout and "NEW" in proc.stdout


def _report(path, records):
    import json

    path.write_text(json.dumps({"records": records, "summary": {}, "runtimes_ms": []}))
    return str(path)


def test_compare_reports_lists_moved_values_and_fails_on_a_changed_verdict(tmp_path):
    def record(k, value, passed=True):
        return {"theorem_id": "t", "params": {"k": k}, "closed_form": 1.0, "oracle_value": value,
                "abs_error": abs(value - 1.0), "tol": 1e-8, "passed": passed}

    old = _report(tmp_path / "old.json", [record(1, 1.0), record(2, 1.0)])
    moved = _report(tmp_path / "moved.json", [record(1, 1.0 + 1e-12), record(2, 1.0 + 4e-12)])
    proc = _run("compare_reports.py", old, moved, cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "2 moved (4 values), 0 verdict" in proc.stdout
    lines = [line for line in proc.stdout.splitlines() if "\tt\t" in line]
    assert [line.split("\t")[1:3] for line in lines][::2] == [["t", '{"k": 2}'], ["t", '{"k": 1}']]
    flipped = _report(tmp_path / "flipped.json", [record(1, 1.0), record(2, 1.0, passed=False)])
    proc = _run("compare_reports.py", old, flipped, cwd=tmp_path)
    assert proc.returncode == 1 and "passed changed" in proc.stdout
    fewer = _report(tmp_path / "fewer.json", [record(1, 1.0)])
    proc = _run("compare_reports.py", old, fewer, cwd=tmp_path)
    assert proc.returncode == 1 and "only in OLD" in proc.stdout


def test_compare_reports_prints_problems_first_and_survives_an_early_close(tmp_path):
    # enough moved values to fill the pipe: the reader takes two lines and closes it
    def record(k, value, passed=True):
        return {"theorem_id": "t", "params": {"k": k}, "closed_form": 1.0, "oracle_value": value,
                "abs_error": abs(value - 1.0), "tol": 1e-8, "passed": passed}

    count = 5000
    old = _report(tmp_path / "old.json", [record(k, 1.0) for k in range(count)])
    new = _report(tmp_path / "new.json", [record(k, 1.0 + k * 1e-15, passed=k != 7)
                                          for k in range(count)])
    proc = _run("compare_reports.py", old, new, cwd=tmp_path)
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert lines[1] == 'passed changed: t {"k": 7}: True -> False'
    assert len(lines) > 2 * count
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    with subprocess.Popen([sys.executable, str(SCRIPTS / "compare_reports.py"), old, new],
                          cwd=tmp_path, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as head:
        first = [head.stdout.readline() for _ in range(2)]
        head.stdout.close()
        stderr = head.stderr.read()
        status = head.wait(timeout=120)
    assert first[1].startswith("passed changed")
    assert status == 1 and stderr == ""


def test_bench_layers_prints_every_layer_and_spec(tmp_path):
    import json

    proc = _run("bench_layers.py", "--repeat", "1", "--number", "1", "--json", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["repeat"], doc["number"]) == (1, 1)
    factor_layers = ["build_szego_factor", "_certify_zero_free", "szego_orthonormal",
                     "explicit_family"]
    pair_layers = ["matched_pair", "pick_eval", "densities", "boundary_moments",
                   "moment_match_all"]
    improper = ["arctan1(1.0)", "two_cosh_series(1.5, 0.7, 2)", "glaisher_theta(2.0)"]
    primitive_layers = ["rho_eval", "xi_eta_eval", "explicit_eval"]
    assert list(doc["layers"]) == (factor_layers + pair_layers + ["improper_integral"]
                                   + primitive_layers + ["oracle_moments"])
    points = doc["improper_integral points per call"]
    assert list(points) == improper and all(count > 0 for count in points.values())
    # the deepest theta integral of the default sweep: T_64 ... T_131072, 2^16 + 1 nodes
    assert doc["oracle_moments points per call"] == {"quad1(15, 1, 2.0)": 2 ** 16 + 1}
    faults = doc["run_verify('all') minor faults"]
    assert len(faults) == 2 and all(isinstance(count, int) and count >= 0 for count in faults)
    for layer, row in doc["layers"].items():
        if layer in factor_layers:
            assert list(row) == ["cos_plus_cosh(1, 1, 1.0)", "cos_plus_cosh(15, 17, 1.0)",
                                 "cos_plus_cosh(31, 33, 2.0)", "cosh_minus_cos_over_t(15, 16, 1.0)"]
        elif layer == "improper_integral":
            assert list(row) == improper
        elif layer in primitive_layers:
            assert list(row) == ["cos_plus_cosh(15, 1, 2.0) 513 points",
                                 "cos_plus_cosh(15, 1, 2.0) 4096 points"]
        elif layer == "oracle_moments":
            assert list(row) == ["quad1(15, 1, 2.0)"]
        else:
            assert list(row) == [f"cos_plus_cosh({n}, {m}, 1.0)"
                                 for n, m in [(1, 1), (3, 3), (3, 5), (5, 3), (5, 5)]]
        assert all(value > 0 for value in row.values())
    proc = _run("bench_layers.py", "--repeat", "0", cwd=tmp_path)
    assert proc.returncode == 2 and "--repeat and --number" in proc.stderr

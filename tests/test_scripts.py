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


def test_run_full_verification_help(tmp_path):
    proc = _run("run_full_verification.py", "--help", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "--out-dir" in proc.stdout


def test_export_rule_tables_writes_csvs(tmp_path):
    out = tmp_path / "tables"
    proc = _run("export_rule_tables.py", "--out-dir", str(out), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    tables = sorted(out.glob("*.csv"))
    assert len(tables) == 33
    assert tables[0].read_text().startswith("node,weight\n")


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

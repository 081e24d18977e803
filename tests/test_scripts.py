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

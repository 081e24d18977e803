#!/usr/bin/env python3
"""Run every verification suite and write JSON + text reports.

Usage:
    python scripts/run_full_verification.py [--out-dir reports]
"""
import argparse
import pathlib
import sys
import time

# Import bszego from this checkout's src, so the script runs without installing.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from bszego.cli import records_to_json, records_to_text  # noqa: E402
from bszego.suites import run_verify  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="reports")
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    records = run_verify("all")
    elapsed = time.time() - t0
    (out / "verification.json").write_text(records_to_json(records))
    (out / "verification.txt").write_text(records_to_text(records))
    passed = sum(r.passed for r in records)
    print(f"{passed}/{len(records)} records passed in {elapsed:.1f}s -> {out}/")
    for r in records:
        if not r.passed:
            print(f"  FAIL {r.theorem_id} {r.params} err={r.abs_error:.3e}")
    return 0 if passed == len(records) else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two `bszego verify --format json` reports.

Usage:
    python scripts/compare_reports.py OLD NEW

Records are matched by (theorem_id, params).  Prints every record whose
closed_form, oracle_value or abs_error moved, largest shift first, and
every record whose verdict or tolerance changed.  Exits 0 when the two
reports hold the same records with the same verdicts and tolerances, and 1
when a verdict, a tolerance or the record set changed; moved values alone
do not fail the comparison.
"""
import argparse
import json
import math
import sys

VALUES = ("closed_form", "oracle_value", "abs_error")


def _key(record):
    return record["theorem_id"], json.dumps(record["params"], sort_keys=True)


def _same(x, y):
    both_nan = isinstance(x, float) and isinstance(y, float) and math.isnan(x) and math.isnan(y)
    return x == y or both_nan


def _shift(x, y):
    """|y - x|, infinite when exactly one side is not finite."""
    if math.isfinite(x) and math.isfinite(y):
        return abs(y - x)
    return math.inf


def _records(path):
    with open(path) as fh:
        records = json.load(fh)["records"]
    table = {}
    for record in records:
        if _key(record) in table:
            raise SystemExit(f"{path}: record {_key(record)} appears twice")
        table[_key(record)] = record
    return table


def compare(old, new):
    """(moved, problems): moved as (shift, key, field, old value, new value), largest first;
    problems as one message per changed verdict, tolerance or record-set difference."""
    problems = []
    for key in old.keys() - new.keys():
        problems.append(f"only in OLD: {key[0]} {key[1]}")
    for key in new.keys() - old.keys():
        problems.append(f"only in NEW: {key[0]} {key[1]}")
    moved = []
    for key in old.keys() & new.keys():
        was, now = old[key], new[key]
        for field in ("passed", "tol"):
            if not _same(was[field], now[field]):
                problems.append(f"{field} changed: {key[0]} {key[1]}: {was[field]} -> {now[field]}")
        for field in VALUES:
            if not _same(was[field], now[field]):
                moved.append((_shift(was[field], now[field]), key, field, was[field], now[field]))
    moved.sort(key=lambda row: (-row[0], row[1], row[2]))
    return moved, sorted(problems)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", metavar="OLD", help="the earlier report (verify --format json)")
    ap.add_argument("new", metavar="NEW", help="the later report (verify --format json)")
    args = ap.parse_args()

    old, new = _records(args.old), _records(args.new)
    moved, problems = compare(old, new)
    records = len({row[1] for row in moved})
    print(f"{len(old)} records in OLD, {len(new)} in NEW; "
          f"{records} moved ({len(moved)} values), {len(problems)} verdict or record-set changes")
    if moved:
        print(f"largest shift {moved[0][0]:.3e}: {moved[0][1][0]} {moved[0][1][1]} {moved[0][2]}")
        print("shift\ttheorem_id\tparams\tfield\told\tnew")
        for shift, (theorem, params), field, was, now in moved:
            print(f"{shift:.3e}\t{theorem}\t{params}\t{field}\t{was!r}\t{now!r}")
    for message in problems:
        print(message)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

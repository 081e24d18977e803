#!/usr/bin/env python3
"""Export node/weight tables for the three closed-form rule families.

Writes one CSV per (family, n, m, a) combination, 17 significant digits.

Usage:
    python scripts/export_rule_tables.py [--out-dir rule_tables]
"""
import argparse
import pathlib
import sys

# Import bszego from this checkout's src, so the script runs without installing.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from bszego.quadrature import rule_cos_plus_cosh, rule_cosh_minus_cos, rule_squared  # noqa: E402

COMBOS = [
    ("cos_plus_cosh", rule_cos_plus_cosh, [(1, 1), (3, 5), (5, 7), (9, 11)]),
    ("squared", rule_squared, [(1, 1), (2, 3), (4, 5)]),
    ("cosh_minus_cos", rule_cosh_minus_cos, [(1, 2), (3, 2), (5, 4), (7, 6)]),
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="rule_tables")
    ap.add_argument("--a", type=float, nargs="*", default=[0.5, 1.0, 2.0])
    args = ap.parse_args()
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    count = 0
    for label, builder, pairs in COMBOS:
        for n, m in pairs:
            for a in args.a:
                rule = builder(n, m, a)
                path = out / f"{label}_n{n}_m{m}_a{a}.csv"
                with path.open("w") as fh:
                    fh.write("node,weight\n")
                    for x, w in zip(rule.nodes, rule.weights):
                        fh.write(f"{x:.17g},{w:.17g}\n")
                count += 1
    print(f"wrote {count} tables to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())

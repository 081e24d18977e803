#!/usr/bin/env python3
"""Time the spectral-factor layers: the least of R repeats of K calls, per call.

Times `build_szego_factor`, `_certify_zero_free`, `szego_orthonormal` (degree k of
the explicit family, measure inv_sqrt_both, on a factor built beforehand) and
`explicit_family` on four specs, and prints one row per layer and spec in
microseconds per call, or one JSON document with --json.  The least of the
repeats is the figure least disturbed by other load on the host; compare two
commits by running this script from each checkout on the same host, in turns.

Usage:
    python scripts/bench_layers.py [--repeat 7] [--number 200] [--json]
"""
import argparse
import json
import pathlib
import sys
import timeit

# Import bszego from this checkout's src, so the script runs without installing.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from bszego import weight_models  # noqa: E402
from bszego.szego_polys import explicit_family, szego_orthonormal  # noqa: E402
from bszego.weight_models import Family, MeasureFactor, WeightSpec, build_szego_factor  # noqa: E402

SPECS = [
    WeightSpec(1, 1, 1.0),
    WeightSpec(15, 17, 1.0),
    WeightSpec(31, 33, 2.0),
    WeightSpec(15, 16, 1.0, Family.CoshMinusCosOverT),
]


def _label(spec):
    return f"{spec.family.value}({spec.n}, {spec.m}, {spec.a})"


def _calls(spec):
    """(layer name, zero-argument call) for the spec; the factor is built once, up front."""
    factor = build_szego_factor(spec)
    k = (spec.n + spec.m - (spec.family is Family.CoshMinusCosOverT)) // 2
    return [
        ("build_szego_factor", lambda: build_szego_factor(spec)),
        ("_certify_zero_free", lambda: weight_models._certify_zero_free(spec)),
        ("szego_orthonormal", lambda: szego_orthonormal(factor, k, MeasureFactor.InvSqrtBoth)),
        ("explicit_family", lambda: explicit_family(spec)),
    ]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=7, help="R, the repeats (default 7)")
    ap.add_argument("--number", type=int, default=200, help="K, calls per repeat (default 200)")
    ap.add_argument("--json", action="store_true", help="print one JSON document")
    args = ap.parse_args()
    if args.repeat < 1 or args.number < 1:
        ap.error("--repeat and --number must be at least 1")
    us = {}
    for spec in SPECS:
        for layer, call in _calls(spec):
            least = min(timeit.repeat(call, number=args.number, repeat=args.repeat))
            us.setdefault(layer, {})[_label(spec)] = round(1e6 * least / args.number, 2)
    if args.json:
        print(json.dumps({"unit": "us per call", "repeat": args.repeat, "number": args.number,
                          "layers": us}, indent=2))
        return 0
    for layer, row in us.items():
        for label, value in row.items():
            print(f"{layer:20s} {label:36s} {value:10.2f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())

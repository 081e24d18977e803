"""Command-line verification harness.

Subcommands:
    verify   run registered theorem suites over parameter grids
    rule     dump a closed-form quadrature rule as JSON or CSV
    report   re-render a JSON report

Exit codes: 0 all records passed, 1 at least one failure, 2 usage error
(an unknown suite or family, an invalid grid or rule parameter, a config
that is not a JSON object or whose output is not one, whose suites are not a
list, whose tolerance is not a number or whose output format is unknown, or a
config or report file that is missing or not JSON). These config errors are
found before any suite runs.
The environment variable BSZEGO_SEED is reserved as a randomness seed for
property tests; the verification suites use fixed seeds and ignore it.
"""
from __future__ import annotations

import argparse
import io
import json
import sys
from typing import List

from .errors import BszegoError
from .quadrature import rule_cos_plus_cosh, rule_cosh_minus_cos, rule_squared
from .suites import SUITES, VerificationRecord, run_verify
from .weight_models import Family

_RULE_BUILDERS = {
    Family.CosPlusCosh.value: rule_cos_plus_cosh,
    Family.SquaredCosPlusCosh.value: rule_squared,
    Family.CoshMinusCosOverT.value: rule_cosh_minus_cos,
}


def _fmt(x: float) -> str:
    return format(x, ".17g")


def records_to_json(records: List[VerificationRecord]) -> str:
    """Deterministic JSON: runtimes live in a separate section so the core
    document is byte-identical across runs with the same configuration."""
    passed = sum(r.passed for r in records)
    doc = {
        "records": [r.core_dict() for r in records],
        "summary": {"total": len(records), "passed": passed, "failed": len(records) - passed},
        "runtimes_ms": [r.runtime_ms for r in records],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def records_to_csv(records: List[VerificationRecord]) -> str:
    out = io.StringIO()
    out.write("theorem_id,params,closed_form,oracle_value,abs_error,tol,passed\n")
    for r in records:
        params = json.dumps(r.params, sort_keys=True).replace('"', "'")
        out.write(
            f'{r.theorem_id},"{params}",{_fmt(r.closed_form)},{_fmt(r.oracle_value)},'
            f"{_fmt(r.abs_error)},{_fmt(r.tol)},{r.passed}\n"
        )
    return out.getvalue()


def records_to_text(records: List[VerificationRecord]) -> str:
    out = io.StringIO()
    for r in records:
        mark = "PASS" if r.passed else "FAIL"
        params = json.dumps(r.params, sort_keys=True)
        out.write(
            f"[{mark}] {r.theorem_id} {params} "
            f"closed={r.closed_form:.12g} value={r.oracle_value:.12g} "
            f"err={r.abs_error:.3e} tol={r.tol:.1e}"
            + (f" raised={r.error}" if r.error else "")
            + "\n"
        )
    passed = sum(r.passed for r in records)
    out.write(f"{passed}/{len(records)} passed\n")
    return out.getvalue()


_RENDERERS = {"json": records_to_json, "csv": records_to_csv, "text": records_to_text}


def _cmd_verify(args) -> int:
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
    output = config.get("output", {}) if isinstance(config, dict) else None
    if not isinstance(output, dict):
        raise ValueError(f"config and its output must be JSON objects: {args.config}")
    suites = [args.suite] if args.suite else config.get("suites", ["all"])
    if not isinstance(suites, list) or not all(isinstance(s, str) for s in suites):
        raise ValueError(f"suites must be a list of suite ids, got {suites!r}")
    if suites == ["all"] or "all" in suites:
        suites = ["all"]
    fmt = args.format or output.get("format", "text")
    if fmt not in _RENDERERS:
        raise ValueError(f"unknown output format {fmt!r}; known: {sorted(_RENDERERS)}")
    grids = config.get("grids", {})
    tolerances = config.get("tolerances", {})
    records: List[VerificationRecord] = []
    for s in suites:
        records.extend(run_verify(s, grids=grids, tolerances=tolerances, tol_override=args.tol))
    rendered = _RENDERERS[fmt](records)
    out_path = args.out or output.get("path")
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(rendered)
    else:
        sys.stdout.write(rendered)
    passed = sum(r.passed for r in records)
    if out_path:
        print(f"{passed}/{len(records)} passed -> {out_path}")
    return 0 if passed == len(records) else 1


def _cmd_rule(args) -> int:
    builder = _RULE_BUILDERS.get(args.family)
    if builder is None:
        raise ValueError(f"unknown family {args.family!r}; known: {sorted(_RULE_BUILDERS)}")
    rule = builder(args.n, args.m, args.a)
    if args.format == "json":
        doc = rule.to_json_dict()
        doc["nodes"] = [float(_fmt(x)) for x in doc["nodes"]]
        doc["weights"] = [float(_fmt(x)) for x in doc["weights"]]
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("node,weight\n")
        for x, w in zip(rule.nodes, rule.weights):
            sys.stdout.write(f"{_fmt(x)},{_fmt(w)}\n")
    return 0


_REPORT_FIELDS = ("theorem_id", "params", "closed_form", "oracle_value", "abs_error", "tol",
                  "passed")


def _cmd_report(args) -> int:
    with open(args.infile) as fh:
        doc = json.load(fh)
    raw = doc.get("records") if isinstance(doc, dict) else doc
    if not isinstance(raw, list):
        raise ValueError(f"not a bszego report: {args.infile} holds no list of records")
    for i, r in enumerate(raw):
        missing = [k for k in _REPORT_FIELDS if not isinstance(r, dict) or k not in r]
        if missing:
            raise ValueError(f"not a bszego report: record {i} lacks {', '.join(missing)}")
    runtimes = doc.get("runtimes_ms", []) if isinstance(doc, dict) else []
    records = [
        VerificationRecord(
            **{k: r[k] for k in _REPORT_FIELDS},
            runtime_ms=runtimes[i] if i < len(runtimes) else 0,
        )
        for i, r in enumerate(raw)
    ]
    records.sort(key=lambda r: (r.theorem_id, json.dumps(r.params, sort_keys=True)))
    sys.stdout.write(_RENDERERS[args.format](records))
    return 0 if all(r.passed for r in records) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bszego",
        description="Verification harness for explicit quadrature, orthogonality, "
        "and trigonometric-sum identities.",
        epilog="BSZEGO_SEED is reserved as a property-test seed and is not "
        "consumed by the verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--suite", help=f"suite name or 'all' (known: {sorted(SUITES)})")
    p_verify.add_argument("--config", help="JSON config with suites/grids/tolerances/output")
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="ignored, kept for compatibility: suites run one after another")
    p_verify.add_argument("--tol", type=float, help="override tolerance for all suites")
    p_verify.add_argument("--out", help="write the report to this path")
    p_verify.add_argument("--format", choices=["json", "csv", "text"])
    p_verify.set_defaults(func=_cmd_verify)

    p_rule = sub.add_parser("rule", help="dump a closed-form quadrature rule")
    p_rule.add_argument("--n", type=int, required=True)
    p_rule.add_argument("--m", type=int, required=True)
    p_rule.add_argument("--a", type=float, required=True)
    p_rule.add_argument("--family", required=True,
                        help=f"one of {sorted(_RULE_BUILDERS)}")
    p_rule.add_argument("--format", choices=["json", "csv"], default="json")
    p_rule.set_defaults(func=_cmd_rule)

    p_report = sub.add_parser("report", help="re-render a JSON report")
    p_report.add_argument("--in", dest="infile", required=True)
    p_report.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p_report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BszegoError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

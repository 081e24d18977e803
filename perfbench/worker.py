"""One workload run in a fresh process; prints one JSON line on stdout.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py --workload W --seed S --seconds T [--passes P] [--trace]

--probe imports the library and warms it up (the set-up that `setup_s`
times from outside).  Otherwise the seed's fixed list of ops runs in passes
until the next pass would overrun --seconds, or exactly --passes times when
given.  Every pass runs the same ops, and each op must end the same way in
every pass, so `attempted` and `failed` count the seed's distinct ops and
repeat exactly for a seed.  Times are in reference seconds (hostspeed.py);
the output gate runs outside the timed region.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_bszego():
    """Import bszego from this checkout's src, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "bszego" / "__init__.py").is_file():
        sys.exit(f"error: no bszego sources under {src}")
    sys.path.insert(0, str(src))
    import bszego
    import bszego.cli  # noqa: F401  (the sweep entry point; loads every module)

    if Path(bszego.__file__).resolve().parent != (src / "bszego").resolve():
        sys.exit(f"error: bszego imported from {bszego.__file__}, not {src}")


def warm_up():
    from bszego import WeightSpec, build_szego_factor
    from bszego.suites import run_verify

    run_verify("quad1", grids={"quad1": {"n": [3], "m": [3], "a": [1.0]}})
    build_szego_factor(WeightSpec(3, 5, 1.0))


def tail(values):
    """(value, percentile): the largest sample with at least ten beyond it,
    or the largest sample when there are fewer than eleven."""
    s = sorted(values)
    if len(s) <= 10:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


# ---------------------------------------------------------------------------
# One pass of each workload.  A pass returns the perf_counter readings around
# it and around each op, one outcome per op (compared across passes), and its
# attempted / failed / raised counts and gate problems.


def sweep_pass(tracer):
    from bszego import cli

    import workloads

    # A record is built when its cell finishes, so the readings at the
    # record constructions split the sweep into per-record ops.
    # VerificationRecord is rebound in every bszego module that holds it,
    # as the tracer does.
    stamps = []
    holders = [m for k, m in sys.modules.items()
               if k.startswith("bszego") and hasattr(m, "VerificationRecord")]
    record_cls = holders[0].VerificationRecord

    def stamped(*args, **kwargs):
        rec = record_cls(*args, **kwargs)
        stamps.append(time.perf_counter())
        return rec

    for m in holders:
        m.VerificationRecord = stamped
    buf = io.StringIO()
    try:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            cli.main(workloads.SWEEP_ARGV)
        t1 = time.perf_counter()
    finally:
        for m in holders:
            m.VerificationRecord = record_cls
    doc = json.loads(buf.getvalue())
    problems = workloads.check_sweep(doc)
    if len(stamps) != len(doc["records"]):
        problems.append(f"sweep: {len(stamps)} record stamps for {len(doc['records'])} records")
    outcomes = [r["passed"] for r in doc["records"]]
    return dict(span=(t0, t1), ops=list(zip([t0] + stamps[:-1], stamps)), outcomes=outcomes,
                attempted=len(outcomes), failed=outcomes.count(False), raised=Counter(),
                problems=problems)


def cells_pass(cells, tracer):
    from bszego.suites import run_verify

    import workloads

    ops, results = [], []
    t_pass = time.perf_counter()
    for cell_id, (suite, grid) in enumerate(cells):
        if tracer is not None:
            tracer.cell = cell_id
        t0 = time.perf_counter()
        try:
            records = run_verify(suite, grids={suite: grid})
        except Exception as exc:  # a raising cell is a failed op, not a crash
            records = type(exc)  # not exc: its traceback would keep the pass alive
        ops.append((t0, time.perf_counter()))
        results.append(records)
    span = (t_pass, time.perf_counter())
    problems, raised, outcomes = [], Counter(), []
    attempted = failed = 0
    for (suite, _), records in zip(cells, results):
        if isinstance(records, type):
            raised[records.__name__] += 1
            outcomes.append(records.__name__)
            attempted += 1
            failed += 1
            continue
        problems += workloads.check_cell(suite, records)
        outcomes.append(tuple(r.passed for r in records))
        attempted += len(records)
        failed += sum(not r.passed for r in records)
    return dict(span=span, ops=ops, outcomes=outcomes, attempted=attempted, failed=failed,
                raised=raised, problems=problems)


def factor_pass(draws, tracer):
    from bszego import (Family, MeasureFactor, WeightSpec, build_szego_factor,
                        explicit_family, szego_orthonormal)

    import workloads

    ops, results = [], []
    t_pass = time.perf_counter()
    for op_id, (family, n, m, a) in enumerate(draws):
        if tracer is not None:
            tracer.cell = op_id
        t0 = time.perf_counter()
        try:
            spec = WeightSpec(n, m, a, Family(family), MeasureFactor.InvSqrtBoth)
            factor = build_szego_factor(spec)
            k = workloads.explicit_degree(family, n, m)
            result = (szego_orthonormal(factor, k, MeasureFactor.InvSqrtBoth),
                      explicit_family(spec))
        except Exception as exc:  # a raising op is a failed op, not a crash
            result = type(exc)
        ops.append((t0, time.perf_counter()))
        results.append(result)
    span = (t_pass, time.perf_counter())
    problems, raised, outcomes = [], Counter(), []
    for op, result in zip(draws, results):
        if isinstance(result, type):
            raised[result.__name__] += 1
            outcomes.append(result.__name__)
            continue
        outcomes.append("ok")
        rel = workloads.factor_mismatch(*result)
        if not rel <= workloads.FACTOR_REL_TOL:
            problems.append(f"factor_build {op}: generic vs explicit rel {rel:.3e}"
                            f" > {workloads.FACTOR_REL_TOL:.0e}")
    return dict(span=span, ops=ops, outcomes=outcomes, attempted=len(draws),
                failed=sum(raised.values()), raised=raised, problems=problems)


# ---------------------------------------------------------------------------


def run(workload, seed, seconds, passes, tracer, sampler):
    import workloads

    if workload == "sweep":
        one = lambda: sweep_pass(tracer)  # noqa: E731  (ignores the seed)
    elif workload == "cells_mixed":
        cells = workloads.cell_list(seed)
        one = lambda: cells_pass(cells, tracer)  # noqa: E731
    elif workload == "factor_build":
        draws = workloads.factor_list(seed)
        one = lambda: factor_pass(draws, tracer)  # noqa: E731
    else:
        sys.exit(f"error: unknown workload {workload!r}")
    results = []
    sampler.start()
    try:
        start = time.perf_counter()
        while True:
            gc.collect()  # each pass starts from the same heap
            results.append(one())
            if passes:
                if len(results) >= passes:
                    break
            else:
                raw = [r["span"][1] - r["span"][0] for r in results]
                if time.perf_counter() - start + statistics.median(raw) > seconds:
                    break
    finally:
        sampler.stop()
    first = results[0]
    problems = [p for r in results for p in r["problems"]]
    for i, r in enumerate(results[1:], 1):
        changed = sum(a != b for a, b in zip(first["outcomes"], r["outcomes"]))
        if changed or len(r["outcomes"]) != len(first["outcomes"]):
            problems.append(f"{workload}: {changed} ops ended differently in pass {i} than in pass 0")
    walls = [sampler.ref_s(*r["span"]) for r in results]
    # per-op times in reference seconds, then each op's median over passes
    per_op = np.median([np.diff(sampler.ref(np.asarray(r["ops"])), axis=1)[:, 0]
                        for r in results], axis=0)
    tail_s, tail_pct = tail(per_op)
    return dict(
        passes=len(results),
        walls=walls,
        raw_walls=[r["span"][1] - r["span"][0] for r in results],
        host_kernel_ms=sampler.host_kernel_s() * 1e3,
        wall_s=statistics.median(walls),
        cell_p50_ms=float(np.median(per_op)) * 1e3,
        cell_tail_ms=tail_s * 1e3,
        tail_pct=tail_pct,
        ops=len(per_op),
        attempted=first["attempted"],
        failed=first["failed"],
        raised=dict(first["raised"]),
        problems=problems,
    )


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--passes", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(HERE))
    import_bszego()
    warm_up()
    if args.probe:
        return 0
    from hostspeed import Sampler

    sampler = Sampler()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        out = run(args.workload, args.seed, args.seconds, args.passes, tracer, sampler)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(clock=sampler.ref)
        out["spans"] = len(tracer.span_name)
        if args.trace_out:
            tracer.write(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

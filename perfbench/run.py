"""bszego benchmark: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload {sweep,cells_mixed,factor_build} \
        --seed N --seconds T --trace {0,1}

Run from the root of a checkout; the library is imported from its `src`.
--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  Every workload runs in a fresh worker process.  Times are
in reference seconds, corrected for the host's speed (hostspeed.py).  The last
line of stdout is {"correct", "attempted", "failed", "metrics"}; the exit
code is 1 when the output gate found a mismatch and 2 on a usage error.
See perfbench/README.md for the workloads and the metric definitions.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("sweep", "cells_mixed", "factor_build")
SETUP_PROBES = 9
HOST_RUNS = 15  # kernel runs before and after each probe
# Traced runs do a fixed number of passes, so that counts such as
# oracle.eval_calls repeat exactly for a given seed.
TRACE_PASSES = {"sweep": 1, "cells_mixed": 1, "factor_build": 2}
# Workers still running this long after the command started are killed.
DEADLINE = time.monotonic() + 170


def run_worker(args):
    """Run the worker; return (its JSON line, wall s, its own peak RSS in MB)."""
    cmd = [sys.executable, str(WORKER)] + [str(a) for a in args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    timer = threading.Timer(max(0.0, DEADLINE - time.monotonic()), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        # wait4 rather than wait: it also returns this child's rusage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"error: worker {args} exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return (json.loads(lines[-1]) if lines else None), wall, usage.ru_maxrss / 1024.0


def setup_probe():
    """One set-up: a fresh worker that imports the library and warms it up.

    Returns (reference seconds, wall seconds); the host's speed is taken from
    calibration runs in this process just before and just after the probe.
    """
    before = hostspeed.kernel_s(HOST_RUNS)
    wall = run_worker(["--probe"])[1]
    host = 0.5 * (before + hostspeed.kernel_s(HOST_RUNS))
    return wall * hostspeed.REF_KERNEL_S / host, wall


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("points_per_call"):
        return "points/call"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bszego" / "__init__.py").is_file():
        print(f"error: no bszego sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    base = ["--workload", args.workload, "--seed", args.seed]

    if args.trace:
        # same fixed passes untraced, then traced: the ratio is the overhead
        passes = ["--passes", TRACE_PASSES[args.workload]]
        plain = run_worker(base + ["--seconds", args.seconds] + passes)[0]
        OUT_DIR.mkdir(exist_ok=True)
        trace_out = OUT_DIR / f"trace-{args.workload}-{args.seed}.npz"
        res = run_worker(base + ["--seconds", args.seconds, "--trace", "--trace-out", trace_out] + passes)[0]
        traced_wall = sum(res["walls"])
        metrics = dict(res["layers"])
        metrics["tracing.overhead_frac"] = traced_wall / sum(plain["walls"]) - 1.0
        units = {name: layer_unit(name) for name in metrics}
        print(f"# traced {res['passes']} pass(es): {res['spans']} spans, "
              f"traced wall {traced_wall:.3f} reference s, untraced {sum(plain['walls']):.3f}, "
              f"spans in {trace_out.relative_to(ROOT)}")
    else:
        setups = [setup_probe() for _ in range(SETUP_PROBES)]
        res, _, rss = run_worker(base + ["--seconds", args.seconds])
        metrics = {
            "wall_s": res["wall_s"],
            "cell_p50_ms": res["cell_p50_ms"],
            "cell_tail_ms": res["cell_tail_ms"],
            "fail_frac": res["failed"] / res["attempted"],
            "setup_s": statistics.median(s for s, _ in setups),
            "peak_rss_mb": rss,
        }
        units = {"wall_s": "s", "cell_p50_ms": "ms", "cell_tail_ms": "ms",
                 "fail_frac": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}
        print(f"# {args.workload}: {res['passes']} pass(es) of {res['ops']} ops; "
              f"pass walls {[round(w, 3) for w in res['walls']]} reference s, "
              f"{[round(w, 3) for w in res['raw_walls']]} s on the clock; "
              f"calibration kernel {res['host_kernel_ms']:.3f} ms at the median "
              f"(reference {hostspeed.REF_KERNEL_S * 1e3:g} ms); "
              f"cell_tail_ms is p{res['tail_pct']:.1f} of {res['ops']} ops")
        print(f"# setup probes {[round(s, 3) for s, _ in setups]} reference s, "
              f"{[round(w, 3) for _, w in setups]} s on the clock")
    print(f"# failed {res['failed']} of {res['attempted']} attempted; "
          f"raised by type: {json.dumps(res['raised'], sort_keys=True)}")
    for problem in res["problems"][:20]:
        print(f"# GATE MISMATCH: {problem}")
    correct = not res["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself:  python3 -m pytest perfbench

They cover the generators, the output gate and the metric names; the
library's own tests live in tests/.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402

worker.import_bszego()

from bszego.suites import run_verify  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("gen", [workloads.cell_list, workloads.factor_list])
def test_generators_deterministic_per_seed(gen):
    assert gen(5) == gen(5)
    assert gen(5) != gen(6)


def test_cells_stratified_and_in_range():
    cells = workloads.cell_list(11)
    suites = [s for s, _ in cells]
    for s in workloads.CELL_SUITES:
        assert suites.count(s) == workloads.CELLS_PER_SUITE
    for suite, grid in cells:
        if suite == "measure3":
            continue
        (n,), (m,), (a,) = grid["n"], grid["m"], grid["a"]
        assert workloads.A_LO <= a <= workloads.A_HI
        assert not workloads.near_degenerate(suite, n, m, a)


def test_factor_draws_respect_cap_and_parity():
    for family, n, m, a in workloads.factor_list(3):
        assert 2 <= n + m <= workloads.PARAM_CAP
        assert ((n + m) % 2 == 0) == (family == "cos_plus_cosh")
        assert workloads.A_LO <= a <= workloads.A_HI


def test_near_degenerate_matches_measured_slow_cells():
    # quad1 (1, 15, 0.5) and (15, 1, 2.0) took 6.5 s and 4.2 s in the sweep
    assert workloads.near_degenerate("quad1", 1, 15, 0.5)
    assert workloads.near_degenerate("quad1", 15, 1, 2.0)
    assert not workloads.near_degenerate("quad1", 3, 3, 1.0)


def test_factor_outcomes_repeat_exactly():
    # attempted and failed count the seed's distinct ops, so every op must
    # end the same way in every pass
    draws = workloads.factor_list(2)[:40]
    first, second = (worker.factor_pass(draws, None) for _ in range(2))
    assert first["outcomes"] == second["outcomes"]
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"]) == (40, first["failed"])


def test_reference_seconds_skip_calibrations_and_scale_by_host_speed():
    sampler = hostspeed.Sampler()
    # calibrations every second; the kernel takes twice the reference time
    # for the first three, then the reference time
    kernel = [2 * hostspeed.REF_KERNEL_S] * 3 + [hostspeed.REF_KERNEL_S] * 5
    sampler.starts = [float(i) for i in range(len(kernel))]
    sampler.ends = [i + k for i, k in enumerate(kernel)]
    sampler._build_map()
    k = 2 * hostspeed.REF_KERNEL_S
    assert sampler.ref_s(0.5, 0.6) == pytest.approx(0.1 * 0.5)
    assert sampler.ref_s(0.5, 1.5) == pytest.approx((1.0 - k) * 0.5)
    assert sampler.ref_s(6.5, 7.0) == pytest.approx(0.5)
    assert sampler.ref_s(1.0, 1.0 + k) == pytest.approx(0.0)  # inside a calibration


CELL = ("quad1", {"n": [3], "m": [3], "a": [1.0]})


def test_cell_gate_passes_default_tolerance():
    suite, grid = CELL
    assert workloads.check_cell(suite, run_verify(suite, grids={suite: grid})) == []


def test_cell_gate_catches_tol_override():
    suite, grid = CELL
    records = run_verify(suite, grids={suite: grid}, tol_override=1e-3)
    problems = workloads.check_cell(suite, records)
    assert problems and "tol" in problems[0]


def test_sweep_gate_catches_changed_tolerance():
    records = [
        {"theorem_id": "quad1", "params": {"n": 1, "m": 1, "a": 0.5}, "tol": 1e-8, "passed": True},
    ]
    base = workloads.sweep_fingerprint(records)
    records[0]["tol"] = 1e-6
    assert workloads.sweep_fingerprint(records) != base
    assert workloads.check_sweep({"records": records})  # also the wrong record count


def test_trace_metric_names_match_benchmark_json():
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        run_verify("quad1", grids={"quad1": {"n": [3], "m": [3], "a": [1.0]}})
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert sorted([*layers, "tracing.overhead_frac"]) == sorted(want)
    assert all(run.layer_unit(name) == unit for name, unit in want.items())
    assert layers["oracle.eval_calls"] > 0 and layers["suites.quad1.eval_calls"] > 0
    assert layers["suites.cells"] == 1


def test_trace_counts_repeat_exactly():
    from tracer import Tracer

    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            run_verify("kernel", grids={"kernel": {"n": [3], "m": [5], "a": [2.0]}})
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        counts.append((layers["oracle.eval_calls"], layers["oracle.eval_points"]))
    assert counts[0] == counts[1]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_printed_end_to_end_names_match_benchmark_json():
    proc = _run(ROOT, "--workload", "factor_build", "--seed", "1", "--seconds", "0.01", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

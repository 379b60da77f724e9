"""Smoke tests of the benchmark itself: python3 -m pytest benchmarks"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT):
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    assert "warning" not in done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert any(line.startswith("digest ") for line in done.stdout.splitlines())


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("tv-binary", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_missing_calls_are_null_not_zero(capsys):
    hio = workloads.WORKLOADS["hio-binary"]
    metrics = tracing.layer_metrics(tracing.Tracer(), hio, iters=0, cells=0, extras={})
    assert metrics["fourier.impose_magnitude.ms_per_iter"][0] is None
    assert metrics["grids.bounding_box.calls_per_iter"][0] is None
    # the descent block is not expected to run under plain HIO
    assert metrics["sparsity.descent.ms_per_iter"][0] == 0.0
    assert "fourier.impose_magnitude got no calls on hio-binary" in capsys.readouterr().err


def test_vanished_function_is_reported(monkeypatch, capsys):
    monkeypatch.setattr(tracing, "TARGETS",
                        tracing.TARGETS + (("sparsepr.sparsity", "no_such_function", "sparsity.gone"),))
    tracer = tracing.Tracer()
    with tracer:
        pass
    assert tracer.missing == ["sparsepr.sparsity.no_such_function"]
    assert tracer.missing_names() == {"sparsity.gone"}
    tracing.layer_metrics(tracer, workloads.WORKLOADS["tv-binary"], iters=1, cells=0, extras={})
    assert "sparsepr.sparsity.no_such_function no longer exists" in capsys.readouterr().err


def test_output_checks():
    mask = workloads.sp.make_support(8, 2)
    field = mask.astype(complex)
    assert workloads.output_failure(field, mask) is None
    leaked = field.copy()
    leaked[0, 0] = 1e-300
    assert workloads.output_failure(leaked, mask) == "non-zero samples outside the support"
    assert workloads.output_failure(field, mask, (np.array([0.0, np.nan]),)) == "non-finite samples"


def test_sweep_failures_are_counted_although_exit_code_is_zero(tmp_path):
    # n_iterations 0 makes every cell raise inside the sweep, which still exits 0
    wl = workloads.WORKLOADS["sweep-jobs2"]
    plan = workloads.Plan(timed_iters=0, recovery_iters=0, sweep_seeds=2, setup_samples=1)
    tally = workloads.Tally(wl)
    run = workloads.run_sweep(workloads.Problem(wl), plan, [0, 1], 1, tmp_path / "w", tally)
    assert run.passed == 0
    assert tally.attempted == 4 and len(tally.failures) == 4
    assert all("aggregate.json failures" in f for f in tally.failures)

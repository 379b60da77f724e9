#!/usr/bin/env python3
"""sparsepr benchmark.

    python3 benchmarks/run.py --workload tv-binary --seed 0 --seconds 25 --trace 0

Runs one workload (see workloads.py) for about `--seconds` seconds from the
root of a source checkout, importing sparsepr from its `src/`. With
`--trace 0` it reports the end-to-end metrics from untraced runs; with
`--trace 1` it wraps sparsepr's public functions (tracing.py) and reports
the per-layer metrics. `--smoke` shrinks every run so the benchmark's own
tests finish in seconds.

Lines before the last describe the machine, every checked reconstruction's
SHA-256 digests (bit-identity across refactors) and the samples behind
each metric. The last line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Exit code 2 means the benchmark could not run (e.g. no sparsepr source).

End-to-end metrics (untraced):
  iter_ms      median wall time per outer iteration of the timed runs,
               each scaled to the machine's usual speed by a reference
               kernel timed next to it (workloads.py says why); on
               sweep-jobs2, the mean scaled sweep time per passed cell,
               per cell iteration
  cells_per_s  1 / the median scaled run time (one run is one cell); on
               sweep-jobs2, passed cells per scaled second over all sweeps
  setup_s      median over fresh processes of the time to import sparsepr,
               build the phantom and magnitude, and run one warm-up retrieval
  peak_rss_mb  this process's RSS high-water mark plus the largest child's
               (sweep workers and setup processes)
On each workload iter_ms and cells_per_s are one measurement in two units:
iter_ms is the figure of merit of the retrievals, cells_per_s that of the
sweep. The unscaled samples and the reference times are printed above the
result.
A run or cell fails if it raises, returns non-finite samples, leaves
non-zero samples outside the support or, in a sweep, is listed in
aggregate.json failures or has no reconstruction file; `failed` counts
them against `attempted`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".benchwork"
END_TO_END = (("iter_ms", "ms"), ("cells_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a few iterations and one seed per run")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def timed_setup(args):
    """Import sparsepr, build the inputs and warm up; returns the workload
    module, the problem and the seconds taken."""
    start = time.perf_counter()
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(f"error: unknown workload {args.workload!r}, "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    plan = workloads.plan_for(workload, args.smoke)
    problem = workloads.set_up(workload, args.seed, plan)
    return workloads, plan, problem, time.perf_counter() - start


def probe_setup(args) -> float:
    """setup_s of a fresh process running the same set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.splitlines()[-1])["setup_s"])


def environment(numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # noqa: BLE001 - the config layout differs across numpy versions
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    l2 = "unknown"
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            if (index / "level").read_text().strip() == "2":
                l2 = (index / "size").read_text().strip()
        except OSError:
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2": l2,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        **{var: os.environ.get(var) for var in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sparsepr" / "__init__.py").is_file():
        print(f"error: no sparsepr source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    load_start = os.getloadavg()
    workloads, plan, problem, own_setup = timed_setup(args)
    import numpy
    import sparsepr

    if Path(sparsepr.__file__).resolve().parent != SRC / "sparsepr":
        print(f"error: imported sparsepr from {sparsepr.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0

    workload = problem.workload
    tally = workloads.Tally(workload)
    workdir = WORKDIR / f"{workload.name}-{os.getpid()}"
    try:
        if workload.sweep and args.trace:
            metrics = workloads.trace_sweep(problem, plan, args.seed, args.seconds, tally, workdir)
        elif workload.sweep:
            measured = workloads.measure_sweep(problem, plan, args.seed, args.seconds, tally, workdir)
        elif args.trace:
            metrics = workloads.trace_retrieval(problem, plan, args.seed, args.seconds, tally)
        else:
            measured = workloads.measure_retrieval(problem, plan, args.seed, args.seconds, tally)
        if not args.trace:
            setups = [own_setup] + [probe_setup(args) for _ in range(plan.setup_samples - 1)]
            measured["setup_s"] = statistics.median(setups)
            measured["peak_rss_mb"] = peak_rss_mb()
            tally.lines.append("setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
            metrics = {name: (measured[name], unit) for name, unit in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(numpy)
    env["loadavg_start"] = load_start
    env["loadavg_end"] = os.getloadavg()
    print("env " + json.dumps(env, sort_keys=True))
    for line in tally.lines:
        print(line)
    for failure in tally.failures:
        print(f"failed {failure}")
    for error in tally.errors:
        print(f"incorrect {error}")
    print(f"failed_fraction {len(tally.failures)}/{tally.attempted}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    complete = all(value is not None for value, _ in metrics.values()) or bool(args.trace)
    print(json.dumps({
        "correct": not tally.failures and not tally.errors and tally.attempted > 0 and complete,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

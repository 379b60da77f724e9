"""The benchmark's workloads, output checks and measurement loops.

Every workload uses the paper's problem: a 128x128 grid with a centred
60x60 support, beta = 0.9 and the default PenaltySpec (30 inner steps,
t_init = 0.02). Load is a closed loop from one process: each retrieval
or sweep starts when the previous one ends. sparsepr is called only
through its public API and `sparsepr.cli.main`.

Timed runs are short (20 iterations; 100 for plain HIO), so a run gives
many samples and stops before any seed breaks the twin (the earliest
seen is iteration ~60). After the twin breaks, the TV line search backs
off more and a TV iteration costs up to 2x more, so timing long runs
would make `iter_ms` depend on when each seed recovers. Recovery is
measured instead on separate 500-iteration runs (the paper's length) in
the traced mode.

On the 2-vCPU shared host the benchmark was built on (Intel Xeon, one
thread per core), the speed of the same code drifts by 20-30% over
minutes, and every workload drifts together. Over 10 minutes of
interleaved tv, hio and huber runs, the median of each 25 s window
spread by up to 0.23 of its median (quartile distance over ten
consecutive windows), while the ratio of one workload's runs to
another's, timed next to each other, spread by at most 0.06. So every
timing is scaled by the machine's speed while it ran: a fixed numpy
kernel that does not use sparsepr (`reference_seconds`) is timed
between runs, and the median run time is reported times REFERENCE_S
over the median reference time. A change to sparsepr cannot move the
reference; a slower machine moves both. Sweeps use every core, so they
are scaled by the same kernel run by a pool of as many processes
(`parallel_reference`): over 5 minutes of sweeps, the 25 s window
medians spread by 0.22 unscaled and by 0.09 scaled this way, and by
0.14 scaled by the one-process reference; the mean sweep scaled this
way spread by 0.03 over 6 minutes where the median spread by 0.06.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import sparsepr as sp
import sparsepr.cli

from tracing import RecoveryProbe, Tracer, layer_metrics, ratio as _ratio

SIZE = 128
SUPPORT = 60
BETA = 0.9
SWEEP_ALGORITHMS = ("hio", "hio-tv")
DIGESTED = ("final_field", "penalty_trace", "fourier_residual_trace")

# Span names every traced retrieval run calls; see tracing.TARGETS.
_LOOP = frozenset({
    "retrieval.run", "fourier.inverse_transform", "fourier.forward_transform",
    "fourier.impose_magnitude", "retrieval.hio_update", "retrieval.penalty_trace",
    "grids.as_mask", "grids.as_complex_field", "grids.bounding_box", "experiment.phantom",
})
_DESCENT = frozenset({
    "sparsity.descent", "sparsity.gradient", "sparsity.line_search", "sparsity.penalty_eval",
})


@dataclass(frozen=True)
class Workload:
    name: str
    phantom: str          # PhantomSpec kind
    pattern_seed: int
    penalty: str          # PenaltySpec kind of the retrieval; "none" is plain HIO
    timed_iters: int      # iterations of one timed run (or sweep cell)
    tolerance: float      # phase RMSE (rad) under which a twin-free run is recovered
    expects: frozenset    # span names the traced run must see called
    sweep: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("tv-binary", "binary", 1, "tv", 20, 0.01, _LOOP | _DESCENT),
    Workload("hio-binary", "binary", 1, "none", 100, 0.01, _LOOP),
    Workload("huber-gray", "gray", 0, "huber", 20, 0.15,
             _LOOP | _DESCENT | {"sparsity.select_delta"}),
    Workload("sweep-jobs2", "binary", 1, "tv", 10, 0.01,
             _LOOP | _DESCENT | {"cli.main", "fieldfile.write", "experiment.run_statistics"},
             sweep=True),
)}

RECOVERY_ITERS = 500
SWEEP_SEEDS = 4
SETUP_SAMPLES = 3


@dataclass(frozen=True)
class Plan:
    """Run sizes; smoke mode shrinks them so the benchmark's tests take seconds."""

    timed_iters: int
    recovery_iters: int
    sweep_seeds: int
    setup_samples: int


def plan_for(workload: Workload, smoke: bool) -> Plan:
    if smoke:
        return Plan(timed_iters=5, recovery_iters=20, sweep_seeds=1, setup_samples=1)
    return Plan(workload.timed_iters, RECOVERY_ITERS, SWEEP_SEEDS, SETUP_SAMPLES)


def run_seeds(seed: int, offset: int):
    """Retrieval seeds derived from the benchmark seed; offsets keep the
    seed streams of different run kinds apart."""
    return range(seed * 1000 + offset, seed * 1000 + offset + 500)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Problem:
    """Phantom, support and Fourier magnitude of a workload."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.spec = sp.PhantomSpec(image_size=SIZE, support_size=SUPPORT,
                                   kind=workload.phantom, pattern_seed=workload.pattern_seed)
        self.truth = self.phantom()
        self.mask = sp.make_support(SIZE, SUPPORT)
        self.magnitude = sp.magnitude_of(sp.forward_transform(self.truth))

    def phantom(self) -> np.ndarray:
        if self.spec.kind == "binary":
            return sp.binary_phase_phantom(self.spec)
        return sp.gray_phase_phantom(self.spec)

    def retrieve(self, seed: int, n_iterations: int):
        kind = self.workload.penalty
        config = sp.RetrievalConfig(beta=BETA, n_iterations=n_iterations, seed=seed,
                                    penalty=sp.PenaltySpec(kind=kind))
        engine = sp.run_hio if kind == "none" else sp.run_sparse_hio
        return engine(self.magnitude, self.mask, config)

    def recovered(self, field) -> bool:
        twin = sp.twin_correlations(field, self.truth, self.mask).twin_present
        return not twin and sp.phase_rmse(field, self.truth, self.mask) < self.workload.tolerance


def set_up(workload: Workload, seed: int, plan: Plan) -> Problem:
    """Build the inputs and run one warm-up retrieval (part of setup_s)."""
    problem = Problem(workload)
    problem.retrieve(seed * 1000 + 999, plan.timed_iters)
    reference_seconds()
    return problem


# ------------------------------------------------------------- machine speed

# About the median wall time of reference_seconds() on the host described
# above (36-40 ms), so that scaled times read as milliseconds on that host
# at its usual speed.
REFERENCE_S = 0.040
_REFERENCE_FIELD = np.exp(2j * np.pi * np.random.default_rng(12345).random((SIZE, SIZE)))


def reference_seconds() -> float:
    """Wall time of a fixed numpy kernel shaped like a sparse HIO iteration:
    an FFT pair and magnitude step on the grid, then gradient steps on the
    support window. It uses no BLAS call, so it does not wake BLAS threads."""
    lo = (SIZE - SUPPORT) // 2
    start = time.perf_counter()
    for _ in range(24):
        spectrum = np.fft.fft2(_REFERENCE_FIELD)
        field = np.fft.ifft2(spectrum / np.maximum(np.abs(spectrum), 1e-12))
        window = field[lo:lo + SUPPORT, lo:lo + SUPPORT].real.copy()
        for _ in range(10):
            gx = np.diff(window, axis=0, append=window[-1:])
            gy = np.diff(window, axis=1, append=window[:, -1:])
            norm = np.sqrt(gx * gx + gy * gy + 1e-3)
            window -= 0.01 * (gx / norm + gy / norm)
    return time.perf_counter() - start


def _reference_unit(_):
    return reference_seconds()


def single_reference() -> list:
    return [reference_seconds()]


def parallel_reference(pool, jobs: int):
    """A reference for work on every core: 4 x `jobs` reference kernels
    shared out by a pool of `jobs` processes, each timed in its process.
    With as many busy processes as the sweep, it sees how much of every
    core the host gives, which one process cannot."""
    def timings() -> list:
        return list(pool.map(_reference_unit, range(4 * jobs)))

    timings()  # start the workers
    return timings


class SpeedScale:
    """Times the reference between runs. The scaled run time is the typical
    run time times REFERENCE_S over the median reference time. `typical`
    is the median for retrievals, whose single runs are often interrupted,
    and the mean for sweeps (see measure_sweep)."""

    def __init__(self, reference=single_reference, typical=statistics.median):
        self.reference = reference
        self.typical = typical
        self.references = reference()
        self.runs = []

    def after_run(self, seconds: float | None) -> None:
        """Record a run's `seconds` (None for a failed run) and time the
        reference after it."""
        if seconds is not None:
            self.runs.append(seconds)
        self.references.extend(self.reference())

    def scaled(self) -> float | None:
        if not self.runs:
            return None
        return self.typical(self.runs) * REFERENCE_S / statistics.median(self.references)


def output_failure(field, mask, traces=()) -> str | None:
    """Why a reconstruction fails the output checks, or None."""
    if not all(np.all(np.isfinite(a)) for a in (field, *traces)):
        return "non-finite samples"
    if np.any(field[~mask] != 0):
        return "non-zero samples outside the support"
    return None


def sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class Tally:
    """Attempted and failed runs, other failed checks, digests and the
    lines printed before the result."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.attempted = 0
        self.failures = []
        self.errors = []
        self.lines = []

    def fail(self, label: str, reason: str) -> None:
        self.failures.append(f"{label}: {reason}")

    def retrieve(self, problem: Problem, seed: int, n_iterations: int):
        """One checked retrieval; returns (report, seconds) or None if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            report = problem.retrieve(seed, n_iterations)
        except Exception as exc:  # noqa: BLE001 - a raising run is a counted failure
            self.fail(f"seed {seed}", f"{type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        reason = output_failure(report.final_field, problem.mask,
                                (report.penalty_trace, report.fourier_residual_trace))
        if reason:
            self.fail(f"seed {seed}", reason)
            return None
        digest = " ".join(f"{k}={sha256(getattr(report, k))}" for k in DIGESTED)
        self.lines.append(f"digest {self.workload.name} iters={n_iterations} seed={seed} {digest}")
        return report, elapsed


def closed_loop(seconds: float, seeds, min_runs: int, run_one) -> int:
    """Call run_one(seed) back to back; stop once the next call, predicted
    to last as long as the previous one, would end past `seconds`."""
    start = time.perf_counter()
    done = 0
    for seed in seeds:
        began = time.perf_counter()
        run_one(seed)
        done += 1
        now = time.perf_counter()
        if done >= min_runs and (now - start) + (now - began) > seconds:
            break
    return done


def _median(values):
    return statistics.median(values) if values else None


# ------------------------------------------------------------- retrievals

def measure_retrieval(problem: Problem, plan: Plan, seed: int, seconds: float, tally: Tally):
    scale = SpeedScale()

    def one(run_seed):
        result = tally.retrieve(problem, run_seed, plan.timed_iters)
        scale.after_run(result[1] if result else None)

    closed_loop(seconds, run_seeds(seed, 0), 2, one)
    per_run = scale.scaled()
    _speed_lines(tally, scale, 1e3 / plan.timed_iters, "iter_ms", "ms", "runs")
    return {
        "iter_ms": 1e3 * per_run / plan.timed_iters if per_run else None,
        "cells_per_s": 1 / per_run if per_run else None,
    }


def trace_retrieval(problem: Problem, plan: Plan, seed: int, seconds: float, tally: Tally):
    """Alternate untraced and traced runs of the same seed (they must give
    the same bits), then run longer recovery runs with the RMSE probe."""
    tracer = Tracer()
    untraced, traced = [], []

    def pair(run_seed):
        plain = tally.retrieve(problem, run_seed, plan.timed_iters)
        with tracer:
            spanned = tally.retrieve(problem, run_seed, plan.timed_iters)
        if plain and spanned:
            untraced.append(plain[1] / plan.timed_iters)
            traced.append(spanned[1] / plan.timed_iters)
            if any(sha256(getattr(plain[0], k)) != sha256(getattr(spanned[0], k)) for k in DIGESTED):
                tally.errors.append(f"seed {run_seed}: tracing changed the reconstruction")

    closed_loop(seconds / 2, run_seeds(seed, 0), 2, pair)
    with tracer:
        for _ in range(3):
            if not np.array_equal(problem.phantom(), problem.truth):
                tally.errors.append("the same PhantomSpec gave a different phantom")

    firsts, recovered = [], []
    with RecoveryProbe(sp, problem.truth, problem.mask, problem.workload.tolerance) as probe:
        def recovery(run_seed):
            probe.reset()
            result = tally.retrieve(problem, run_seed, plan.recovery_iters)
            if result:
                recovered.append(problem.recovered(result[0].final_field))
                firsts.append(probe.first if probe.first is not None else plan.recovery_iters)

        closed_loop(seconds / 2, run_seeds(seed, 500), 1, recovery)
    tally.lines.append(f"recovered_fraction {_ratio(sum(recovered), len(recovered))} "
                       f"({sum(recovered)} of {len(recovered)} runs of {plan.recovery_iters} "
                       f"iterations, tolerance {problem.workload.tolerance} rad)")
    extras = {
        "retrieval.recovered_fraction": _ratio(sum(recovered), len(recovered)),
        "retrieval.iters_to_recover": _median(firsts) if probe.available else None,
        "trace.overhead_ratio": _ratio(_median(traced), _median(untraced)),
    }
    if traced:
        extras["trace.iter_ms"] = 1e3 * _median(traced)
    return layer_metrics(tracer, problem.workload, len(traced) * plan.timed_iters, 0, extras)


# ------------------------------------------------------------- sweeps

@dataclass
class SweepRun:
    wall: float
    passed: int
    cell_seconds: dict    # algorithm -> wall_time_s of each passed cell
    digests: dict         # (algorithm, seed) -> SHA-256 of the reconstruction
    bytes_written: int


def run_sweep(problem: Problem, plan: Plan, seeds, jobs: int, workdir: Path,
              tally: Tally, tracer: Tracer | None = None) -> SweepRun:
    """One `sparsepr sweep` through `sparsepr.cli.main`, then check every cell
    from aggregate.json and the cell files; the exit code is not trusted."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = workdir / "out"
    config = workdir / "sweep.json"
    config.write_text(json.dumps({
        "phantom": {"image_size": SIZE, "support_size": SUPPORT, "kind": problem.spec.kind,
                    "pattern_seed": problem.spec.pattern_seed},
        "retrieval": {"beta": BETA, "n_iterations": plan.timed_iters},
        "seeds": list(seeds),
        "algorithms": list(SWEEP_ALGORITHMS),
        "output_dir": str(out),
    }))
    argv = ["sweep", "--config", str(config), "--jobs", str(jobs)]
    cells = [(alg, s) for alg in SWEEP_ALGORITHMS for s in seeds]
    tally.attempted += len(cells)
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    failed = None
    start = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(io.StringIO()):
            sparsepr.cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - every cell of a raising sweep fails
        failed = {c: f"sweep raised {type(exc).__name__}: {exc}" for c in cells}
    run = SweepRun(time.perf_counter() - start, 0, {alg: [] for alg in SWEEP_ALGORITHMS}, {}, 0)
    if failed is None:
        try:
            aggregate = json.loads((out / "aggregate.json").read_text())
            failed = {(f["algorithm"], f["seed"]): "listed in aggregate.json failures: " + f["error"]
                      for f in aggregate["failures"]}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            failed = {c: f"unreadable aggregate.json: {exc}" for c in cells}
    for alg, s in cells:
        stem = out / f"recon_{alg}_{s:08d}"
        if (alg, s) in failed:
            tally.fail(f"{alg} seed {s}", failed[(alg, s)])
            continue
        try:
            field = sp.read_field_file(stem.with_suffix(".prf1"))
            cell = json.loads(stem.with_suffix(".json").read_text())
            seconds = float(cell["wall_time_s"])
        except (OSError, ValueError, KeyError, TypeError, sp.FieldFileError) as exc:
            tally.fail(f"{alg} seed {s}", f"missing or unreadable cell output: {exc}")
            continue
        reason = output_failure(field, problem.mask)
        if reason:
            tally.fail(f"{alg} seed {s}", reason)
            continue
        run.passed += 1
        run.cell_seconds[alg].append(seconds)
        run.digests[(alg, s)] = sha256(field)
    run.bytes_written = sum(p.stat().st_size for p in out.glob("*.prf1"))
    shutil.rmtree(workdir)
    return run


def _sweep_seeds(seed: int, index: int, plan: Plan):
    first = seed * 1000 + index * plan.sweep_seeds
    return list(range(first, first + plan.sweep_seeds))


def _record_digests(tally: Tally, run: SweepRun, plan: Plan) -> None:
    for (alg, s), digest in sorted(run.digests.items()):
        tally.lines.append(f"digest {tally.workload.name} {alg} iters={plan.timed_iters} "
                           f"seed={s} final_field={digest}")


def measure_sweep(problem: Problem, plan: Plan, seed: int, seconds: float,
                  tally: Tally, workdir: Path):
    jobs = nproc()
    per_iter = []

    def one(index):
        run = run_sweep(problem, plan, _sweep_seeds(seed, index, plan), jobs,
                        workdir / f"sweep-{index}", tally)
        _record_digests(tally, run, plan)
        scale.after_run(run.wall / run.passed if run.passed else None)
        per_iter.extend(1e3 * t / plan.timed_iters for t in run.cell_seconds["hio-tv"])

    # The sweep runs on every core, so it is scaled by a reference run on
    # every core; its workers idle while the sweep runs. A sweep's time per
    # cell is bimodal (about 0.125 or 0.17 s on the host above, however
    # the oversubscribed workers happen to be scheduled), and the median
    # of a bimodal sample jumps between the modes, so sweeps report the
    # mean: passed cells per second over all sweeps.
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        scale = SpeedScale(parallel_reference(pool, jobs), statistics.fmean)
        sweeps = closed_loop(seconds, range(100), 2, one)
    tally.lines.append(f"sweep --jobs {jobs}: {sweeps} sweeps of "
                       f"{plan.sweep_seeds * len(SWEEP_ALGORITHMS)} cells")
    _speed_lines(tally, scale, 1.0, "seconds per passed cell", "s", "sweeps")
    tally.lines.append(_spread_line("hio-tv cell iter_ms (unscaled)", per_iter, "ms", "cells"))
    per_cell = scale.scaled()
    return {"iter_ms": 1e3 * per_cell / plan.timed_iters if per_cell else None,
            "cells_per_s": 1 / per_cell if per_cell else None}


def trace_sweep(problem: Problem, plan: Plan, seed: int, seconds: float,
                tally: Tally, workdir: Path):
    """Untraced sweeps at --jobs nproc and --jobs 1 on the same cells (they
    must give the same bits), then one traced --jobs 1 sweep, whose cells
    run in this process so that their spans are collected."""
    jobs = nproc()
    parallel, serial = [], []

    def pair(index):
        seeds = _sweep_seeds(seed, index, plan)
        a = run_sweep(problem, plan, seeds, jobs, workdir / f"sweep-{index}-n", tally)
        b = run_sweep(problem, plan, seeds, 1, workdir / f"sweep-{index}-1", tally)
        _record_digests(tally, a, plan)
        parallel.append(a)
        serial.append(b)
        for cell in sorted(set(a.digests) & set(b.digests)):
            if a.digests[cell] != b.digests[cell]:
                tally.errors.append(f"{cell[0]} seed {cell[1]}: --jobs {jobs} and --jobs 1 differ")

    pairs = closed_loop(seconds / 2, range(100), 1, pair)
    tracer = Tracer()
    with tracer:
        traced = run_sweep(problem, plan, _sweep_seeds(seed, pairs, plan), 1,
                           workdir / "sweep-traced", tally, tracer)
    untraced_serial = min(run.wall for run in serial)
    extras = {
        "fieldfile.bytes_written": parallel[0].bytes_written,
        "cli.sweep.worker_busy_ratio": _median([
            _ratio(sum(map(sum, run.cell_seconds.values())), jobs * run.wall) for run in parallel]),
        "cli.sweep.speedup_vs_jobs1": _ratio(untraced_serial, min(run.wall for run in parallel)),
        "trace.overhead_ratio": _ratio(traced.wall, untraced_serial),
    }
    for alg in SWEEP_ALGORITHMS:
        extras[f"cli.sweep.cell_s_p50.{alg}"] = _median(
            [t for run in parallel for t in run.cell_seconds[alg]]) or 0.0
    tally.lines.append(f"cli.sweep.speedup_vs_jobs1 {extras['cli.sweep.speedup_vs_jobs1']:.3f} "
                       f"(--jobs {jobs} against --jobs 1, {pairs} pairs)")
    cells = plan.sweep_seeds * len(SWEEP_ALGORITHMS)
    return layer_metrics(tracer, problem.workload, cells * plan.timed_iters, cells, extras)


# ------------------------------------------------------------- helpers

def _speed_lines(tally, scale, factor, name, unit, what):
    """Print the unscaled samples behind a metric and the reference times
    they were scaled by."""
    tally.lines.append(_spread_line(f"unscaled {name}", [factor * t for t in scale.runs], unit, what))
    tally.lines.append(_spread_line(f"reference (scaled to {1e3 * REFERENCE_S:.1f} ms)",
                                    [1e3 * t for t in scale.references], "ms", "timings"))


def _spread_line(name, values, unit, what):
    if not values:
        return f"{name}: no passed {what}"
    return (f"{name} median {statistics.median(values):.4f} {unit} over {len(values)} {what} "
            f"(min {min(values):.4f}, max {max(values):.4f})")

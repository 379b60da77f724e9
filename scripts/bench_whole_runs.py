"""Whole 500-iteration runs, traced per-layer metrics, quality pools, Tier-1 time and source size, for two source trees.

    python scripts/bench_whole_runs.py --parent PARENT_TREE --change CHANGE_TREE \
        --repeats 5 --out BENCH_whole_runs.json

A tree is a checkout of this repository; its `src/` is put first on
PYTHONPATH. Every run is one fresh Python process, so the two trees never
share a process or an allocator, and the two sides alternate: in repeat k
the parent runs first for even k, the change for odd k.

Every run is the paper's problem: a 128x128 grid, a 60x60 support, beta
0.9, 500 iterations and the default PenaltySpec of its engine.

- Timed runs: `--repeats` runs of `hio-tv` (binary phantom, pattern seed 1)
  and of `hio-huber` (gray phantom, pattern seed 0), run seed 0, per side.
  The time is the wall time of `run_hio` alone, and the page faults are the
  minor page faults of its process during `run_hio` (the
  `getrusage(RUSAGE_SELF).ru_minflt` delta) per iteration; min and median
  of each are reported.
- Per-layer metrics: one run of the tree's own `benchmarks/run.py
  --workload W --seed 0 --trace 1`, from the tree's root, for `tv-binary`
  and then `huber-gray`, the sides alternating as above. These run first,
  and each side stores the run's printed `metrics` and its `env` line
  (nproc, cpu, python, numpy, BLAS) as they are, under `per_layer_traced`.
  A traced run that exits non-zero or prints a null metric stops the gate
  with that run's stderr. The fixed cost of one descent step on a 4x4
  window, which earlier versions of this script timed, is not measured: it
  served the tuning of the Armijo line search, which is no longer pursued.
- Quality pools: `hio-tv` over binary pattern seeds 1-4 x run seeds 0-9,
  and `hio-huber` over gray pattern seeds 0-3 x run seeds 0-4. Each run
  gives its twin flag, its phase RMSE against the truth and its final
  penalty over the truth's (both from `retrieval.penalty_value`). A run is
  recovered when it has no twin and a phase RMSE under its pool's
  tolerance: 0.01 rad for `hio-tv`, 0.15 rad for `hio-huber`, the
  benchmark's tolerances for these engines. Each pool also counts its runs
  recovered at 0.01 rad, so the two pools are read at one tolerance. The
  pool runs go `os.cpu_count()` at a time, each in its own fresh process,
  in the alternating order above. Pools report no time, so the `seconds`
  recorded with each pool run is a time under that load, not a serial one.
- Tier-1: TIER1_ROUNDS rounds of the tree's whole pytest suite per side,
  from the tree's root, alternating as above (parent, change, change,
  parent for two rounds); every run's wall time and pytest's summary line,
  and each side's range of wall time. No verdict on the times is drawn:
  rounds of one tree on one box have read 106 and 113 s, so two rounds
  per side cannot tell a change under about 10% from the box's load.
  Each side's "same_summary" is true when every round of that tree
  printed the same summary line, timing aside; false marks a suite whose
  verdict is not a function of the tree.
- Source size: the lines of the tree's `src/sparsepr/*.py` (newlines, as
  `wc -l` counts them) and its code lines, the lines that hold a token
  other than a comment, a docstring or layout (newline, indent, dedent).

Each run also records the SHA-256 of its final field, so a change that
should not move a bit can be checked run by run.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import itertools
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

# benchmark workloads whose per-layer metrics are recorded
TRACED = ("tv-binary", "huber-gray")
# engine -> (penalty kind, phantom kind, pattern seed of the timed runs)
ENGINES = {"hio-tv": ("tv", "binary", 1), "hio-huber": ("huber", "gray", 0)}
# engine -> (pattern seeds, run seeds, phase RMSE tolerance of a recovered run)
POOLS = {"hio-tv": (range(1, 5), range(10), 0.01), "hio-huber": (range(4), range(5), 0.15)}
# Tier-1 suite runs per side, in alternating order
TIER1_ROUNDS = 2
# Tokens that make no line a code line (comments and layout)
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def run_once(kind: str, phantom_kind: str, pattern_seed: int, run_seed: int) -> dict:
    """One 500-iteration run with the sparsepr on sys.path (child process)."""
    import numpy as np

    import sparsepr as sp

    spec = sp.PhantomSpec(image_size=128, support_size=60, kind=phantom_kind,
                          pattern_seed=pattern_seed)
    truth = sp.phantom(spec)
    magnitude = sp.magnitude_of(sp.forward_transform(truth))
    mask = sp.make_support(128, 60)
    penalty = sp.PenaltySpec(kind=kind)
    config = sp.RetrievalConfig(beta=0.9, n_iterations=500, seed=run_seed, penalty=penalty)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    report = sp.run_hio(magnitude, mask, config)
    seconds = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    final = report.final_field
    return {
        "seconds": seconds,
        "faults_per_iteration": faults / config.n_iterations,
        "twin_present": bool(sp.twin_correlations(final, truth, mask).twin_present),
        "phase_rmse": float(sp.phase_rmse(final, truth, mask)),
        "penalty_over_truth": (sp.penalty_value(final, mask, penalty)
                               / sp.penalty_value(truth, mask, penalty)),
        "final_field_sha256": hashlib.sha256(np.ascontiguousarray(final).tobytes()).hexdigest(),
    }


def order(k: int) -> list[str]:
    """The sides in repeat k: the parent first for even k, the change for odd k."""
    return ["parent", "change"] if k % 2 == 0 else ["change", "parent"]


def spawn_run(tree: Path, engine: str, pattern_seed: int, run_seed: int) -> dict:
    """run_once in a fresh process that imports sparsepr from `tree`."""
    kind, phantom_kind, _ = ENGINES[engine]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run([sys.executable, __file__, "--run", kind, phantom_kind,
                          str(pattern_seed), str(run_seed)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def traced(tree: Path, workload: str) -> dict:
    """The `env` line and per-layer `metrics` of one traced run of the tree's
    benchmark; a failed run or a null metric stops the gate with its stderr."""
    done = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", "0", "--trace", "1"],
                          cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    metrics = json.loads(lines[-1])["metrics"] if done.returncode == 0 else {}
    nulls = [name for name, metric in metrics.items() if metric["value"] is None]
    if not metrics or nulls:
        sys.exit(f"traced {workload} run of {tree} exited {done.returncode}, "
                 f"null metrics {nulls}:\n{done.stderr}")
    env = next(json.loads(line.removeprefix("env ")) for line in lines if line.startswith("env "))
    return {"env": env, "metrics": metrics}


def tier1_run(tree: Path) -> dict:
    """Wall time and summary line of the tree's whole pytest suite."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=tree, env=env, capture_output=True, text=True)
    return {"seconds": time.perf_counter() - start, "exit_code": done.returncode,
            "summary": done.stdout.strip().splitlines()[-1]}


def counts_of(summary: str) -> str:
    """A pytest summary line without its timing: "460 passed in 136.52s (0:02:16)" -> "460 passed"."""
    return re.sub(r" in [0-9.]+s\b.*$", "", summary)


def tier1(trees: dict) -> dict:
    """TIER1_ROUNDS alternating runs of each tree's suite, with each side's
    wall-time range."""
    runs = {side: [] for side in trees}
    for k in range(TIER1_ROUNDS):
        for side in order(k):
            runs[side].append(tier1_run(trees[side]))
    return {side: {"min_s": min(r["seconds"] for r in rs), "max_s": max(r["seconds"] for r in rs),
                   "same_summary": len({counts_of(r["summary"]) for r in rs}) == 1,
                   "runs": rs} for side, rs in runs.items()}


def source_size(tree: Path) -> dict:
    """Lines and code lines of the tree's src/sparsepr/*.py; see the module docstring."""
    lines = code = 0
    for path in sorted((tree / "src" / "sparsepr").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        docstrings = set()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                    and ast.get_docstring(node, clean=False) is not None):
                docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        code_lines = set()
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type not in NOT_CODE:
                code_lines.update(range(token.start[0], token.end[0] + 1))
        lines += text.count("\n")
        code += len(code_lines - docstrings)
    return {"lines": lines, "code_lines": code}


def pool_summary(runs: list[dict], tolerance: float) -> dict:
    rmse = [r["phase_rmse"] for r in runs]
    return {
        "twins": sum(r["twin_present"] for r in runs),
        "recovered": sum(not r["twin_present"] and r["phase_rmse"] < tolerance for r in runs),
        "recovered_at_0_01_rad": sum(not r["twin_present"] and r["phase_rmse"] < 0.01
                                     for r in runs),
        "runs": len(runs),
        "mean_phase_rmse": statistics.fmean(rmse),
        "median_phase_rmse": statistics.median(rmse),
        "mean_penalty_over_truth": statistics.fmean(r["penalty_over_truth"] for r in runs),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    per_layer = {side: {} for side in trees}
    for k, workload in enumerate(TRACED):
        for side in order(k):
            per_layer[side][workload] = traced(trees[side], workload)
    timed = {side: {engine: [] for engine in ENGINES} for side in trees}
    for k in range(args.repeats):
        for engine, (_, _, pattern_seed) in ENGINES.items():
            for side in order(k):
                timed[side][engine].append(spawn_run(trees[side], engine, pattern_seed, 0))
    cases = [(side, engine, pattern_seed, run_seed)
             for engine, (pattern_seeds, run_seeds, _) in POOLS.items()
             for k, (pattern_seed, run_seed) in enumerate(itertools.product(pattern_seeds,
                                                                            run_seeds))
             for side in order(k)]
    with ThreadPoolExecutor(max_workers=os.cpu_count()) as threads:
        runs = list(threads.map(lambda case: spawn_run(trees[case[0]], *case[1:]), cases))
    pools = {side: {engine: [] for engine in POOLS} for side in trees}
    for (side, engine, pattern_seed, run_seed), run in zip(cases, runs):
        pools[side][engine].append(dict(pattern_seed=pattern_seed, run_seed=run_seed, **run))
    suites = tier1(trees)

    def times(runs):
        seconds = [r["seconds"] for r in runs]
        faults = [r["faults_per_iteration"] for r in runs]
        return {"min_s": min(seconds), "median_s": statistics.median(seconds), "runs_s": seconds,
                "min_faults_per_iteration": min(faults),
                "median_faults_per_iteration": statistics.median(faults),
                "final_field_sha256": sorted({r["final_field_sha256"] for r in runs})}

    result = {
        "method": __doc__.split("\n\n", 2)[2].strip(),
        "whole_runs_500_iterations": {side: {engine: times(runs) for engine, runs in by.items()}
                                      for side, by in timed.items()},
        "per_layer_traced": per_layer,
        "quality_pools": {side: {engine: {"summary": pool_summary(runs, POOLS[engine][2]),
                                          "runs": runs}
                                 for engine, runs in by.items()}
                          for side, by in pools.items()},
        "pool_runs_with_equal_final_fields": {
            engine: sum(a["final_field_sha256"] == b["final_field_sha256"]
                        for a, b in zip(pools["parent"][engine], pools["change"][engine]))
            for engine in POOLS},
        "tier1": suites,
        "source_size": {side: source_size(tree) for side, tree in trees.items()},
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--run"]:
        kind, phantom_kind, pattern_seed, run_seed = sys.argv[2:]
        print(json.dumps(run_once(kind, phantom_kind, int(pattern_seed), int(run_seed))))
    else:
        sys.exit(main())

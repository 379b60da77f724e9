"""Whole 500-iteration runs, traced per-layer metrics, quality pools, Tier-1 time and source size, for two source trees.

    python scripts/bench_whole_runs.py --parent PARENT_TREE --change CHANGE_TREE \
        --repeats 5 --out BENCH_whole_runs.json

A tree is a checkout of this repository. Every run and every score is one
fresh process of the tree's own CLI, `python -m sparsepr.cli` with the
tree's `src/` first on PYTHONPATH: runs are `sparsepr sweep` cells, scores
are `sparsepr metrics`. This script imports neither sparsepr nor numpy, so
the two trees never share a process or an allocator. A command that exits
non-zero, or a sweep that lists a failed cell, stops the gate with its
stderr; a failed sweep keeps its temporary directory. The two sides
alternate: in repeat k the parent runs first for even k, the change for odd k.

Every run is the paper's problem: a 128x128 grid, a 60x60 support, beta
0.9, 500 iterations and the default PenaltySpec of its engine.

- Timed runs: `--repeats` runs of `hio` and `hio-tv` (binary phantom,
  pattern seed 1) and of `hio-huber` (gray phantom, pattern seed 0), run
  seed 0, per side, each a one-cell sweep in its own process (one cell
  starts no pool). The time is the cell JSON's `wall_time_s`, the wall
  time of `run_hio` alone; min and median are reported.
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
  and `hio-huber` over gray pattern seeds 0-3 x run seeds 0-4: one sweep
  per side and pattern seed at `--jobs` the CPUs the gate may run on
  (`os.sched_getaffinity`), the sides alternating over pattern seeds. A
  run's twin flag and phase RMSE are the `metrics` of its reconstruction
  against the sweep's truth.prf1 and support.prf1; its penalty over the
  truth's is its `tv_in_support` (hio-tv) or `huber_in_support`
  (hio-huber) over that of the `metrics` of truth.prf1 itself. A run is
  recovered when it has no twin and a phase RMSE under its pool's
  tolerance: 0.01 rad for `hio-tv`, 0.15 rad for `hio-huber`, the
  benchmark's tolerances for these engines. Each pool also counts its runs
  recovered at 0.01 rad, so the two pools are read at one tolerance. Pools
  report no time, so the `seconds` recorded with each pool run is a time
  under that load, not a serial one.
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

Each run also records the SHA-256 of its final field (its PRF1 payload), so
a change that should not move a bit can be checked run by run.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

# benchmark workloads whose per-layer metrics are recorded
TRACED = ("tv-binary", "huber-gray")
# engine -> (phantom kind, pattern seed of the timed runs)
ENGINES = {"hio": ("binary", 1), "hio-tv": ("binary", 1), "hio-huber": ("gray", 0)}
# engine -> (pattern seeds, run seeds, phase RMSE tolerance of a recovered run,
#            the `metrics` field of its penalty)
POOLS = {"hio-tv": (range(1, 5), range(10), 0.01, "tv_in_support"),
         "hio-huber": (range(4), range(5), 0.15, "huber_in_support")}
# Bytes of a PRF1 file's header; the payload, the field's samples, follows it
PRF1_HEADER = 16
# Tier-1 suite runs per side, in alternating order
TIER1_ROUNDS = 2
# Tokens that make no line a code line (comments and layout)
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def order(k: int) -> list[str]:
    """The sides in repeat k: the parent first for even k, the change for odd k."""
    return ["parent", "change"] if k % 2 == 0 else ["change", "parent"]


def cli(tree: Path, *args: str) -> subprocess.CompletedProcess:
    """`python -m sparsepr.cli ARGS` on `tree`'s src/; a non-zero exit stops the gate."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    done = subprocess.run([sys.executable, "-m", "sparsepr.cli", *args],
                          env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"sparsepr {' '.join(args)} of {tree} exited {done.returncode}:\n{done.stderr}")
    return done


def sweep(tree: Path, engine: str, pattern_seed: int, run_seeds, field: str = "") -> list[dict]:
    """One `sparsepr sweep` of `engine` over `run_seeds`, one worker per CPU the
    gate may use: each run's seconds and final-field SHA-256 and, given the
    `metrics` field of the engine's penalty, its scores. A failed sweep keeps
    its temporary directory for inspection."""
    out = Path(tempfile.mkdtemp(prefix="bench_whole_runs_"))
    config = {"phantom": {"image_size": 128, "support_size": 60, "kind": ENGINES[engine][0],
                          "pattern_seed": pattern_seed},
              "retrieval": {"beta": 0.9, "n_iterations": 500},
              "seeds": list(run_seeds), "algorithms": [engine], "output_dir": str(out)}
    (out / "sweep.json").write_text(json.dumps(config))
    done = cli(tree, "sweep", "--config", str(out / "sweep.json"),
               "--jobs", str(len(os.sched_getaffinity(0))))
    failures = json.loads((out / "aggregate.json").read_text())["failures"]
    if failures:
        sys.exit(f"sweep {out / 'sweep.json'} of {tree} failed {failures}:\n{done.stderr}")
    recons = [out / f"recon_{engine}_{seed:08d}.prf1" for seed in run_seeds]
    runs = [{"pattern_seed": pattern_seed, "run_seed": seed,
             "seconds": json.loads(recon.with_suffix(".json").read_text())["wall_time_s"],
             "final_field_sha256": hashlib.sha256(recon.read_bytes()[PRF1_HEADER:]).hexdigest()}
            for seed, recon in zip(run_seeds, recons)]
    if field:
        truth, *scores = [json.loads(cli(tree, "metrics", "--recon", str(path), "--truth",
                                         str(out / "truth.prf1"), "--mask",
                                         str(out / "support.prf1")).stdout)
                          for path in [out / "truth.prf1", *recons]]
        for run, score in zip(runs, scores):
            run.update(twin_present=score["twin_present"], phase_rmse=score["phase_rmse"],
                       penalty_over_truth=score[field] / truth[field])
    shutil.rmtree(out)
    return runs


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
        for engine, (_, pattern_seed) in ENGINES.items():
            for side in order(k):
                timed[side][engine] += sweep(trees[side], engine, pattern_seed, [0])
    pools = {side: {engine: [] for engine in POOLS} for side in trees}
    for engine, (pattern_seeds, run_seeds, _, field) in POOLS.items():
        for k, pattern_seed in enumerate(pattern_seeds):
            for side in order(k):
                pools[side][engine] += sweep(trees[side], engine, pattern_seed, run_seeds, field)
    suites = tier1(trees)

    def times(runs):
        seconds = [r["seconds"] for r in runs]
        return {"min_s": min(seconds), "median_s": statistics.median(seconds), "runs_s": seconds,
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
    sys.exit(main())

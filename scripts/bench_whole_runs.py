"""Whole 500-iteration runs, descent layer timings, quality pools, Tier-1 time and source size, for two source trees.

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
  The time is the wall time of `run_hio` alone; min and median are reported.
- Layer timings: `--repeats` fresh processes per side, alternating as
  above; each times one layer 30 times and gives its fastest time (the
  box's load comes in bursts longer than a block), and the min and median
  over the processes are reported. The layers: one
  sparsity_descent block (30 steps, the default PenaltySpec of `tv` and of
  `huber`, so median delta) on the 60x60 support of the 128x128 binary
  phantom (pattern seed 1) after 20 plain HIO iterations (run seed 0); and
  the fixed cost of one descent step, a 30-step TV block on a seeded 4x4
  all-support field divided by its steps. A layer process first counts the
  steps each block takes (every one of the 30 is accepted on both fields).
- Quality pools: `hio-tv` over binary pattern seeds 1-4 x run seeds 0-9,
  and `hio-huber` over gray pattern seeds 0-3 x run seeds 0-4. Each run
  gives its twin flag, its phase RMSE against the truth and its final
  penalty over the truth's (both from `retrieval.penalty_value`). A run is
  recovered when it has no twin and a phase RMSE under its pool's
  tolerance: 0.01 rad for `hio-tv`, 0.15 rad for `hio-huber`, the
  benchmark's tolerances for these engines.
- Tier-1: TIER1_ROUNDS rounds of the tree's whole pytest suite per side,
  from the tree's root, alternating as above (parent, change, change,
  parent for two rounds); every run's wall time and pytest's summary line.
  The comparison is "resolved" only when the two sides' ranges of wall
  time do not overlap: a single run per side cannot tell a change from
  the box's load, which moved one tree's suite from 146 s to 189 s.
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
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path

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
    from sparsepr.retrieval import penalty_value

    spec = sp.PhantomSpec(image_size=128, support_size=60, kind=phantom_kind,
                          pattern_seed=pattern_seed)
    truth = sp.phantom(spec)
    magnitude = sp.magnitude_of(sp.forward_transform(truth))
    mask = sp.make_support(128, 60)
    penalty = sp.PenaltySpec(kind=kind)
    config = sp.RetrievalConfig(beta=0.9, n_iterations=500, seed=run_seed, penalty=penalty)
    start = time.perf_counter()
    report = sp.run_hio(magnitude, mask, config)
    seconds = time.perf_counter() - start
    final = report.final_field
    return {
        "seconds": seconds,
        "twin_present": bool(sp.twin_correlations(final, truth, mask).twin_present),
        "phase_rmse": float(sp.phase_rmse(final, truth, mask)),
        "penalty_over_truth": penalty_value(final, mask, penalty) / penalty_value(truth, mask, penalty),
        "final_field_sha256": hashlib.sha256(np.ascontiguousarray(final).tobytes()).hexdigest(),
    }


def time_layers(repeats: int = 30) -> dict:
    """Fastest of 30 timings of each descent layer (child process); see the module docstring."""
    import numpy as np

    import sparsepr as sp
    from sparsepr import sparsity
    from sparsepr.grids import Workspace

    spec = sp.PhantomSpec(image_size=128, support_size=60, kind="binary", pattern_seed=1)
    magnitude = sp.magnitude_of(sp.forward_transform(sp.phantom(spec)))
    mask = sp.make_support(128, 60)
    field = sp.run_hio(magnitude, mask, sp.RetrievalConfig(beta=0.9, n_iterations=20,
                                                           seed=0)).final_field
    rng = np.random.default_rng(0)
    small = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    cases = {"descent_block_60_tv": (field, mask, "tv"),
             "descent_block_60_huber_median": (field, mask, "huber"),
             "descent_step_4x4": (small, np.ones((4, 4), dtype=bool), "tv")}
    result = {}
    for name, (f, m, kind) in cases.items():
        window, penalty = sparsity.support_window(m), sparsity.PenaltySpec(kind=kind)
        out, work = np.empty_like(f), Workspace()
        steps, step = [], sparsity.backtracking_step

        def counted(*args, **kwargs):
            steps.append(step(*args, **kwargs))
            return steps[-1]

        sparsity.backtracking_step = counted
        try:
            sparsity.sparsity_descent(f, window, penalty, out=out, work=work)
        finally:
            sparsity.backtracking_step = step
        seconds = []
        for _ in range(repeats):
            start = time.perf_counter()
            sparsity.sparsity_descent(f, window, penalty, out=out, work=work)
            seconds.append(time.perf_counter() - start)
        result[name] = {"min_s": min(seconds),
                        "steps": sum(t > 0 for t in steps)}
    return result


def spawn(tree: Path, *args) -> dict:
    """This script's child mode with `args` in a fresh process that imports sparsepr from `tree`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run([sys.executable, __file__, *map(str, args)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def spawn_run(tree: Path, engine: str, pattern_seed: int, run_seed: int) -> dict:
    """run_once in a fresh process that imports sparsepr from `tree`."""
    kind, phantom_kind, _ = ENGINES[engine]
    return spawn(tree, "--run", kind, phantom_kind, pattern_seed, run_seed)


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
    """TIER1_ROUNDS alternating runs of each tree's suite, and whether their
    wall-time ranges are apart."""
    runs = {side: [] for side in trees}
    for k in range(TIER1_ROUNDS):
        for side in (["parent", "change"] if k % 2 == 0 else ["change", "parent"]):
            runs[side].append(tier1_run(trees[side]))
    result = {side: {"min_s": min(r["seconds"] for r in rs), "max_s": max(r["seconds"] for r in rs),
                     "same_summary": len({counts_of(r["summary"]) for r in rs}) == 1,
                     "runs": rs} for side, rs in runs.items()}
    parent, change = result["parent"], result["change"]
    result["resolved"] = parent["max_s"] < change["min_s"] or change["max_s"] < parent["min_s"]
    return result


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


def numpy_version(tree: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                          env=env, check=True, capture_output=True, text=True).stdout.strip()


def pool_summary(runs: list[dict], tolerance: float) -> dict:
    rmse = [r["phase_rmse"] for r in runs]
    return {
        "twins": sum(r["twin_present"] for r in runs),
        "recovered": sum(not r["twin_present"] and r["phase_rmse"] < tolerance for r in runs),
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

    timed = {side: {engine: [] for engine in ENGINES} for side in trees}
    for k in range(args.repeats):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        for engine, (_, _, pattern_seed) in ENGINES.items():
            for side in order:
                timed[side][engine].append(spawn_run(trees[side], engine, pattern_seed, 0))
    layers = {side: [] for side in trees}
    for k in range(args.repeats):
        for side in (["parent", "change"] if k % 2 == 0 else ["change", "parent"]):
            layers[side].append(spawn(trees[side], "--layers"))
    pools = {side: {engine: [] for engine in POOLS} for side in trees}
    for engine, (pattern_seeds, run_seeds, _) in POOLS.items():
        cases = [(pattern, run) for pattern in pattern_seeds for run in run_seeds]
        for k, (pattern_seed, run_seed) in enumerate(cases):
            for side in (["parent", "change"] if k % 2 == 0 else ["change", "parent"]):
                run = spawn_run(trees[side], engine, pattern_seed, run_seed)
                pools[side][engine].append(dict(pattern_seed=pattern_seed, run_seed=run_seed, **run))
    suites = tier1(trees)

    def times(runs):
        seconds = [r["seconds"] for r in runs]
        return {"min_s": min(seconds), "median_s": statistics.median(seconds), "runs_s": seconds,
                "final_field_sha256": sorted({r["final_field_sha256"] for r in runs})}

    def layer_times(runs):
        summary = {}
        for name in runs[0]:
            seconds = [r[name]["min_s"] for r in runs]
            per = 1e6 / runs[0][name]["steps"] if name == "descent_step_4x4" else 1e3
            unit = "us_per_step" if name == "descent_step_4x4" else "ms"
            summary[name] = {f"min_{unit}": min(seconds) * per,
                             f"median_{unit}": statistics.median(seconds) * per,
                             "steps": sorted({r[name]["steps"] for r in runs})}
        return summary

    result = {
        "environment": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "numpy": {side: numpy_version(tree) for side, tree in trees.items()}},
        "method": __doc__.split("\n\n", 2)[2].strip(),
        "whole_runs_500_iterations": {side: {engine: times(runs) for engine, runs in by.items()}
                                      for side, by in timed.items()},
        "descent_layers": {side: layer_times(runs) for side, runs in layers.items()},
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
    if sys.argv[1:] == ["--layers"]:
        print(json.dumps(time_layers()))
    elif sys.argv[1:2] == ["--run"]:
        kind, phantom_kind, pattern_seed, run_seed = sys.argv[2:]
        print(json.dumps(run_once(kind, phantom_kind, int(pattern_seed), int(run_seed))))
    else:
        sys.exit(main())

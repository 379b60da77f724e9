"""Command-line front end.

Subcommands: phantom, forward, retrieve, sweep, metrics. All outputs are
deterministic for a fixed flag set (seeds are explicit); the only
wall-clock value in any report is the timing field. Exit codes: 0 ok,
1 usage error (a SettingError), 2 data/file error (an OSError or any other
ValueError), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import experiment, fourier, retrieval
from .fieldfile import read_field_file, write_field_file
from .grids import SettingError, as_mask
from .sparsity import PenaltySpec, select_delta, huber_value, tv_value

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise SettingError(message)


def write_pgm(path, values: np.ndarray) -> None:
    """Write an 8-bit grayscale P5 (binary) PGM."""
    v = np.clip(np.round(values), 0, 255).astype(np.uint8)
    h, w = v.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(v.tobytes())


def phase_preview(field: np.ndarray) -> np.ndarray:
    """Map phase in [-pi, pi) affinely to [0, 255]."""
    phase = np.angle(field)
    phase[phase >= np.pi] = -np.pi  # np.angle returns (-pi, pi]
    return (phase + np.pi) / (2.0 * np.pi) * 255.0


def magnitude_preview(mag: np.ndarray) -> np.ndarray:
    """Display rule |G|^0.25, normalized, fftshifted for viewing."""
    shifted = np.fft.fftshift(mag)
    peak = shifted.max()
    if peak == 0:
        return np.zeros_like(shifted)
    return np.round(255.0 * (shifted / peak) ** 0.25)


def _dump_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_finite(path, what: str) -> np.ndarray:
    """A field file whose samples must all be finite; `what` names it in
    the error."""
    field = read_field_file(path)
    if not np.all(np.isfinite(field)):
        raise ValueError(f"{what} file {path} has non-finite samples")
    return field


def _load_mask(path) -> np.ndarray:
    # NaN != 0, so a non-finite sample would silently join the support.
    return as_mask(_load_finite(path, "mask").real != 0)


# ---------------------------------------------------------------- phantom

def cmd_phantom(args) -> int:
    spec = experiment.PhantomSpec(
        image_size=args.size, support_size=args.support, kind=args.kind,
        pattern_seed=args.seed)
    truth = experiment.phantom(spec)
    mask = experiment.make_support(spec.image_size, spec.support_size)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_field_file(truth, out / "truth.prf1")
    write_field_file(mask.astype(np.float64), out / "support.prf1")
    write_pgm(out / "truth_phase.pgm", phase_preview(truth))
    _dump_json(out / "phantom.json", asdict(spec))
    print(f"wrote truth.prf1, support.prf1, truth_phase.pgm, phantom.json to {out}")
    return 0


# ---------------------------------------------------------------- forward

def cmd_forward(args) -> int:
    truth = _load_finite(args.truth, "truth")
    mag = fourier.magnitude_of(fourier.forward_transform(truth))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_field_file(mag, out / "magnitude.prf1")
    write_pgm(out / "magnitude.pgm", magnitude_preview(mag))
    print(f"wrote magnitude.prf1, magnitude.pgm to {out}")
    return 0


# ---------------------------------------------------------------- retrieve

# Algorithm name -> the penalty kind of its PenaltySpec ("none" is plain HIO).
ALGORITHMS = {"hio": "none", "hio-tv": "tv", "hio-huber": "huber"}


def _penalty_spec(alg: str, settings) -> PenaltySpec:
    """The validated PenaltySpec of `alg`, with the "n_inner_steps" of
    `settings` (retrieve's parsed flags or a sweep's "retrieval" object) if
    it holds one; a None there is a value, and refused."""
    if alg not in ALGORITHMS:
        raise SettingError(f"unknown algorithm {alg!r}")
    given = {"n_inner_steps": settings["n_inner_steps"]} if "n_inner_steps" in settings else {}
    try:
        penalty = PenaltySpec(kind=ALGORITHMS[alg], **given)
    except ValueError as exc:
        raise SettingError(f"invalid penalty settings for {alg}: {exc}") from exc
    if given and penalty.kind == "none":
        print(f"warning: n_inner_steps ignored for {alg} (no penalty)", file=sys.stderr)
    return penalty


def _config_echo(alg: str, config: retrieval.RetrievalConfig) -> dict:
    echo = {
        "algorithm": alg,
        "beta": config.beta,
        "n_iterations": config.n_iterations,
        "seed": config.seed,
    }
    if config.penalty.kind != "none":
        echo["penalty"] = config.penalty.kind
        echo["n_inner_steps"] = config.penalty.n_inner_steps
    return echo


def cmd_retrieve(args) -> int:
    penalty = _penalty_spec(args.alg, vars(args))
    config = retrieval.RetrievalConfig(
        beta=args.beta, n_iterations=args.iters, seed=args.seed, penalty=penalty)
    magnitude = _load_finite(args.magnitude, "magnitude")
    mask = _load_mask(args.mask)
    report = retrieval.run_hio(magnitude, mask, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_field_file(report.final_field, out / "recon.prf1")
    write_pgm(out / "recon_phase.pgm", phase_preview(report.final_field))
    _dump_json(
        out / "report.json",
        {
            "config": _config_echo(args.alg, config),
            "inputs": {"magnitude": str(args.magnitude), "mask": str(args.mask)},
            "penalty_trace": report.penalty_trace.tolist(),
            "fourier_residual_trace": report.fourier_residual_trace.tolist(),
            "wall_time_s": report.wall_time,
        },
    )
    print(f"wrote recon.prf1, recon_phase.pgm, report.json to {out}")
    return 0


# ---------------------------------------------------------------- sweep

def _sweep_cell(payload):
    """One (algorithm, seed) cell; runs in a worker process when the sweep has a pool."""
    alg, seed, penalty, loop, magnitude, mask, out_dir = payload
    config = retrieval.RetrievalConfig(seed=seed, penalty=penalty, **loop)
    report = retrieval.run_hio(magnitude, mask, config)
    stem = f"recon_{alg}_{seed:08d}"
    write_field_file(report.final_field, Path(out_dir) / f"{stem}.prf1")
    _dump_json(
        Path(out_dir) / f"{stem}.json",
        {
            "config": _config_echo(alg, config),
            "final_penalty": report.penalty_trace[-1],
            "final_fourier_residual": report.fourier_residual_trace[-1],
            "wall_time_s": report.wall_time,
        },
    )
    return report


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise SettingError(f"--jobs must be >= 1, got {args.jobs}")
    with open(args.config, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SettingError(f"invalid sweep config JSON: {exc}") from exc

    try:
        seeds, algorithms = cfg["seeds"], cfg["algorithms"]
        phantom = experiment.PhantomSpec(**cfg["phantom"])
        base = cfg.get("retrieval", {})
        out_dir = Path(cfg["output_dir"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SettingError(f"invalid sweep config: {exc}") from exc
    # A string would be read as its characters, and an array of pairs as
    # an object, so each level must have its JSON type.
    for name, value, kind, json_type in (("seeds", seeds, list, "an array"),
                                         ("algorithms", algorithms, list, "an array"),
                                         ("retrieval", base, dict, "an object")):
        if not isinstance(value, kind):
            raise SettingError(f"{name} must be {json_type}, got {value!r}")
    # A repeat would make two cells write the same files. Seeds are used
    # as given, so a fractional or bool seed is refused, not truncated.
    if not (seeds and all(type(s) is int and s >= 0 for s in seeds)
            and len(set(seeds)) == len(seeds)):
        raise SettingError(f"seeds must be nonempty, distinct integers >= 0, got {seeds}")
    if not (algorithms and all(isinstance(a, str) for a in algorithms)
            and len(set(algorithms)) == len(algorithms)):
        raise SettingError(f"algorithms must be nonempty and distinct, got {algorithms}")
    # Any other key is a usage error, so a misplaced or misspelt key cannot
    # silently fall back to a default. cfg["seeds"] was read, so cfg is an object.
    for level, given, known in (
            ("top-level", cfg, {"phantom", "retrieval", "seeds", "algorithms", "output_dir"}),
            ("retrieval", base, {"beta", "n_iterations", "n_inner_steps"})):
        unknown = sorted(set(given) - known)
        if unknown:
            raise SettingError(f"unknown {level} keys in sweep config: {', '.join(unknown)}")
    penalties = {alg: _penalty_spec(alg, base) for alg in algorithms}
    # beta and n_iterations are checked per cell, so a bad value shows up
    # as cell failures in aggregate.json.
    loop = {name: base[name] for name in ("beta", "n_iterations") if name in base}

    truth = experiment.phantom(phantom)
    out_dir.mkdir(parents=True, exist_ok=True)
    mask = experiment.make_support(phantom.image_size, phantom.support_size)
    magnitude = fourier.magnitude_of(fourier.forward_transform(truth))
    write_field_file(truth, out_dir / "truth.prf1")
    write_field_file(mask.astype(np.float64), out_dir / "support.prf1")
    write_field_file(magnitude, out_dir / "magnitude.prf1")

    cells = [
        (alg, seed, penalties[alg], loop, magnitude, mask, str(out_dir))
        for alg in algorithms
        for seed in seeds
    ]
    results = {}
    failures = {}
    # A pool starts all its workers at once, so it gets no more than there are cells.
    workers = min(args.jobs, len(cells))
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    with pool or contextlib.nullcontext():
        # One worker runs each cell in this process when its result is read.
        outcomes = [pool.submit(_sweep_cell, cell).result if pool
                    else functools.partial(_sweep_cell, cell) for cell in cells]
        for (alg, seed, *_), outcome in zip(cells, outcomes):
            try:
                results[(alg, seed)] = outcome()
            except Exception as exc:  # noqa: BLE001 - per-cell isolation
                failures[(alg, seed)] = f"{type(exc).__name__}: {exc}"

    aggregate = {"phantom": asdict(phantom), "algorithms": {}, "failures": [
        {"algorithm": a, "seed": s, "error": msg}
        for (a, s), msg in sorted(failures.items())
    ]}
    for alg in algorithms:
        reports = [results[(alg, s)] for s in sorted(seeds) if (alg, s) in results]
        if not reports:
            continue
        summary = experiment.run_statistics(reports, truth, mask)
        aggregate["algorithms"][alg] = asdict(summary)
    _dump_json(out_dir / "aggregate.json", aggregate)
    print(f"sweep complete: {len(results)} cells ok, {len(failures)} failed; "
          f"aggregate.json in {out_dir}")
    if failures:
        print(f"error: {len(failures)} of {len(cells)} sweep cells failed; "
              "see failures in aggregate.json", file=sys.stderr)
        return EXIT_DATA
    return 0


# ---------------------------------------------------------------- metrics

def cmd_metrics(args) -> int:
    # A NaN would print as a bare NaN (not JSON) and count as no twin.
    recon = _load_finite(args.recon, "recon")
    truth = _load_finite(args.truth, "truth")
    mask = _load_mask(args.mask)
    metrics = experiment.twin_correlations(recon, truth, mask)
    delta = select_delta(recon, mask)
    payload = {
        "c_up": metrics.c_up,
        "c_twin": metrics.c_twin,
        "twin_present": metrics.twin_present,
        "phase_rmse": experiment.phase_rmse(recon, truth, mask),
        "tv_in_support": tv_value(recon, mask),
        "huber_in_support": huber_value(recon, delta, mask),
        "huber_delta": delta,
    }
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sparsepr",
                     description="Sparsity-assisted phase retrieval toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a pure-phase test object")
    p.add_argument("--kind", choices=("binary", "gray"), default=experiment.PhantomSpec.kind)
    p.add_argument("--size", type=int, default=128)
    p.add_argument("--support", type=int, default=60)
    p.add_argument("--seed", type=int, default=experiment.PhantomSpec.pattern_seed)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("forward", help="synthesize Fourier magnitude data")
    p.add_argument("--truth", required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("retrieve", help="run a phase-retrieval engine")
    p.add_argument("--magnitude", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--alg", choices=ALGORITHMS, default="hio-tv")
    p.add_argument("--iters", type=int, default=retrieval.RetrievalConfig.n_iterations)
    p.add_argument("--beta", type=float, default=retrieval.RetrievalConfig.beta)
    # no default: n_inner_steps is in the parsed flags only when given
    p.add_argument("--ntv", dest="n_inner_steps", type=int, default=argparse.SUPPRESS,
                   help="descent steps per iteration")
    p.add_argument("--seed", type=int, default=retrieval.RetrievalConfig.seed)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("sweep", help="run a seeded (algorithm x seed) grid")
    p.add_argument("--config", required=True, help="sweep config JSON file")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("metrics", help="twin metrics for a reconstruction")
    p.add_argument("--recon", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--mask", required=True)
    p.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SettingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ArithmeticError as exc:  # FloatingPointError, OverflowError
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

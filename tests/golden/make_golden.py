"""The pinned retrieval runs and the SHA-256 digests of their traces.

    PYTHONPATH=src python tests/golden/make_golden.py

runs every pinned run and writes `digests.json` next to this file. A run's
key is `<engine>_<size>_s<seed>`; its value maps `final_field`,
`penalty_trace` and `fourier_residual_trace` to the SHA-256 of the array's
bytes. Every run uses pattern seed 1 and beta 0.9.

Regenerate the digests only from a commit whose reconstructions are known
good; `tests/test_golden.py` then fails for any change that moves a bit.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import sparsepr as sp
from sparsepr.cli import ALGORITHMS

DIGESTS = Path(__file__).resolve().parent / "digests.json"
TRACES = ("final_field", "penalty_trace", "fourier_residual_trace")
# engine name (a key of cli.ALGORITHMS, which gives its penalty kind) -> phantom kind
ENGINES = {"hio": "binary", "hio-tv": "binary", "hio-huber": "gray"}
# (engines, image size, support size, run seeds, iterations). The 150-iteration
# runs on the paper's problem reach the regime, from iteration ~90 on, where
# the TV line search tries 2-5 trials per step, which 60 iterations rarely do.
RUN_SETS = (
    (("hio", "hio-tv", "hio-huber"), 64, 30, (0, 1), 60),
    (("hio-tv", "hio-huber"), 128, 60, (0,), 150),
)


def runs() -> dict:
    """Every pinned run by key, as (engine, size, support size, seed, iterations)."""
    return {f"{engine}_{size}_s{seed}": (engine, size, support, seed, iterations)
            for engines, size, support, seeds, iterations in RUN_SETS
            for engine in engines for seed in seeds}


def run_digests(engine: str, size: int, support: int, seed: int, iterations: int) -> dict:
    """SHA-256 of each trace of one run, computed with the current code."""
    spec = sp.PhantomSpec(image_size=size, support_size=support,
                          kind=ENGINES[engine], pattern_seed=1)
    magnitude = sp.magnitude_of(sp.forward_transform(sp.phantom(spec)))
    config = sp.RetrievalConfig(beta=0.9, n_iterations=iterations, seed=seed,
                                penalty=sp.PenaltySpec(kind=ALGORITHMS[engine]))
    report = sp.run_hio(magnitude, sp.make_support(size, support), config)
    return {name: hashlib.sha256(np.ascontiguousarray(getattr(report, name)).tobytes()).hexdigest()
            for name in TRACES}


if __name__ == "__main__":
    table = {key: run_digests(*run) for key, run in runs().items()}
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS} ({len(table)} runs)")

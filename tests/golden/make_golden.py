"""Golden retrieval traces for bit-identity checks across refactors.

    PYTHONPATH=src python tests/golden/make_golden.py

writes `traces_64.npz` next to this file: `final_field`, `penalty_trace`
and `fourier_residual_trace` of the hio, hio-tv and hio-huber engines at
two seeds, on a 64x64 grid with a centred 30x30 support and 60
iterations. Keys are `<engine>_s<seed>_<trace>`.

Regenerate the fixture only from a commit whose reconstructions are known
good; `tests/test_golden.py` then fails for any change that moves a bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import sparsepr as sp
from sparsepr.cli import ALGORITHMS

FIXTURE = Path(__file__).resolve().parent / "traces_64.npz"
IMAGE_SIZE = 64
SUPPORT_SIZE = 30
N_ITERATIONS = 60
SEEDS = (0, 1)
TRACES = ("final_field", "penalty_trace", "fourier_residual_trace")
# engine name (a key of cli.ALGORITHMS, which gives its penalty kind) -> phantom kind
ENGINES = {"hio": "binary", "hio-tv": "binary", "hio-huber": "gray"}


def problem(kind: str):
    spec = sp.PhantomSpec(image_size=IMAGE_SIZE, support_size=SUPPORT_SIZE,
                          kind=kind, pattern_seed=1)
    truth = sp.phantom(spec)
    mask = sp.make_support(IMAGE_SIZE, SUPPORT_SIZE)
    return mask, sp.magnitude_of(sp.forward_transform(truth))


def golden_traces() -> dict:
    """Every golden array by fixture key, computed with the current code."""
    out = {}
    for engine, phantom in ENGINES.items():
        mask, magnitude = problem(phantom)
        for seed in SEEDS:
            config = sp.RetrievalConfig(beta=0.9, n_iterations=N_ITERATIONS, seed=seed,
                                        penalty=sp.PenaltySpec(kind=ALGORITHMS[engine]))
            report = sp.run_hio(magnitude, mask, config)
            for name in TRACES:
                out[f"{engine}_s{seed}_{name}"] = getattr(report, name)
    return out


if __name__ == "__main__":
    np.savez_compressed(FIXTURE, **golden_traces())
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes)")

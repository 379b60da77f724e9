"""Reconstructions must stay bit-identical to the committed golden traces.

The fixture comes from tests/golden/make_golden.py; a change that moves a
bit of any engine's output fails here. Longer runs on the full-size problem
are pinned by the SHA-256 digests of their traces.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import sparsepr as sp
from sparsepr.cli import ALGORITHMS

GOLDEN = Path(__file__).resolve().parent / "golden"


def _load_generator():
    spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traces_match_golden_fixture_bit_for_bit():
    make_golden = _load_generator()
    with np.load(make_golden.FIXTURE) as fixture:
        expected = {key: fixture[key] for key in fixture.files}
    actual = make_golden.golden_traces()
    assert sorted(actual) == sorted(expected)
    for key, array in actual.items():
        assert array.dtype == expected[key].dtype and array.shape == expected[key].shape, key
        assert array.tobytes() == expected[key].tobytes(), f"{key} moved"


# SHA-256 of the traces of a 150-iteration run on the paper's problem: a
# 128x128 grid with a centred 60x60 support, pattern seed 1, run seed 0.
# From iteration ~90 on, the TV line search tries 2-5 trials per step on
# average, a regime the 60-iteration fixture above rarely reaches.
LATE_ITERATIONS = 150
LATE_DIGESTS = {
    "hio-tv": {
        "final_field": "b78719a75bbb5134edd86bfdd59c06217cf0c69ee4a396fbc16a939147507291",
        "penalty_trace": "1dbb85d2bac81524ed1d70a6568364f815e0628e4921ecb21d0d5fcb3e8cd98c",
        "fourier_residual_trace": "bfe8038729e512e6dc47595cb457f35f906d9add286418581cd6d081390d5fff",
    },
    "hio-huber": {
        "final_field": "26418f9d8f3b3ae802bf39898336e51a660906f1d29fdea0f793c4abf505ad84",
        "penalty_trace": "d58185642f15c82d580bfd1de56f4a03d698e46d72de4109b523ea84056f95af",
        "fourier_residual_trace": "0a5390f588de9b2b167b588b5fff42dba081bbd15283fb1dcdd26d65b06646ab",
    },
}


@pytest.mark.parametrize("engine", sorted(LATE_DIGESTS))
def test_late_phase_run_matches_pinned_digests(engine):
    spec = sp.PhantomSpec(image_size=128, support_size=60,
                          kind=_load_generator().ENGINES[engine], pattern_seed=1)
    magnitude = sp.magnitude_of(sp.forward_transform(sp.phantom(spec)))
    config = sp.RetrievalConfig(beta=0.9, n_iterations=LATE_ITERATIONS, seed=0,
                                penalty=sp.PenaltySpec(kind=ALGORITHMS[engine]))
    report = sp.run_sparse_hio(magnitude, sp.make_support(128, 60), config)
    for name, expected in LATE_DIGESTS[engine].items():
        array = np.ascontiguousarray(getattr(report, name))
        assert hashlib.sha256(array.tobytes()).hexdigest() == expected, f"{name} moved"

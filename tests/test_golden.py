"""Reconstructions must stay bit-identical to the committed golden traces.

The fixture comes from tests/golden/make_golden.py; a change that moves a
bit of any engine's output fails here.
"""

import importlib.util
from pathlib import Path

import numpy as np

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

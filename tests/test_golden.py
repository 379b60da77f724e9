"""Reconstructions must stay bit-identical to the pinned runs' digests.

tests/golden/make_golden.py defines the runs and writes the SHA-256 digests
of their traces to tests/golden/digests.json; a change that moves a bit of
any run's output fails here, naming the run and the trace that moved.
"""

import importlib.util
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"


def _load_generator():
    spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


make_golden = _load_generator()
RUNS = make_golden.runs()
PINNED = json.loads(make_golden.DIGESTS.read_text())


def test_digest_file_pins_exactly_the_generator_runs():
    assert sorted(PINNED) == sorted(RUNS)


@pytest.mark.parametrize("key", sorted(RUNS))
def test_run_matches_pinned_digests(key):
    actual = make_golden.run_digests(*RUNS[key])
    moved = [name for name in make_golden.TRACES if actual[name] != PINNED.get(key, {}).get(name)]
    assert not moved, f"{key}: {', '.join(moved)} moved"

"""Every function the benchmark's tracer wraps must still exist.

benchmarks/tracing.py replaces each (module, attribute) in its TARGETS
with a timing wrapper; a name that a refactor renames or inlines would
only show up there as a null metric. This makes it a test failure.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracing().TARGETS


def test_targets_are_listed():
    assert len(TARGETS) > 0


@pytest.mark.parametrize("module_name, attribute", [(m, a) for m, a, _ in TARGETS])
def test_traced_function_exists(module_name, attribute):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attribute, None)), f"{module_name}.{attribute} is gone"

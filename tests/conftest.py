"""The suite's one Hypothesis policy.

Every property test draws the same examples on every run and under any
selection of tests, so a run's verdict depends on the tree alone:

- `--hypothesis-seed=0` (pyproject `addopts`) fixes the draws;
- `database=None`: no failure is stored in, or replayed from, `.hypothesis/`;
- `deadline=None`: an example is never failed for its wall time, which
  swings with the box's load;
- every local module is loaded here, before any test runs. Hypothesis
  also draws the literals of the local (not installed) modules loaded
  when it draws, and `import sparsepr` loads neither `sparsepr.cli` nor
  the benchmark's modules, so one test file alone would draw other
  examples than the whole suite.

The tests' own `@settings` give only `max_examples`. To explore other
draws, pass another seed, which overrides the default:

    PYTHONPATH=src python -m pytest -q tests/test_sparsity.py --hypothesis-seed=7

A failure found that way becomes an `@example` on its test.
"""

import importlib
import sys
from pathlib import Path

from hypothesis import settings

settings.register_profile("sparsepr", database=None, deadline=None)
settings.load_profile("sparsepr")

ROOT = Path(__file__).resolve().parent.parent
# benchmarks/test_benchmark.py imports its modules from their directory
sys.path.insert(0, str(ROOT / "benchmarks"))
for path in sorted((ROOT / "src" / "sparsepr").glob("*.py")):
    importlib.import_module("sparsepr" if path.stem == "__init__" else f"sparsepr.{path.stem}")
for path in sorted((ROOT / "benchmarks").glob("*.py")):
    if not path.stem.startswith("test_"):
        importlib.import_module(path.stem)

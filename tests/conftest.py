"""The suite's one Hypothesis policy.

Every property test draws the same examples on every run, so a run's
verdict depends on the tree alone:

- `--hypothesis-seed=0` (pyproject `addopts`) fixes the draws;
- `database=None`: no failure is stored in, or replayed from, `.hypothesis/`;
- `deadline=None`: an example is never failed for its wall time, which
  swings with the box's load.

The tests' own `@settings` give only `max_examples`. To explore other
draws, pass another seed, which overrides the default:

    PYTHONPATH=src python -m pytest -q tests/test_sparsity.py --hypothesis-seed=7

A failure found that way becomes an `@example` on its test.
"""

from hypothesis import settings

settings.register_profile("sparsepr", database=None, deadline=None)
settings.load_profile("sparsepr")

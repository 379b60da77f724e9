"""The suite's Hypothesis policy lives in conftest.py and nowhere else."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import settings

TESTS = Path(__file__).parent
ROOT = TESTS.parent
# settings that decide whether a run's draws and verdict follow from the tree
POLICY = {"deadline", "database", "derandomize"}


def _name(node) -> str:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")


def test_loaded_profile_has_no_database_and_no_deadline():
    assert settings.default.database is None
    assert settings.default.deadline is None


def test_draws_are_fixed_by_the_default_seed(pytestconfig):
    assert "--hypothesis-seed=0" in pytestconfig.getini("addopts")


def test_no_test_file_sets_the_policy_itself():
    offences = []
    for path in sorted(TESTS.glob("*.py")):
        if path.name == "conftest.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = _name(node.func) if isinstance(node, ast.Call) else ""
            if name == "settings":
                offences += [f"{path.name}:{node.lineno} settings({kw.arg}=...)"
                             for kw in node.keywords if kw.arg in POLICY]
            elif name in {"seed", "register_profile", "load_profile"}:
                offences.append(f"{path.name}:{node.lineno} {name}(...)")
    assert offences == []


def _verbose_draws(*selection) -> str:
    """Hypothesis's verbose report, every example tried, of a pytest run of `selection`."""
    done = subprocess.run([sys.executable, "-m", "pytest", "-s", "-p", "no:terminal",
                           "-p", "no:cacheprovider", "--hypothesis-verbosity=verbose", *selection],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def test_a_property_test_draws_the_same_examples_under_any_selection():
    # the second selection also loads sparsepr.cli and the benchmark's modules
    test = "tests/test_sparsity.py::test_select_delta_is_bit_equal_to_the_median_composition"
    alone = _verbose_draws(test)
    assert "Trying example" in alone
    assert _verbose_draws(test, "benchmarks/test_benchmark.py::test_spec_matches_code") == alone

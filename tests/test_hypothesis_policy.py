"""The suite's Hypothesis policy lives in conftest.py and nowhere else."""

import ast
from pathlib import Path

from hypothesis import settings

TESTS = Path(__file__).parent
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

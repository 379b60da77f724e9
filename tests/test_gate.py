"""The whole-run gate, scripts/bench_whole_runs.py, reads only what the
sparsepr package exports.

The gate runs against two source trees, so a sparsepr submodule or private
name in it ties the gate to one tree's internals, and a change that renames
it breaks the gate. The script is parsed here, never imported or run.
"""

import ast
import importlib.util
import types
from pathlib import Path

import sparsepr

GATE = Path(__file__).resolve().parent.parent / "scripts" / "bench_whole_runs.py"
SOURCE = ast.parse(GATE.read_text(encoding="utf-8"))


def _is_submodule(name: str) -> bool:
    return importlib.util.find_spec(f"sparsepr.{name}") is not None


def test_the_gate_imports_no_sparsepr_submodule():
    submodules = []
    for node in ast.walk(SOURCE):
        if isinstance(node, ast.Import):
            submodules += [a.name for a in node.names if a.name.startswith("sparsepr.")]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.startswith("sparsepr."):
                submodules.append(node.module)
            elif node.module == "sparsepr":
                submodules += [f"sparsepr.{a.name}" for a in node.names if _is_submodule(a.name)]
    assert submodules == []


def test_the_gate_reads_only_names_that_sparsepr_exports():
    aliases = {a.asname or a.name for node in ast.walk(SOURCE) if isinstance(node, ast.Import)
               for a in node.names if a.name == "sparsepr"}
    read = {node.attr for node in ast.walk(SOURCE)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases}
    assert aliases and read, "the gate no longer reads sparsepr through an alias"
    unbound = sorted(name for name in read if not hasattr(sparsepr, name)
                     or isinstance(getattr(sparsepr, name), types.ModuleType))
    assert unbound == []

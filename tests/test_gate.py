"""The whole-run gate, scripts/bench_whole_runs.py, imports neither sparsepr
nor numpy.

The gate runs against two source trees. Every run and every score is a
process of the tree's own CLI (`python -m sparsepr.cli sweep` and
`metrics`), so no sparsepr name, submodule or numpy array in the gate can
tie it to one tree's internals. The script is parsed here, never imported
or run.
"""

import ast
from pathlib import Path

GATE = Path(__file__).resolve().parent.parent / "scripts" / "bench_whole_runs.py"
SOURCE = ast.parse(GATE.read_text(encoding="utf-8"))
BARRED = {"numpy", "sparsepr"}


def test_the_gate_imports_neither_sparsepr_nor_numpy():
    imported = []
    for node in ast.walk(SOURCE):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.append(node.module)
        elif isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
            # __import__("numpy") and importlib.import_module("sparsepr.cli")
            called = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(
                node.func, "id", None)
            if called in ("__import__", "import_module"):
                imported.append(node.args[0].value)
    assert sorted(name for name in imported if name.split(".")[0] in BARRED) == []

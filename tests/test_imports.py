"""Every name that a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sqzlift"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression of the module
    reads and that its `__all__` does not list."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_finds_a_leftover_name():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport os.path\n"
              "from .errors import Used, Unused\n"
              "__all__ = ['Exported']\nfrom .x import Exported\n"
              "def f(a: Used) -> None:\n    return np.zeros(1)\n")
    assert unused_imports(source) == ["Unused", "os"]

"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

import imt

MODULES = sorted(p for p in Path(imt.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    bound.pop("annotations", None)  # from __future__ import annotations
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_checker_flags_a_name_read_only_in_a_string():
    source = "import os\nfrom x import a, b as c\nprint(a)\nmsg = 'os and c'\n"
    assert unused_imports(source) == ["os (line 1)", "c (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []

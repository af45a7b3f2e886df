"""Every module of the package uses each name it imports, and every private
function or class it defines."""

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


def unreferenced_privates(sources: list[str]) -> list[str]:
    """Module-level private functions and classes of ``sources`` that no
    statement names outside their own definition."""
    defined, named = [], set()
    for source in sources:
        for node in ast.parse(source).body:
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                defined.append(node.name)
                names.discard(node.name)
            named |= names
    return [name for name in defined if name not in named]


def test_dead_code_checker_flags_a_self_call_and_a_string():
    sources = [
        "def _used():\n    return _Kept\ndef _orphan():\n    return _orphan()\n",
        "class _Kept:\n    pass\ndef _named():\n    pass\nx = m._used() or '_named'\n",
    ]
    assert unreferenced_privates(sources) == ["_orphan", "_named"]


def test_package_has_no_unreferenced_private_definitions():
    assert unreferenced_privates([p.read_text() for p in MODULES]) == []

"""Every import in the package's modules is used: a name bound by an
import appears as a name somewhere else in its module (annotations count).
``__init__.py`` re-exports its imports and is not checked.

Every module-level private name of the package (a function, class or
assigned name with one leading underscore) is read somewhere in the
package, as a name or as an attribute: a reference from the tests alone
does not keep a helper alive."""

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scatterlab"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "from dataclasses import dataclass, field\n"
        "x: dataclass = os\n"
    )
    assert _unused_imports(source) == ["line 3: field"]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_module_has_no_unused_import(module):
    assert _unused_imports((_PACKAGE / module).read_text()) == []


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            bound = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for b in bound for t in ast.walk(b) if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{module} line {line}: {name}"
        for module, tree in trees.items()
        for name, line in _private_definitions(tree).items()
        if name not in read
    ]


def test_the_check_finds_an_unreferenced_private_name():
    sources = {
        "a.py": "_USED = 1\n_DEAD = 2\n_x, _y = 3, 4\ndef _helper():\n    return _USED\n",
        "b.py": "from . import a\nclass _Gone:\n    pass\nz = a._helper() + a._x\n",
    }
    assert _unreferenced_private_names(sources) == [
        "a.py line 2: _DEAD",
        "a.py line 3: _y",
        "b.py line 2: _Gone",
    ]


def test_package_has_no_unreferenced_private_name():
    sources = {p.name: p.read_text() for p in sorted(_PACKAGE.glob("*.py"))}
    assert _unreferenced_private_names(sources) == []

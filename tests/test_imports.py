"""Every import in the package's modules is used: a name bound by an
import appears as a name somewhere else in its module (annotations count).
``__init__.py`` re-exports its imports and is not checked."""

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

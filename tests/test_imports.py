"""Source hygiene: every module-level import in the package is used."""

import ast
from pathlib import Path

import pytest

import netcomplexity

# __init__.py is left out: its imports are re-exports
MODULES = sorted(
    p for p in Path(netcomplexity.__file__).parent.glob("*.py")
    if p.name != "__init__.py"
)


def imported_names(tree):
    """(bound name, line) for each module-level import; __future__ is skipped."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [f"{name} (line {line})" for name, line in imported_names(tree)
              if name not in used]
    assert unused == [], f"{path.name} imports but never uses {', '.join(unused)}"

"""Source hygiene: every module-level import in the package is used, and
every import names the standard library, the package or a declared
dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

import netcomplexity

PACKAGE = sorted(Path(netcomplexity.__file__).parent.glob("*.py"))
# __init__.py is left out: its imports are re-exports
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", req).group() for req in requirements}


def imported_modules(tree):
    """(top-level module, line) for every import, in functions too; a
    relative import names the package itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield ("netcomplexity" if node.level else node.module.partition(".")[0],
                   node.lineno)


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_imports_are_declared(path):
    allowed = set(sys.stdlib_module_names) | {"netcomplexity"} | declared_dependencies()
    tree = ast.parse(path.read_text(encoding="utf-8"))
    undeclared = [f"{name} (line {line})" for name, line in imported_modules(tree)
                  if name not in allowed]
    assert undeclared == [], (
        f"{path.name} imports {', '.join(undeclared)}, which pyproject.toml "
        "does not declare"
    )

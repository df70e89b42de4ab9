"""Source hygiene: every module-level import in the package is used, and
every import names the standard library, the package or a declared
dependency."""

import ast
import os
import re
import subprocess
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


def run_unset(script, **env):
    """Run script in a child of this interpreter that imports netcomplexity
    from this suite's copy, with OPENBLAS_NUM_THREADS unset unless env sets
    it; its stdout, stripped."""
    src = str(Path(netcomplexity.__file__).resolve().parents[1])
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**base, "PYTHONPATH": path, **env})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_package_import_loads_no_numpy():
    # the exports bind on first use, so a library importer's numpy, and
    # its BLAS threads, are configured by the importer alone
    script = (
        "import os, sys; import netcomplexity; "
        "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS')); "
        "from netcomplexity import *; from netcomplexity import complexity; "
        "print('numpy' in sys.modules, functional_complexity is "
        "complexity.functional_complexity, "
        "set(netcomplexity.__all__) <= set(vars(netcomplexity)))"
    )
    assert run_unset(script).splitlines() == ["False None", "True True True"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads through Linux /proc")
def test_cli_import_starts_no_blas_threads():
    script = (
        "import os; import netcomplexity.cli; "
        "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
    )
    assert run_unset(script) == "1 1"
    # a user's own setting wins
    assert run_unset(script, OPENBLAS_NUM_THREADS="2").split()[1] == "2"

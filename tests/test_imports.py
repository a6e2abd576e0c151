"""The package's modules import as a stack of layers, with no cycle."""

import ast
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import whiskers

PACKAGE = Path(whiskers.__file__).parent

# An empty module object with the package's path stands in for
# whiskers/__init__.py, which would otherwise import every module first in
# its own order; so each module's own imports run first, as an entry point.
ALONE = """import importlib, sys, types
package = types.ModuleType("whiskers")
package.__path__ = [{path!r}]
sys.modules["whiskers"] = package
importlib.import_module("whiskers." + sys.argv[1])
"""


def test_modules_import_alone_and_without_local_imports():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", "import whiskers"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    names = [m.name for m in pkgutil.iter_modules([str(PACKAGE)])]
    assert "graph" in names and "cli" in names
    for name in names:
        done = subprocess.run(
            [sys.executable, "-c", ALONE.format(path=str(PACKAGE)), name],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, f"{name}: {done.stderr}"
    # an import inside a function hides a cycle that the layers should not have
    local = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                local += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert local == []


def _outside_stdlib(source):
    """(line, module) for each absolute import in source whose top-level
    name is not a standard-library module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.partition(".")[0] not in sys.stdlib_module_names]
    return found


def test_runtime_imports_only_the_standard_library():
    """The runtime stays free of dependencies: every absolute import in the
    package names a standard-library module."""
    assert _outside_stdlib("import numpy.linalg\nfrom hypothesis import given\n"
                           "from .graph import Graph\nimport os, re\n") == [
        (1, "numpy.linalg"), (2, "hypothesis")]
    outside = [(path.name, line, name) for path in sorted(PACKAGE.glob("*.py"))
               for line, name in _outside_stdlib(path.read_text(encoding="utf-8"))]
    assert outside == []


def test_every_private_helper_is_used():
    """No helpers that nothing uses: each module-level private function or
    class of the package is named somewhere in it as a Name or an
    Attribute; being imported does not count."""
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))]
    private = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and node.name.startswith("_")}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    assert private
    assert sorted(private - used) == []

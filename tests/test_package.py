"""Package hygiene: exports resolve, and no module imports a name it never
uses."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import vortexlab as vx

SOURCES = sorted(Path(vx.__file__).parent.glob("*.py"))
MODULES = ["vortexlab"] + [f"vortexlab.{m.name}"
                           for m in pkgutil.iter_modules(vx.__path__)
                           if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve_without_duplicates(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    missing = [e for e in exported if not hasattr(module, e)]
    assert missing == []


def _imported_names(tree):
    """(bound name, line) of every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    """Names the module reads, including those it re-exports by __all__."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree)
              if name not in used]
    assert unused == []

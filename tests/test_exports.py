"""Every public name the package and its modules export resolves, and every
top-level definition or constant in the package is used or exported."""

import ast
import collections
import importlib
import pkgutil
from pathlib import Path

import pytest

import qident

MODULES = ["qident"] + [f"qident.{m.name}" for m in pkgutil.iter_modules(qident.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def _names(node) -> set:
    """Names the code under ``node`` refers to, as variables or attributes;
    docstrings and other text do not count."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _defined(stmt) -> list:
    """Names a top-level statement defines: a function, a class, or the
    targets of an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_every_definition_is_used():
    """A top-level function, class or constant that no code in the package
    names outside its own statement, and that its module does not export, is
    dead code.  Dunders such as ``__all__`` do not count."""
    statements = [
        (name, stmt)
        for name in MODULES
        for stmt in ast.parse(Path(importlib.import_module(name).__file__).read_text()).body
    ]
    uses = collections.Counter(n for _, stmt in statements for n in _names(stmt))
    unused = [
        f"{name}.{defined}"
        for name, stmt in statements
        for defined in _defined(stmt)
        if not defined.startswith("__")
        and defined not in getattr(importlib.import_module(name), "__all__", ())
        and uses[defined] == (defined in _names(stmt))
    ]
    assert unused == []

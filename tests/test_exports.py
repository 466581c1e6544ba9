"""Every public name the package and its modules export resolves, and every
top-level definition in the package is used or exported."""

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


def test_every_definition_is_used():
    """A top-level function or class that no code in the package names outside
    its own body, and that its module does not export, is dead code."""
    statements = [
        (name, stmt)
        for name in MODULES
        for stmt in ast.parse(Path(importlib.import_module(name).__file__).read_text()).body
    ]
    uses = collections.Counter(n for _, stmt in statements for n in _names(stmt))
    unused = [
        f"{name}.{stmt.name}"
        for name, stmt in statements
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and stmt.name not in getattr(importlib.import_module(name), "__all__", ())
        and uses[stmt.name] == (stmt.name in _names(stmt))
    ]
    assert unused == []

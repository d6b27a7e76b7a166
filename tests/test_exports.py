"""Module hygiene: every name in a module's ``__all__`` resolves, so a
stale export fails, and no module holds an ``assert`` statement, which
``python -O`` would strip from a check."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import obstructor

MODULES = [obstructor] + [
    importlib.import_module(f"obstructor.{m.name}")
    for m in pkgutil.iter_modules(obstructor.__path__)
    if m.name != "__main__"
]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if hasattr(m, "__all__")], ids=lambda m: m.__name__
)
def test_every_exported_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{module.__name__}.__all__ names {missing}"


def test_no_module_asserts():
    sources = sorted(Path(obstructor.__path__[0]).glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src: {found}"

"""Every name in a module's ``__all__`` resolves, so a stale export fails."""

from __future__ import annotations

import importlib
import pkgutil

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

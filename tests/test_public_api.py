"""Every name a module exports exists: ``radd.__all__`` and the ``__all__``
of each module of the package."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import radd

MODULES = ["radd", *(f"radd.{m.name}" for m in pkgutil.iter_modules(radd.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


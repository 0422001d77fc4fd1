"""Every name a module exports exists: ``radd.__all__`` and the ``__all__``
of each module of the package; the README's library example runs."""

from __future__ import annotations

import importlib
import pkgutil
from pathlib import Path

import pytest

import radd

MODULES = ["radd", *(f"radd.{m.name}" for m in pkgutil.iter_modules(radd.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)



def test_readme_library_quick_start_runs(capsys):
    """The README's library quick start, run verbatim, so it cannot drift
    from the API."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start (library)", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    masked_eer = capsys.readouterr().out.splitlines()[-1]
    assert 0.0 <= float(masked_eer) <= 1.0

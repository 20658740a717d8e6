"""Every name a ``repro`` module lists in ``__all__`` must resolve."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro

MODULES = [repro.__name__] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", ())
    missing = [name for name in exported if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"

import importlib
import pkgutil

import pytest

import degfair

MODULES = ["degfair"] + sorted(
    info.name for info in pkgutil.iter_modules(degfair.__path__, "degfair.")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A name left in __all__ after its definition is gone breaks
    # ``from module import *`` and misleads readers of the public API.
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names undefined {missing}"


def test_library_modules_declare_their_exports():
    # Every library module except the package root and the CLI entry point
    # declares its public names, so the check above covers it.
    undeclared = [
        name for name in MODULES
        if name not in ("degfair", "degfair.cli")
        and not hasattr(importlib.import_module(name), "__all__")
    ]
    assert undeclared == []

import importlib
import pathlib
import pkgutil
import re

import pytest

import degfair
from degfair import autodiff

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


def test_every_autodiff_op_has_a_caller():
    # An op that only its own tests call is dead code; the library outside
    # autodiff.py, or a demo, must call each one. ``as_tensor`` is a helper.
    root = pathlib.Path(__file__).resolve().parents[1]
    sources = [p for p in sorted((root / "src").rglob("*.py")) if p.name != "autodiff.py"]
    text = "\n".join(p.read_text(encoding="utf-8")
                     for p in sources + sorted((root / "demos").glob("*.py")))
    uncalled = [
        name for name in autodiff.__all__
        if name[0].islower() and name != "as_tensor" and not re.search(rf"\b{name}\(", text)
    ]
    assert uncalled == []

"""Scripts the tests run in a subprocess import the package from this checkout.

``pythonpath = ["src"]`` in ``pyproject.toml`` serves the test process
itself; child processes (the criterion 7 timing probe) see ``src`` through
``PYTHONPATH``, so a bare ``pytest`` needs no install.
"""

import os
import pathlib

_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
)

"""The package runs on the standard library alone.

numpy, pytest and hypothesis may be installed for the tests; in a fresh
interpreter where importing any of them fails, every `rlattice` module
must still import, a suite must run and a countermodel search must find
its model.
"""

import os
import subprocess
import sys
from pathlib import Path

import rlattice

# Runs as `PYTHONPATH=src python -c "$SCRIPT"`; any failure exits non-zero.
SCRIPT = """\
import importlib, pkgutil, sys
for name in ("numpy", "pytest", "hypothesis"):
    sys.modules[name] = None  # importing it raises ImportError
import rlattice
for info in pkgutil.iter_modules(rlattice.__path__):
    importlib.import_module(f"rlattice.{info.name}")
from rlattice import cli, minimal_axioms, search_model
assert cli.main(["suite", "cond-dist"]) == 0
out = search_model(minimal_axioms(), ["x v R00 = R00 | x v R00 = R00'"], range(2, 5))
assert (out.size, out.sizes_excluded, out.nodes) == (4, (2, 3), 91), out
print(rlattice.__file__)
"""


def test_standard_library_only():
    # No inherited PYTHON* setting (PYTHONOPTIMIZE would drop the asserts);
    # the package is the one these tests import.
    env = {name: value for name, value in os.environ.items() if not name.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(rlattice.__file__).parent.parent)
    done = subprocess.run([sys.executable, "-W", "error", "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == rlattice.__file__

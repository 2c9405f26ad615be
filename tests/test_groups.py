"""Module-level state of the group descriptors."""

import os
import subprocess
import sys
from pathlib import Path

import abelk

# Imports abelk, drops it from sys.modules, imports it again and checks
# that the first copy is gone once nothing in the program refers to it.
REIMPORT = """
import gc, importlib, sys, weakref
import abelk.cli
first = weakref.ref(abelk.towers.Tower)
del abelk
for name in [n for n in sys.modules if n == "abelk" or n.startswith("abelk.")]:
    del sys.modules[name]
importlib.import_module("abelk.cli")
gc.collect()
sys.exit(0 if first() is None else "the first copy of abelk is alive")
"""


def test_a_reimported_package_frees_its_first_copy():
    # a subprocess, so that this session keeps its own classes intact
    src = str(Path(abelk.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-c", REIMPORT], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import relaycancel

MODULES = ["lti", "relay", "lifting", "synthesis", "sim", "cli"]


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(f"relaycancel.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def test_import_leaves_out_the_heavy_scipy_subpackages():
    # a fresh interpreter: tests/oracles.py imports scipy.signal into this
    # one; scipy.optimize waits for the first LP of a design
    src = str(Path(relaycancel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, relaycancel.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'signal'], ['scipy', 'stats'], "
            "['scipy', 'interpolate'], ['scipy', 'optimize'])))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"

import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relaycancel

MODULES = ["lti", "relay", "lifting", "synthesis", "sim", "cli"]


@pytest.mark.parametrize("module", MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(f"relaycancel.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def _fresh(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter with the package on
    its path: tests/oracles.py imports scipy.signal and scipy.optimize
    into this one."""
    src = str(Path(relaycancel.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return out.stdout.strip()


def test_import_leaves_out_the_heavy_scipy_subpackages():
    code = ("import sys, relaycancel.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'signal'], ['scipy', 'stats'], "
            "['scipy', 'interpolate'], ['scipy', 'optimize'])))")
    assert _fresh(code) == "[]"


# min x0 + 2 x1  s.t.  -x0 - x1 <= -1,  0 <= x0 <= 0.75,  x1 >= 0.25,
# solved by x = (0.75, 0.25) alone
_SMALL_LP = """
import sys
import numpy as np
from relaycancel import synthesis
lp = dict(c=np.array([1.0, 2.0]), A_ub=np.array([[-1.0, -1.0]]),
          b_ub=np.array([-1.0]), bounds=[(0.0, 0.75), (0.25, None)])
CORE = "scipy.optimize._highspy._core"
"""


def test_the_highs_loader_loads_the_extension_alone():
    code = _SMALL_LP + """
res = synthesis.linprog(**lp)
assert res.x.tolist() == [0.75, 0.25], res
assert CORE in sys.modules
print(sorted(m for m in ("scipy.optimize", "scipy.optimize._highspy",
                         "scipy.sparse", "scipy.spatial", "scipy.special",
                         "scipy.fft") if m in sys.modules))
"""
    assert _fresh(code) == "[]"


def test_scipy_optimize_reuses_the_loaded_extension():
    # pybind11 registers the bindings' types once per process, so a later
    # import has to find the loader's module, and scipy's linprog then
    # solves on it bit for bit as synthesis.linprog does
    code = _SMALL_LP + """
x = synthesis.linprog(**lp).x
core = sys.modules[CORE]
import scipy.optimize
from scipy.optimize._highspy import _core
ref = scipy.optimize.linprog(**lp, method="highs")
print(_core is core is sys.modules[CORE], ref.x.tobytes() == x.tobytes())
"""
    assert _fresh(code) == "True True"


def test_threads_share_one_first_load():
    # four threads on two cores, switching often; the slowed search holds
    # the first one inside the load until the others arrive, and they must
    # wait for it and take its module
    code = _SMALL_LP + """
import threading
import time
from importlib.machinery import PathFinder

searches = []

class SlowFinder:
    @staticmethod
    def find_spec(name, path):
        searches.append(name)
        time.sleep(0.05)
        return PathFinder.find_spec(name, path)

synthesis.PathFinder = SlowFinder
sys.setswitchinterval(1e-5)
start = threading.Barrier(4)
results = []

def solve():
    start.wait()
    results.append(synthesis.linprog(**lp).x.tolist())

threads = [threading.Thread(target=solve) for _ in range(4)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
assert not any(t.is_alive() for t in threads)
print(results == [[0.75, 0.25]] * 4, searches == [CORE])
"""
    assert _fresh(code) == "True True"


def test_the_highs_extension_is_found_without_scipy_optimize():
    # synthesis._highs_core finds the bindings' extension module in
    # scipy's optimize/_highspy folder by path, without importing the
    # scipy.optimize package around it
    import scipy
    from importlib.machinery import ExtensionFileLoader, PathFinder

    folder = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    spec = PathFinder.find_spec("scipy.optimize._highspy._core", [folder])
    assert spec is not None and isinstance(spec.loader, ExtensionFileLoader)
    assert spec.name == "scipy.optimize._highspy._core"
    assert os.path.dirname(spec.origin) == folder


def test_the_highs_bindings_linprog_calls_exist():
    # synthesis.linprog calls scipy's private HiGHS bindings directly; the
    # scipy floor in pyproject.toml is a release that has all of these
    from scipy.optimize._highspy import _core

    assert _core.kHighsInf == math.inf
    highs = _core._Highs()
    for option, value in (("output_flag", False), ("log_to_console", False),
                          ("presolve", "on"), ("simplex_strategy", 1)):
        assert highs.setOptionValue(option, value) == _core.HighsStatus.kOk
    # the numpy-array overload of passModel, column-wise and minimizing:
    # min x0 + x1  s.t.  -x0 - x1 <= -1,  0 <= x <= 1
    model = (2, 1, 2, 1, 1, 0.0, np.ones(2), np.zeros(2), np.ones(2),
             np.array([-_core.kHighsInf]), np.array([-1.0]),
             np.array([0, 1, 2], dtype=np.int32),
             np.array([0, 0], dtype=np.int32), np.array([-1.0, -1.0]))
    # an empty integrality array is a load error, an all-continuous one not
    assert (_core._Highs().passModel(*model, np.empty(0, dtype=np.int32))
            == _core.HighsStatus.kError)
    assert (highs.passModel(*model, np.zeros(2, dtype=np.int32))
            == _core.HighsStatus.kOk)
    assert highs.run() == _core.HighsStatus.kOk
    status = highs.getModelStatus()
    assert status == _core.HighsModelStatus.kOptimal
    assert highs.modelStatusToString(status) == "Optimal"
    assert sum(highs.getSolution().col_value) == 1.0
    assert highs.getInfo().simplex_iteration_count >= 0


def test_the_stacked_cholesky_the_screen_calls_exists():
    # lti._screen factors a chunk of Gram matrices by numpy's private
    # gufunc: a failed factor is left as nan instead of raising, and the
    # result goes to a buffer the screen keeps
    from numpy.linalg._umath_linalg import cholesky_lo

    spd = np.array([[4.0, 2.0 - 2.0j], [2.0 + 2.0j, 6.0]])
    stack = np.stack([spd, np.array([[1.0, 2.0], [2.0, 1.0]], complex)])
    out = np.empty_like(stack)
    with np.errstate(all="ignore"):
        L = cholesky_lo(stack, out=out)
    assert L is out
    assert np.allclose(L[0] @ L[0].conj().T, spd)
    assert L[0, 0, 1] == 0.0 and np.all(L[0].diagonal().real > 0.0)
    assert np.isnan(L[1]).all()


def test_the_numpy_2_names_the_package_uses_exist():
    # synthesis transposes stacks by ndarray.mT and sim integrates by
    # np.trapezoid; both arrived in numpy 2.0, the floor in pyproject.toml
    stack = np.arange(12.0).reshape(2, 2, 3)
    assert np.array_equal(stack.mT, np.swapaxes(stack, -1, -2))
    x = np.array([0.0, 1.0, 2.0])
    assert np.trapezoid(x, x) == 2.0

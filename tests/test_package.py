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


# scipy.linalg's __init__ runs scipy's array-API layer, whose vendored
# array_api_compat clones numpy's namespace and so loads numpy.f2py,
# testing, ma, random and polynomial; lti loads the two extension modules
# it calls by their paths instead
_NOT_LOADED = ("scipy.linalg", "scipy._lib._array_api", "numpy.f2py",
               "numpy.testing")


def test_import_leaves_out_the_heavy_scipy_subpackages():
    code = ("import sys, relaycancel.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'signal'], ['scipy', 'stats'], "
            "['scipy', 'interpolate'], ['scipy', 'optimize']) "
            f"or m in {_NOT_LOADED!r}))")
    assert _fresh(code) == "[]"


def test_a_design_and_a_simulation_leave_out_scipy_linalg():
    code = f"""
import sys
from relaycancel.lifting import fsfh_lift
from relaycancel.relay import (CouplingChannel, RelayParams,
                               build_generalized_plant, scalar_block)
from relaycancel.sim import SimConfig, simulate_closed_loop
from relaycancel.synthesis import synthesize_nominal, verify_design
params = RelayParams(h=1.0, f=10000.0, a1=1.0, a2=1000.0,
                     W=scalar_block([1.0], [2.0, 1.0]),
                     F=scalar_block([1.0], [1.0]),
                     P=scalar_block([1.0], [0.001, 1.0]))
channel = CouplingChannel(0.2, 1.0)
spec = build_generalized_plant(params, channel)
K = synthesize_nominal(fsfh_lift(spec, 2), n_q=1, grid_size=32)
verify_design(spec, K, 4)
trace = simulate_closed_loop(SimConfig(params=params, channel=channel,
                                       K=K.sys, duration=5.0, oversample=8))
assert trace.err.size and not trace.diverged
print(sorted(m for m in {_NOT_LOADED!r} if m in sys.modules))
"""
    assert _fresh(code) == "[]"


def test_scipy_linalg_reuses_the_loaded_extensions():
    # a later import of scipy.linalg finds lti's modules in sys.modules,
    # and its functions then give lti's kernels' results byte for byte
    code = """
import sys
import numpy as np
from relaycancel import lti
assert "scipy.linalg" not in sys.modules
flapack, expm_kernels = lti._flapack, lti._expm_kernels
import scipy.linalg
from scipy.linalg import _flapack, _matfuncs_expm, lapack
rng = np.random.default_rng(5)
A = rng.standard_normal((6, 6)) * 4.0
L = np.tril(A) + 8.0 * np.eye(6)
pairs = [(lti._expm(A), scipy.linalg.expm(A)),
         *zip(lti._complex_schur(A), scipy.linalg.schur(A, output="complex")),
         (lti._pencil_eigenvalues(A, L),
          scipy.linalg.eig(A, L, right=False, homogeneous_eigvals=True))]
print(_flapack is flapack is lapack._flapack
      is sys.modules["scipy.linalg._flapack"],
      _matfuncs_expm is expm_kernels
      is sys.modules["scipy.linalg._matfuncs_expm"],
      all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
          for x, y in pairs))
"""
    assert _fresh(code) == "True True True"


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
    # four threads on two cores, switching often; the slowed search of
    # the shared loader, lti._scipy_extension, holds the first one inside
    # the load until the others arrive, and they must wait for it and take
    # its module
    code = _SMALL_LP + """
import threading
import time
from importlib.machinery import PathFinder
from relaycancel import lti

searches = []

class SlowFinder:
    @staticmethod
    def find_spec(name, path):
        searches.append(name)
        time.sleep(0.05)
        return PathFinder.find_spec(name, path)

lti.PathFinder = SlowFinder
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
    # synthesis.linprog finds the bindings' extension module in
    # scipy's optimize/_highspy folder by path, without importing the
    # scipy.optimize package around it
    import scipy
    from importlib.machinery import ExtensionFileLoader, PathFinder

    folder = os.path.join(scipy.__path__[0], "optimize", "_highspy")
    spec = PathFinder.find_spec("scipy.optimize._highspy._core", [folder])
    assert spec is not None and isinstance(spec.loader, ExtensionFileLoader)
    assert spec.name == "scipy.optimize._highspy._core"
    assert os.path.dirname(spec.origin) == folder


@pytest.mark.parametrize("name", ["scipy.linalg._flapack",
                                  "scipy.linalg._matfuncs_expm"])
def test_the_linalg_extensions_are_found_without_scipy_linalg(name):
    # lti._scipy_extension finds them in scipy's linalg folder by path
    import scipy
    from importlib.machinery import ExtensionFileLoader, PathFinder

    folder = os.path.join(scipy.__path__[0], "linalg")
    spec = PathFinder.find_spec(name, [folder])
    assert spec is not None and isinstance(spec.loader, ExtensionFileLoader)
    assert spec.name == name and os.path.dirname(spec.origin) == folder


def test_the_loader_names_a_missing_extension():
    from relaycancel import lti

    with pytest.raises(ImportError, match="no scipy.linalg._absent in "):
        lti._scipy_extension("scipy.linalg._absent")
    assert "scipy.linalg._absent" not in sys.modules


def test_the_lapack_and_expm_calls_exist():
    # lti's kernels call scipy's private LAPACK wrappers and expm kernels
    # directly, with the arguments scipy 1.17's schur, eig and expm pass
    # them
    from scipy.linalg import _flapack, _matfuncs_expm

    a = np.array([[2.0, 1.0], [0.5, 3.0]])
    # (t, sdim, w, vs, work, info): the work query's optimum in work[0]
    query = _flapack.zgees(lambda x: None, a.astype("D"), lwork=-1)
    assert len(query) == 6 and query[-1] == 0 and query[-2][0].real >= 2
    t, _, w, vs, _, info = _flapack.zgees(
        lambda x: None, a.astype("D"), lwork=int(query[-2][0].real),
        overwrite_a=True, sort_t=0)
    assert info == 0 and np.allclose(vs @ t @ vs.conj().T, a)
    # (alphar, alphai, beta, vl, vr, work, info), the same way
    query = _flapack.dggev(a, np.eye(2), lwork=-1)
    assert len(query) == 7 and query[-1] == 0 and query[-2][0] >= 1
    alphar, alphai, beta, _, _, _, info = _flapack.dggev(
        a, np.eye(2), False, False, int(query[-2][0]), False, False)
    assert info == 0 and not alphai.any()
    assert np.allclose(np.sort(alphar / beta), np.linalg.eigvals(a).real)
    # the scaled Pade approximant in Am[0], then s squarings
    Am = np.empty((5, 2, 2))
    Am[0] = a
    m, s = _matfuncs_expm.pick_pade_structure(Am)
    assert m in (3, 5, 7, 9, 13) and s >= 0
    assert _matfuncs_expm.pade_UV_calc(Am, m) == 0
    E = Am[0]
    for _ in range(s):
        E = E @ E
    lam, V = np.linalg.eig(a)
    assert np.allclose(E, (V * np.exp(lam)) @ np.linalg.inv(V), rtol=1e-12)


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

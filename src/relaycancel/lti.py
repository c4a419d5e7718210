"""Dense state-space algebra for continuous and discrete LTI systems.

This module is the numerical substrate for the rest of the package:
construction, interconnection, zero-order-hold discretization, stability
tests and the discrete-time H-infinity norm.  The package evaluates
frequency responses in two places, the norm's theta grid here and the
minimax's design grid (``synthesis._affine_blocks``); pointwise
responses are a test oracle, ``tests/oracles.py``.  All systems are
stored as dense real matrices; the orders encountered here (tens of
states after lifting) are small enough that dense linear algebra is both
simpler and fast.

Beyond numpy, the module needs three dense kernels: a complex Schur
form and the eigenvalues of a pencil (LAPACK's zgees and dggev;
Anderson et al., LAPACK Users' Guide, 1999) and the matrix exponential
(scipy's compiled scaling-and-squaring Pade kernel; Al-Mohy & Higham,
SIMAX 31, 2009).  ``_scipy_extension`` loads scipy's
``linalg._flapack`` and ``linalg._matfuncs_expm`` extension modules by
their paths, without ``scipy.linalg``, whose import would also load
numpy's ``f2py``, ``testing``, ``ma``, ``random`` and ``polynomial``
through scipy's array-API layer (20 MB more resident memory at import
with scipy 1.17), and without running scipy's own ``__init__.py``.
``_complex_schur``, ``_pencil_eigenvalues`` and ``_expm`` make the
calls that scipy 1.17's ``schur``, ``eig`` and ``expm`` make for the
one case the package passes each, with their finiteness and LAPACK
``info`` checks, so their results are bitwise scipy's.

A system is

    continuous:  dx/dt = A x + B u,   y = C x + D u
    discrete:    x[k+1] = A x[k] + B u[k],   y[k] = C x[k] + D u[k]

with ``dt is None`` marking continuous time and a finite ``dt > 0`` the
sampling period of a discrete system.  The matrices take exact shapes,
and values are immutable and safe to share across threads.  ``_record``
and ``_from_record`` write and read a system's one file form.
"""

from __future__ import annotations

import logging
import os
import sys
import threading
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

import numpy as np
from numpy.linalg._umath_linalg import cholesky_lo

__all__ = [
    "StateSpace",
    "STABILITY_MARGIN",
    "zoh_discretize",
    "interconnect",
    "is_stable",
    "stability_margin",
    "hinf_norm",
    "subsystem",
    "from_tf",
]

# Eigenvalues closer than this to the stability boundary are treated as
# unstable (conservative: avoids false stability claims).
STABILITY_MARGIN = 1e-9

# Points of the theta grid that gives hinf_norm its lower bracket, and the
# most halvings its bisection may take before it raises RuntimeError.
_HINF_GRID = 512
_HINF_MAX_ITER = 200
# _sigma_max_grid takes an SVD at every _SCREEN_STRIDE-th grid point and
# screens the rest by a Cholesky test of order min(n, p, m); from N = 64
# on the p x m seed SVDs cost more.  The screen runs on a Schur form
# (Laub 1981), a chunk of points per back-substitution: each step costs a
# few numpy calls whatever the chunk, so the chunk takes as many points as
# fit _SCREEN_BYTES per buffer (``_screen_chunk``).  That is 16 points at
# order 17 (N = 32's nominal loop, 17 states), whose three buffers, 3 x
# 74 kB, are what tracemalloc sees of the grid, and 32 points on
# robust_40db's order-8 design-rate channels (18 states).
_SCREEN_STRIDE = 64
_SCREEN_BYTES = 16 * 17 * 17 * 16  # 16 points of 17 x 17 complex

logger = logging.getLogger(__name__)

_extension_lock = threading.Lock()


def _scipy_extension(name: str):
    """scipy's compiled module ``name`` (a full dotted name), loaded
    without running the ``__init__.py`` of the packages around it.

    When the module is already in ``sys.modules`` (as after an import of
    its package) that one is returned.  Otherwise the extension is found
    in its folder under scipy's, which ``find_spec("scipy")`` gives
    without running ``scipy/__init__.py``, and registered in
    ``sys.modules`` under its full name before it runs (and removed if
    that fails), where a later import of its package finds and reuses it:
    pybind11 registers HiGHS's types, for one, once per process.  (The
    package then has no attribute for it; ``from`` imports, which scipy's
    own modules use, find it in ``sys.modules``.)  The lock keeps two
    threads' first loads of a module from loading it twice.
    """
    with _extension_lock:
        module = sys.modules.get(name)
        if module is None:
            root = find_spec("scipy").submodule_search_locations[0]
            folder = os.path.join(root, *name.split(".")[1:-1])
            spec = PathFinder.find_spec(name, [folder])
            if spec is None:
                raise ImportError(f"no {name} in {folder}")
            module = module_from_spec(spec)
            sys.modules[name] = module
            try:
                spec.loader.exec_module(module)
            except BaseException:
                del sys.modules[name]
                raise
        return module


_flapack = _scipy_extension("scipy.linalg._flapack")
_expm_kernels = _scipy_extension("scipy.linalg._matfuncs_expm")


def _complex_schur(A) -> tuple[np.ndarray, np.ndarray]:
    """(S, Q) with A = Q S Q', S upper triangular: scipy's ``schur(A,
    output="complex")``, by a zgees work query and then zgees, unsorted,
    on a complex copy of A."""
    a = np.asarray_chkfinite(A).astype("D")
    query = _flapack.zgees(lambda x: None, a, lwork=-1)
    S, _, _, Q, _, info = _flapack.zgees(
        lambda x: None, a, lwork=query[-2][0].real.astype(np.int_),
        overwrite_a=True, sort_t=0)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal "
                         "gees")
    if info > 0:
        raise np.linalg.LinAlgError(
            "Schur form not found. Possibly ill-conditioned.")
    return S, Q


def _pencil_eigenvalues(M, L) -> np.ndarray:
    """[alpha; beta], the pencil's generalized eigenvalues alpha / beta in
    homogeneous form: scipy's ``eig(M, L, right=False,
    homogeneous_eigvals=True)``, by a dggev work query and then dggev
    without eigenvectors."""
    M, L = np.asarray_chkfinite(M), np.asarray_chkfinite(L)
    query = _flapack.dggev(M, L, lwork=-1)
    alphar, alphai, beta, _, _, _, info = _flapack.dggev(
        M, L, False, False, query[-2][0].real.astype(np.int_), False, False)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal "
                         "generalized eig algorithm (ggev)")
    if info > 0:
        raise np.linalg.LinAlgError(
            "generalized eig algorithm (ggev) did not converge (LAPACK "
            f"info={info})")
    return np.vstack((alphar + 1j * alphai, beta))


def _expm(A) -> np.ndarray:
    """exp(A) of a real square matrix with an entry above its diagonal,
    as ``zoh_discretize`` builds: scipy's ``expm``.  A is scaled by 2^-s,
    given a Pade approximant by scipy's compiled kernels and squared s
    times; an upper-triangular A as in Al-Mohy & Higham's Code Fragment
    2.1, which recomputes the diagonal and superdiagonal after each
    squaring.  No finiteness check, as in scipy.  scipy's own cases for a
    1 x 1, diagonal or lower-triangular A are not kept: such an A takes
    these paths, accurate but not always bitwise scipy's.
    """
    a = np.asarray(A, dtype=float)
    upper = not np.tril(a, -1).any()
    Am = np.empty((5,) + a.shape)  # the kernels' work space, Am[0] = A
    Am[0] = a
    m, s = _expm_kernels.pick_pade_structure(Am)
    if m < 0:
        raise MemoryError("scipy.linalg.expm could not allocate sufficient "
                          "memory while trying to compute the Pade "
                          f"structure (error code {m}).")
    info = _expm_kernels.pade_UV_calc(Am, m)
    if info != 0:
        if info <= -11:
            raise MemoryError("scipy.linalg.expm could not allocate "
                              "sufficient memory while trying to compute "
                              f"the exponential (error code {info}).")
        raise RuntimeError("scipy.linalg.expm got an internal LAPACK error "
                           "during the exponential computation (error code "
                           f"{info})")
    E = Am[0]
    if s != 0 and not upper:
        for _ in range(s):
            E = E @ E
    elif s != 0:
        d, sd = np.diag(a), np.diag(a, k=1)
        np.einsum("ii->i", E)[:] = np.exp(d * 2**(-s))
        for i in range(s - 1, -1, -1):
            E = E @ E
            np.einsum("ii->i", E)[:] = np.exp(d * 2.0**(-i))
            np.einsum("ii->i", E[:-1, 1:])[:] = (_exp_sinch(d * 2.0**(-i))
                                                 * (sd * 2**(-i)))
    return np.triu(E) if upper else E.copy()  # the copy frees Am


def _exp_sinch(x: np.ndarray) -> np.ndarray:
    """(exp(x[i+1]) - exp(x[i])) / (x[i+1] - x[i]), exp(x[i]) where the
    two are equal (Higham, Functions of Matrices, 2008, (10.42))."""
    lexp_diff = np.diff(np.exp(x))
    l_diff = np.diff(x)
    mask_z = l_diff == 0.0
    lexp_diff[~mask_z] /= l_diff[~mask_z]
    lexp_diff[mask_z] = np.exp(x[:-1][mask_z])
    return lexp_diff


def _number(value, kind):
    """value as kind (float or int); TypeError or ValueError for anything
    but an int or a float (a boolean or a quoted "1.0" among them), for
    an infinite or NaN float, and for a float with a fractional part when
    kind is int."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("not a number")
    x = kind(value)
    if kind is float and not np.isfinite(x):
        raise ValueError("not finite")
    if kind is int and isinstance(value, float) and x != value:
        raise ValueError("not an integer")
    return x


def _as_matrix(M) -> np.ndarray:
    """A float copy of M with at least two axes."""
    return np.array(M, dtype=float, ndmin=2)


@dataclass(frozen=True)
class StateSpace:
    """Dense real state-space system.

    Parameters
    ----------
    A, B, C, D : array_like
        System matrices of exactly these shapes: A is n x n, B n x m,
        C p x n and D p x m; ``StateSpace.static`` builds a static one.
        The system keeps read-only copies of them.
    dt : float or None
        None for continuous time, finite sampling period in seconds otherwise.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    dt: float | None = None

    def __post_init__(self):
        # copies: the system's read-only matrices are its own, and the
        # caller's arrays stay writeable
        A, B, C, D = map(_as_matrix, (self.A, self.B, self.C, self.D))
        for name, M in zip("ABCD", (A, B, C, D)):
            if M.ndim > 2:
                raise ValueError(f"{name} must be a matrix, got {M.ndim} axes")
        n = A.shape[0]
        if A.shape[1] != n:
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise ValueError(f"B has {B.shape[0]} rows, expected {n}")
        if C.shape[1] != n:
            raise ValueError(f"C has {C.shape[1]} columns, expected {n}")
        if (C.shape[0], B.shape[1]) != D.shape:
            raise ValueError(f"dimension mismatch: D is {D.shape}, C has "
                             f"{C.shape[0]} rows, B has {B.shape[1]} columns")
        if self.dt is not None and not 0 < self.dt < np.inf:
            raise ValueError("dt must be finite" if self.dt > 0 else
                             "dt must be positive for a discrete system")
        for name, M in zip("ABCD", (A, B, C, D)):
            if not np.all(np.isfinite(M)):
                raise ValueError(f"non-finite entries in {name}")
            M.setflags(write=False)
            object.__setattr__(self, name, M)

    @property
    def n_states(self) -> int:
        return self.A.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.D.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.D.shape[0]

    @property
    def is_discrete(self) -> bool:
        return self.dt is not None

    @staticmethod
    def static(D, dt: float | None = None) -> "StateSpace":
        """Memoryless system y = D u."""
        p, m = _as_matrix(D).shape
        return StateSpace(np.zeros((0, 0)), np.zeros((0, m)), np.zeros((p, 0)), D, dt)

    def __repr__(self):
        kind = "continuous" if self.dt is None else f"discrete(dt={self.dt})"
        return (
            f"StateSpace({kind}, n={self.n_states}, "
            f"inputs={self.n_inputs}, outputs={self.n_outputs})"
        )


def _record(sys: StateSpace) -> dict:
    """sys as A-D in nested lists of floats, and a discrete one's period."""
    rec = {k: getattr(sys, k).tolist() for k in "ABCD"}
    return {**rec, "period": float(sys.dt)} if sys.is_discrete else rec


def _from_record(rec: dict) -> StateSpace:
    """The system a ``_record`` describes, discrete when it has a period;
    ValueError naming an entry that is not rows of numbers or breaks
    ``_number``'s rule.  Only a [] is shaped: 0 x n for A and C, 0 x m
    for B and D (n rows in A, m columns in D)."""
    M = {}
    for k in "ADBC":  # A and D first: they give [] its width
        try:  # TypeError for a row that is not a list
            if not {type(x) for r in rec[k] for x in r} <= {int, float}:
                raise TypeError
            M[k] = np.array(rec[k], dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{k} is not a list of rows of numbers") from None
        if M[k].ndim == 1:  # [], no rows
            M[k] = M[k].reshape(0, len(M["A"]) if k in "AC"
                                else M["D"].shape[-1])
    try:
        dt = _number(rec["period"], float) if "period" in rec else None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"period {rec['period']!r}: {exc}") from None
    return StateSpace(**M, dt=dt)


def from_tf(num, den) -> StateSpace:
    """SISO continuous transfer function (descending coefficients) to
    state space.

    The realization is the controller-canonical form of
    ``scipy.signal.tf2ss``, bit for bit: with den = [1, a1, ..., an] and
    num padded to n + 1 coefficients [b0, ..., bn],

        A = [[-a1 ... -an], [I_{n-1} 0]],  B = e1,
        C = [b1 - b0 a1, ..., bn - b0 an],  D = b0.

    The coefficients are normalized first, as tf2ss does: leading zeros of
    den are trimmed, num and den are divided by den[0], and leading
    coefficients of num with magnitude at most 1e-14 are trimmed (one is
    always kept).  A constant den gives the static gain num / den (n = 0)
    instead of tf2ss's one state with A = 0, which ``is_stable`` would
    call unstable.  ValueError for an empty num, an all-zero den,
    non-finite coefficients or an improper num (longer than den after
    trimming).
    """
    num = np.atleast_1d(np.asarray(num, float))
    den = np.atleast_1d(np.asarray(den, float))
    if num.ndim != 1 or den.ndim != 1:
        raise ValueError("num and den must be 1-D coefficient sequences")
    if not (np.isfinite(num).all() and np.isfinite(den).all()):
        raise ValueError("non-finite transfer-function coefficients")
    if num.size == 0 or not den.any():
        raise ValueError("num must be non-empty and den must have a "
                         "nonzero coefficient")
    den = np.trim_zeros(den, "f")
    num, den = num / den[0], den / den[0]
    kept = np.flatnonzero(np.abs(num) > 1e-14)
    num = num[kept[0] if kept.size else -1:]
    if num.size > den.size:
        raise ValueError("Improper transfer function: num is longer than "
                         "den after trimming")
    n = den.size - 1
    if n == 0:
        return StateSpace.static(num.reshape(1, 1))
    num = np.concatenate([np.zeros(den.size - num.size), num])
    A = np.vstack([-den[1:], np.eye(n - 1, n)])
    C = (num[1:] - num[0] * den[1:]).reshape(1, n)
    return StateSpace(A, np.eye(n, 1), C, num[:1].reshape(1, 1))


def subsystem(sys: StateSpace, outputs, inputs) -> StateSpace:
    """Select output rows and input columns (state kept intact)."""
    outputs = np.atleast_1d(np.asarray(outputs, dtype=int))
    inputs = np.atleast_1d(np.asarray(inputs, dtype=int))
    return StateSpace(sys.A, sys.B[:, inputs], sys.C[outputs, :],
                      sys.D[np.ix_(outputs, inputs)], sys.dt)


def zoh_discretize(sys: StateSpace, T: float) -> StateSpace:
    """Exact zero-order-hold discretization at period T.

    Uses the augmented-matrix exponential

        expm([[A, B], [0, 0]] * T) = [[Ad, Bd], [0, I]]

    which avoids inverting A and is exact for inputs held constant over
    each period.  C and D are unchanged.
    """
    if sys.is_discrete:
        raise ValueError("zoh_discretize expects a continuous-time system")
    if not T > 0:
        raise ValueError("discretization period must be positive")
    n, m = sys.n_states, sys.n_inputs
    if n == 0:
        return StateSpace(sys.A, sys.B, sys.C, sys.D, dt=T)
    M = np.zeros((n + m, n + m))
    M[:n, :n] = sys.A
    M[:n, n:] = sys.B
    E = _expm(M * T)
    if not np.all(np.isfinite(E)):
        raise np.linalg.LinAlgError(
            "matrix exponential produced non-finite entries")
    return StateSpace(E[:n, :n], E[:n, n:], sys.C, sys.D, dt=T)


def interconnect(plant: StateSpace, K: StateSpace, partition) -> StateSpace:
    """Close the lower loop of a partitioned plant with controller K.

    ``partition = (n_w, n_z)``: the first n_w plant inputs are the
    disturbance w and the first n_z outputs the performance z; the
    remaining channels (y, u) are closed through u = K y.
    """
    if plant.is_discrete != K.is_discrete:
        raise ValueError("cannot interconnect continuous with discrete systems")
    if plant.is_discrete and abs(plant.dt - K.dt) > 1e-12 * max(plant.dt, K.dt):
        raise ValueError("sampling periods differ")
    n_w, n_z = partition
    n_u = plant.n_inputs - n_w
    n_y = plant.n_outputs - n_z
    if n_u <= 0 or n_y <= 0:
        raise ValueError("partition leaves no controller channels")
    if K.n_inputs != n_y or K.n_outputs != n_u:
        raise ValueError(
            f"controller is {K.n_outputs}x{K.n_inputs}, plant expects {n_u}x{n_y}"
        )
    A, B, C, D = plant.A, plant.B, plant.C, plant.D
    B1, B2 = B[:, :n_w], B[:, n_w:]
    C1, C2 = C[:n_z, :], C[n_z:, :]
    D11, D12 = D[:n_z, :n_w], D[:n_z, n_w:]
    D21, D22 = D[n_z:, :n_w], D[n_z:, n_w:]
    side = _controller_side(K, D22)
    Acl, u_x = _closed_loop_a(A, B2, C2, D22, side)
    YDk, YCk, Bk, _ = side
    # u = Y (Ck xk + Dk C2 x + Dk D21 w) and y = C2 x + D21 w + D22 u
    u_w = YDk @ D21
    Bcl = np.vstack([B1 + B2 @ u_w, Bk @ (D21 + D22 @ u_w)])
    Ccl = np.hstack([C1 + D12 @ u_x, D12 @ YCk])
    Dcl = D11 + D12 @ u_w
    return StateSpace(Acl, Bcl, Ccl, Dcl, plant.dt)


def _controller_side(K: StateSpace, D22: np.ndarray) -> tuple:
    """(Y Dk, Y Ck, Bk, Ak + Bk D22 Y Ck), Y = (I - Dk D22)^-1: what closing
    u = K y takes of K and of the plant's feedthrough D22 from u to y;
    LinAlgError for a singular algebraic loop (condition above 1e12)."""
    Dk = K.D
    loop = np.eye(Dk.shape[0]) - Dk @ D22
    cond = np.linalg.cond(loop)
    if not np.isfinite(cond) or cond > 1e12:
        raise np.linalg.LinAlgError(
            "singular algebraic loop: I - D22*Dk is not invertible")
    Y = np.linalg.solve(loop, np.eye(Dk.shape[0]))
    YCk = Y @ K.C
    return Y @ Dk, YCk, K.B, K.A + K.B @ (D22 @ YCk)


def _closed_loop_a(A, B2, C2, D22, side) -> tuple:
    """(closed-loop A, Y Dk C2) of a plant with state matrix A, u columns
    B2 and y rows C2, closed by the K of ``side = _controller_side(K,
    D22)``: [[A + B2 Y Dk C2, B2 Y Ck], [Bk (C2 + D22 Y Dk C2), Ak_cl]]."""
    YDk, YCk, Bk, Ak_cl = side
    u_x = YDk @ C2
    n = A.shape[0]
    Acl = np.empty((n + Ak_cl.shape[0],) * 2)
    Acl[:n, :n] = A + B2 @ u_x
    Acl[:n, n:] = B2 @ YCk
    Acl[n:, :n] = Bk @ (C2 + D22 @ u_x)
    Acl[n:, n:] = Ak_cl
    return Acl, u_x


def _spectral_radius(A: np.ndarray) -> float:
    """rho(A), the largest eigenvalue modulus; -inf when A is empty."""
    return float(np.max(np.abs(np.linalg.eigvals(A)), initial=-np.inf))


def _spectral_margin(A: np.ndarray) -> float:
    """1 - rho(A), the spectral margin of a discrete system with state
    matrix A; infinite when it has no states."""
    return 1.0 - _spectral_radius(A)


def _spectral_margins(As) -> list[float]:
    """[``_spectral_margin(A)`` for A in As], bitwise: the state matrices
    of one order share one stacked eigvals, which solves each matrix as
    its own call would."""
    margins = [0.0] * len(As)
    by_order = {}
    for k, A in enumerate(As):
        by_order.setdefault(A.shape[0], []).append(k)
    for ks in by_order.values():
        w = np.linalg.eigvals(np.stack([As[k] for k in ks]))
        rho = np.max(np.abs(w), axis=1, initial=-np.inf)
        for k, r in zip(ks, rho.tolist()):
            margins[k] = 1.0 - r
    return margins


def stability_margin(sys: StateSpace) -> float:
    """Distance of the spectrum to the stability boundary (>0 means
    stable); infinite for a system without states."""
    if sys.is_discrete:
        return _spectral_margin(sys.A)
    return float(-np.max(np.linalg.eigvals(sys.A).real, initial=-np.inf))


def is_stable(sys: StateSpace) -> bool:
    """Spectral stability test: every eigenvalue's real part below
    -STABILITY_MARGIN (continuous) or modulus below 1 - STABILITY_MARGIN
    (discrete); marginal eigenvalues count as unstable."""
    return stability_margin(sys) > STABILITY_MARGIN


def _sigma_max_grid(sys: StateSpace, n_grid: int, sigma_D: float,
                    rho: float) -> tuple[float, float, int, int, float]:
    """Largest singular value over a [0, pi] theta grid and its theta.

    Returns ``(value, theta, svds, points, theta_lo)``: the first two
    are exactly, bit for bit, what an SVD of G(e^{j theta}) at every one
    of the ``points`` grid thetas would give (the first maximizer in
    theta order), but only ``svds`` of the points pay for an SVD.

    The grid is ``n_grid // 2`` evenly spaced thetas on [0, pi] and as
    many geometrically spaced ones on [theta_lo, pi], where theta_lo =
    max(1e-6, 1e-2 (1 - rho(A))) is set by the slowest pole (Bruinsma &
    Steinbuch, Systems & Control Letters 14, 1990).  For a real system
    sigma_max is even in theta and analytic within about 1 - rho of
    theta = 0, so below theta_lo it stays within about 1e-4 relative of
    its value at theta = 0, which is on the grid.  The bundled loops
    (slowest pole 0.607) start at 3.9e-3, an FIR system at 1e-2.

    Every ``_SCREEN_STRIDE``-th point and the last one seed the maximum
    ``best`` by an SVD.  ``_screen`` passes others only where sigma_max(G)
    < best (1 - 1e-9), so they cannot be the maximizer.  Each point that
    fails gets an SVD of the single-point response, the expression a
    per-point loop would use, so the maximum is the same float.
    ``sigma_D`` is sigma_max(sys.D), for the screen, and ``rho`` the
    spectral radius of sys.A (``_spectral_radius``).
    """
    theta_lo = max(1e-6, 1e-2 * (1.0 - rho))
    thetas = np.unique(np.concatenate([
        np.linspace(0.0, np.pi, n_grid // 2),
        np.geomspace(theta_lo, np.pi, n_grid // 2),
    ]))
    In = np.eye(sys.n_states)
    sigma = np.zeros(thetas.size)  # sigma_max where an SVD was taken

    def svd_at(i: int):
        z = np.exp(1j * thetas[i])
        G = sys.C @ np.linalg.solve(z * In - sys.A, sys.B) + sys.D
        sigma[i] = np.linalg.svd(G, compute_uv=False)[0]

    seeds = np.r_[0:thetas.size - 1:_SCREEN_STRIDE, thetas.size - 1]
    for i in seeds:
        svd_at(i)
    rest = np.setdiff1d(np.arange(thetas.size), seeds)
    passed = _screen(sys, sigma.max() * (1.0 - 1e-9), thetas[rest], sigma_D)
    failed = rest if passed is None else rest[~passed]
    for i in failed:
        svd_at(i)
    k = int(np.argmax(sigma))  # the first maximizer, as a per-point loop's
    return (float(sigma[k]), float(thetas[k]), seeds.size + failed.size,
            thetas.size, theta_lo)


def _screen(sys: StateSpace, beta: float, thetas,
            sigma_D: float) -> np.ndarray | None:
    """True at each theta where a Cholesky factorization of I - T'T
    succeeds, which certifies sigma_max(G) < beta; None unless
    sigma_D = sigma_max(D) <= 0.99 beta (``hinf_norm`` takes it once).
    Loop shifting (Safonov, Limebeer & Chiang, Int. J. Control 50, 1989),
    after transposing a wide G: with Gh, Dh, Ch
    = G, D, C / beta, Phi = I - Dh'Dh = Lp Lp', At = A + B Phi^-1 Dh'Ch and
    M = (I - Dh Dh')^(-1/2) Ch (zI - At)^-1 B Lp^-T, I - M'M = E'(I -
    Gh'Gh) E with E^-1 = Lp^-1 (I - Dh'Gh).  As (I - Dh Dh')^-1 = I + Dh
    Phi^-1 Dh', M = U T V' with U, V isometries and T = Rc (zI - At)^-1 Lb,
    Rc the R factor of [Ch; Lp^-1 Dh'Ch], Lb' that of (B Lp^-T)': I - T'T
    is min(n, p, m) square.  Where I - T'T >= -delta, sigma_max(Gh)^2 <=
    1 + delta (1 + d) / (1 - d), d = sigma_max(Dh) <= 0.99, so rounding
    of T, about cond(zI - At) / (1 - d^2) eps relative, moves sigma_max(G)
    by at most 199 x that, inside the grid's 1e-9 margin while the
    product is well below 1e4 (below 100 on the bundled loops).

    T comes from one complex Schur form At = Q S Q' per screen, T = (Rc
    Q) (zI - S)^-1 (Q' Lb), in place of a solve of zI - At per point
    (Laub, IEEE TAC 26, 1981).  The Schur form, the back-substitution
    and numpy's LU solves for Lp^-1 Dh'Ch and B Lp^-T are backward stable,
    so the rounding of T, and the argument above, are unchanged.
    A chunk of points (``_screen_chunk``) shares each step: a
    back-substitution on zI - S with one product per row of S, one
    product for T, one stacked product for I - T'T and one stacked
    Cholesky factorization, which leaves nan in a factor that fails.
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    if D.shape[0] < D.shape[1]:
        A, B, C, D = A.T, C.T, B.T, D.T
    if not (beta > 0 and sigma_D <= 0.99 * beta):
        return None
    S, W, V = _shifted_schur(A, B, C, D, beta)
    (n, r), q = W.shape, V.shape[0]
    c = _screen_chunk(n, r)
    # buffers every chunk reuses: row i of X holds x_i of (zI - S) X = W
    # for the c points side by side; the c Gram matrices overwrite X and
    # their factors conj(T), as r <= n and r <= q
    X = np.empty((n, c * r), complex)
    T = np.empty((q, c * r), complex)
    Tc = np.empty((q, c * r), complex)
    gram = X.reshape(-1)[:c * r * r].reshape(c, r, r)
    factor = Tc.reshape(-1)[:c * r * r].reshape(c, r, r)
    diagonal = factor.diagonal(axis1=1, axis2=2)
    # per point k, Tt[k] = T_k' and Tcs[k] = conj(T_k)
    Tt = T.reshape(q, c, r).transpose(1, 2, 0)
    Tcs = Tc.reshape(q, c, r).transpose(1, 0, 2)
    inv = np.zeros((n, c), complex)  # 1 / (z - s_ii)
    rows = [(S[i, i + 1:], X[i + 1:], X[i], X[i].reshape(c, r), W[i],
             inv[i][:, None]) for i in reversed(range(n))]
    eigs, Ir = np.diag(S)[:, None], np.eye(r)
    passed = np.zeros(thetas.size, dtype=bool)
    # a z on an eigenvalue of At or an overflow leaves nan in the factor
    with np.errstate(all="ignore"):
        for start in range(0, thetas.size, c):
            z = np.exp(1j * thetas[start:start + c])
            np.divide(1.0, z - eigs, out=inv[:, :z.size])
            for s, x_below, x, x_points, w, inv_points in rows:
                np.matmul(s, x_below, out=x)
                x_points += w
                x_points *= inv_points
            np.matmul(V, X, out=T)
            np.conjugate(T, out=Tc)
            np.matmul(Tt, Tcs, out=gram)  # conj(T'T), Hermitian as T'T
            np.subtract(Ir, gram, out=gram)
            cholesky_lo(gram, out=factor)
            passed[start:start + z.size] = np.isfinite(
                diagonal[:z.size]).all(axis=1)
    return passed


def _screen_chunk(n: int, r: int) -> int:
    """Points per chunk of an order-r screen of an n-state system: as many
    as keep its largest buffer, n x (chunk r) complex, within
    ``_SCREEN_BYTES``, and at least one."""
    return max(1, _SCREEN_BYTES // (16 * n * r))


def _shifted_schur(A, B, C, D, beta: float):
    """(S, W, V) with T = V (zI - S)^-1 W for ``_screen``'s loop-shifted
    response, S upper triangular: W = Q' Lb and V = Rc Q.  numpy's solve
    forms F = Lp^-1 D'C and Bc = B Lp^-T."""
    C, D = C / beta, D / beta
    Lp = np.linalg.cholesky(np.eye(D.shape[1]) - D.T @ D)
    F = np.linalg.solve(Lp, D.T @ C)
    Bc = np.linalg.solve(Lp, B.T).T
    Rc = np.linalg.qr(np.vstack([C, F]), mode="r")
    Lb = np.linalg.qr(Bc.T, mode="r").T
    S, Q = _complex_schur(A + Bc @ F)
    return S, Q.conj().T @ Lb, Rc @ Q


def _has_unit_circle_crossing(sys: StateSpace, gamma: float) -> bool:
    """True when the pencil test finds gamma as a singular value of G(e^{j theta}).

    Builds the extended symplectic pencil of the bounded-real Riccati
    equation with Q = C'C, S = C'D, R = D'D - gamma^2 I and looks for
    generalized eigenvalues within 1e-8 of the unit circle.  In exact
    arithmetic a crossing at level gamma is equivalent to such an
    eigenvalue.  In floating point the test can miss crossings: on a
    loop whose sigma_max(theta) is nearly flat it returns False below
    the peak.  The lifted nominal closed loop at N=16 varies by only
    6e-4 relative over theta, crosses 0.9995 x its peak near theta =
    1.20, 1.37, 1.63 and 2.78 rad, and the closest pencil eigenvalue
    is still 5.5e-3 off the circle.  On that loop's 17-state balanced
    truncation it finds crossings at (1 - 1e-12) x the grid maximum and
    none at (1 + 1e-12) x.  On small well-conditioned systems it finds
    every crossing.
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    n, m = sys.n_states, sys.n_inputs
    # avoid a singular Popov matrix when gamma coincides with sigma(D)
    sv_D = np.linalg.svd(D, compute_uv=False) if D.size else np.zeros(0)
    if sv_D.size and np.min(np.abs(sv_D - gamma)) < 1e-12 * max(1.0, gamma):
        gamma = gamma * (1.0 + 1e-10) + 1e-300
    Q = C.T @ C
    S = C.T @ D
    R = D.T @ D - gamma**2 * np.eye(m)
    Zn = np.zeros((n, n))
    Znm = np.zeros((n, m))
    Zmn = np.zeros((m, n))
    L = np.block([
        [np.eye(n), Zn, Znm],
        [Zn, A.T, Znm],
        [Zmn, -B.T, np.zeros((m, m))],
    ])
    M = np.block([
        [A, Zn, B],
        [-Q, np.eye(n), -S],
        [S.T, Zmn, R],
    ])
    w = _pencil_eigenvalues(M, L)
    alpha, beta = w[0], w[1]
    finite = np.abs(beta) > 1e-12 * np.max(np.abs(beta), initial=1.0)
    lam = alpha[finite] / beta[finite]
    if lam.size == 0:
        return False
    return bool(np.any(np.abs(np.abs(lam) - 1.0) < 1e-8))


def _bisect(lo: float, hi: float, crossing,
            tol: float) -> tuple[float, float]:
    """Halve [lo, hi] until it is at most tol wide; crossing(mid) moves lo."""
    it = 0
    while hi - lo > tol:
        it += 1
        if it > _HINF_MAX_ITER:
            raise RuntimeError(
                "hinf_norm bisection did not converge within "
                f"{_HINF_MAX_ITER} iterations")
        mid = 0.5 * (lo + hi)
        if crossing(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _gramian_factor(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Z with Z Z' = sum_k A^k B B' (A')^k, by the squared Smith iteration.

    Each step doubles the number of terms summed, [Z, A^(2^k) Z], and
    folds the block back to at most n columns by a QR factorization.
    Working on the factor keeps its small singular values accurate to
    about eps x its norm; a square root of the Gramian itself, formed in
    floating point, is accurate only to about sqrt(eps) there.  Raises
    LinAlgError on non-finite values or when A^(2^k) has not fallen
    below 1e-16 after 64 steps (2^64 terms, which only a spectral radius
    of 1 to working precision needs).
    """
    Z, Ak = B, A
    for _ in range(64):
        with np.errstate(over="ignore", invalid="ignore"):
            Z = np.linalg.qr(np.hstack([Z, Ak @ Z]).T, mode="r").T
            Ak = Ak @ Ak
        if not (np.all(np.isfinite(Z)) and np.all(np.isfinite(Ak))):
            raise np.linalg.LinAlgError("Gramian factor is not finite")
        if np.linalg.norm(Ak) < 1e-16:
            return Z
    raise np.linalg.LinAlgError("Gramian series did not converge")


def _balanced_truncation(sys: StateSpace,
                         rho: float) -> tuple[StateSpace, float, float]:
    """Square-root balanced truncation of a stable discrete system.

    Keeps the Hankel singular values above 1e-12 x the largest (Enns
    1984) and returns the reduced system with the bound 2 x (sum of the
    dropped ones) on the H-infinity norm of the error (Al-Saggaf &
    Franklin, IEEE TAC 32, 1987), and the spectral radius of its state
    matrix.  Returns ``sys`` itself, 0.0 and ``rho``, the spectral radius
    of sys.A, when nothing would be cut, when a Gramian factor cannot be
    formed, or when the truncation is not stable.
    """
    try:
        Lp = _gramian_factor(sys.A, sys.B)
        Lq = _gramian_factor(sys.A.T, sys.C.T)
    except np.linalg.LinAlgError:
        return sys, 0.0, rho
    U, hsv, Vt = np.linalg.svd(Lq.T @ Lp)
    r = int(np.count_nonzero(hsv > 1e-12 * hsv[0]))
    if not 0 < r < sys.n_states:
        return sys, 0.0, rho
    scale = 1.0 / np.sqrt(hsv[:r])
    right = (Lp @ Vt[:r].T) * scale             # n x r
    left = (U[:, :r] * scale).T @ Lq.T          # r x n, left @ right = I
    reduced = StateSpace(left @ sys.A @ right, left @ sys.B, sys.C @ right,
                         sys.D, sys.dt)
    rho_reduced = _spectral_radius(reduced.A)
    if not 1.0 - rho_reduced > STABILITY_MARGIN:  # is_stable's test
        return sys, 0.0, rho
    return reduced, float(2.0 * np.sum(hsv[r:])), rho_reduced


def hinf_norm(sys: StateSpace, tol: float = 1e-6) -> float:
    """H-infinity norm of a stable discrete-time system by bisection.

    The grid, the replay and the pencil probe below all run on the
    balanced truncation of ``sys`` (``_balanced_truncation``), and the
    truncation's error bound, twice the sum of the dropped Hankel
    singular values, is added to the result.  The lifted loops carry
    states the input hardly reaches or the output hardly sees: the
    30-state nominal loop at N = 16, 32 or 64 keeps 17, with a bound
    below 1e-13.
    A system with nothing to cut is used as it is.

    The lower bracket is the largest singular value found on a
    ``_HINF_GRID``-point frequency grid: an evaluation, so the norm of
    the truncation is never below it (nor the norm of ``sys`` below it
    minus the bound).  Each bisection probe runs the bounded-real pencil
    test of ``_has_unit_circle_crossing``, so the upper end is only as
    good as that test: where it finds every crossing the result is within
    ``tol`` of the true norm, but on a loop with a flat peak it misses
    crossings below the peak and the bisection never lifts its lower
    bracket off the grid maximum, which then sets the result.

    The grid's geometric half starts at 1e-2 x the slowest pole's
    distance from the unit circle (theta 3.9e-3 on the bundled loops),
    below which sigma_max stays within about 1e-4 relative of its value
    at theta = 0.  The grid maximum is bitwise the one an SVD at every
    grid point gives, but ``_sigma_max_grid`` takes an SVD only at 9
    seeds and where the Cholesky test of a loop-shifted response, run
    once at the seeds' maximum, fails (``_screen``, 17 x 17 on the
    nominal loops, where it leaves 9 of 511 points to the SVD at N = 16
    to 128).  The screen evaluates that response through one Schur form
    of its state matrix (Laub, IEEE TAC 26, 1981) instead of a solve per
    point.  A point it passes can never be the maximizer.  The DEBUG
    line gives the grid's start, the SVD count, the screen's order and
    failures, and the pencil eigensolves.

    Above the grid maximum a level is crossed exactly when it lies below
    the norm (Boyd & Balakrishnan, Systems & Control Letters 15, 1990).
    So the bisection's path of all "no crossing" answers is replayed in
    floats and settled by one probe at its lowest level; only when that
    probe finds a crossing does the full bisection run.  Both ways return
    the same float.
    """
    if not sys.is_discrete:
        raise ValueError("hinf_norm is implemented for discrete-time systems")
    rho = _spectral_radius(sys.A)
    if not 1.0 - rho > STABILITY_MARGIN:  # is_stable's test
        raise ValueError("hinf_norm requires a stable system")
    return _hinf_norm(sys, tol, rho)


def _hinf_norm(sys: StateSpace, tol: float, rho: float) -> float:
    """``hinf_norm`` of a discrete system already found stable, whose
    state matrix has spectral radius ``rho`` (``_spectral_radius``): each
    state matrix's spectrum is solved once per norm."""
    if sys.n_inputs == 0 or sys.n_outputs == 0:
        return 0.0
    sv_D = np.linalg.svd(sys.D, compute_uv=False)[0] if sys.D.size else 0.0
    if sys.n_states == 0:
        return float(sv_D)
    if not (sys.B.any() and sys.C.any()):
        return float(sv_D)

    n_full = sys.n_states
    sys, tail, rho = _balanced_truncation(sys, rho)
    grid_max, theta_max, svds, points, theta_lo = _sigma_max_grid(
        sys, _HINF_GRID, sv_D, rho)
    lo = max(grid_max, sv_D * (1.0 + 1e-12))
    if lo == 0.0:
        return tail
    hi = lo * 10.0 + sv_D + 1.0
    probes = 0

    def crossing(level: float) -> bool:
        nonlocal probes
        probes += 1
        return _has_unit_circle_crossing(sys, level)

    _, top = _bisect(lo, hi, lambda level: False, tol)
    if not crossing(top):
        hi = top
    else:
        # widen if the initial upper bracket is still attained somewhere
        grow = 0
        while crossing(hi) and grow < 40:
            hi *= 10.0
            grow += 1
        lo, hi = _bisect(lo, hi, crossing, tol)
    seeds = len(range(0, points - 1, _SCREEN_STRIDE)) + 1
    r = min(sys.n_states, sys.n_inputs, sys.n_outputs)
    logger.debug(
        "hinf_norm: %d states -> %d (tail %.2g), grid from theta %.3g, "
        "grid max %.10g at theta %.6g, %d of %d grid points by SVD (%d "
        "seeds, %s), bracket [%.10g, %.10g], %d pencil eigensolves",
        n_full, sys.n_states, tail, theta_lo, grid_max, theta_max, svds,
        points, seeds, f"{svds - seeds} failed the order-{r} screen"
        if svds < points else "no screen passed a point", lo, hi, probes,
    )
    return float(max(0.5 * (lo + hi), lo) + tail)

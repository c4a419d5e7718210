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

A system is

    continuous:  dx/dt = A x + B u,   y = C x + D u
    discrete:    x[k+1] = A x[k] + B u[k],   y[k] = C x[k] + D u[k]

with ``dt is None`` marking continuous time and ``dt > 0`` the sampling
period of a discrete system.  Values are immutable after construction and
safe to share across threads.
"""

from __future__ import annotations

import logging
from contextlib import suppress
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eig as geig
from scipy.linalg import expm, solve_triangular
from scipy.linalg.blas import zherk
from scipy.linalg.lapack import zpotrf

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

# Points of the theta grid that gives hinf_norm its lower bracket.
_HINF_GRID = 512
# _sigma_max_grid takes an SVD at every _SCREEN_STRIDE-th grid point and
# screens the rest by a Cholesky test of order min(n, p, m), _SCREEN_CHUNK
# points per stacked solve; from N = 64 on the p x m seed SVDs cost more.
_SCREEN_STRIDE = 64
_SCREEN_CHUNK = 8

logger = logging.getLogger(__name__)


def _as_matrix(M) -> np.ndarray:
    return np.atleast_2d(np.asarray(M, dtype=float))


@dataclass(frozen=True)
class StateSpace:
    """Dense real state-space system.

    Parameters
    ----------
    A, B, C, D : array_like
        System matrices.  A must be square (n x n), B is n x m, C is
        p x n and D is p x m.  Empty A/B/C are allowed for static systems
        (n = 0), in which case the system is just the gain D.
    dt : float or None
        None for continuous time, sampling period in seconds otherwise.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    dt: float | None = None

    def __post_init__(self):
        A = _as_matrix(self.A)
        if A.size == 0:
            A = A.reshape(0, 0)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got {A.shape}")
        n = A.shape[0]
        B = _as_matrix(self.B)
        if B.size == 0:
            B = B.reshape(n, B.shape[1] if B.ndim == 2 and n == 0 else 0)
        if B.shape[0] != n:
            raise ValueError(f"B has {B.shape[0]} rows, expected {n}")
        C = _as_matrix(self.C)
        if C.size == 0:
            C = C.reshape(C.shape[0] if n == 0 else 0, n)
        if C.shape[1] != n:
            raise ValueError(f"C has {C.shape[1]} columns, expected {n}")
        D = _as_matrix(self.D)
        p, m = D.shape
        if C.shape[0] not in (0, p) or B.shape[1] not in (0, m):
            raise ValueError(
                f"dimension mismatch: D is {D.shape}, C has {C.shape[0]} rows, "
                f"B has {B.shape[1]} columns"
            )
        if C.shape[0] == 0 and p > 0:
            C = np.zeros((p, n))
        if B.shape[1] == 0 and m > 0:
            B = np.zeros((n, m))
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be positive for a discrete system")
        for name, M in (("A", A), ("B", B), ("C", C), ("D", D)):
            if not np.all(np.isfinite(M)):
                raise ValueError(f"non-finite entries in {name}")
            M.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

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
        D = _as_matrix(D)
        p, m = D.shape
        return StateSpace(np.zeros((0, 0)), np.zeros((0, m)), np.zeros((p, 0)), D, dt)

    def __repr__(self):
        kind = "continuous" if self.dt is None else f"discrete(dt={self.dt})"
        return (
            f"StateSpace({kind}, n={self.n_states}, "
            f"inputs={self.n_inputs}, outputs={self.n_outputs})"
        )


def from_tf(num, den, dt: float | None = None) -> StateSpace:
    """SISO transfer function (descending coefficients) to state space.

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
        return StateSpace.static(num.reshape(1, 1), dt)
    num = np.concatenate([np.zeros(den.size - num.size), num])
    A = np.vstack([-den[1:], np.eye(n - 1, n)])
    C = (num[1:] - num[0] * den[1:]).reshape(1, n)
    return StateSpace(A, np.eye(n, 1), C, num[:1].reshape(1, 1), dt)


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
    E = expm(M * T)
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
    Ak, Bk, Ck, Dk = K.A, K.B, K.C, K.D

    loop = np.eye(n_u) - Dk @ D22
    cond = np.linalg.cond(loop)
    if not np.isfinite(cond) or cond > 1e12:
        raise np.linalg.LinAlgError(
            "singular algebraic loop: I - D22*Dk is not invertible")
    Y = np.linalg.solve(loop, np.eye(n_u))  # (I - Dk D22)^-1

    # u = Y (Ck xk + Dk C2 x + Dk D21 w)
    u_x = Y @ Dk @ C2
    u_xk = Y @ Ck
    u_w = Y @ Dk @ D21
    # y = C2 x + D21 w + D22 u
    y_x = C2 + D22 @ u_x
    y_xk = D22 @ u_xk
    y_w = D21 + D22 @ u_w

    n, nk = plant.n_states, K.n_states
    Acl = np.block([
        [A + B2 @ u_x, B2 @ u_xk],
        [Bk @ y_x, Ak + Bk @ y_xk],
    ]) if n + nk else np.zeros((0, 0))
    Bcl = np.vstack([B1 + B2 @ u_w, Bk @ y_w])
    Ccl = np.hstack([C1 + D12 @ u_x, D12 @ u_xk])
    Dcl = D11 + D12 @ u_w
    return StateSpace(Acl, Bcl, Ccl, Dcl, plant.dt)


def _eigenvalues(sys: StateSpace) -> np.ndarray:
    if sys.n_states == 0:
        return np.zeros(0, dtype=complex)
    return np.linalg.eigvals(sys.A)


def stability_margin(sys: StateSpace) -> float:
    """Distance of the spectrum to the stability boundary (>0 means stable)."""
    lam = _eigenvalues(sys)
    if lam.size == 0:
        return np.inf
    if sys.is_discrete:
        return float(1.0 - np.max(np.abs(lam)))
    return float(-np.max(lam.real))


def is_stable(sys: StateSpace, margin: float = STABILITY_MARGIN) -> bool:
    """Spectral stability test with a conservative boundary margin.

    Continuous systems must have all eigenvalues with real part below
    -margin, discrete systems all eigenvalue moduli below 1 - margin;
    marginal eigenvalues count as unstable.
    """
    return stability_margin(sys) > margin


def _sigma_max_grid(sys: StateSpace, n_grid: int,
                    sigma_D: float) -> tuple[float, float, int, int, float]:
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
    < best (1 - 1e-9), so they cannot be the maximizer; the rest get an
    SVD of the single-point response, the expression a per-point loop
    would use, so the maximum is the same float.  ``sigma_D`` is
    sigma_max(sys.D), for the screen.
    """
    rho = float(np.max(np.abs(_eigenvalues(sys)), initial=0.0))
    theta_lo = max(1e-6, 1e-2 * (1.0 - rho))
    thetas = np.unique(np.concatenate([
        np.linspace(0.0, np.pi, n_grid // 2),
        np.geomspace(theta_lo, np.pi, n_grid // 2),
    ]))
    In = np.eye(sys.n_states)
    exact = {}

    def svd_at(i: int) -> float:
        z = np.exp(1j * thetas[i])
        G = sys.C @ np.linalg.solve(z * In - sys.A, sys.B) + sys.D
        exact[i] = s = np.linalg.svd(G, compute_uv=False)[0]
        return s

    seeds = np.r_[0:thetas.size - 1:_SCREEN_STRIDE, thetas.size - 1]
    best = max(svd_at(i) for i in seeds)
    rest = np.setdiff1d(np.arange(thetas.size), seeds)
    passed = _screen(sys, best * (1.0 - 1e-9), thetas[rest], sigma_D)
    for i in rest if passed is None else rest[~passed]:
        svd_at(i)
    # the per-point loop's walk: a strict > keeps the first maximizer
    best, theta_best = 0.0, 0.0
    for i in sorted(exact):
        if exact[i] > best:
            best, theta_best = float(exact[i]), float(thetas[i])
    return best, theta_best, len(exact), thetas.size, theta_lo


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
    """
    A, B, C, D = sys.A, sys.B, sys.C, sys.D
    if D.shape[0] < D.shape[1]:
        A, B, C, D = A.T, C.T, B.T, D.T
    if not (beta > 0 and sigma_D <= 0.99 * beta):
        return None
    C, D = C / beta, D / beta
    Lp = np.linalg.cholesky(np.eye(D.shape[1]) - D.T @ D)
    F = solve_triangular(Lp, D.T @ C, lower=True)
    Bc = solve_triangular(Lp, B.T, lower=True).T
    Rc = np.linalg.qr(np.vstack([C, F]), mode="r")
    Lb = np.linalg.qr(Bc.T, mode="r").T
    At, In, Ir = A + Bc @ F, np.eye(A.shape[0]), np.eye(Lb.shape[1])
    passed = np.zeros(thetas.size, dtype=bool)
    for start in range(0, thetas.size, _SCREEN_CHUNK):
        z = np.exp(1j * thetas[start:start + _SCREEN_CHUNK])[:, None, None]
        # the solve raises where a z is an eigenvalue of At: no pass
        with np.errstate(all="ignore"), suppress(np.linalg.LinAlgError):
            T = Rc @ np.linalg.solve(z * In - At, Lb)
            for k, t in enumerate(T, start):
                # on the Fortran-ordered view t.T this is I - conj(T'T)
                gap = zherk(-1.0, t.T, 1.0, Ir, lower=1)
                L, info = zpotrf(gap, lower=1, clean=0, overwrite_a=1)
                # overflow's nan entries pass zpotrf but reach L's diagonal
                passed[k] = not info and np.isfinite(L.diagonal()).all()
    return passed


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
    w = geig(M, L, right=False, homogeneous_eigvals=True)
    alpha, beta = w[0], w[1]
    finite = np.abs(beta) > 1e-12 * np.max(np.abs(beta), initial=1.0)
    lam = alpha[finite] / beta[finite]
    if lam.size == 0:
        return False
    return bool(np.any(np.abs(np.abs(lam) - 1.0) < 1e-8))


def _bisect(lo: float, hi: float, crossing, tol: float,
            max_iter: int) -> tuple[float, float]:
    """Halve [lo, hi] until it is at most tol wide; crossing(mid) moves lo."""
    it = 0
    while hi - lo > tol:
        it += 1
        if it > max_iter:
            raise RuntimeError(
                f"hinf_norm bisection did not converge within {max_iter} iterations"
            )
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


def _balanced_truncation(sys: StateSpace) -> tuple[StateSpace, float]:
    """Square-root balanced truncation of a stable discrete system.

    Keeps the Hankel singular values above 1e-12 x the largest (Enns
    1984) and returns the reduced system with the bound 2 x (sum of the
    dropped ones) on the H-infinity norm of the error (Al-Saggaf &
    Franklin, IEEE TAC 32, 1987).  Returns ``sys`` itself and 0.0 when
    nothing would be cut, when a Gramian factor cannot be formed, or
    when the truncation is not stable.
    """
    try:
        Lp = _gramian_factor(sys.A, sys.B)
        Lq = _gramian_factor(sys.A.T, sys.C.T)
    except np.linalg.LinAlgError:
        return sys, 0.0
    U, hsv, Vt = np.linalg.svd(Lq.T @ Lp)
    r = int(np.count_nonzero(hsv > 1e-12 * hsv[0]))
    if not 0 < r < sys.n_states:
        return sys, 0.0
    scale = 1.0 / np.sqrt(hsv[:r])
    right = (Lp @ Vt[:r].T) * scale             # n x r
    left = (U[:, :r] * scale).T @ Lq.T          # r x n, left @ right = I
    reduced = StateSpace(left @ sys.A @ right, left @ sys.B, sys.C @ right,
                         sys.D, sys.dt)
    if not is_stable(reduced):
        return sys, 0.0
    return reduced, float(2.0 * np.sum(hsv[r:]))


def hinf_norm(sys: StateSpace, tol: float = 1e-6,
              max_iter: int = 200) -> float:
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
    seeds and where the Cholesky test of a loop-shifted response fails
    (``_screen``, 17 x 17 on the nominal loops, where it leaves 9 of 511
    points to the SVD at N = 16 to 128).  A point it passes can never be
    the maximizer.  The DEBUG line gives the grid's start, the SVD count,
    the screen's order and failures, and the pencil eigensolves.

    Above the grid maximum a level is crossed exactly when it lies below
    the norm (Boyd & Balakrishnan, Systems & Control Letters 15, 1990).
    So the bisection's path of all "no crossing" answers is replayed in
    floats and settled by one probe at its lowest level; only when that
    probe finds a crossing does the full bisection run.  Both ways return
    the same float.
    """
    if not sys.is_discrete:
        raise ValueError("hinf_norm is implemented for discrete-time systems")
    if not is_stable(sys):
        raise ValueError("hinf_norm requires a stable system")
    if sys.n_inputs == 0 or sys.n_outputs == 0:
        return 0.0
    sv_D = np.linalg.svd(sys.D, compute_uv=False)[0] if sys.D.size else 0.0
    if sys.n_states == 0:
        return float(sv_D)
    if not (sys.B.any() and sys.C.any()):
        return float(sv_D)

    n_full = sys.n_states
    sys, tail = _balanced_truncation(sys)
    grid_max, theta_max, svds, points, theta_lo = _sigma_max_grid(
        sys, _HINF_GRID, sv_D)
    lo = max(grid_max, sv_D * (1.0 + 1e-12))
    if lo == 0.0:
        return tail
    hi = lo * 10.0 + sv_D + 1.0
    probes = 0

    def crossing(level: float) -> bool:
        nonlocal probes
        probes += 1
        return _has_unit_circle_crossing(sys, level)

    _, top = _bisect(lo, hi, lambda level: False, tol, max_iter)
    if not crossing(top):
        hi = top
    else:
        # widen if the initial upper bracket is still attained somewhere
        grow = 0
        while crossing(hi) and grow < 40:
            hi *= 10.0
            grow += 1
        lo, hi = _bisect(lo, hi, crossing, tol, max_iter)
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

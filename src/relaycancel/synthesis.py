"""Digital canceler synthesis on the lifted plant.

Every block of the relay plant is stable, so the set of all stabilizing
controllers is parametrized by a stable Q through

    K = Q (I + G22 Q)^{-1},

the lower LFT of the two-port [y, u] -> [u, y - G22 u] closed through Q
(``controller_from_q``, by ``lti.interconnect``), which turns each
closed-loop map into an affine function of Q:

    T(Q) = T1 + T2 Q T3,     T1 = G11, T2 = G12, T3 = G21

per channel.  One function, ``_affine_blocks``, gives every channel's
T1, T2 and T3 at any set of frequencies from one batched resolvent
solve of the lifted plant, at the ports ``LiftedPlant`` records (the
layout of a lift is ``lifting``'s alone).  The oracle factorization and
the fingerprint walk the design grid with it a block of points at a time,
and each cut evaluates it at its own points, so a design never holds
the whole T1 grid (2N x 2N per point, 4 MB on the nominal_60db grid)
and keeps no T2 or T3 grid either.  Restricting Q to an FIR filter of
length n_q makes the worst-case-gain objective convex in the Q
coefficients.  The minimax
design is solved by a cutting-plane method on a logarithmic frequency
grid (largest-singular-value constraints are approximated from below by
linear cuts generated from singular vectors, and each LP relaxation is
one direct call, ``linprog``, into the HiGHS dual simplex that scipy
bundles).  The grid maximum of sigma_max(T(Q)) that each candidate Q
is scored by comes from a secular equation, not an SVD:
T2 Q T3 has rank 2, so after a Q-independent factorization per grid
point (``_prepare_oracle``) sigma_max^2 is the largest root of
det(I - W (lambda - Lam)^{-1} W^H) = 0 with a 2 x 2N matrix W affine in
Q.  That is an exact characterization of the largest eigenvalue of
diag(Lam) + W^H W, so the oracle differs from the SVD by rounding only
(``_channel_gains``).  The achieved norms come from the one closed-loop
certificate, ``lifting.closed_loop_norms``: the bisection norm of each
channel, which is what the returned gamma values report; ``lti.hinf_norm``
says what its lower and upper ends rest on.

The nominal objective holds no coupling term (T1 = W, T2 = -P, T3 = F W
in the stable-plant form), so its FIR parameter Q* fits every plant whose
affine grid responses are bitwise equal.  A nominal design records Q* in
its meta with the SHA-256 of those responses, and ``synthesize_nominal``
wraps it around another plant's G22 when given that design as ``reuse=``.

The robust design adds the uncertainty channel as a hard constraint
(grid gain of T_z2w2 at most 1 - margin, followed by the bisection-norm
check at 1); if that check fails the margin is increased and the
solve repeats, up to three attempts.
"""

from __future__ import annotations

import hashlib
import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .lti import (
    STABILITY_MARGIN,
    StateSpace,
    _closed_loop_a,
    _controller_side,
    _from_record,
    _record,
    _scipy_extension,
    _spectral_margins,
    interconnect,
    is_stable,
    subsystem,
)
from .lifting import (
    LiftedPlant,
    closed_loop_norms,
    fsfh_lift,
    lift_core,
)
from .relay import (
    CouplingChannel,
    GeneralizedPlantSpec,
    assemble_plant_core,
    build_perturbed_plant,
)

__all__ = [
    "Controller",
    "SynthesisError",
    "build_robust_plant",
    "synthesize_nominal",
    "synthesize_robust",
    "verify_design",
    "robust_stability_sweep",
    "fir_system",
    "controller_from_q",
]

logger = logging.getLogger(__name__)


@dataclass
class LPResult:
    """A ``linprog`` solution (``x`` is None unless optimal), with the
    ``HighsModelStatus`` value, its name and the simplex iterations."""

    x: np.ndarray | None
    success: bool
    status: int
    message: str
    nit: int


_HIGHS_CORE = "scipy.optimize._highspy._core"


def linprog(c, A_ub, b_ub, bounds) -> LPResult:
    """min c x  s.t.  A_ub x <= b_ub, bounds, by HiGHS's dual simplex.

    One fresh ``_Highs`` per call, given the model and options that
    scipy's own ``linprog(..., method="highs")`` passes it (column-wise,
    exact zeros dropped, presolve on, console output off), so ``x`` is
    bitwise scipy's, without its input cleaning, sparse conversion and
    result post-processing.  ``bounds`` holds one (lower, upper) pair per
    variable, ``None`` for no bound; non-finite c, A_ub or b_ub raise
    ``ValueError``.  The bindings, scipy's HiGHS extension module, are
    loaded at the first call (only a design solves LPs) by
    ``lti._scipy_extension``, without ``scipy.optimize``: importing that
    would run its ``__init__.py``, which loads about 240 modules the
    package never calls (sparse, spatial, special, fft), 19 MB of
    resident memory with scipy 1.17 against 2.5 MB for the extension.  A
    later ``import scipy.optimize`` reuses the module (pybind11 registers
    its types once per process).
    """
    core = _scipy_extension(_HIGHS_CORE)
    kHighsInf = core.kHighsInf

    c, A_ub, b_ub = (np.asarray(a, dtype=float) for a in (c, A_ub, b_ub))
    # HiGHS would load a NaN and report the model optimal
    if not all(np.isfinite(a).all() for a in (c, A_ub, b_ub)):
        raise ValueError("LP data must be finite")
    (n_rows, n_cols), At = A_ub.shape, A_ub.T
    # column-wise pattern; exact zeros are dropped, as csc_array drops them
    nonzero = At != 0
    a_start = np.zeros(n_cols + 1, dtype=np.int32)
    np.cumsum(nonzero.sum(axis=1), out=a_start[1:])
    lb = np.array([-kHighsInf if lo is None else lo for lo, _ in bounds],
                  dtype=float)
    ub = np.array([kHighsInf if hi is None else hi for _, hi in bounds],
                  dtype=float)

    highs = core._Highs()
    for option, value in (("output_flag", False), ("log_to_console", False),
                          ("presolve", "on"), ("simplex_strategy", 1)):
        highs.setOptionValue(option, value)
    # (format 1, sense 1, offset 0) = (kColwise, kMinimize, no offset); an
    # all-continuous integrality array, since an empty one is a load error
    loaded = highs.passModel(
        n_cols, n_rows, int(a_start[-1]), 1, 1, 0.0, c, lb, ub,
        np.full(n_rows, -kHighsInf), b_ub, a_start,
        np.nonzero(nonzero)[1].astype(np.int32), At[nonzero],
        np.zeros(n_cols, dtype=np.int32))
    if loaded != core.HighsStatus.kError:  # else the status stays "Not Set"
        highs.run()
    status = highs.getModelStatus()
    success = status == core.HighsModelStatus.kOptimal
    return LPResult(
        x=np.array(highs.getSolution().col_value) if success else None,
        success=bool(success), status=int(status),
        message=highs.modelStatusToString(status),
        nit=int(highs.getInfo().simplex_iteration_count))


class SynthesisError(RuntimeError):
    """Raised when no controller satisfying the constraints is found."""


@dataclass(frozen=True)
class Controller:
    """Synthesized digital canceler with its achieved norms.

    method decides the design kind: "nominal_hinf", whose gamma_achieved
    is a float, or "robust_qparam", whose gamma_achieved is a dict with
    keys gamma1 (performance) and gamma2 (uncertainty channel) and whose
    meta records the design's N and W2 for ``verify_design``.  The
    controller itself need not be stable, only the closed loop; its own
    stability is recorded in meta["controller_stable"].  A nominal design
    records its FIR parameter in meta["q"], so it can be passed to
    ``synthesize_nominal`` as ``reuse=`` for another plant.
    """

    sys: StateSpace
    gamma_achieved: object
    method: str
    meta: dict = field(default_factory=dict)


def build_robust_plant(spec: GeneralizedPlantSpec, W2: StateSpace,
                       N: int) -> LiftedPlant:
    """Lift the two-channel robust design plant at fast-rate factor N.

    Inputs are [w1 stack, w2 stack, u], outputs [z1 stack, z2 stack, y];
    each stack has width 2N.  The plant keeps W2, which a robust design
    records so that it can be re-verified.
    """
    lp = lift_core(assemble_plant_core(spec, W2=W2), N, spec.h)
    return replace(lp, W2=W2)


# ---------------------------------------------------------------------------
# FIR Q realization and the Youla controller


def fir_system(coeffs: np.ndarray, h: float) -> StateSpace:
    """State-space realization of the 2x2 FIR filter sum_m Q_m z^-m."""
    coeffs = np.asarray(coeffs, dtype=float)
    n_q = coeffs.shape[0]
    if n_q == 1:
        return StateSpace.static(coeffs[0], dt=h)
    n = 2 * (n_q - 1)
    A = np.zeros((n, n))
    for m in range(1, n_q - 1):
        A[2 * m:2 * m + 2, 2 * (m - 1):2 * m] = np.eye(2)
    B = np.zeros((n, 2))
    B[:2, :] = np.eye(2)
    C = np.hstack([coeffs[m] for m in range(1, n_q)])
    D = coeffs[0]
    return StateSpace(A, B, C, D, dt=h)


def controller_from_q(coeffs: np.ndarray, G22: StateSpace) -> StateSpace:
    """K = Q (I + G22 Q)^{-1} for the FIR Q of ``coeffs``: the lower LFT
    of the two-port [y, u] -> [u, y - G22 u] closed by Q."""
    n, n_y, n_u = G22.n_states, G22.n_outputs, G22.n_inputs
    two_port = StateSpace(
        G22.A,
        np.hstack([np.zeros((n, n_y)), G22.B]),
        np.vstack([np.zeros((n_u, n)), -G22.C]),
        np.block([[np.zeros((n_u, n_y)), np.eye(n_u)],
                  [np.eye(n_y), -G22.D]]),
        dt=G22.dt,
    )
    return interconnect(two_port, fir_system(coeffs, G22.dt),
                        partition=(n_y, n_u))


# ---------------------------------------------------------------------------
# Affine closed-loop maps on the design grid


# grid points per call of ``_affine_blocks`` when the whole design grid
# is walked (``_prepare_channels``, ``_fingerprint``): T1 is 0.5 MB per
# block at 2N = 32, and the stacked factorization of a block holds up to
# five T1-sized arrays at once; the per-call cost of the solve, products
# and LAPACK calls is shared by the block
_T1_BLOCK = 32


def _affine_blocks(lp: LiftedPlant, omegas) -> list:
    """(T1, T2, T3) of every channel's affine map T(Q) = T1 + T2 Q T3 at
    the frequencies ``omegas``, each stacked along them, one channel per
    (w_k, z_k) pair of ``lp.channel_indices()``: T1 is w_k -> z_k, T2 is
    u -> z_k and T3 is w_k -> y, each a block of the lifted plant.

    All are blocks of one lifted plant, so one batched resolvent solve
    (zI - A) X = B[:, w stacks and u] serves them all; every block is
    bitwise the one a solve at its frequency alone gives.
    """
    u_cols, y_rows = lp.u_cols, lp.y_rows
    stacks = lp.channel_indices()
    sys = lp.sys
    z = np.exp(1j * np.asarray(omegas) * sys.dt)
    X = np.linalg.solve(z[:, None, None] * np.eye(sys.n_states) - sys.A,
                        sys.B[:, np.concatenate(stacks + [u_cols])])
    X_u, n = X[..., -u_cols.size:], stacks[0].size
    out = []
    for k, idx in enumerate(stacks):
        X_k = X[..., k * n:(k + 1) * n]
        out.append((sys.C[idx] @ X_k + sys.D[np.ix_(idx, idx)],
                    sys.C[idx] @ X_u + sys.D[np.ix_(idx, u_cols)],
                    sys.C[y_rows] @ X_k + sys.D[np.ix_(y_rows, idx)]))
    return out


# ---------------------------------------------------------------------------
# The sigma_max oracle: a rank-2 secular equation per grid point

# Newton steps on the secular equation reach the ulp level in two to
# eight iterations over a whole grid and then stall at 2-5e-16 of
# sigma_max^2 (a 4e-16 stop ran into the cap in 11 of 20 calls on the
# nominal_60db grid), so the stop is at 1e-14 relative; the cap only
# guards against a stall above that.
_SECULAR_RTOL = 1e-14
_SECULAR_MAX_ITER = 50


def _prepare_oracle(T1: np.ndarray, T2: np.ndarray, T3: np.ndarray) -> dict:
    """The Q-independent factors of ``_channel_gains`` for the stacked
    affine factors T1, T2, T3 of one channel.

    At each grid point, full QRs T2 = U [R2; 0] and T3^H = V [S3^H; 0]
    make U^H T(Q) V equal to U^H T1 V with R2 Q S3 added to its top-left
    2x2 block, so only its top two rows depend on Q.  With Lam, V_G the
    eigendecomposition of the Gram matrix of the other 2N - 2 rows,

        sigma_max(T(Q))^2 = lambda_max(diag(Lam) + W^H W),
        W = W0 + R2 Q E,  W0 = (top two rows) V_G,  E = S3 V_G[:2],

    exactly.  Kept per point: R2, W0, E, Lam's largest value and the gaps
    from it down to every Lam_i.  Lam is clipped at 0 (a Gram matrix is
    PSD; its rounding is not).  All points are factored at once by stacked
    qr, eigh and products, each bitwise the call at one point alone.
    """
    U, R = np.linalg.qr(T2, mode="complete")
    V, S = np.linalg.qr(T3.conj().mT, mode="complete")
    M = U.conj().mT @ T1 @ V
    del U, V  # before the Gram matrix and V_G take their place
    lam, V_G = np.linalg.eigh(M[:, 2:].conj().mT @ M[:, 2:])
    lam = np.maximum(lam, 0.0)
    R2 = R[:, :2]
    W0 = M[:, :2] @ V_G
    E = S[:, :2].conj().mT @ V_G[:, :2]
    lam_max = lam.max(axis=1)
    return {"R2": R2, "W0": W0, "E": E, "lam_max": lam_max,
            "gap": lam_max[:, None] - lam}


def _prepare_channels(lp: LiftedPlant, omegas: np.ndarray) -> list:
    """Every channel's ``_prepare_oracle`` factors on the grid ``omegas``,
    with "blocks", the function that gives its (T1, T2, T3) at the grid
    points indexed, for the cuts.  The grid is walked ``_T1_BLOCK``
    points at a time and only the factors are kept, so no (grid, 2N, 2N)
    T1 is held."""
    parts = [[] for _ in lp.channel_indices()]
    for k0 in range(0, len(omegas), _T1_BLOCK):
        blocks = _affine_blocks(lp, omegas[k0:k0 + _T1_BLOCK])
        for part, (T1, T2, T3) in zip(parts, blocks):
            part.append(_prepare_oracle(T1, T2, T3))
    return [{**{key: np.concatenate([p[key] for p in part])
                for key in part[0]},
             "blocks": lambda ks, k=k: _affine_blocks(lp, omegas[ks])[k]}
            for k, part in enumerate(parts)]


def _channel_gains(ch: dict, Qz: np.ndarray) -> np.ndarray:
    """sigma_max(T1 + T2 Q(z) T3) at every grid point of a channel from
    ``_prepare_oracle``.

    Shifting by Lam_max, t = sigma_max^2 - Lam_max is the largest root of
    mu(t) = 1, where mu(t) is the larger eigenvalue of the Hermitian 2x2
    matrix sum_i w_i w_i^H / (t + gap_i) and w_i is column i of W.  That
    is det(I - W (t + gap)^{-1} W^H) = 0, the secular equation of the
    rank-2 update diag(Lam) + W^H W (Golub 1973; Bunch, Nielsen &
    Sorensen 1978), so the root is the exact sigma_max^2 and the only
    error is rounding.  1/mu is concave in t (the minimum over unit x of
    harmonic sums of linear functions), so Newton on 1/mu - 1 never steps
    past the root from below, and one step from the upper end lands
    below it.  Every iterate stays in [t_lo, t_hi]: t_lo =
    max(0, max_i(||w_i||^2 - gap_i)) is the Rayleigh quotient bound
    max(Lam_max, max_i(Lam_i + ||w_i||^2)) and t_hi = ||W||_F^2.  W = 0
    (as on the uncertainty channel at Q = 0, where T1 = 0) gives
    t = 0, that is sqrt(Lam_max).
    """
    W = ch["W0"] + ch["R2"] @ Qz @ ch["E"]
    p00 = W[:, 0].real ** 2 + W[:, 0].imag ** 2
    p11 = W[:, 1].real ** 2 + W[:, 1].imag ** 2
    p01 = W[:, 0] * W[:, 1].conj()
    gap, lam_max = ch["gap"], ch["lam_max"]
    col = p00 + p11
    t_lo = np.maximum(np.max(col - gap, axis=1), 0.0)
    t_hi = np.sum(col, axis=1)

    def newton_step(t):
        denom = t[:, None] + gap
        # a zero denominator only meets an exactly zero w_i (else
        # t >= ||w_i||^2 > 0); that term of the sum is zero
        d = 1.0 / np.where(denom > 0.0, denom, np.inf)
        d2 = d * d
        a, c, b = (np.einsum("ki,ki->k", p, d) for p in (p00, p11, p01))
        da, dc, db = (np.einsum("ki,ki->k", p, d2) for p in (p00, p11, p01))
        mu = 0.5 * (a + c) + np.hypot(0.5 * (a - c), np.abs(b))
        # top eigenvector x of [[a, b], [conj(b), c]]; when mu is double
        # any x will do: its slope is at least -mu' from the right, which
        # only shortens a step from below
        x1 = np.where(a >= c, mu - c, b)
        x2 = np.where(a >= c, b.conj(), mu - a)
        nx = np.abs(x1) ** 2 + np.abs(x2) ** 2
        x1 = np.where(nx > 0.0, x1, 1.0)
        nx = np.where(nx > 0.0, nx, 1.0)
        slope = (da * np.abs(x1) ** 2 + dc * np.abs(x2) ** 2
                 + 2.0 * np.real(x1.conj() * db * x2)) / nx  # -mu'
        return np.divide(mu * (mu - 1.0), slope, out=np.zeros_like(mu),
                         where=slope > 0.0)

    t = np.clip(t_hi + newton_step(t_hi), t_lo, t_hi)
    for _ in range(_SECULAR_MAX_ITER):
        t_new = np.clip(t + newton_step(t), t_lo, t_hi)
        done = np.all(np.abs(t_new - t) <= _SECULAR_RTOL * (lam_max + t_new))
        t = t_new
        if done:
            break
    return np.sqrt(lam_max + t)


# ---------------------------------------------------------------------------
# Cutting-plane minimax solver


def _q_response(zinv_pow: np.ndarray, Q: np.ndarray) -> np.ndarray:
    # zinv_pow: (n_freq, n_q), Q: (n_q, 2, 2) -> (n_freq, 2, 2)
    return np.einsum("km,mij->kij", zinv_pow, Q)


def _cut_rows(ch: dict, zinv_pow: np.ndarray, ks: np.ndarray,
              Qz: np.ndarray):
    """Linear lower bounds on sigma_max at grid points ks.

    With (u, v) the top singular pair of T(Q) at grid point k,
    Re(u^H T(Q') v) <= sigma_max(T(Q')) for every Q', with equality at
    the generating Q.  Returns (coefficients, constants), one row per
    point; T1, T2 and T3 are evaluated at those points only.  T(Q), its
    singular pairs and the rows come from stacked products and one
    stacked SVD, bitwise what each point alone gives.
    """
    T1, T2, T3 = ch["blocks"](ks)
    U, _, Vh = np.linalg.svd(T1 + T2 @ Qz[ks] @ T3)
    u, v = U[:, :, :1], Vh[:, :1].conj().mT  # (len(ks), 2N, 1) each
    c0 = np.real(u.conj().mT @ T1 @ v)[:, 0, 0]
    a = (T2.conj().mT @ u)[..., 0]  # (len(ks), 2)
    b = (T3 @ v)[..., 0]            # (len(ks), 2)
    coeffs = np.real(zinv_pow[ks][:, :, None, None]
                     * np.conj(a)[:, None, :, None]
                     * b[:, None, None, :]).reshape(len(ks), -1)
    return coeffs, c0


# bound on every Q coefficient in the LPs (widened to twice a warm
# start's largest), objective cuts at a seed and at an LP iterate, and
# constraint cuts at either (fewer where the bound is not nearly reached)
_Q_BOX = 10.0
_SEED_CUTS = 24
_CUTS_PER_ITER = 12
_CON_CUTS = 32
# most LPs one minimax solves; every bundled and tested design stops far
# below it
_MINIMAX_MAX_ITER = 300


def _solve_minimax(objective: dict, zinv_pow: np.ndarray, n_q: int,
                   constraint: dict | None = None, bound: float = 1.0,
                   rel_tol: float = 1e-3, x_init: np.ndarray | None = None):
    """Minimize the grid maximum of sigma_max(T_obj(Q)) over FIR Q.

    Optionally subject to sigma_max(T_con(Q)) <= bound on the same grid.
    Both channels come from ``_prepare_channels``.  The seeds Q = 0 and
    ``x_init`` (if given), then each LP iterate, take one step: score the
    point with the oracle, cut at its worst grid points, and keep it if it
    is the best grid-feasible point so far.  Returns (Q, info); info says
    whether the relative gap reached ``rel_tol`` (``converged``) and what
    the gap was at the end (``gap``).  The uncertainty channel is zero at
    Q = 0, so under a positive bound on it the LP relaxations cannot be
    infeasible.
    """
    n_vars = 4 * n_q
    # blocks of LP rows [coefficients, t-coefficient] <= rhs; every LP
    # stacks the objective blocks, then the constraint blocks
    obj_rows, con_rows = [], []
    oracle_calls, oracle_s, lp_s, lp_nit, cut_s = 0, 0.0, 0.0, 0, 0.0
    x_best, best = None, math.inf

    def cuts(ch, Qz, ks, t_coeff):
        coeffs, c0 = _cut_rows(ch, zinv_pow, ks, Qz)
        return np.column_stack([coeffs, np.full(len(ks), t_coeff)]), c0

    def visit(x, n_obj_cuts):
        nonlocal oracle_calls, oracle_s, cut_s, x_best, best
        t0 = time.perf_counter()
        Qz = _q_response(zinv_pow, x.reshape(n_q, 2, 2))
        g_obj = _channel_gains(objective, Qz)
        g_con = _channel_gains(constraint, Qz) if constraint else None
        t1 = time.perf_counter()
        oracle_s += t1 - t0
        oracle_calls += 1 if constraint is None else 2
        A, c0 = cuts(objective, Qz, np.argsort(g_obj)[::-1][:n_obj_cuts],
                     -1.0)
        obj_rows.append((A, -c0))
        if constraint is not None:
            # constraint cuts at the most violated grid points
            ks = np.argsort(g_con)[::-1][:_CON_CUTS]
            ks = ks[g_con[ks] > bound - 1e-12]
            if ks.size:
                A, c0 = cuts(constraint, Qz, ks, 0.0)
                con_rows.append((A, bound - c0))
        cut_s += time.perf_counter() - t1
        val = float(np.max(g_obj))
        feasible = constraint is None or np.max(g_con) <= bound + 1e-9
        if feasible and val < best:
            x_best, best = x, val

    box = _Q_BOX
    visit(np.zeros(n_vars), _SEED_CUTS)
    if x_init is not None:
        x_init = np.asarray(x_init, float).reshape(-1)
        box = max(box, 2.0 * float(np.max(np.abs(x_init))))
        visit(x_init, _SEED_CUTS)

    c = np.zeros(n_vars + 1)
    c[-1] = 1.0
    bounds = [(-box, box)] * n_vars + [(0.0, None)]
    lower, n_iter, converged = 0.0, 0, False
    for n_iter in range(1, _MINIMAX_MAX_ITER + 1):
        t0 = time.perf_counter()
        A_ub, b_ub = map(np.concatenate, zip(*obj_rows, *con_rows))
        res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds)
        lp_s += time.perf_counter() - t0
        lp_nit += res.nit
        if not res.success:
            raise SynthesisError(
                f"LP relaxation failed at iteration {n_iter} (HiGHS status "
                f"{res.status}): {res.message}")
        lower = res.x[-1]
        visit(res.x[:n_vars], _CUTS_PER_ITER)
        if x_best is not None and best - lower <= rel_tol * max(best, 1e-9):
            converged = True
            break
    n_cuts = sum(len(b) for _, b in obj_rows + con_rows)
    logger.debug(
        "minimax: %d iterations, %d cuts, %d oracle evaluations in %.3f s, "
        "%d LPs (%d simplex iterations) in %.3f s, cut rows in %.3f s",
        n_iter, n_cuts, oracle_calls, oracle_s, n_iter, lp_nit, lp_s, cut_s,
    )
    if x_best is None:
        raise SynthesisError(
            "no FIR parameter satisfied the uncertainty-channel bound "
            f"{bound:.4f} on the grid (n_q too small or uncertainty too large)"
        )
    rel_gap = (best - lower) / max(best, 1e-9)
    if not converged:
        logger.warning(
            "cutting-plane reached the iteration cap (%d) with relative "
            "gap %.2e", _MINIMAX_MAX_ITER, rel_gap,
        )
    info = {
        "iterations": n_iter,
        "grid_objective": best,
        "lp_lower_bound": float(lower),
        "n_cuts": n_cuts,
        "converged": converged,
        "gap": float(rel_gap),
    }
    return x_best.reshape(n_q, 2, 2), info


def _check_certificate(gamma: float, grid_objective: float, tol: float):
    """Log one WARNING when the certified performance norm exceeds the
    minimax's grid objective by more than ``tol`` relative: the design
    grid then misses the closed loop's peak, and the minimax optimized
    a gain the certificate does not see."""
    if gamma > grid_objective * (1.0 + tol):
        logger.warning(
            "certified gamma %.10g exceeds the grid objective %.10g by "
            "more than tol = %g relative; the design grid misses the "
            "closed loop's peak", gamma, grid_objective, tol)


def _design_grid(lp: LiftedPlant, n_q: int, grid_size: int, tol: float):
    """Check the settings, then return the u -> y block G22 (stable, or
    the Youla parametrization used here does not apply), the design grid
    and the (grid, n_q) matrix of z^-m on it."""
    if n_q < 1:
        raise ValueError("n_q must be at least 1")
    if grid_size < 1:
        raise ValueError("grid_size must be at least 1")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    G22 = subsystem(lp.sys, lp.y_rows, lp.u_cols)
    if not is_stable(G22):
        raise SynthesisError(
            "the u->y block of the lifted plant is unstable; the "
            "stable-plant Youla parametrization does not apply"
        )
    omegas = np.geomspace(1e-3 / lp.h, np.pi / lp.h, grid_size)
    zinv_pow = np.exp(-1j * np.outer(omegas * lp.h, np.arange(n_q)))
    return G22, omegas, zinv_pow


# ---------------------------------------------------------------------------
# Nominal design


def _fingerprint(lp: LiftedPlant, omegas: np.ndarray) -> str:
    """SHA-256 of the one channel's T1/T2/T3 responses on the grid
    ``omegas``: names, shapes, dtypes and bytes.  T1 is hashed a block of
    grid points at a time as it is produced; a C-order array's bytes are
    the concatenation of its blocks', so the digest is that of the whole
    arrays, and only T2 and T3 are kept until the end."""
    digest = hashlib.sha256()
    T2, T3 = [], []
    for k0 in range(0, len(omegas), _T1_BLOCK):
        [(T1, T2_k, T3_k)] = _affine_blocks(lp, omegas[k0:k0 + _T1_BLOCK])
        if not k0:
            shape = (len(omegas),) + T1.shape[1:]
            digest.update(f"T1{shape}{T1.dtype}".encode())
        digest.update(T1)
        T2.append(T2_k)
        T3.append(T3_k)
    for key, blocks in (("T2", T2), ("T3", T3)):
        arr = np.concatenate(blocks)
        digest.update(f"{key}{arr.shape}{arr.dtype}".encode())
        digest.update(arr)
    return digest.hexdigest()


def _check_reuse(reuse: Controller, fingerprint: str, settings: dict):
    """Raise ValueError unless ``reuse`` is a nominal design and a design
    at these settings, on grid responses with this fingerprint, would
    give the Q* in its meta."""
    if reuse.method != "nominal_hinf":
        raise ValueError(f"the reused design must be nominal_hinf, got a "
                         f"{reuse.method} design")
    meta = reuse.meta
    wrong = [f"{k}={v!r} (reused design: {meta.get(k)!r})"
             for k, v in settings.items() if meta.get(k) != v]
    if wrong:
        raise ValueError("the reused design was made at other settings: "
                         + ", ".join(wrong))
    if fingerprint != meta.get("grid_fingerprint"):
        raise ValueError("the reused design does not fit this plant: its "
                         "T1/T2/T3 grid responses differ")


def synthesize_nominal(lp: LiftedPlant, tol: float = 1e-3, n_q: int = 8,
                       grid_size: int = 256,
                       reuse: Controller | None = None) -> Controller:
    """Minimize the lifted closed-loop H-infinity norm over FIR-Q cancelers.

    The returned gamma is the bisection norm of the achieved closed loop
    (never below its grid evaluation; ``lti.hinf_norm`` says what its
    upper end rests on).  The closed loop is internally stable by
    construction because the plant is stable and Q is stable.

    Without ``reuse`` the minimax is solved here.  With an earlier nominal
    design, its Q* (meta["q"]) is wrapped around this plant's G22 instead,
    after checking that this plant's affine grid responses and the design
    settings match (ValueError otherwise, and for a ``reuse`` whose method
    is not nominal_hinf); the result is bitwise that of a fresh design.
    meta["iterations"] and meta["n_cuts"] count the minimax work done by
    this call, so both are 0 when Q* is reused.
    """
    if len(lp.channel_indices()) != 1:
        raise ValueError("nominal design expects a one-channel plant; "
                         "use synthesize_robust")
    G22, omegas, zinv_pow = _design_grid(lp, n_q, grid_size, tol)
    settings = {"n_q": n_q, "N": lp.N, "h": lp.h, "grid_size": grid_size,
                "tol": tol, "max_iter": _MINIMAX_MAX_ITER}
    if reuse is None:
        (ch,) = _prepare_channels(lp, omegas)
        Q, info = _solve_minimax(ch, zinv_pow, n_q, rel_tol=tol)
        meta = {**settings, **info, "q": Q.tolist(),
                "grid_fingerprint": _fingerprint(lp, omegas)}
    else:
        _check_reuse(reuse, _fingerprint(lp, omegas), settings)
        Q = np.asarray(reuse.meta["q"])
        meta = {**reuse.meta, "iterations": 0, "n_cuts": 0}
    K = controller_from_q(Q, G22)
    _, (gamma,) = closed_loop_norms(lp, K)
    if math.isinf(gamma):
        raise SynthesisError("closed loop unstable after synthesis "
                             "(numerical failure)")
    _check_certificate(gamma, meta["grid_objective"], tol)
    meta["controller_stable"] = is_stable(K)
    meta["reconstruction_reused"] = reuse is not None
    return Controller(sys=K, gamma_achieved=gamma, method="nominal_hinf",
                      meta=meta)


# ---------------------------------------------------------------------------
# Robust design


def synthesize_robust(rp: LiftedPlant, n_q: int = 8, grid_size: int = 256,
                      margin: float = 0.05, tol: float = 1e-3) -> Controller:
    """Robust canceler: minimize the performance gain subject to the
    uncertainty channel having H-infinity norm at most one.

    The semi-infinite constraint is enforced on the frequency grid with a
    safety margin and then checked with the bisection norm; a
    failed certificate tightens the margin and re-solves (three attempts).
    rp is a plant from ``build_robust_plant``; its W2 is recorded in
    meta["W2"] as ``lti._record`` writes it, for ``verify_design``.
    meta["iterations"] and the other solver entries describe the final
    constrained minimax; meta["warm_start"] holds the iterations, cuts,
    convergence, gap and grid objective of the unconstrained minimax that
    seeds it.
    """
    if not 0.0 < margin < 0.2:
        raise ValueError("margin must lie in (0, 0.2)")
    if rp.W2 is None:
        raise ValueError("robust design needs a plant from build_robust_plant")
    G22, omegas, zinv_pow = _design_grid(rp, n_q, grid_size, tol)
    ch1, ch2 = _prepare_channels(rp, omegas)

    # warm start: solve without the uncertainty constraint, then shrink the
    # result into the feasible set.  The uncertainty channel is exactly
    # linear in Q (its open-loop term is zero), so scaling is safe.
    Q_unc, warm_info = _solve_minimax(ch1, zinv_pow, n_q, rel_tol=tol)
    warm_start = {k: warm_info[k] for k in
                  ("iterations", "n_cuts", "converged", "gap",
                   "grid_objective")}
    gains2 = _channel_gains(ch2, _q_response(zinv_pow, Q_unc))
    peak2 = float(np.max(gains2))

    attempt_margin = margin
    last_error = None
    for attempt in range(3):
        bound = 1.0 - attempt_margin
        scale = min(1.0, bound / peak2 * (1.0 - 1e-9)) if peak2 > 0 else 1.0
        Q, info = _solve_minimax(ch1, zinv_pow, n_q, constraint=ch2,
                                 bound=bound, rel_tol=tol,
                                 x_init=(scale * Q_unc).reshape(-1))
        K = controller_from_q(Q, G22)
        _, (gamma1, gamma2) = closed_loop_norms(rp, K)
        grid_gamma2 = float(np.max(_channel_gains(ch2, _q_response(zinv_pow, Q))))
        if gamma2 <= 1.0:
            _check_certificate(gamma1, info["grid_objective"], tol)
            meta = {
                "n_q": n_q,
                "N": rp.N,
                "grid_size": grid_size,
                "margin": attempt_margin,
                "tol": tol,
                "controller_stable": is_stable(K),
                "attempts": attempt + 1,
                "grid_gamma2": grid_gamma2,
                "W2": _record(rp.W2),
                "warm_start": warm_start,
                **info,
            }
            return Controller(sys=K,
                              gamma_achieved={"gamma1": gamma1,
                                              "gamma2": gamma2},
                              method="robust_qparam", meta=meta)
        last_error = (
            f"exact norm of the uncertainty channel {gamma2:.6f} exceeds 1 "
            f"at margin {attempt_margin:.3f}"
        )
        logger.warning("%s; retrying with a larger margin", last_error)
        attempt_margin = min(attempt_margin + 0.05, 0.199)
    raise SynthesisError(f"robust synthesis failed after 3 attempts: "
                         f"{last_error}")


# ---------------------------------------------------------------------------
# Verification


def _design_record(meta: dict) -> tuple[StateSpace, int]:
    """The W2 and N a robust design recorded in its meta; ValueError
    naming the entry when one is missing or malformed."""
    for key, what in (("W2", "the uncertainty weight"),
                      ("N", "the fast-rate factor")):
        if key not in meta:
            raise ValueError(f"robust controller lacks meta[{key!r}], "
                             f"{what} it was designed with")
    W2, N = meta["W2"], meta["N"]
    if not isinstance(W2, dict) or set(W2) != set("ABCD"):
        got = sorted(W2, key=str) if isinstance(W2, dict) else type(W2)
        raise ValueError("robust controller's meta['W2'] must hold exactly "
                         f"the matrices A, B, C and D, got {got}")
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError("robust controller's meta['N'] must be a positive "
                         f"integer, got {N!r}")
    try:
        W2 = _from_record(W2)
    except ValueError as exc:
        raise ValueError(f"robust controller's meta['W2']: {exc}") from exc
    return W2, N


def verify_design(plant: GeneralizedPlantSpec, K: Controller,
                  N_verify: int) -> dict:
    """Re-check a design on a finer lifting.

    Reports closed-loop stability and the performance norm at N_verify,
    the small-gain certificate for robust designs, and the induced-gain
    bound implied by the achieved norm: every shaped disturbance of unit
    energy produces a cancelation error of energy at most gamma.

    The performance channel passes through the strictly proper input
    weight and its norm converges under refinement.  The uncertainty
    channel does not when the anti-alias filter is allpass (the sampler
    then sees the unstructured perturbation unfiltered and the lifted
    norm grows like sqrt(N)), so the small-gain certificate is re-checked
    exactly at the design rate and with the W2 that the controller
    metadata records (meta["N"], meta["W2"]; ValueError when missing or
    malformed);
    physical detour perturbations are covered separately by the
    stability sweep.  An unstable loop's statement says no bound holds.
    """
    robust = K.method == "robust_qparam"
    if robust:
        W2, N = _design_record(K.meta)
    margin, (gamma_v,) = closed_loop_norms(fsfh_lift(plant, N_verify), K.sys)
    report = {
        "N_verify": N_verify,
        "closed_loop_stable": math.isfinite(gamma_v),
        "spectral_margin": margin,
        "gamma_synthesis": K.gamma_achieved,
        "method": K.method,
        "gamma_verify": gamma_v,
    }
    if robust:
        rp = build_robust_plant(plant, W2, N)
        _, (g1, g2) = closed_loop_norms(rp, K.sys)
        report["gamma1_design_rate"] = g1
        report["gamma2_design_rate"] = g2
        report["small_gain_certified"] = bool(g2 <= 1.0)
        report["small_gain_rate"] = N
    report["l2_bound"] = gamma_v
    report["l2_bound_statement"] = (
        "for any input v = W w with ||w||_2 <= 1, the cancelation error "
        f"satisfies ||v - u||_2 <= {gamma_v:.6g} (FSFH approximation at "
        f"N={N_verify})" if math.isfinite(gamma_v) else
        f"the closed loop is unstable at N={N_verify}, so no bound on "
        "||v - u||_2 holds"
    )
    return report


def robust_stability_sweep(plant: GeneralizedPlantSpec, K: Controller,
                           n_cases: int = 50, seed: int = 0,
                           N: int = 4) -> dict:
    """Closed-loop stability over random admissible channel perturbations.

    Each case draws detour paths with total attenuation at most the
    channel's own detour budget (the sum of its detours' attenuations;
    ValueError when it is zero) and delays 1 to 3N fast steps of h / N
    beyond the nominal one, and checks the spectrum of its lifted closed
    loop.  ``min_spectral_margin`` is the smallest margin over all cases
    (infinite when there are none, and then nothing is lifted).

    The cases share one lift: a core with the nominal path and a
    unit-gain detour per drawn delay step, whose measurement y is split
    into the nominal rows and each detour's own rows.  A case keeps the
    core states outside the detours, its own detours' states and the
    history holds its delays read (``LiftedPlant.holds``), and sums its
    y rows as the nominal rows plus r_i times detour i's rows.  That is
    the case's own lifted plant up to rounding and the order of its
    detours' states: a detour's states are driven only by its own
    delayed-u slot and read only by y, so the kept block of the shared
    ZOH exponential is the case's own, and history holds deeper than the
    case's are read only by the dropped detours.  The cases share y's
    feedthrough and the controller, so ``lti._controller_side`` is formed
    once (a singular algebraic loop raises LinAlgError before any case),
    and each case forms only its closed-loop A (``lti._closed_loop_a``).
    The spectra of all cases of one order are then solved by one stacked
    eigvals (``lti._spectral_margins``), bitwise the per-case margins;
    margins and failures are in case order.
    """
    if n_cases < 0:
        raise ValueError(f"n_cases must be nonnegative, got {n_cases}")
    if N < 1:
        raise ValueError("fast-rate factor N must be a positive integer")
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    channel = plant.channel
    r_budget = sum(ri for ri, _ in channel.extra_paths)
    if r_budget == 0.0:
        raise ValueError("channel has no detour budget: the sweep perturbs "
                         "its detour paths")
    tau = plant.h / N
    cases = []
    for _ in range(n_cases):
        m = int(rng.integers(1, 4))
        weights = rng.dirichlet(np.ones(m))
        scale = rng.uniform(0.3, 1.0)
        steps = rng.choice(np.arange(1, 3 * N + 1), size=m,
                           replace=False)
        cases.append(tuple(
            (float(r_budget * scale * wi), float(channel.L + int(k) * tau))
            for wi, k in zip(weights, steps)
        ))
    delays = sorted({Li for extras in cases for _, Li in extras})
    failures, margins, n_states = [], [], 0
    if cases:
        shared = CouplingChannel(r=channel.r, L=channel.L, extra_paths=tuple(
            (1.0, Li) for Li in delays))
        core = assemble_plant_core(build_perturbed_plant(plant.params,
                                                         shared))
        n_ext, n_u = core.n_ext, core.n_ctrl
        ry = slice(n_ext, n_ext + n_u)
        # y split by path: the nominal rows, then each detour's own rows,
        # which read only its states and its delayed-u slot
        Cy, Dy = [core.sys.C[ry].copy()], [core.sys.D[ry].copy()]
        for i, sl in enumerate(core.path_states[1:], 1):
            slot = slice(n_ext + n_u * (i + 1), n_ext + n_u * (i + 2))
            Cy.append(np.zeros_like(Cy[0]))
            Dy.append(np.zeros_like(Dy[0]))
            Cy[i][:, sl], Dy[i][:, slot] = Cy[0][:, sl], Dy[0][:, slot]
            Cy[0][:, sl] = Dy[0][:, slot] = 0.0
        split = StateSpace(core.sys.A, core.sys.B,
                           np.vstack([core.sys.C[:n_ext], *Cy]),
                           np.vstack([core.sys.D[:n_ext], *Dy]))
        lp = lift_core(replace(core, sys=split), N, plant.h)
        A, B_u = lp.sys.A, lp.sys.B[:, lp.u_cols]
        n_states = lp.sys.n_states
        yC = lp.sys.C[lp.y_rows].reshape(len(Cy), n_u, -1)
        # a detour is at least one step long, so at the period start y
        # reads its delayed u from a history hold, a state: the D rows of
        # every case are the nominal ones, and so is the controller's side
        # of the loop, formed here once for every case
        D22 = lp.sys.D[np.ix_(lp.y_rows[:n_u], lp.u_cols)]
        side = _controller_side(K.sys, D22)
        detour = {Li: i for i, Li in enumerate(delays, 1)}
        base = np.arange(n_states) < core.sys.n_states
        for sl in core.path_states[1:]:
            base[sl] = False
        base[lp.holds[0]] = True  # the nominal delay's history holds
        loops = []
        for extras in cases:
            paths = [detour[Li] for _, Li in extras]
            keep = base.copy()
            for i in paths:
                keep[core.path_states[i]] = keep[lp.holds[i]] = True
            cy = yC[0]
            for (ri, _), i in zip(extras, paths):
                cy = cy + ri * yC[i]
            idx = np.flatnonzero(keep)
            loops.append(_closed_loop_a(A[np.ix_(idx, idx)], B_u[idx],
                                        cy[:, idx], D22, side)[0])
        margins = _spectral_margins(loops)
        failures = [{"case": case, "extra_paths": extras,
                     "spectral_margin": margin}
                    for case, (extras, margin)
                    in enumerate(zip(cases, margins))
                    if not margin > STABILITY_MARGIN]
    logger.debug(
        "robust_stability_sweep: %d cases, %d unstable, shared lift of %d "
        "delay steps, %d states, %.3g s", n_cases, len(failures), len(delays),
        n_states, time.perf_counter() - t0)
    return {
        "n_cases": n_cases,
        "n_unstable": len(failures),
        "all_stable": not failures,
        "min_spectral_margin": min(margins, default=math.inf),
        "failures": failures,
    }

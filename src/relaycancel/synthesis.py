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
solve of the lifted plant.  The oracle factorization and the
fingerprint walk the design grid with it a block of points at a time,
and each cut evaluates it at its own points, so a design never holds
the whole T1 grid (2N x 2N per point, 4 MB on the nominal_60db grid)
and keeps no T2 or T3 grid either.  Restricting Q to an FIR filter of
length n_q makes the worst-case-gain objective convex in the Q
coefficients.  The minimax
design is solved by a cutting-plane method on a logarithmic frequency
grid (largest-singular-value constraints are approximated from below by
linear cuts generated from singular vectors, and the LP relaxations are
solved with HiGHS).  The grid maximum of sigma_max(T(Q)) that each
candidate Q is scored by comes from a secular equation, not an SVD:
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
    interconnect,
    is_stable,
    stability_margin,
    subsystem,
)
from .lifting import (
    LiftedPlant,
    closed_loop_norms,
    fsfh_lift,
    lift_core,
    lifted_closed_loop,
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


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported at the first call.

    Importing ``scipy.optimize`` takes about 0.3 s and 20 MB, and only a
    design solves LPs, so ``simulate`` and ``verify`` never load it.
    """
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


class SynthesisError(RuntimeError):
    """Raised when no controller satisfying the constraints is found."""


@dataclass(frozen=True)
class Controller:
    """Synthesized digital canceler with its achieved norms.

    gamma_achieved is a float for nominal designs and a dict with keys
    gamma1 (performance) and gamma2 (uncertainty channel) for robust
    ones.  The controller itself need not be stable, only the closed
    loop; its own stability is recorded in meta["controller_stable"].
    A nominal design records its FIR parameter in meta["q"], so it can be
    passed to ``synthesize_nominal`` as ``reuse=`` for another plant.
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


def _ports(lp: LiftedPlant):
    """Columns of u and rows of y in the lifted plant."""
    return (np.arange(lp.n_w, lp.n_w + lp.n_ctrl),
            np.arange(lp.n_z, lp.n_z + lp.n_ctrl))


# grid points per call of ``_affine_blocks`` when the whole design grid
# is walked (``_prepare_channels``, ``_fingerprint``): T1 is 0.5 MB per
# block at 2N = 32, and the per-call cost of the solve and products is
# shared by the block
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
    u_cols, y_rows = _ports(lp)
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
    PSD; its rounding is not).
    """
    n_freq, n, _ = T1.shape
    R2 = np.empty((n_freq, 2, 2), complex)
    W0 = np.empty((n_freq, 2, n), complex)
    E = np.empty((n_freq, 2, n), complex)
    lam = np.empty((n_freq, n))
    for k in range(n_freq):
        U, R = np.linalg.qr(T2[k], mode="complete")
        V, S = np.linalg.qr(T3[k].conj().T, mode="complete")
        M = U.conj().T @ T1[k] @ V
        lam_k, V_G = np.linalg.eigh(M[2:].conj().T @ M[2:])
        lam[k] = np.maximum(lam_k, 0.0)
        R2[k] = R[:2]
        W0[k] = M[:2] @ V_G
        E[k] = S[:2].conj().T @ V_G[:2]
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
    point; T1, T2 and T3 are evaluated at those points only, and the
    singular pairs come from one stacked SVD.
    """
    T1, T2, T3 = ch["blocks"](ks)
    U, _, Vh = np.linalg.svd(
        np.stack([T1[i] + T2[i] @ Qz[k] @ T3[i] for i, k in enumerate(ks)]))
    coeffs = np.empty((len(ks), zinv_pow.shape[1] * 4))
    c0 = np.empty(len(ks))
    for i, k in enumerate(ks):
        u, v = U[i, :, 0], Vh[i, 0].conj()
        c0[i] = np.real(u.conj() @ T1[i] @ v)
        a = T2[i].conj().T @ u  # (2,)
        b = T3[i] @ v           # (2,)
        coeffs[i] = np.real(zinv_pow[k][:, None, None]
                            * np.conj(a)[None, :, None]
                            * b[None, None, :]).reshape(-1)
    return coeffs, c0


# bound on every Q coefficient in the LPs (widened to twice a warm
# start's largest), and objective cuts added per LP
_Q_BOX = 10.0
_CUTS_PER_ITER = 12


def _solve_minimax(objective: dict, zinv_pow: np.ndarray, n_q: int,
                   constraint: dict | None = None, bound: float = 1.0,
                   rel_tol: float = 1e-3, max_iter: int = 300,
                   x_init: np.ndarray | None = None):
    """Minimize the grid maximum of sigma_max(T_obj(Q)) over FIR Q.

    Optionally subject to sigma_max(T_con(Q)) <= bound on the same grid.
    Both channels come from ``_prepare_channels``.  Returns (Q, info); info
    says whether the relative gap reached ``rel_tol`` (``converged``) and
    what the gap was at the end (``gap``).  Q = 0 is always feasible, so
    the LP relaxations cannot be infeasible.  ``x_init`` seeds the
    incumbent (it must be grid-feasible) and its cuts.
    """
    n_vars = 4 * n_q
    n_freq = zinv_pow.shape[0]
    # LP rows [coefficients, t-coefficient] <= rhs, objective cuts first
    A_obj, b_obj = np.empty((0, n_vars + 1)), np.empty(0)
    A_con, b_con = np.empty((0, n_vars + 1)), np.empty(0)
    oracle_calls, oracle_s, lp_s = 0, 0.0, 0.0

    def add_obj_cuts(Qz, gains, n_cuts):
        nonlocal A_obj, b_obj
        ks = np.argsort(gains)[::-1][:n_cuts]
        coeffs, c0 = _cut_rows(objective, zinv_pow, ks, Qz)
        A_obj = np.concatenate(
            [A_obj, np.column_stack([coeffs, np.full(len(ks), -1.0)])])
        b_obj = np.concatenate([b_obj, -c0])

    def add_con_cuts(Qz, gains, n_cuts):
        # constraint cuts at the most violated grid points
        nonlocal A_con, b_con
        ks = np.argsort(gains)[::-1][:n_cuts]
        ks = ks[gains[ks] > bound - 1e-12]
        if ks.size:
            coeffs, c0 = _cut_rows(constraint, zinv_pow, ks, Qz)
            A_con = np.concatenate(
                [A_con, np.column_stack([coeffs, np.zeros(len(ks))])])
            b_con = np.concatenate([b_con, bound - c0])

    def evaluate(x):
        nonlocal oracle_calls, oracle_s
        t0 = time.perf_counter()
        Qz = _q_response(zinv_pow, x.reshape(n_q, 2, 2))
        g_obj = _channel_gains(objective, Qz)
        g_con = _channel_gains(constraint, Qz) if constraint else None
        oracle_s += time.perf_counter() - t0
        oracle_calls += 1 if constraint is None else 2
        return Qz, g_obj, g_con

    seeds = [np.zeros(n_vars)]
    box = _Q_BOX
    if x_init is not None:
        seeds.append(np.asarray(x_init, float).reshape(-1))
        box = max(box, 2.0 * float(np.max(np.abs(x_init))))
    x_best = seeds[0]
    best = math.inf
    feasible_best = False
    for x_seed in seeds:
        Qz0, g_obj0, g_con0 = evaluate(x_seed)
        val = float(np.max(g_obj0))
        feas = constraint is None or np.max(g_con0) <= bound + 1e-9
        add_obj_cuts(Qz0, g_obj0, min(24, n_freq))
        if constraint is not None:
            add_con_cuts(Qz0, g_con0, min(32, n_freq))
        if feas and val < best:
            best, x_best, feasible_best = val, x_seed, True

    c = np.zeros(n_vars + 1)
    c[-1] = 1.0
    bounds = [(-box, box)] * n_vars + [(0.0, None)]
    lower = 0.0
    n_iter = 0
    converged = False
    for n_iter in range(1, max_iter + 1):
        t0 = time.perf_counter()
        res = linprog(c, A_ub=np.concatenate([A_obj, A_con]),
                      b_ub=np.concatenate([b_obj, b_con]),
                      bounds=bounds, method="highs")
        lp_s += time.perf_counter() - t0
        if not res.success:
            raise SynthesisError(f"LP relaxation failed: {res.message}")
        x_cand = res.x[:n_vars]
        lower = res.x[-1]
        Qz, g_obj, g_con = evaluate(x_cand)
        cand_val = float(np.max(g_obj))
        cand_feasible = constraint is None or np.max(g_con) <= bound + 1e-9
        add_obj_cuts(Qz, g_obj, _CUTS_PER_ITER)
        if constraint is not None:
            add_con_cuts(Qz, g_con, 32)
        if cand_feasible and cand_val < best:
            best = cand_val
            x_best = x_cand
            feasible_best = True
        gap = best - lower
        if feasible_best and gap <= rel_tol * max(best, 1e-9):
            converged = True
            break
    rel_gap = (best - lower) / max(best, 1e-9)
    if not converged:
        logger.warning(
            "cutting-plane reached the iteration cap (%d) with relative "
            "gap %.2e", max_iter, rel_gap,
        )
    n_cuts = len(b_obj) + len(b_con)
    logger.debug(
        "minimax: %d iterations, %d cuts, %d oracle evaluations in %.3f s, "
        "%d LPs in %.3f s", n_iter, n_cuts, oracle_calls, oracle_s, n_iter,
        lp_s,
    )
    if not feasible_best:
        raise SynthesisError(
            "no FIR parameter satisfied the uncertainty-channel bound "
            f"{bound:.4f} on the grid (n_q too small or uncertainty too large)"
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
    u_cols, y_rows = _ports(lp)
    G22 = subsystem(lp.sys, y_rows, u_cols)
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


def _check_reuse(meta: dict, fingerprint: str, settings: dict):
    """Raise ValueError unless a design at these settings, on grid
    responses with this fingerprint, would give the Q* in ``meta`` (a
    robust design's meta lacks h and max_iter, so it never passes)."""
    wrong = [f"{k}={v!r} (reconstruction: {meta.get(k)!r})"
             for k, v in settings.items() if meta.get(k) != v]
    if wrong:
        raise ValueError("reconstruction was designed at other settings: "
                         + ", ".join(wrong))
    if fingerprint != meta.get("grid_fingerprint"):
        raise ValueError("reconstruction does not fit this plant: its "
                         "T1/T2/T3 grid responses differ")


def synthesize_nominal(lp: LiftedPlant, tol: float = 1e-3, n_q: int = 8,
                       grid_size: int = 256, max_iter: int = 300,
                       reuse: Controller | None = None) -> Controller:
    """Minimize the lifted closed-loop H-infinity norm over FIR-Q cancelers.

    The returned gamma is the bisection norm of the achieved closed loop
    (never below its grid evaluation; ``lti.hinf_norm`` says what its
    upper end rests on).  The closed loop is internally stable by
    construction because the plant is stable and Q is stable.

    Without ``reuse`` the minimax is solved here.  With an earlier nominal
    design, its Q* (meta["q"]) is wrapped around this plant's G22 instead,
    after checking that this plant's affine grid responses and the design
    settings match (ValueError otherwise); the result is bitwise that of a
    fresh design.  meta["iterations"] and meta["n_cuts"] count the minimax
    work done by this call, so both are 0 when Q* is reused.
    """
    if len(lp.channel_indices()) != 1:
        raise ValueError("nominal design expects a one-channel plant; "
                         "use synthesize_robust")
    G22, omegas, zinv_pow = _design_grid(lp, n_q, grid_size, tol)
    settings = {"n_q": n_q, "N": lp.N, "h": lp.h, "grid_size": grid_size,
                "tol": tol, "max_iter": max_iter}
    if reuse is None:
        (ch,) = _prepare_channels(lp, omegas)
        Q, info = _solve_minimax(ch, zinv_pow, n_q, rel_tol=tol,
                                 max_iter=max_iter)
        meta = {**settings, **info, "q": Q.tolist(),
                "grid_fingerprint": _fingerprint(lp, omegas)}
    else:
        _check_reuse(reuse.meta, _fingerprint(lp, omegas), settings)
        Q = np.asarray(reuse.meta["q"])
        meta = {**reuse.meta, "iterations": 0, "n_cuts": 0}
    K = controller_from_q(Q, G22)
    _, (gamma,) = closed_loop_norms(lp, K)
    if math.isinf(gamma):
        raise SynthesisError("closed loop unstable after synthesis "
                             "(numerical failure)")
    meta["controller_stable"] = is_stable(K)
    meta["reconstruction_reused"] = reuse is not None
    return Controller(sys=K, gamma_achieved=gamma, method="nominal_hinf",
                      meta=meta)


# ---------------------------------------------------------------------------
# Robust design


def synthesize_robust(rp: LiftedPlant, n_q: int = 8, grid_size: int = 256,
                      margin: float = 0.05, tol: float = 1e-3,
                      max_iter: int = 300) -> Controller:
    """Robust canceler: minimize the performance gain subject to the
    uncertainty channel having H-infinity norm at most one.

    The semi-infinite constraint is enforced on the frequency grid with a
    safety margin and then checked with the bisection norm; a
    failed certificate tightens the margin and re-solves (three attempts).
    rp is a plant from ``build_robust_plant``; its W2 is recorded in
    meta["W2"] as nested lists of floats, for ``verify_design``.
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
    Q_unc, warm_info = _solve_minimax(ch1, zinv_pow, n_q, rel_tol=tol,
                                      max_iter=max_iter)
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
                                 max_iter=max_iter,
                                 x_init=(scale * Q_unc).reshape(-1))
        K = controller_from_q(Q, G22)
        _, (gamma1, gamma2) = closed_loop_norms(rp, K)
        grid_gamma2 = float(np.max(_channel_gains(ch2, _q_response(zinv_pow, Q))))
        if gamma2 <= 1.0:
            meta = {
                "n_q": n_q,
                "N": rp.N,
                "grid_size": grid_size,
                "margin": attempt_margin,
                "tol": tol,
                "controller_stable": is_stable(K),
                "attempts": attempt + 1,
                "grid_gamma2": grid_gamma2,
                "W2": {k: getattr(rp.W2, k).tolist() for k in "ABCD"},
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
    exactly at the design rate and with the W2 recorded in the controller
    metadata (ValueError when W2 is missing); physical detour
    perturbations are covered separately by the stability sweep.
    """
    robust = K.method == "robust_qparam"
    if robust and "W2" not in K.meta:
        raise ValueError("robust controller lacks meta['W2'], the "
                         "uncertainty weight it was designed with")
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
        W2 = StateSpace(**{k: np.array(v, dtype=float)
                           for k, v in K.meta["W2"].items()})
        N_design = K.meta.get("N", N_verify)
        rp = build_robust_plant(plant, W2, N_design)
        _, (g1, g2) = closed_loop_norms(rp, K.sys)
        report["gamma1_design_rate"] = g1
        report["gamma2_design_rate"] = g2
        report["small_gain_certified"] = bool(g2 <= 1.0)
        report["small_gain_rate"] = N_design
    bound = gamma_v
    report["l2_bound"] = bound
    report["l2_bound_statement"] = (
        "for any input v = W w with ||w||_2 <= 1, the cancelation error "
        f"satisfies ||v - u||_2 <= {bound:.6g} (FSFH approximation at "
        f"N={N_verify})"
    )
    return report


def robust_stability_sweep(plant: GeneralizedPlantSpec, K: Controller,
                           n_cases: int = 50, seed: int = 0,
                           N: int = 4) -> dict:
    """Closed-loop stability over random admissible channel perturbations.

    Each case draws detour paths with total attenuation at most the
    channel's own detour budget (the sum of its detours' attenuations;
    ValueError when it is zero) and delays 1 to 3N fast steps of h / N
    beyond the nominal one, lifts the perturbed plant and checks the
    closed loop spectrum.  ``min_spectral_margin`` is the smallest margin
    over all cases (infinite when there are none).
    """
    rng = np.random.default_rng(seed)
    channel = plant.channel
    r_budget = sum(ri for ri, _ in channel.extra_paths)
    if r_budget == 0.0:
        raise ValueError("channel has no detour budget: the sweep perturbs "
                         "its detour paths")
    tau = plant.h / N
    failures, margins = [], []
    for case in range(n_cases):
        m = int(rng.integers(1, 4))
        weights = rng.dirichlet(np.ones(m))
        scale = rng.uniform(0.3, 1.0)
        steps = rng.choice(np.arange(1, 3 * N + 1), size=m,
                           replace=False)
        extras = tuple(
            (float(r_budget * scale * wi), float(channel.L + int(k) * tau))
            for wi, k in zip(weights, steps)
        )
        perturbed = CouplingChannel(r=channel.r, L=channel.L,
                                    extra_paths=extras)
        pspec = build_perturbed_plant(plant.params, perturbed)
        margin = stability_margin(lifted_closed_loop(fsfh_lift(pspec, N),
                                                     K.sys))
        margins.append(margin)
        if not margin > STABILITY_MARGIN:  # is_stable's test
            failures.append({"case": case, "extra_paths": extras,
                             "spectral_margin": margin})
    return {
        "n_cases": n_cases,
        "n_unstable": len(failures),
        "all_stable": not failures,
        "min_spectral_margin": min(margins, default=math.inf),
        "failures": failures,
    }

"""Frequency-domain and passband oracles the tests check the library by.

None of these is on the design or simulation path.  ``frequency_response``
evaluates a state-space model at one frequency; ``plant_frequency_response``
is the relay plant with its path delays applied as exact phases, and
``error_system_response`` the relative channel perturbation the detour
paths cause; ``passband_oracle`` modulates a baseband signal onto the
carrier, pushes it through the delay channel on an RF-rate grid,
demodulates and low-pass filters, which validates the baseband
equivalence gain * rotation * u(t - L) numerically.
``materialized_grid_responses`` is the design grid's responses by one
resolvent solve per grid point, each of T1, T2 and T3 held as a whole
array: the reference that ``synthesis._affine_blocks`` is bitwise equal
to at any set of grid points.  ``reference_prepare_oracle`` and
``reference_cut_rows`` are ``synthesis._prepare_oracle`` and
``synthesis._cut_rows`` as per-point loops, which their stacked forms
are bitwise equal to.  ``reference_stability_sweep`` lifts each
perturbation case on its own, the loop that
``synthesis.robust_stability_sweep`` replaces by slicing one shared lift.
``reference_linprog`` is ``scipy.optimize.linprog`` with HiGHS, whose
model and options ``synthesis.linprog`` passes to HiGHS directly.
``reference_screen`` is ``lti._screen`` with a resolvent solve and a
Cholesky factorization per point, in place of its Schur form.
"""

import math
from contextlib import suppress

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import zherk
from scipy.linalg.lapack import zpotrf
from scipy.optimize import linprog
from scipy.signal import butter, sosfilt

from relaycancel.lifting import LiftedPlant, fsfh_lift, lifted_closed_loop
from relaycancel.lti import STABILITY_MARGIN, StateSpace, stability_margin
from relaycancel.relay import (
    CouplingChannel,
    GeneralizedPlantSpec,
    RelayParams,
    build_perturbed_plant,
    rotation_matrix,
)
from relaycancel.synthesis import _ports


def frequency_response(sys: StateSpace, omega: float) -> np.ndarray:
    """Evaluate the transfer matrix at real frequency omega [rad/s].

    Continuous: C (jw I - A)^-1 B + D.  Discrete: the same with
    z = exp(j w dt) in place of jw.
    """
    if sys.n_states == 0:
        return sys.D.astype(complex)
    z = np.exp(1j * omega * sys.dt) if sys.is_discrete else 1j * omega
    M = z * np.eye(sys.n_states) - sys.A
    try:
        X = np.linalg.solve(M, sys.B)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"resolvent singular at omega={omega}"
        ) from exc
    return sys.C @ X + sys.D


def materialized_grid_responses(lp: LiftedPlant, omegas) -> list:
    """{"T1", "T2", "T3"} arrays of every channel on the grid ``omegas``,
    one resolvent solve per frequency."""
    u_cols, y_rows = _ports(lp)
    stacks = lp.channel_indices()
    sys = lp.sys
    B = sys.B[:, np.concatenate(stacks + [u_cols])]
    K, n, n_u = len(omegas), stacks[0].size, u_cols.size
    out = [{"T1": np.empty((K, n, n), complex),
            "T2": np.empty((K, n, n_u), complex),
            "T3": np.empty((K, y_rows.size, n), complex)}
           for _ in stacks]
    parts = [(sys.C[idx], sys.D[np.ix_(idx, idx)], sys.D[np.ix_(idx, u_cols)],
              sys.D[np.ix_(y_rows, idx)]) for idx in stacks]
    C_y = sys.C[y_rows]
    eye = np.eye(sys.n_states)
    for j, om in enumerate(omegas):
        X = np.linalg.solve(np.exp(1j * om * sys.dt) * eye - sys.A, B)
        X_u = X[:, -n_u:]
        for k, (ch, (C_k, D1, D2, D3)) in enumerate(zip(out, parts)):
            X_k = X[:, k * n:(k + 1) * n]
            ch["T1"][j] = C_k @ X_k + D1
            ch["T2"][j] = C_k @ X_u + D2
            ch["T3"][j] = C_y @ X_k + D3
    return out


def reference_prepare_oracle(T1: np.ndarray, T2: np.ndarray,
                             T3: np.ndarray) -> dict:
    """``synthesis._prepare_oracle`` one grid point at a time."""
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


def reference_cut_rows(ch: dict, zinv_pow: np.ndarray, ks: np.ndarray,
                       Qz: np.ndarray):
    """``synthesis._cut_rows`` one grid point at a time."""
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


def reference_linprog(c, A_ub, b_ub, bounds, method="highs"):
    """``synthesis.linprog`` through ``scipy.optimize.linprog``."""
    return linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method=method)


def reference_screen(sys: StateSpace, beta: float, thetas,
                     sigma_D: float) -> np.ndarray | None:
    """``lti._screen`` by the same loop shift, with T from a solve of
    zI - At, eight points at a time, and one Cholesky factorization of
    I - T'T per point."""
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
    for start in range(0, thetas.size, 8):
        z = np.exp(1j * thetas[start:start + 8])[:, None, None]
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


def reference_stability_sweep(plant: GeneralizedPlantSpec, K,
                              n_cases: int = 50, seed: int = 0,
                              N: int = 4) -> dict:
    """``synthesis.robust_stability_sweep`` with one perturbed plant,
    ZOH exponential and lift per case."""
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


def plant_frequency_response(spec: GeneralizedPlantSpec,
                             omega: float) -> np.ndarray:
    """4x4 response of the assembled plant, delays applied as phases.

    Rows are (z, y), columns (w, u); the delay of each path contributes
    the scalar phase e^{-j omega L_i} times its rotation.
    """
    Wf = frequency_response(spec.params.W, omega)
    Ff = frequency_response(spec.params.F, omega)
    Pf = frequency_response(spec.params.P, omega)
    coupling = np.zeros((2, 2), dtype=complex)
    for path in spec.paths:
        coupling += path.alpha * np.exp(-1j * omega * path.L) * path.rot @ Ff @ Pf
    top = np.hstack([Wf, -Pf])
    bottom = np.hstack([Ff @ Wf, coupling])
    return np.vstack([top, bottom])


def error_system_response(channel: CouplingChannel, omega: float,
                          f: float) -> np.ndarray:
    """Relative channel perturbation seen by the nominal path at omega.

    Each detour path contributes (r_i / r) e^{-j (L_i - L) omega} times
    the rotation for the differential delay L_i - L.  Requires at least
    one detour path.
    """
    if not channel.extra_paths:
        raise ValueError("error_system_response requires at least one extra path")
    E = np.zeros((2, 2), dtype=complex)
    for ri, Li in channel.extra_paths:
        dL = Li - channel.L
        E += (ri / channel.r) * np.exp(-1j * dL * omega) * rotation_matrix(f, dL)
    return E



def passband_oracle(u: np.ndarray, params: RelayParams,
                    channel: CouplingChannel, N_rf: int,
                    dt: float) -> np.ndarray:
    """Numerical passband round trip of the nominal coupling path.

    Modulates u onto the quadrature carriers at frequency f, applies the
    amplifier gains, attenuation and delay on an RF-rate grid of N_rf
    steps per sampling period, demodulates by carrier multiplication and
    an 8th-order low-pass at f/10, and returns the baseband result on the
    input grid.  Up to the filter transient this reproduces
    gain * rotation * u(t - L).
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2 or u.shape[0] != 2:
        raise ValueError("u must be a 2 x T array")
    f, h = params.f, params.h
    if N_rf < 16 * f * h:
        raise ValueError(
            f"carrier under-resolved: need N_rf >= {16 * f * h:.0f}"
        )
    ratio = N_rf * dt / h
    if abs(ratio - round(ratio)) > 1e-9:
        raise ValueError("RF grid must refine the baseband grid")
    R = int(round(ratio))
    d_rf = channel.L * N_rf / h
    if abs(d_rf - round(d_rf)) > 1e-9 * max(1.0, d_rf):
        raise ValueError("delay not on the RF grid")
    d_rf = int(round(d_rf))

    T = u.shape[1]
    rf_dt = h / N_rf
    t_rf = np.arange(T * R) * rf_dt
    t_base = np.arange(T) * dt
    uI = np.interp(t_rf, t_base, u[0])
    uQ = np.interp(t_rf, t_base, u[1])
    carrier_c = np.cos(2.0 * np.pi * f * t_rf)
    carrier_s = np.sin(2.0 * np.pi * f * t_rf)

    tx = uI * carrier_c - uQ * carrier_s
    rx = np.zeros_like(tx)
    gain = params.a1 * params.a2 * channel.r
    rx[d_rf:] = gain * tx[:len(tx) - d_rf]

    sos = butter(8, (f / 10.0) / (0.5 / rf_dt), output="sos")
    bI = sosfilt(sos, 2.0 * rx * carrier_c)
    bQ = sosfilt(sos, -2.0 * rx * carrier_s)
    return np.vstack([bI[::R], bQ[::R]])

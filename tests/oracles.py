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
to at any set of grid points.
"""

import numpy as np
from scipy.signal import butter, sosfilt

from relaycancel.lifting import LiftedPlant
from relaycancel.lti import StateSpace
from relaycancel.relay import (
    CouplingChannel,
    GeneralizedPlantSpec,
    RelayParams,
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

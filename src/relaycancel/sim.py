"""Fine-grid hybrid simulation of the closed-loop relay station.

The fine grid has dt = h / oversample, and every input of the continuous
blocks is held constant over each fine step, so the exact zero-order-hold
discretization at dt describes them exactly.  The simulator does not
step that grid one sample at a time: it lifts the delay-free core over
one sampling period (``lifting.lift_core``, the FSFH lifting the design
uses) and steps once per period.  The core's fast inputs are the shaped
input v and one delayed-signal slot per coupling path; its held input is
the controller output u.  Every path delays the held u, so a path of d
fine steps shows substep j of period k the hold u[k + floor((j - d)/N)]
(zero before t = 0), read by index from the record of past holds.  The
digital canceler runs at the slow rate: the measurement is read at
t = k h from the previous hold and the delayed slots, and the new
controller output is held over [k h, (k+1) h).  One matrix product then
forms the fine-grid trace of every period.

The module also provides the input generators used by the experiments
(lifted the same way) and a passband oracle that modulates a baseband
signal onto the carrier, pushes it through the delay channel at an
RF-rate grid, demodulates and low-pass filters; its output validates the
baseband equivalence gain * rotation * u(t - L) numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import butter, sosfilt

from .lifting import lift_core
from .lti import StateSpace
from .relay import (
    CoreSystem,
    CouplingChannel,
    RelayParams,
    assemble_plant_core,
    build_perturbed_plant,
    delay_steps,
)

__all__ = [
    "InputSpec",
    "SimConfig",
    "SimulationTrace",
    "generate_input",
    "simulate_closed_loop",
    "passband_oracle",
    "metrics",
]

# Divergence declared at 10x the input peak: stable designs here keep the
# error below ~2.5x the input peak (worst case is the one-period lag after
# an input level flip), while unstable loops grow past 10x within tens of
# periods.  A much larger factor would let slowly growing instabilities
# (spectral radius near one) escape finite-horizon detection.
DIVERGENCE_FACTOR = 10.0


@dataclass(frozen=True)
class InputSpec:
    """Input signal description.

    kind "random_rect" draws i.i.d. +/-1 levels per period per channel;
    "unit_norm_l2" draws white noise normalized to unit L2 norm before
    filtering; "custom_samples" passes a 2 x T array through.  The filter
    shapes the raw signal with the exact fine-grid discretization of P or
    W.
    """

    kind: str = "random_rect"
    period: float = 4.0
    filter: str = "through_P"
    samples: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("random_rect", "unit_norm_l2", "custom_samples"):
            raise ValueError(f"unknown input kind {self.kind!r}")
        if self.filter not in ("none", "through_P", "through_W"):
            raise ValueError(f"unknown input filter {self.filter!r}")
        if self.kind == "random_rect" and not self.period > 0:
            raise ValueError("rect period must be positive")
        if self.kind == "custom_samples" and self.samples is None:
            raise ValueError("custom_samples requires samples")


@dataclass(frozen=True)
class SimConfig:
    """Closed-loop simulation configuration.

    The channel's extra paths, if any, are applied as physical detour
    paths.  oversample is the number of fine steps per sampling period;
    every path delay must land on the fine grid.
    """

    params: RelayParams
    channel: CouplingChannel
    K: object  # Controller or StateSpace at period h
    duration: float
    oversample: int = 64
    input: InputSpec = field(default_factory=InputSpec)
    seed: int = 0

    def __post_init__(self):
        if self.oversample < 8:
            raise ValueError("oversample must be at least 8")
        if not self.duration > 0:
            raise ValueError("duration must be positive")


@dataclass
class SimulationTrace:
    """Fine-grid record of one closed-loop run.

    l2_err is the L2 norm of the error and max_abs_err_tail its largest
    Euclidean I/Q norm ||err(t)||_2 over the last half of the run.
    diverged_at_s is the first fine-grid time whose error sample is
    non-finite or beyond the divergence threshold, None if there is none.
    """

    t: np.ndarray
    v: np.ndarray
    u: np.ndarray
    err: np.ndarray
    diverged: bool
    l2_err: float
    max_abs_err_tail: float
    diverged_at_s: float | None = None


def _stack_periods(signal: np.ndarray, N: int, n_per: int) -> np.ndarray:
    """2 x T fine-grid signal -> n_per x 2N FSFH stacks, zero-padded."""
    padded = np.zeros((2, n_per * N))
    padded[:, :signal.shape[1]] = signal
    return padded.T.reshape(n_per, 2 * N)


def _unstack_periods(stacks: np.ndarray, T: int) -> np.ndarray:
    """Inverse of _stack_periods, truncated to the first T samples."""
    return stacks.reshape(-1, 2).T[:, :T]


def _filter_fine(block: StateSpace, raw: np.ndarray, N: int,
                 h: float) -> np.ndarray:
    """Drive a continuous block with a piecewise-constant fine-grid signal.

    The grid has N steps per period h; the block is lifted over one
    period and stepped once per period.
    """
    core = CoreSystem(block, n_ext=2, n_ctrl=0, n_perf=2, n_meas=0,
                      chains=())
    lifted = lift_core(core, N, h).sys
    T = raw.shape[1]
    n_per = -(-T // N)
    w = _stack_periods(raw, N, n_per)
    x_w = w @ lifted.B.T
    X = np.empty((n_per, lifted.n_states))
    x = np.zeros(lifted.n_states)
    for k in range(n_per):
        X[k] = x
        x = lifted.A @ x + x_w[k]
    out = np.hstack([X, w]) @ np.hstack([lifted.C, lifted.D]).T
    return _unstack_periods(out, T)


def generate_input(spec: InputSpec, params: RelayParams, duration: float,
                   N_sim: int, seed: int) -> np.ndarray:
    """Deterministic 2 x T input signal on the fine grid."""
    dt = params.h / N_sim
    T = int(round(duration / dt))
    rng = np.random.default_rng(seed)
    if spec.kind == "random_rect":
        per_level = spec.period * N_sim / params.h
        if abs(per_level - round(per_level)) > 1e-9:
            raise ValueError("rect period not on the fine grid")
        per_level = int(round(per_level))
        n_levels = -(-T // per_level)
        levels = rng.choice([-1.0, 1.0], size=(2, n_levels))
        raw = np.repeat(levels, per_level, axis=1)[:, :T]
    elif spec.kind == "unit_norm_l2":
        raw = rng.standard_normal((2, T))
        raw /= np.sqrt(dt * np.sum(raw**2))
    else:
        raw = np.asarray(spec.samples, dtype=float)
        if raw.shape != (2, T):
            raise ValueError(f"custom samples must be 2 x {T}, got {raw.shape}")
    if spec.filter == "through_P":
        return _filter_fine(params.P, raw, N_sim, params.h)
    if spec.filter == "through_W":
        return _filter_fine(params.W, raw, N_sim, params.h)
    return raw


def _period_map(core: CoreSystem, N: int, h: float) -> StateSpace:
    """Lift the simulation core over one period.

    The core's inputs [v, u, delayed slots] are reordered to
    [v, delayed slots, u], so that v and the slots are fast inputs and u
    the held one: the lifted inputs are [v stack, one stack per slot, u]
    and its outputs [z stack, y].
    """
    n_slots = 2 * len(core.chains)
    order = np.r_[0:2, 4:4 + n_slots, 2:4]
    sys = core.sys
    period_core = CoreSystem(
        StateSpace(sys.A, sys.B[:, order], sys.C, sys.D[:, order]),
        n_ext=2 + n_slots, n_ctrl=2, n_perf=2, n_meas=2, chains=())
    return lift_core(period_core, N, h).sys


def simulate_closed_loop(cfg: SimConfig) -> SimulationTrace:
    """Run the hybrid loop one sampling period per step.

    Divergence (any error sample beyond DIVERGENCE_FACTOR times the
    input peak, or a non-finite state) is reported through the trace
    flag and diverged_at_s, never as an exception.
    """
    params = cfg.params
    N = cfg.oversample
    dt = params.h / N
    K = getattr(cfg.K, "sys", cfg.K)
    if not K.is_discrete or abs(K.dt - params.h) > 1e-12 * params.h:
        raise ValueError("controller period must equal the sampling period h")

    spec = build_perturbed_plant(params, cfg.channel)
    core = assemble_plant_core(spec, external_input=True)
    delays = [delay_steps(L, N, params.h) for L, _ in core.chains]
    lifted = _period_map(core, N, params.h)

    v = generate_input(cfg.input, params, cfg.duration, N, cfg.seed)
    T = v.shape[1]
    t = np.arange(T) * dt
    peak = float(np.max(np.abs(v))) if v.size else 0.0
    threshold = DIVERGENCE_FACTOR * max(peak, 1.0)
    n_per = -(-T // N)
    v_stack = _stack_periods(v, N, n_per)

    # Held input pairs of the lifted map: the N substeps of each delayed
    # slot, then u.  Pair p of period k reads the hold u[k + offs[p]], and
    # the hold history U keeps q zero rows for the holds before t = 0.
    # The measurement reads the substep-0 pairs before u[k] is computed,
    # so it takes the previous hold where offs says the current one.
    offs = np.concatenate(
        [(np.arange(N) - d) // N for d in delays] + [[0]])
    y_pairs = np.r_[np.arange(len(delays)) * N, len(delays) * N]
    y_offs = np.minimum(offs[y_pairs], -1)
    q = int(-y_offs.min())
    U = np.zeros((q + n_per, 2))

    n_v = 2 * N
    A = lifted.A
    B_held = lifted.B[:, n_v:]
    C_z, C_y = lifted.C[:n_v], lifted.C[n_v:]
    D_z_held = lifted.D[:n_v, n_v:]
    D_y_held = lifted.D[n_v:, n_v:].reshape(2, -1, 2)[:, y_pairs]
    D_y_held = D_y_held.reshape(2, -1)
    AK, BK, CK, DK = K.A, K.B, K.C, K.D

    X = np.empty((n_per + 1, A.shape[0]))
    x = np.zeros(A.shape[0])
    xK = np.zeros(K.n_states)
    with np.errstate(over="ignore", invalid="ignore"):
        x_v = v_stack @ lifted.B[:, :n_v].T
        y_v = v_stack @ lifted.D[n_v:, :n_v].T
        for k in range(n_per):
            X[k] = x
            y = C_y @ x + y_v[k] + D_y_held @ U[q + k + y_offs].ravel()
            U[q + k] = CK @ xK + DK @ y
            xK = AK @ xK + BK @ y
            x = A @ x + x_v[k] + B_held @ U[q + k + offs].ravel()
        X[n_per] = x

        # z = v - P u, and v reaches z only through a unit feedthrough, so
        # the canceler output is minus z without the v columns
        held = U[q + np.arange(n_per)[:, None] + offs].reshape(n_per,
                                                              2 * offs.size)
        u_stack = -(np.hstack([X[:n_per], held])
                    @ np.hstack([C_z, D_z_held]).T)
        u = _unstack_periods(u_stack, T)
        err = v - u
        bad = (~np.isfinite(err) | (np.abs(err) > threshold)).any(axis=0)

    first_bad = np.flatnonzero(bad)
    diverged_at = float(t[first_bad[0]]) if first_bad.size else None
    diverged = diverged_at is not None or not np.isfinite(X).all()
    l2_err, max_tail = compute_trace_stats(t, err)
    return SimulationTrace(t=t, v=v, u=u, err=err, diverged=diverged,
                           l2_err=l2_err, max_abs_err_tail=max_tail,
                           diverged_at_s=diverged_at)


def compute_trace_stats(t: np.ndarray, err: np.ndarray):
    """Error energy (trapezoidal) and the peak error over the last half.

    Both use the Euclidean norm of the I/Q error at each sample, so the
    peak is max ||err(t)||_2, not a per-channel maximum.
    """
    if t.size < 2:
        return 0.0, 0.0
    err_norm2 = np.einsum("ct,ct->t", err, err)
    l2_err = float(np.sqrt(np.trapezoid(err_norm2, t)))
    tail = t >= t[-1] / 2.0
    max_tail = float(np.max(np.sqrt(err_norm2[tail])))
    return l2_err, max_tail


def metrics(trace: SimulationTrace, gamma: float | None = None) -> dict:
    """Summary metrics; the energy uses trapezoidal quadrature."""
    out = {
        "l2_err": trace.l2_err,
        "max_abs_err_tail": trace.max_abs_err_tail,
        "diverged": trace.diverged,
        "diverged_at_s": trace.diverged_at_s,
    }
    if gamma is not None:
        out["bound_ratio"] = trace.l2_err / gamma
    return out


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

"""Fine-grid hybrid simulation of the closed-loop relay station.

The continuous blocks are advanced by their exact zero-order-hold
discretization at dt = h / oversample (every input is held constant over
each fine step), path delays are fine-grid circular buffers applying
their gain and I/Q rotation, and the digital canceler runs at the slow
rate: the measurement is read at t = k h, the controller output is held
over [k h, (k+1) h).  This stepping is exact for the piecewise-constant
interconnection structure and keeps the simulator bit-consistent with the
FSFH lifting.

The module also provides the input generators used by the experiments
and a passband oracle that modulates a baseband signal onto the carrier,
pushes it through the delay channel at an RF-rate grid, demodulates and
low-pass filters; its output validates the baseband equivalence
gain * rotation * u(t - L) numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.signal import butter, sosfilt

from .lti import StateSpace, zoh_discretize
from .relay import (
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
    """

    t: np.ndarray
    v: np.ndarray
    u: np.ndarray
    err: np.ndarray
    diverged: bool
    l2_err: float
    max_abs_err_tail: float


def _filter_fine(block: StateSpace, raw: np.ndarray, dt: float) -> np.ndarray:
    """Drive a continuous block with a piecewise-constant fine-grid signal."""
    d = zoh_discretize(block, dt)
    T = raw.shape[1]
    out = np.empty_like(raw)
    x = np.zeros(d.n_states)
    A, B, C, D = d.A, d.B, d.C, d.D
    for j in range(T):
        out[:, j] = C @ x + D @ raw[:, j]
        x = A @ x + B @ raw[:, j]
    return out


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
        return _filter_fine(params.P, raw, dt)
    if spec.filter == "through_W":
        return _filter_fine(params.W, raw, dt)
    return raw


def simulate_closed_loop(cfg: SimConfig) -> SimulationTrace:
    """Step the hybrid loop on the fine grid.

    Divergence (any error sample beyond DIVERGENCE_FACTOR times the
    input peak, or a non-finite state) is reported through the trace
    flag, never as an exception.
    """
    params = cfg.params
    N_sim = cfg.oversample
    dt = params.h / N_sim
    K = getattr(cfg.K, "sys", cfg.K)
    if not K.is_discrete or abs(K.dt - params.h) > 1e-12 * params.h:
        raise ValueError("controller period must equal the sampling period h")

    spec = build_perturbed_plant(params, cfg.channel)
    core = assemble_plant_core(spec, external_input=True)
    cd = zoh_discretize(core.sys, dt)
    lengths = [delay_steps(L, N_sim, params.h) for L, _ in core.chains]

    v = generate_input(cfg.input, params, cfg.duration, N_sim, cfg.seed)
    T = v.shape[1]
    t = np.arange(T) * dt
    peak = float(np.max(np.abs(v))) if v.size else 0.0
    threshold = DIVERGENCE_FACTOR * max(peak, 1.0)

    n_paths = len(lengths)
    bufs = [np.zeros((d, 2)) for d in lengths]
    heads = [0] * n_paths
    x = np.zeros(core.sys.n_states)
    xK = np.zeros(K.n_states)
    hold_u = np.zeros(2)
    err = np.zeros((2, T))

    A, B, C, D = cd.A, cd.B, cd.C, cd.D
    Cz, Cy = C[:2], C[2:]
    Dz, Dy = D[:2], D[2:]
    AK, BK, CK, DK = K.A, K.B, K.C, K.D

    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(T):
            dly = [bufs[i][heads[i]] if lengths[i] else hold_u
                   for i in range(n_paths)]
            if j % N_sim == 0:
                vin_y = np.concatenate([v[:, j], hold_u] + dly)
                y = Cy @ x + Dy @ vin_y
                hold_u = CK @ xK + DK @ y
                xK = AK @ xK + BK @ y
                # the new hold value takes effect immediately at t = k h
                dly = [bufs[i][heads[i]] if lengths[i] else hold_u
                       for i in range(n_paths)]
            vin = np.concatenate([v[:, j], hold_u] + dly)
            err[:, j] = Cz @ x + Dz @ vin
            x = A @ x + B @ vin
            for i in range(n_paths):
                if lengths[i]:
                    bufs[i][heads[i]] = hold_u
                    heads[i] = (heads[i] + 1) % lengths[i]

    u = v - err
    finite = np.isfinite(err).all()
    diverged = bool(not finite or np.any(np.abs(err) > threshold)
                    or not np.isfinite(x).all())
    l2_err, max_tail = compute_trace_stats(t, err)
    return SimulationTrace(t=t, v=v, u=u, err=err, diverged=diverged,
                           l2_err=l2_err, max_abs_err_tail=max_tail)


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

"""Fine-grid hybrid simulation of the closed-loop relay station.

The fine grid has dt = h / oversample, and every input of the continuous
blocks is held constant over each fine step, so the exact zero-order-hold
discretization at dt describes them exactly.  The simulator does not
step that grid one sample at a time: it lifts the delay-free core of the
perturbed plant with its delayed paths over one sampling period
(``lifting.lift_core``, the FSFH lifting the design uses, whose state
keeps the past holds the paths still read), closes the loop with
``lifting.lifted_closed_loop`` and steps it once per period, driven by
the shaped input v stacked as ``lifting`` lays out a lift (see its
module docstring).  The digital canceler thus runs at the slow rate:
the measurement is read at t = k h and the new controller output is
held over [k h, (k+1) h).  One matrix product then forms the
fine-grid trace of every period.

The module also provides the input generators used by the experiments,
lifted the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .lifting import (_stack_periods, _unstack_periods, lift_core,
                       lifted_closed_loop)
from .lti import StateSpace
from .relay import (
    CoreSystem,
    CouplingChannel,
    RelayParams,
    assemble_core_blocks,
    build_perturbed_plant,
)

__all__ = [
    "InputSpec",
    "SimConfig",
    "SimulationTrace",
    "generate_input",
    "simulate_closed_loop",
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
    K: StateSpace  # the controller's discrete system, at period h
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


def _step_periods(sys: StateSpace, w: np.ndarray):
    """Drive a lifted system with one input row per period.

    Returns the states before each period and after the last one, and
    the output rows.
    """
    n_per = w.shape[0]
    x_w = w @ sys.B.T
    X = np.empty((n_per + 1, sys.n_states))
    x = np.zeros(sys.n_states)
    for k in range(n_per):
        X[k] = x
        x = sys.A @ x + x_w[k]
    X[n_per] = x
    return X, np.hstack([X[:n_per], w]) @ np.hstack([sys.C, sys.D]).T


def _filter_fine(block: StateSpace, raw: np.ndarray, N: int,
                 h: float) -> np.ndarray:
    """Drive a continuous block with a piecewise-constant fine-grid signal.

    The grid has N steps per period h; the block is lifted over one
    period and stepped once per period.
    """
    core = CoreSystem(block, n_ext=2, n_ctrl=0, delays=())
    _, out = _step_periods(lift_core(core, N, h).sys, _stack_periods(raw, N))
    return _unstack_periods(out, raw.shape[1])


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
    if spec.filter == "none":
        return raw
    block = params.P if spec.filter == "through_P" else params.W
    return _filter_fine(block, raw, N_sim, params.h)


def simulate_closed_loop(cfg: SimConfig) -> SimulationTrace:
    """Run the hybrid loop one sampling period per step.

    Divergence (any error sample beyond DIVERGENCE_FACTOR times the
    input peak, or a non-finite state) is reported through the trace
    flag and diverged_at_s, never as an exception.
    """
    params = cfg.params
    N = cfg.oversample
    dt = params.h / N
    K = cfg.K
    if not K.is_discrete or abs(K.dt - params.h) > 1e-12 * params.h:
        raise ValueError("controller period must equal the sampling period h")

    spec = build_perturbed_plant(params, cfg.channel)
    # a unit feedthrough in place of W: the first input is the shaped v
    core = assemble_core_blocks(StateSpace.static(np.eye(2)), params.F,
                                params.P, spec.paths)
    # z = v - P u, and v reaches z only through a unit feedthrough; without
    # it the loop's output is minus the canceler output P u
    D = core.sys.D.copy()
    D[:2, :2] = 0.0
    core = replace(core, sys=replace(core.sys, D=D))
    loop = lifted_closed_loop(lift_core(core, N, params.h), K)

    v = generate_input(cfg.input, params, cfg.duration, N, cfg.seed)
    T = v.shape[1]
    t = np.arange(T) * dt
    peak = float(np.max(np.abs(v))) if v.size else 0.0
    threshold = DIVERGENCE_FACTOR * max(peak, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        X, out = _step_periods(loop, _stack_periods(v, N))
        u = -_unstack_periods(out, T)
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

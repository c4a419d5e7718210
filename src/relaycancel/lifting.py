"""Fast-sampling fast-hold (FSFH) lifting of the relay design plant.

The continuous-time design problem (minimize the worst-case L2 error over
continuous disturbances, through a sampler and hold at period h) is
approximated by a finite-dimensional discrete-time problem: disturbances
are restricted to signals held constant on a fast grid of N substeps per
period and performance outputs are sampled on the same grid.  Stacking
one slow period of the fast-rate channels yields a discrete generalized
plant at period h whose H-infinity norm converges to the sampled-data
norm as N grows.

Conventions (fixed; synthesis and simulation must agree):

* within one period the fast samples are stacked oldest first, in both
  the input and the output stacks, one I/Q pair after another: a core
  with fast inputs (w1, w2) gives [w1 stack, w2 stack, u], and likewise
  [z1 stack, z2 stack, y] for its outputs;
* the measurement is sampled at the start of the period (y at t = k h)
  and the controller output is held over [k h, (k+1) h);
* performance outputs are sampled at the substep starts t = k h + j h/N,
  j = 0..N-1.

Path delays are realized as chains of fast-rate unit-delay registers
acting on signals that are piecewise constant on the fast grid, which is
exact whenever L N / h is an integer.  Off-grid delays are a hard error:
silently rounding them would corrupt the robustness analysis.

The discrete l2 norm of the lifted system equals the L2-induced norm of
its piecewise-constant interpretation directly; the substep length
factors cancel between input and output, so no extra scaling is applied.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .lti import (
    STABILITY_MARGIN,
    StateSpace,
    hinf_norm,
    interconnect,
    stability_margin,
    zoh_discretize,
)
from .relay import (
    CoreSystem,
    GeneralizedPlantSpec,
    assemble_plant_core,
    delay_steps,
)

__all__ = [
    "LiftedPlant",
    "fsfh_lift",
    "lift_core",
    "lifted_closed_loop",
    "sampled_data_norm",
    "STATE_DIM_CAP",
]

logger = logging.getLogger(__name__)

# Guard against runaway N * order blow-ups.
STATE_DIM_CAP = 2000


@dataclass(frozen=True)
class LiftedPlant:
    """Discrete generalized plant produced by FSFH lifting.

    Inputs are [w stack (n_fast_in * N), u (n_ctrl)], outputs
    [z stack (n_fast_out * N), y (n_meas)], all at period h; each stack
    holds one I/Q pair's 2N fast samples after another, so channel k is
    the k-th block of 2N inputs and outputs.  delay_registers counts the
    fast-rate delay states that realize the path delays.  W2 is the
    uncertainty weight of a robust design plant, None otherwise.
    """

    sys: StateSpace
    N: int
    h: float
    n_fast_in: int
    n_fast_out: int
    n_ctrl: int
    n_meas: int
    delay_registers: int
    W2: StateSpace | None = None

    @property
    def n_w(self) -> int:
        return self.n_fast_in * self.N

    @property
    def n_z(self) -> int:
        return self.n_fast_out * self.N

    def channel_indices(self) -> list:
        """Stack indices of each channel, the same for w_k and z_k."""
        n = 2 * self.N
        return [np.arange(k * n, (k + 1) * n)
                for k in range(self.n_fast_in // 2)]


def lift_core(core: CoreSystem, N: int, h: float,
              state_cap: int = STATE_DIM_CAP) -> LiftedPlant:
    """Lift a delay-free core with register chains over one period.

    The core is discretized exactly at the substep h/N (all of its inputs
    are piecewise constant on the fast grid by construction), the delay
    chains are attached as shift registers at the fast rate and the N
    substeps are stacked into one slow-rate step.
    """
    if N < 1:
        raise ValueError("fast-rate factor N must be a positive integer")
    tau = h / N
    lengths = [delay_steps(L, N, h) for L, _ in core.chains]
    n_c = core.sys.n_states
    n_regs = 2 * sum(lengths)
    n_f = n_c + n_regs
    if n_f > state_cap:
        raise ValueError(
            f"lifted state dimension {n_f} exceeds the cap {state_cap}"
        )

    cd = zoh_discretize(core.sys, tau)
    n_ext, n_ctrl = core.n_ext, core.n_ctrl
    n_perf, n_meas = core.n_perf, core.n_meas
    nfi = n_ext + n_ctrl  # fast-step input width

    def source_cols(src):
        if src == "ctrl":
            return slice(n_ext, n_ext + n_ctrl)
        _, j = src
        return slice(j, j + 2)

    # fast one-step system: state [x_core, chain registers], input
    # [ext, u]; register block m of a chain holds its source value m
    # substeps ago, so the tail is the delayed signal.
    A_f = np.zeros((n_f, n_f))
    B_f = np.zeros((n_f, nfi))
    A_f[:n_c, :n_c] = cd.A
    B_f[:n_c, :n_ext] = cd.B[:, :n_ext]
    B_f[:n_c, n_ext:] = cd.B[:, n_ext:n_ext + n_ctrl]

    C_fast = np.zeros((n_perf + n_meas, n_f))
    D_fast = np.zeros((n_perf + n_meas, nfi))
    C_fast[:, :n_c] = cd.C
    D_fast[:, :n_ext] = cd.D[:, :n_ext]
    D_fast[:, n_ext:] = cd.D[:, n_ext:n_ext + n_ctrl]

    reg_base = n_c
    for k, ((L, src), d) in enumerate(zip(core.chains, lengths)):
        dly_cols = slice(n_ext + n_ctrl + 2 * k, n_ext + n_ctrl + 2 * k + 2)
        if d == 0:
            # degenerate chain: the delayed slot sees the source directly
            B_f[:n_c, source_cols(src)] += cd.B[:, dly_cols]
            D_fast[:, source_cols(src)] += cd.D[:, dly_cols]
            continue
        head = slice(reg_base, reg_base + 2)
        tail = slice(reg_base + 2 * (d - 1), reg_base + 2 * d)
        A_f[:n_c, tail] = cd.B[:, dly_cols]
        C_fast[:, tail] += cd.D[:, dly_cols]
        B_f[head, source_cols(src)] = np.eye(2)
        for m in range(1, d):
            dst = slice(reg_base + 2 * m, reg_base + 2 * m + 2)
            srcm = slice(reg_base + 2 * (m - 1), reg_base + 2 * m)
            A_f[dst, srcm] = np.eye(2)
        reg_base += 2 * d

    C_zf, C_yf = C_fast[:n_perf], C_fast[n_perf:]
    D_zf, D_yf = D_fast[:n_perf], D_fast[n_perf:]

    # stack N substeps: propagate the map (state0, stacked inputs) -> state;
    # the fast pair at columns (rows) p, p+1 of substep j goes to stacked
    # column (row) N p + 2 j
    n_in_total = N * n_ext + n_ctrl
    M = np.zeros((n_f, n_f + n_in_total))
    M[:, :n_f] = np.eye(n_f)
    z_rows = []
    y_rows = None
    for j in range(N):
        P_j = np.zeros((nfi, n_f + n_in_total))
        for p in range(0, n_ext, 2):
            col = n_f + N * p + 2 * j
            P_j[p:p + 2, col:col + 2] = np.eye(2)
        P_j[n_ext:, n_f + N * n_ext:] = np.eye(n_ctrl)
        z_rows.append(C_zf @ M + D_zf @ P_j)
        if j == 0:
            y_rows = C_yf @ M + D_yf @ P_j
        M = A_f @ M + B_f @ P_j

    z_stack = [z[p:p + 2] for p in range(0, n_perf, 2) for z in z_rows]
    CD = np.vstack(z_stack + [y_rows])
    sys = StateSpace(M[:, :n_f], M[:, n_f:], CD[:, :n_f], CD[:, n_f:], dt=h)
    return LiftedPlant(sys=sys, N=N, h=h, n_fast_in=n_ext,
                       n_fast_out=n_perf, n_ctrl=n_ctrl, n_meas=n_meas,
                       delay_registers=n_regs)


def fsfh_lift(plant: GeneralizedPlantSpec, N: int,
              state_cap: int = STATE_DIM_CAP) -> LiftedPlant:
    """FSFH lifting of the design plant at fast-rate factor N."""
    core = assemble_plant_core(plant)
    return lift_core(core, N, plant.h, state_cap)


def lifted_closed_loop(lp: LiftedPlant, K: StateSpace) -> StateSpace:
    """Close the controller channels of a lifted plant.

    Maps the fast-rate disturbance stack to the fast-rate performance
    stack; K must be a discrete system at period h with matching
    controller dimensions.
    """
    if not K.is_discrete:
        raise ValueError("controller must be discrete-time")
    return interconnect(lp.sys, K, partition=(lp.n_w, lp.n_z))


def sampled_data_norm(plant: GeneralizedPlantSpec, K: StateSpace, N: int,
                      tol: float = 1e-6) -> float:
    """FSFH approximation of the closed-loop sampled-data H-infinity norm.

    Converges to the true norm as N grows.  An unstable closed loop is
    reported as an infinite norm.
    """
    lp = fsfh_lift(plant, N)
    cl = lifted_closed_loop(lp, K)
    margin = stability_margin(cl)
    if not margin > STABILITY_MARGIN:  # is_stable's test, one eigensolve
        logger.warning(
            "sampled_data_norm: closed loop unstable at N=%d "
            "(spectral radius %.6f)", N, 1.0 - margin,
        )
        return math.inf
    return hinf_norm(cl, tol)

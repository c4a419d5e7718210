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

Every delay in the core acts on the held controller output u, so a
delay of d = L N / h substeps reads a past hold of u: the lifted state
keeps the holds that the delayed slots still read, and each substep
reads its hold by index.  That is exact whenever d is an integer.
Off-grid delays are a hard error: silently rounding them would corrupt
the robustness analysis.

The discrete l2 norm of the lifted system equals the L2-induced norm of
its piecewise-constant interpretation directly; the substep length
factors cancel between input and output, so no extra scaling is applied.
``closed_loop_norms`` is the one certificate of a lifted closed loop:
its spectral margin and the H-infinity norm of each channel.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .lti import (
    STABILITY_MARGIN,
    StateSpace,
    _hinf_norm,
    _spectral_radius,
    interconnect,
    subsystem,
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
    "closed_loop_norms",
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
    [z stack (n_fast_in * N), y (n_ctrl)], all at period h; each stack
    holds one I/Q pair's 2N fast samples after another, so channel k is
    the k-th block of 2N inputs and outputs.  W2 is the uncertainty
    weight of a robust design plant, None otherwise.
    """

    sys: StateSpace
    N: int
    h: float
    n_fast_in: int
    n_ctrl: int
    W2: StateSpace | None = None

    @property
    def n_w(self) -> int:
        """Width of the w stack, and of the z stack."""
        return self.n_fast_in * self.N

    n_z = n_w

    def channel_indices(self) -> list:
        """Stack indices of each channel, the same for w_k and z_k."""
        n = 2 * self.N
        return [np.arange(k * n, (k + 1) * n)
                for k in range(self.n_fast_in // 2)]


def lift_core(core: CoreSystem, N: int, h: float) -> LiftedPlant:
    """Lift a delay-free core and its delayed-u slots over one period.

    The core is discretized exactly at the substep h/N (all of its inputs
    are piecewise constant on the fast grid by construction) and the N
    substeps are stacked into one slow-rate step.  The lifted state is the
    core state followed by the last ceil(d_max/N) holds of u, most recent
    first, for a longest delay of d_max substeps.  Substep j of a slot
    with delay d reads hold floor((j - d)/N) of u: the current hold when
    j >= d and a history entry otherwise.
    """
    if N < 1:
        raise ValueError("fast-rate factor N must be a positive integer")
    delays = tuple(delay_steps(L, N, h) for L in core.delays)
    n_c, n_ext, n_u = core.sys.n_states, core.n_ext, core.n_ctrl
    depth = max((-(-d // N) for d in delays), default=0)
    n_s = n_c + n_u * depth
    if n_s > STATE_DIM_CAP:
        raise ValueError(
            f"lifted state dimension {n_s} exceeds the cap {STATE_DIM_CAP}"
        )
    # columns of the per-period map: [state, w stacks, u]; the fast pair
    # at columns (rows) p, p+1 of substep j goes to stacked column (row)
    # N p + 2 j
    u_col = n_s + N * n_ext
    n_cols = u_col + n_u

    def hold(s):
        """Column of hold s of u (0: this period's, s < 0: history)."""
        return u_col if s == 0 else n_c - n_u * (s + 1)

    cd = zoh_discretize(core.sys, h / N)
    eye2, eye_u = np.eye(2), np.eye(n_u)
    M = np.eye(n_c, n_cols)
    z_rows = []
    for j in range(N):
        P_j = np.zeros((cd.n_inputs, n_cols))
        for p in range(0, n_ext, 2):
            c = n_s + N * p + 2 * j
            P_j[p:p + 2, c:c + 2] = eye2
        # u, then one delayed-u slot per delay
        for i, d in enumerate((0,) + delays):
            r, c = n_ext + n_u * i, hold((j - d) // N)
            P_j[r:r + n_u, c:c + n_u] = eye_u
        z_rows.append(cd.C[:n_ext] @ M + cd.D[:n_ext] @ P_j)
        if j == 0:
            y_rows = cd.C[n_ext:] @ M + cd.D[n_ext:] @ P_j
        M = cd.A @ M + cd.B @ P_j

    # history entry i of the next period is hold -i of this one
    H = np.zeros((n_s - n_c, n_cols))
    for i in range(depth):
        c = hold(-i)
        H[n_u * i:n_u * (i + 1), c:c + n_u] = eye_u
    AB = np.vstack([M, H])
    z_stack = [z[p:p + 2] for p in range(0, n_ext, 2) for z in z_rows]
    CD = np.vstack(z_stack + [y_rows])
    sys = StateSpace(AB[:, :n_s], AB[:, n_s:], CD[:, :n_s], CD[:, n_s:],
                     dt=h)
    return LiftedPlant(sys=sys, N=N, h=h, n_fast_in=n_ext, n_ctrl=n_u)


def fsfh_lift(plant: GeneralizedPlantSpec, N: int) -> LiftedPlant:
    """FSFH lifting of the design plant at fast-rate factor N."""
    return lift_core(assemble_plant_core(plant), N, plant.h)


def lifted_closed_loop(lp: LiftedPlant, K: StateSpace) -> StateSpace:
    """Close the controller channels of a lifted plant.

    Maps the fast-rate disturbance stack to the fast-rate performance
    stack; K must be a discrete system at period h with matching
    controller dimensions.
    """
    if not K.is_discrete:
        raise ValueError("controller must be discrete-time")
    return interconnect(lp.sys, K, partition=(lp.n_w, lp.n_z))


def closed_loop_norms(lp: LiftedPlant, K: StateSpace) -> tuple:
    """(spectral margin, [H-infinity norm of each channel w_k -> z_k]) of
    the loop closed by K: one eigensolve, then ``lti.hinf_norm`` per
    channel, all infinite unless the margin exceeds ``STABILITY_MARGIN``.
    The channels share the loop's state matrix, so the norms reuse its
    spectral radius instead of solving it again."""
    cl = lifted_closed_loop(lp, K)
    rho = _spectral_radius(cl.A)
    margin = 1.0 - rho
    channels = lp.channel_indices()
    if not margin > STABILITY_MARGIN:
        return margin, [math.inf] * len(channels)
    return margin, [_hinf_norm(subsystem(cl, idx, idx), 1e-6, rho)
                    for idx in channels]


def sampled_data_norm(plant: GeneralizedPlantSpec, K: StateSpace,
                      N: int) -> float:
    """FSFH approximation of the closed-loop sampled-data H-infinity norm.

    Converges to the true norm as N grows.  An unstable closed loop is
    reported as an infinite norm.
    """
    margin, (gamma,) = closed_loop_norms(fsfh_lift(plant, N), K)
    if math.isinf(gamma):
        logger.warning(
            "sampled_data_norm: closed loop unstable at N=%d "
            "(spectral radius %.6f)", N, 1.0 - margin,
        )
    return gamma

"""Baseband-equivalent model of a full-duplex relay with coupling feedback.

The relay retransmits a 2-channel (I/Q) baseband signal while its own
transmission leaks back into the receiving antenna through one or more
delay paths.  Demodulating a delayed passband signal rotates the I/Q
pair, so each path acts on the baseband as

    gain * R(f, L) * u(t - L),    gain = a1 * a2 * r,

with R(f, L) the clockwise rotation by 2*pi*f*L.  The design plant
assembled here maps (disturbance w, held controller output u) to
(cancelation error z, sampled measurement y):

    z = W w - P u
    y = F W w + sum_i gain_i e^{-L_i s} R_i F P u

where W shapes the admissible inputs, F is the receive-side anti-alias
filter and P the transmit-side post filter.  Delays are kept symbolic
(never rationally approximated); they are resolved exactly on the fast
grid during lifting, which the simulator shares.  The plant's frequency
response with delays as exact phases, and the relative perturbation of
the detour paths, are test oracles (``tests/oracles.py``), not library
functions.

All blocks are 2x2 (I/Q pair); scalar transfer functions are promoted to
scalar * I2.  Everything here is a pure function of immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lti import StateSpace, from_tf, is_stable

__all__ = [
    "RelayParams",
    "CouplingChannel",
    "CouplingPath",
    "GeneralizedPlantSpec",
    "CoreSystem",
    "rotation_matrix",
    "scalar_block",
    "build_generalized_plant",
    "build_perturbed_plant",
    "uncertainty_weight",
    "assemble_plant_core",
    "assemble_core_blocks",
    "delay_steps",
]


def rotation_matrix(f: float, L: float) -> np.ndarray:
    """I/Q rotation caused by demodulating a signal delayed by L seconds.

    Returns [[cos a, sin a], [-sin a, cos a]] with a = 2*pi*f*L, an
    orthogonal matrix with determinant 1.
    """
    # reduce f*L modulo one carrier cycle so that integer products give the
    # identity exactly (f*L is ~1e4 in practice and would otherwise lose
    # several digits inside cos/sin)
    a = 2.0 * np.pi * ((f * L) % 1.0)
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, s], [-s, c]])


def scalar_block(num, den) -> StateSpace:
    """Promote a scalar transfer function to a 2x2 scalar * I system.

    The scalar realization is ``lti.from_tf``'s, so a constant den gives
    a static gain and an improper num raises ValueError.
    """
    siso = from_tf(num, den)
    return StateSpace(*(_two_blocks(M)
                        for M in (siso.A, siso.B, siso.C, siso.D)))


def _two_blocks(M: np.ndarray) -> np.ndarray:
    """[[M, 0], [0, M]], also for an M with no rows or no columns."""
    r, c = M.shape
    out = np.zeros((2 * r, 2 * c))
    out[:r, :c] = M
    out[r:, c:] = M
    return out


def _check_block(name: str, sys: StateSpace, strictly_proper: bool = False):
    if sys.is_discrete:
        raise ValueError(f"{name} must be a continuous-time system")
    if (sys.n_inputs, sys.n_outputs) != (2, 2):
        raise ValueError(f"{name} must be 2x2, got {sys.n_outputs}x{sys.n_inputs}")
    if not is_stable(sys):
        raise ValueError(f"{name} must be stable")
    if strictly_proper and not np.allclose(sys.D, 0.0):
        raise ValueError(f"{name} must be strictly proper (zero feedthrough)")


@dataclass(frozen=True)
class RelayParams:
    """Physical and filter parameters of the relay station.

    h is the controller sampling period [s], f the carrier frequency
    [Hz], a1/a2 the receive/transmit amplifier gains.  W is the (strictly
    proper) input spectrum weight, F the anti-alias filter and P the post
    filter; each is a stable 2x2 continuous system.
    """

    h: float
    f: float
    a1: float
    a2: float
    W: StateSpace
    F: StateSpace
    P: StateSpace

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("sampling period h must be positive")
        if not self.f > 0:
            raise ValueError("carrier frequency f must be positive")
        # a2 = 0 is allowed: it degenerates to an open loop (no coupling)
        if self.a1 < 0 or self.a2 < 0:
            raise ValueError("amplifier gains must be nonnegative")
        _check_block("W", self.W, strictly_proper=True)
        _check_block("F", self.F)
        _check_block("P", self.P)


@dataclass(frozen=True)
class CouplingChannel:
    """Nominal coupling path plus optional detour paths.

    The nominal path has attenuation r > 0 and delay L > 0; every extra
    path must be a detour, i.e. L_i > L.  extra_paths is a tuple of
    (r_i, L_i) pairs.
    """

    r: float
    L: float
    extra_paths: tuple = ()

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("nominal attenuation r must be positive")
        if not self.L > 0:
            raise ValueError("nominal delay L must be positive")
        paths = tuple((float(ri), float(Li)) for ri, Li in self.extra_paths)
        for ri, Li in paths:
            if ri < 0:
                raise ValueError("extra path attenuation must be nonnegative")
            if not Li > self.L:
                raise ValueError(
                    f"extra path delay {Li} must exceed the nominal delay {self.L}"
                )
        object.__setattr__(self, "extra_paths", paths)


@dataclass(frozen=True)
class CouplingPath:
    """One resolved feedback path: gain alpha, delay L, I/Q rotation."""

    alpha: float
    L: float
    rot: np.ndarray

    def __post_init__(self):
        rot = np.asarray(self.rot, dtype=float)
        rot.setflags(write=False)
        object.__setattr__(self, "rot", rot)


@dataclass(frozen=True)
class GeneralizedPlantSpec:
    """Factored design plant.

    The four blocks are kept as separate state-space factors together
    with the delay paths, so the delay stays exact until lifting.
    ``paths`` lists the coupling paths included in the plant (only the
    nominal one for the standard design plant; analysis plants may carry
    the detour paths as well).  ``channel`` retains the full channel
    description for uncertainty modeling.
    """

    params: RelayParams
    channel: CouplingChannel
    paths: tuple

    @property
    def h(self) -> float:
        return self.params.h


def _coupling_path(params: RelayParams, r: float, L: float) -> CouplingPath:
    """The path of attenuation r and delay L: gain a1 a2 r, rotation R(f, L)."""
    return CouplingPath(params.a1 * params.a2 * r, L,
                        rotation_matrix(params.f, L))


def build_generalized_plant(params: RelayParams,
                            channel: CouplingChannel) -> GeneralizedPlantSpec:
    """Design plant with only the nominal coupling path.

    Detour paths never enter the design plant; they are covered by the
    multiplicative uncertainty weight instead.
    """
    return GeneralizedPlantSpec(params=params, channel=channel, paths=(
        _coupling_path(params, channel.r, channel.L),))


def build_perturbed_plant(params: RelayParams,
                          channel: CouplingChannel) -> GeneralizedPlantSpec:
    """Analysis plant carrying the nominal path and every detour path."""
    return GeneralizedPlantSpec(params=params, channel=channel, paths=tuple(
        _coupling_path(params, r, L)
        for r, L in ((channel.r, channel.L), *channel.extra_paths)))


def uncertainty_weight(channel: CouplingChannel,
                       epsilon: float = 0.01) -> StateSpace:
    """Static multiplicative-uncertainty weight covering the detours.

    W2 = (sum_i r_i / r + epsilon) * I strictly dominates the largest
    singular value of the channel perturbation at every frequency, since
    each detour contributes at most r_i / r to it.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    bound = sum(ri for ri, _ in channel.extra_paths) / channel.r
    return StateSpace.static((bound + epsilon) * np.eye(2))


# ---------------------------------------------------------------------------
# Delay-free cores for lifting and simulation.
#
# Delays commute with the LTI blocks, so each path's delay is moved onto
# the held controller output u, which is constant over a sampling period.
# A delay of whole fast steps then reads a past hold of u, which lifting
# keeps in a history, and the remaining continuous core is delay-free.


@dataclass(frozen=True)
class CoreSystem:
    """Delay-free continuous core plus its delayed-u wiring.

    sys inputs are ordered [fast external inputs (n_ext), controller hold
    u (n_ctrl), one delayed-u slot (n_ctrl) per delay]; outputs are [fast
    performance outputs (n_ext, one per external input), measurement y
    (n_ctrl)].  delays[k] is the delay in seconds of the held u that
    drives delayed-u slot k, and path_states[k] the slice of path k's
    states (its x_Pd, x_Fd), which only slot k drives.
    """

    sys: StateSpace
    n_ext: int
    n_ctrl: int
    delays: tuple
    path_states: tuple = ()


def delay_steps(L: float, N: int, h: float) -> int:
    """Delay L in steps of a grid of N steps per period h; raises
    ValueError when L is off that grid."""
    d = L * N / h
    d_round = round(d)
    if abs(d - d_round) > 1e-9 * max(1.0, abs(d)):
        raise ValueError(
            f"delay not on FSFH grid: L={L} needs L*N/h integer at N={N}, "
            f"got {d} (increase N or adjust the delay)"
        )
    if d_round < 0:
        raise ValueError("negative delay")
    return int(d_round)


def assemble_plant_core(spec: GeneralizedPlantSpec,
                        W2: StateSpace | None = None) -> CoreSystem:
    """Delay-free core of the design plant.

    Inputs: [w (2), u (2), one delayed-u slot (2) per path]; outputs
    [z (2), y (2)].  With a static uncertainty weight ``W2``
    (``uncertainty_weight``'s) the core also carries the uncertainty
    channel of the robust design plant (see ``assemble_core_blocks``).
    """
    params = spec.params
    if W2 is not None:
        _check_block("W2", W2)
    return assemble_core_blocks(params.W, params.F, params.P, spec.paths, W2)


def assemble_core_blocks(W: StateSpace, F: StateSpace, P: StateSpace,
                         paths, W2: StateSpace | None = None) -> CoreSystem:
    """Delay-free core from raw blocks (no parameter validation).

    With a static gain ``W2`` (single-path plants only) the uncertainty
    channel

        z2 = W2 F P u(t-L),    y += alpha R w2

    is appended, so that closing w2 = Delta z2 with any ||Delta|| < 1
    reproduces every admissible channel perturbation.  z2 reads the
    nominal path's own F P u(t-L) states and delayed-u slot, so it adds
    no states; input w2 goes after w, output z2 after z.
    """
    M = len(paths)
    robust = W2 is not None
    if robust and (M != 1 or W2.n_states):
        raise ValueError("robust core expects the nominal single-path plant "
                         "and a static gain W2")

    nW, nF, nP = W.n_states, F.n_states, P.n_states
    # state layout: x_W | x_Pu | (x_Pd_i, x_Fd_i) per path | x_Fv
    sizes = [nW, nP] + [nP + nF] * M + [nF]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    n = offsets[-1]
    sW = slice(offsets[0], offsets[1])
    sPu = slice(offsets[1], offsets[2])
    path_slices = []
    for i in range(M):
        base = offsets[2 + i]
        path_slices.append((slice(base, base + nP),
                            slice(base + nP, base + nP + nF)))
    sFv = slice(offsets[2 + M], offsets[3 + M])

    n_ext = 4 if robust else 2  # w, then w2
    n_in = n_ext + 2 + 2 * M
    A = np.zeros((n, n))
    B = np.zeros((n, n_in))
    c_w, c_u = slice(0, 2), slice(n_ext, n_ext + 2)

    A[sW, sW] = W.A
    B[sW, c_w] = W.B
    A[sPu, sPu] = P.A
    B[sPu, c_u] = P.B
    # v = Cw x_W + Dw w feeds the receive filter copy
    A[sFv, sFv] = F.A
    A[sFv, sW] = F.B @ W.C
    B[sFv, c_w] = F.B @ W.D
    for i, (sPd, sFd) in enumerate(path_slices):
        c_dly = slice(n_ext + 2 + 2 * i, n_ext + 4 + 2 * i)
        A[sPd, sPd] = P.A
        B[sPd, c_dly] = P.B
        A[sFd, sFd] = F.A
        A[sFd, sPd] = F.B @ P.C
        B[sFd, c_dly] = F.B @ P.D

    C = np.zeros((n_ext + 2, n))
    D = np.zeros((n_ext + 2, n_in))
    rz, ry = slice(0, 2), slice(n_ext, n_ext + 2)
    # z = v - P u
    C[rz, sW] = W.C
    D[rz, c_w] = W.D
    C[rz, sPu] = -P.C
    D[rz, c_u] = -P.D
    # y = F v + sum_i alpha_i R_i F P (delayed u)
    C[ry, sFv] = F.C
    C[ry, sW] = F.D @ W.C
    D[ry, c_w] = F.D @ W.D
    for i, ((sPd, sFd), path) in enumerate(zip(path_slices, paths)):
        c_dly = slice(n_ext + 2 + 2 * i, n_ext + 4 + 2 * i)
        gR = path.alpha * path.rot
        C[ry, sFd] += gR @ F.C
        C[ry, sPd] += gR @ F.D @ P.C
        D[ry, c_dly] += gR @ F.D @ P.D

    if robust:
        (sPd, sFd), = path_slices
        c_dly = slice(n_ext + 2, n_ext + 4)
        # z2 = W2 F P u(t-L), from the nominal path's x_Pd, x_Fd and u_d
        C[2:4, sFd] = W2.D @ F.C
        C[2:4, sPd] = W2.D @ F.D @ P.C
        D[2:4, c_dly] = W2.D @ F.D @ P.D
        D[ry, 2:4] = paths[0].alpha * paths[0].rot
    return CoreSystem(StateSpace(A, B, C, D), n_ext=n_ext, n_ctrl=2,
                      delays=tuple(path.L for path in paths),
                      path_states=tuple(slice(sPd.start, sFd.stop)
                                        for sPd, sFd in path_slices))

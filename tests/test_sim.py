from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relaycancel.lti import StateSpace, zoh_discretize
from relaycancel.relay import (
    CouplingChannel,
    RelayParams,
    assemble_core_blocks,
    build_generalized_plant,
    build_perturbed_plant,
    delay_steps,
    rotation_matrix,
    scalar_block,
)
from relaycancel.lifting import fsfh_lift, lifted_closed_loop
from relaycancel.synthesis import synthesize_nominal
from relaycancel.sim import (
    DIVERGENCE_FACTOR,
    InputSpec,
    SimConfig,
    compute_trace_stats,
    generate_input,
    metrics,
    simulate_closed_loop,
)

from conftest import make_example_params
from oracles import passband_oracle

K_ZERO = StateSpace.static(np.zeros((2, 2)), dt=1.0)


# ---------------------------------------------------------------------------
# reference: the loop stepped once per fine step, with circular buffers for
# the path delays (the simulator's earlier implementation, kept as oracle)


def reference_filter(block, raw, dt):
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


def reference_input(spec, params, duration, N_sim, seed):
    raw = generate_input(replace(spec, filter="none"), params, duration,
                         N_sim, seed)
    if spec.filter == "none":
        return raw
    block = params.P if spec.filter == "through_P" else params.W
    return reference_filter(block, raw, params.h / N_sim)


def reference_simulate(cfg):
    """Step the hybrid loop on the fine grid; returns (v, u, err, diverged)."""
    params = cfg.params
    N_sim = cfg.oversample
    dt = params.h / N_sim
    K = cfg.K

    spec = build_perturbed_plant(params, cfg.channel)
    core = assemble_core_blocks(StateSpace.static(np.eye(2)), params.F,
                                params.P, spec.paths)
    cd = zoh_discretize(core.sys, dt)
    lengths = [delay_steps(L, N_sim, params.h) for L in core.delays]

    v = reference_input(cfg.input, params, cfg.duration, N_sim, cfg.seed)
    T = v.shape[1]
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
    return v, u, err, diverged


def assert_matches_reference(trace, cfg):
    """Period stepping agrees with fine stepping to rounding."""
    v, u, err, diverged = reference_simulate(cfg)
    tol = 1e-10 * np.max(np.abs(err))
    assert trace.diverged == diverged
    assert np.max(np.abs(trace.v - v)) <= tol
    assert np.max(np.abs(trace.err - err)) <= tol
    assert np.max(np.abs(trace.u - u)) <= tol


# ---------------------------------------------------------------------------
# generate_input


def test_rect_input_deterministic(example_params):
    spec = InputSpec(kind="random_rect", period=4.0, filter="none")
    a = generate_input(spec, example_params, 40.0, 16, seed=7)
    b = generate_input(spec, example_params, 40.0, 16, seed=7)
    assert np.array_equal(a, b)
    c = generate_input(spec, example_params, 40.0, 16, seed=8)
    assert not np.array_equal(a, c)


def test_rect_input_levels_and_period(example_params):
    spec = InputSpec(kind="random_rect", period=4.0, filter="none")
    v = generate_input(spec, example_params, 40.0, 16, seed=1)
    assert set(np.unique(v)) <= {-1.0, 1.0}
    # constant over each 4 s span: 64 fine samples per level
    for ch in range(2):
        blocks = v[ch].reshape(-1, 64)
        assert np.all(blocks == blocks[:, :1])


def test_rect_period_off_grid_rejected(example_params):
    spec = InputSpec(kind="random_rect", period=0.3, filter="none")
    with pytest.raises(ValueError, match="not on the fine grid"):
        generate_input(spec, example_params, 10.0, 16, seed=1)


def test_unit_norm_input_is_normalized(example_params):
    spec = InputSpec(kind="unit_norm_l2", filter="none")
    w = generate_input(spec, example_params, 50.0, 32, seed=3)
    dt = 1.0 / 32
    assert np.sqrt(dt * np.sum(w**2)) == pytest.approx(1.0, rel=1e-12)


def test_filtered_rect_has_energy_beyond_nyquist(example_params):
    # the whole point of the continuous-time design: the simulated input
    # keeps frequency content above pi/h even after the post filter
    spec = InputSpec(kind="random_rect", period=4.0, filter="through_P")
    v = generate_input(spec, example_params, 100.0, 64, seed=5)
    dt = 1.0 / 64
    freqs = np.fft.rfftfreq(v.shape[1], dt) * 2.0 * np.pi
    spectrum = np.abs(np.fft.rfft(v[0])) ** 2
    beyond = spectrum[freqs > np.pi].sum()
    total = spectrum.sum()
    assert beyond / total > 0.01


# ---------------------------------------------------------------------------
# simulate_closed_loop


def test_open_loop_error_equals_input(example_channel):
    params = make_example_params(a2=0.0)
    cfg = SimConfig(params=params, channel=example_channel, K=K_ZERO,
                    duration=20.0, oversample=16,
                    input=InputSpec(kind="random_rect", period=4.0,
                                    filter="through_P"), seed=11)
    trace = simulate_closed_loop(cfg)
    assert not trace.diverged
    assert np.allclose(trace.u, 0.0, atol=1e-14)
    assert np.allclose(trace.err, trace.v, atol=1e-14)
    l2_v, _ = compute_trace_stats(trace.t, trace.v)
    assert trace.l2_err == pytest.approx(l2_v, rel=1e-12)


def test_simulation_deterministic(example_params, example_channel):
    cfg = SimConfig(params=example_params, channel=example_channel, K=K_ZERO,
                    duration=10.0, oversample=16, seed=23)
    t1 = simulate_closed_loop(cfg)
    t2 = simulate_closed_loop(cfg)
    assert np.array_equal(t1.err, t2.err)
    assert np.array_equal(t1.v, t2.v)


def test_divergence_flag(example_params, example_channel):
    # static positive-gain controller through the alpha = 200 loop blows up
    K_bad = StateSpace.static(0.05 * np.eye(2), dt=1.0)
    cfg = SimConfig(params=example_params, channel=example_channel, K=K_bad,
                    duration=100.0, oversample=16, seed=2)
    trace = simulate_closed_loop(cfg)
    assert trace.diverged
    assert 0.0 <= trace.diverged_at_s < cfg.duration
    assert metrics(trace)["diverged_at_s"] == trace.diverged_at_s


def test_off_grid_delay_rejected(example_params):
    channel = CouplingChannel(r=0.2, L=1.0, extra_paths=((0.014, 1.1),))
    cfg = SimConfig(params=example_params, channel=channel, K=K_ZERO,
                    duration=10.0, oversample=16, seed=2)
    with pytest.raises(ValueError, match="not on FSFH grid"):
        simulate_closed_loop(cfg)


def test_metrics_trivial_and_analytic():
    t = np.linspace(0.0, 9.0, 9001)
    zero = np.zeros((2, t.size))
    assert compute_trace_stats(t, zero) == (0.0, 0.0)
    const = np.zeros((2, t.size))
    const[0] = 1.0
    l2, tail = compute_trace_stats(t, const)
    assert l2 == pytest.approx(3.0, rel=1e-9)  # sqrt(T), T = 9
    assert tail == pytest.approx(1.0, rel=1e-12)


def test_metrics_bound_ratio():
    t = np.linspace(0.0, 4.0, 401)
    err = np.zeros((2, t.size))
    err[1] = 0.5
    l2, tail = compute_trace_stats(t, err)
    from relaycancel.sim import SimulationTrace

    trace = SimulationTrace(t=t, v=err, u=err, err=err, diverged=False,
                            l2_err=l2, max_abs_err_tail=tail)
    m = metrics(trace, gamma=2.0)
    assert m["bound_ratio"] == pytest.approx(l2 / 2.0, rel=1e-12)
    assert not m["diverged"]


def test_grid_refinement_converges(example_params, example_channel):
    results = []
    for N_sim in (32, 64):
        cfg = SimConfig(params=example_params, channel=example_channel, K=K_ZERO,
                        duration=40.0, oversample=N_sim,
                        input=InputSpec(kind="random_rect", period=4.0,
                                        filter="through_P"), seed=31)
        results.append(simulate_closed_loop(cfg).l2_err)
    assert abs(results[1] - results[0]) / results[0] < 0.01


def test_simulation_matches_lifted_closed_loop(example_params, example_channel):
    # same fast grid, same piecewise-constant disturbance: the fine-grid
    # stepping and the lifted discrete loop are the same system
    N = 8
    spec = build_generalized_plant(example_params, example_channel)
    lp = fsfh_lift(spec, N)
    K = synthesize_nominal(lp, tol=1e-3, n_q=4, grid_size=64)

    rng = np.random.default_rng(41)
    periods = 12
    w = rng.standard_normal((2, periods * N))
    v = generate_input(InputSpec(kind="custom_samples", filter="through_W",
                                 samples=w),
                       example_params, float(periods), N, seed=0)
    cfg = SimConfig(params=example_params, channel=example_channel, K=K.sys,
                    duration=float(periods), oversample=N,
                    input=InputSpec(kind="custom_samples", filter="none",
                                    samples=v), seed=0)
    trace = simulate_closed_loop(cfg)

    cl = lifted_closed_loop(lp, K.sys)
    x = np.zeros(cl.n_states)
    err_lift = np.zeros((2, periods * N))
    for k in range(periods):
        w_stack = w[:, k * N:(k + 1) * N].T.reshape(-1)
        out = cl.C @ x + cl.D @ w_stack
        err_lift[:, k * N:(k + 1) * N] = out.reshape(N, 2).T
        x = cl.A @ x + cl.B @ w_stack
    assert np.max(np.abs(trace.err - err_lift)) < 1e-6


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), N=st.sampled_from([8, 12, 16]),
       kind=st.sampled_from(["random_rect", "unit_norm_l2",
                             "custom_samples"]),
       filt=st.sampled_from(["none", "through_P", "through_W"]),
       n_extra=st.integers(0, 2), short_delay=st.booleans(),
       dynamic_F=st.booleans(), feedthrough_P=st.booleans())
def test_period_stepping_matches_fine_stepping(seed, N, kind, filt, n_extra,
                                               short_delay, dynamic_F,
                                               feedthrough_P):
    rng = np.random.default_rng(seed)
    F = (scalar_block([1.0], [rng.uniform(0.05, 0.5), 1.0]) if dynamic_F
         else scalar_block([1.0], [1.0]))
    tau_P = rng.uniform(0.001, 0.3)
    P = scalar_block([rng.uniform(0.2, 1.0) * tau_P, 1.0] if feedthrough_P
                     else [1.0], [tau_P, 1.0])
    params = RelayParams(h=1.0, f=rng.uniform(1.0, 100.0), a1=1.0,
                         a2=rng.uniform(0.0, 200.0),
                         W=scalar_block([1.0], [rng.uniform(0.5, 3.0), 1.0]),
                         F=F, P=P)
    # on-grid delays: the nominal one within one period when short_delay
    d0 = int(rng.integers(1, N)) if short_delay else int(rng.integers(N, 3 * N))
    extra = tuple((rng.uniform(0.001, 0.05),
                   (d0 + int(rng.integers(1, 2 * N))) / N)
                  for _ in range(n_extra))
    channel = CouplingChannel(r=rng.uniform(0.05, 0.5), L=d0 / N,
                              extra_paths=extra)
    n_K = int(rng.integers(0, 4))
    A_K = rng.standard_normal((n_K, n_K))
    if n_K:
        A_K *= 0.6 / max(np.max(np.abs(np.linalg.eigvals(A_K))), 1e-3)
    gain = 10.0 ** rng.uniform(-3.0, -0.5)  # loops that settle and diverge
    K = StateSpace(A_K, rng.standard_normal((n_K, 2)),
                   gain * rng.standard_normal((2, n_K)),
                   gain * rng.standard_normal((2, 2)), dt=1.0)
    T = int(rng.integers(N + 1, 6 * N))  # rarely whole periods
    spec = InputSpec(kind=kind, period=int(rng.integers(1, 2 * N)) / N,
                     filter=filt,
                     samples=rng.standard_normal((2, T)))
    cfg = SimConfig(params=params, channel=channel, K=K, duration=T / N,
                    oversample=N, input=spec, seed=seed)
    assert_matches_reference(simulate_closed_loop(cfg), cfg)


# ---------------------------------------------------------------------------
# passband_oracle


def test_passband_oracle_zero_input(example_params, example_channel):
    u = np.zeros((2, 128))
    out = passband_oracle(u, example_params, example_channel, N_rf=160000,
                          dt=1.0 / 32)
    assert np.allclose(out, 0.0, atol=1e-12)


def test_passband_oracle_constant_input(example_params, example_channel):
    dt = 1.0 / 32
    T = int(4.0 / dt)
    u = np.zeros((2, T))
    u[0] = 1.0
    out = passband_oracle(u, example_params, example_channel, N_rf=160000, dt=dt)
    # alpha = 200, rotation = identity at integer f*L
    post = out[:, int(2.0 / dt):]
    assert np.allclose(post[0], 200.0, rtol=1e-3)
    assert np.allclose(post[1], 0.0, atol=0.5)


def test_passband_oracle_matches_baseband_formula(example_params):
    # fractional f*L so the rotation is nontrivial
    channel = CouplingChannel(r=0.2, L=1.000025, extra_paths=())
    params = make_example_params()
    dt = 1.0 / 40
    rng = np.random.default_rng(53)
    T = int(4.0 / dt)
    u = generate_input(InputSpec(kind="custom_samples", filter="through_W",
                                 samples=3.0 * rng.standard_normal((2, T))),
                       params, 4.0, 40, seed=0)
    N_rf = 1600000  # delay 1.000025 needs 40 RF steps per fine step
    out = passband_oracle(u, params, channel, N_rf=N_rf, dt=dt)

    alpha = 200.0
    R = rotation_matrix(params.f, channel.L)
    d = int(round(channel.L / dt))
    expected = np.zeros_like(u)
    expected[:, d:] = alpha * (R @ u[:, :T - d])
    window = slice(int(1.5 / dt), T)
    num = np.linalg.norm(out[:, window] - expected[:, window])
    den = np.linalg.norm(expected[:, window])
    assert num / den < 1e-2

import numpy as np
import pytest

from relaycancel import lifting
from relaycancel.lti import (
    StateSpace,
    hinf_norm,
    is_stable,
    subsystem,
    zoh_discretize,
)
from relaycancel.relay import (
    CouplingChannel,
    CouplingPath,
    RelayParams,
    assemble_core_blocks,
    assemble_plant_core,
    build_generalized_plant,
    build_perturbed_plant,
    scalar_block,
    uncertainty_weight,
)
from relaycancel.lifting import (
    STATE_DIM_CAP,
    closed_loop_norms,
    fsfh_lift,
    lift_core,
    lifted_closed_loop,
    sampled_data_norm,
)

from oracles import frequency_response


def oracle_fine_sim(core, N, h, w_fine, u_slow):
    """Sequential fine-grid simulation with explicit delay history.

    Independent of the history/stacking construction: delayed u is
    looked up from the stored fine-grid history of u.
    """
    tau = h / N
    cd = zoh_discretize(core.sys, tau)
    n_steps = w_fine.shape[1]
    n_perf = core.n_ext  # one performance output per external input
    x = np.zeros(core.sys.n_states)
    lengths = [round(L * N / h) for L in core.delays]
    history = []
    z = np.zeros((n_perf, n_steps))
    y = []
    for j in range(n_steps):
        u = u_slow[:, j // N]
        ext = w_fine[:, j]
        dly = []
        for d in lengths:
            if j - d >= 0:
                dly.append(history[j - d])
            else:
                dly.append(np.zeros(2))
        vin = np.concatenate([ext, u] + dly)
        out = cd.C @ x + cd.D @ vin
        z[:, j] = out[:n_perf]
        if j % N == 0:
            y.append(out[n_perf:])
        x = cd.A @ x + cd.B @ vin
        history.append(u)
    return z, np.array(y).T


def lifted_drive(lp, w_fine, u_slow):
    """Drive the lifted plant with the stacked input sequence.

    The stacks are pair-major: each I/Q pair's N fast samples follow one
    another, for the inputs and the outputs alike.
    """
    N = lp.N
    n_periods = w_fine.shape[1] // N
    sys = lp.sys
    x = np.zeros(sys.n_states)
    z = np.zeros((lp.n_fast_in, n_periods * N))
    y = np.zeros((lp.n_ctrl, n_periods))
    for k in range(n_periods):
        period = slice(k * N, (k + 1) * N)
        w_stack = np.concatenate([w_fine[p:p + 2, period].T.reshape(-1)
                                  for p in range(0, lp.n_fast_in, 2)])
        vin = np.concatenate([w_stack, u_slow[:, k]])
        out = sys.C @ x + sys.D @ vin
        for p in range(0, lp.n_fast_in, 2):
            z[p:p + 2, period] = out[N * p:N * (p + 2)].reshape(N, 2).T
        y[:, k] = out[lp.n_z:]
        x = sys.A @ x + sys.B @ vin
    return z, y


def history_bound(core, N, h):
    """Core states plus one I/Q pair per delay substep of every path."""
    return core.sys.n_states + 2 * sum(round(L * N / h)
                                       for L in core.delays)


# ---------------------------------------------------------------------------


def test_static_plant_lifts_to_replicated_gain():
    # all-static blocks, zero-delay path: no dynamics survive the lift
    W = StateSpace.static(np.eye(2))
    F = StateSpace.static(np.eye(2))
    P = StateSpace.static(2.0 * np.eye(2))
    path = CouplingPath(alpha=3.0, L=0.0, rot=np.eye(2))
    core = assemble_core_blocks(W, F, P, (path,))
    for N in (1, 3, 5):
        lp = lift_core(core, N, 1.0)
        assert lp.sys.n_states == 0
        # z_j = w_j - 2 u, y = w_0 + 6 u
        D = lp.sys.D
        for j in range(N):
            row = D[2 * j:2 * j + 2]
            expect = np.zeros((2, 2 * N + 2))
            expect[:, 2 * j:2 * j + 2] = np.eye(2)
            expect[:, 2 * N:] = -2.0 * np.eye(2)
            assert np.allclose(row, expect, atol=1e-14)
        yrow = D[2 * N:]
        assert np.allclose(yrow[:, :2], np.eye(2), atol=1e-14)
        assert np.allclose(yrow[:, 2 * N:], 6.0 * np.eye(2), atol=1e-14)


def test_example_lift_dimensions_and_stability(example_params, example_channel):
    spec = build_generalized_plant(example_params, example_channel)
    lp = fsfh_lift(spec, 16)
    # the delay L = h is one past hold of u
    assert lp.sys.n_states == assemble_plant_core(spec).sys.n_states + 2
    assert lp.sys.n_inputs == 2 * 16 + 2
    assert lp.sys.n_outputs == 2 * 16 + 2
    assert is_stable(lp.sys)


def test_off_grid_delay_is_hard_error(example_params):
    channel = CouplingChannel(r=0.2, L=1.0, extra_paths=((0.014, 1.1),))
    spec = build_perturbed_plant(example_params, channel)
    with pytest.raises(ValueError, match="not on FSFH grid"):
        fsfh_lift(spec, 16)
    lp = fsfh_lift(spec, 20)  # 22 substeps reach two holds back
    assert lp.sys.n_states == assemble_plant_core(spec).sys.n_states + 4


def test_state_cap_guard(example_params):
    # a detour at L = 1000 h keeps 1000 past holds of u: 8 core states
    # plus 2000 history states pass the cap; 900 h stays under it
    def core(L):
        channel = CouplingChannel(r=0.2, L=1.0, extra_paths=((0.01, L),))
        return assemble_plant_core(build_perturbed_plant(example_params,
                                                         channel))

    assert lift_core(core(900.0), 1, 1.0).sys.n_states == 1808
    with pytest.raises(ValueError,
                       match=f"dimension 2008 exceeds the cap {STATE_DIM_CAP}"):
        lift_core(core(1000.0), 1, 1.0)


def test_lift_matches_fine_grid_oracle():
    # random stable low-order blocks, delayed path on the grid
    rng = np.random.default_rng(101)
    W = scalar_block([0.8], [1.3, 1.0])
    F = scalar_block([1.0, 2.0], [0.7, 3.0])
    P = scalar_block([0.5], [0.2, 1.0])
    paths = (CouplingPath(alpha=1.7, L=0.75, rot=np.array([[0.0, 1.0],
                                                           [-1.0, 0.0]])),)
    core = assemble_core_blocks(W, F, P, paths)
    N, h, periods = 4, 1.0, 7
    lp = lift_core(core, N, h)
    assert lp.sys.n_states <= history_bound(core, N, h)
    w_fine = rng.standard_normal((2, N * periods))
    u_slow = rng.standard_normal((2, periods))
    z_orc, y_orc = oracle_fine_sim(core, N, h, w_fine, u_slow)
    z_lift, y_lift = lifted_drive(lp, w_fine, u_slow)
    assert np.max(np.abs(z_orc - z_lift)) < 1e-9
    assert np.max(np.abs(y_orc - y_lift)) < 1e-9


def test_lift_exactness_multi_path(example_params):
    channel = CouplingChannel(r=0.2, L=1.0, extra_paths=((0.05, 1.25),))
    spec = build_perturbed_plant(example_params, channel)
    core = assemble_plant_core(spec)
    N, h, periods = 8, 1.0, 5
    rng = np.random.default_rng(55)
    lp = lift_core(core, N, h)
    assert lp.sys.n_states <= history_bound(core, N, h)
    w_fine = rng.standard_normal((2, N * periods))
    u_slow = rng.standard_normal((2, periods))
    z_orc, y_orc = oracle_fine_sim(core, N, h, w_fine, u_slow)
    z_lift, y_lift = lifted_drive(lp, w_fine, u_slow)
    assert np.max(np.abs(z_orc - z_lift)) < 1e-9
    assert np.max(np.abs(y_orc - y_lift)) < 1e-9


@pytest.mark.parametrize("L", [0.25, 0.75, 1.0, 1.25, 2.5])
def test_lift_of_a_delayed_fast_source_matches_oracle(L):
    # the uncertainty channel reads the nominal path's delayed u: d < N,
    # d = N, d > N and two periods at N = 4
    rng = np.random.default_rng(int(100 * L))
    W = scalar_block([0.8], [1.3, 1.0])
    F = scalar_block([1.0, 2.0], [0.7, 3.0])
    P = scalar_block([0.5], [0.2, 1.0])
    W2 = scalar_block([0.3], [1.0])  # static, as uncertainty_weight's
    paths = (CouplingPath(alpha=1.7, L=L, rot=np.array([[0.0, 1.0],
                                                        [-1.0, 0.0]])),)
    core = assemble_core_blocks(W, F, P, paths, W2)
    N, h, periods = 4, 1.0, 6
    lp = lift_core(core, N, h)
    assert lp.sys.n_states <= history_bound(core, N, h)
    w_fine = rng.standard_normal((4, N * periods))
    u_slow = rng.standard_normal((2, periods))
    z_orc, y_orc = oracle_fine_sim(core, N, h, w_fine, u_slow)
    z_lift, y_lift = lifted_drive(lp, w_fine, u_slow)
    assert np.max(np.abs(z_orc - z_lift)) < 1e-12
    assert np.max(np.abs(y_orc - y_lift)) < 1e-12


def test_lift_is_linear_in_input_weight(example_params, example_channel):
    # doubling W doubles the response from w at every frequency
    spec = build_generalized_plant(example_params, example_channel)
    params2 = RelayParams(
        h=example_params.h, f=example_params.f, a1=example_params.a1, a2=example_params.a2,
        W=scalar_block([2.0], [2.0, 1.0]), F=example_params.F, P=example_params.P,
    )
    spec2 = build_generalized_plant(params2, example_channel)
    lp1 = fsfh_lift(spec, 4)
    lp2 = fsfh_lift(spec2, 4)
    w_cols = np.arange(lp1.n_w)
    z_rows = np.arange(lp1.n_z)
    g1 = subsystem(lp1.sys, z_rows, w_cols)
    g2 = subsystem(lp2.sys, z_rows, w_cols)
    for om in (0.0, 0.5, 2.0):
        r1 = frequency_response(g1, om)
        r2 = frequency_response(g2, om)
        assert np.linalg.norm(r2 - 2.0 * r1) < 1e-9


def test_closed_loop_with_zero_controller(example_params, example_channel):
    spec = build_generalized_plant(example_params, example_channel)
    lp = fsfh_lift(spec, 4)
    K0 = StateSpace.static(np.zeros((2, 2)), dt=1.0)
    cl = lifted_closed_loop(lp, K0)
    open_zw = subsystem(lp.sys, np.arange(lp.n_z), np.arange(lp.n_w))
    for om in (0.0, 0.4, 1.9):
        assert np.linalg.norm(
            frequency_response(cl, om) - frequency_response(open_zw, om)
        ) < 1e-10


def test_closed_loop_matches_pointwise_lft(example_params, example_channel):
    spec = build_generalized_plant(example_params, example_channel)
    lp = fsfh_lift(spec, 4)
    rng = np.random.default_rng(77)
    # a small stable controller
    K = StateSpace(0.3 * np.eye(2), rng.standard_normal((2, 2)),
                   rng.standard_normal((2, 2)) * 0.01,
                   0.01 * np.eye(2), dt=1.0)
    cl = lifted_closed_loop(lp, K)
    nw, nz = lp.n_w, lp.n_z
    for om in rng.uniform(0.0, np.pi, size=10):
        G = frequency_response(lp.sys, om)
        Kf = frequency_response(K, om)
        G11, G12 = G[:nz, :nw], G[:nz, nw:]
        G21, G22 = G[nz:, :nw], G[nz:, nw:]
        T = G11 + G12 @ Kf @ np.linalg.solve(np.eye(2) - G22 @ Kf, G21)
        assert np.linalg.norm(frequency_response(cl, om) - T) < 1e-8


def test_static_identity_norm_is_one():
    # open loop with unit feedthrough from w to z and no coupling
    W = StateSpace.static(np.eye(2))
    F = StateSpace.static(np.eye(2))
    P = StateSpace.static(np.eye(2))
    core = assemble_core_blocks(W, F, P, (CouplingPath(0.0, 1.0, np.eye(2)),))
    lp = lift_core(core, 4, 1.0)
    K0 = StateSpace.static(np.zeros((2, 2)), dt=1.0)
    cl = lifted_closed_loop(lp, K0)
    assert hinf_norm(cl, 1e-8) == pytest.approx(1.0, abs=1e-6)


def test_sampled_data_norm_reports_inf_for_unstable(example_params,
                                                    example_channel, caplog):
    spec = build_generalized_plant(example_params, example_channel)
    # positive feedback through the alpha=200 coupling destabilizes
    K_bad = StateSpace.static(0.1 * np.eye(2), dt=1.0)
    assert sampled_data_norm(spec, K_bad, 4) == np.inf
    cl = lifted_closed_loop(fsfh_lift(spec, 4), K_bad)
    radius = np.max(np.abs(np.linalg.eigvals(cl.A)))
    assert f"(spectral radius {radius:.6f})" in caplog.text


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(lifting, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lifting, name, counted)
    return calls


def test_closed_loop_norms_unstable_loop_is_one_eigensolve(
        example_params, example_channel, monkeypatch):
    lp = fsfh_lift(build_generalized_plant(example_params, example_channel),
                   4)
    K_bad = StateSpace.static(0.1 * np.eye(2), dt=1.0)
    margins = _count_calls(monkeypatch, "_spectral_radius")
    norms = _count_calls(monkeypatch, "_hinf_norm")
    margin, gammas = closed_loop_norms(lp, K_bad)
    assert gammas == [np.inf]
    assert len(margins) == 1 and not norms
    assert margin == 1.0 - np.max(np.abs(np.linalg.eigvals(
        lifted_closed_loop(lp, K_bad).A)))


def _robust_plant(params):
    """A two-channel robust plant at N = 4."""
    channel = CouplingChannel(0.2, 1.0, extra_paths=((0.02, 1.25),))
    spec = build_generalized_plant(params, channel)
    core = assemble_plant_core(spec, W2=uncertainty_weight(channel, 0.01))
    return lift_core(core, 4, spec.h)


def test_closed_loop_norms_per_channel(example_params):
    # the robust plant has two channels; each norm is that diagonal
    # block's bisection norm
    rp = _robust_plant(example_params)
    K0 = StateSpace.static(np.zeros((2, 2)), dt=1.0)
    margin, gammas = closed_loop_norms(rp, K0)
    cl = lifted_closed_loop(rp, K0)
    assert margin > 0.0 and len(gammas) == 2
    for gamma, idx in zip(gammas, rp.channel_indices()):
        assert gamma == hinf_norm(subsystem(cl, idx, idx), 1e-6)


def test_closed_loop_norms_solve_each_spectrum_once(example_params,
                                                    monkeypatch):
    # the loop's spectrum gives the margin and is handed to both channels'
    # norms; a channel's truncation solves its own state matrix once more
    rp = _robust_plant(example_params)
    K0 = StateSpace.static(np.zeros((2, 2)), dt=1.0)
    expected = closed_loop_norms(rp, K0)
    solved = []
    real = np.linalg.eigvals

    def counted(A):
        solved.append(np.array(A))
        return real(A)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    assert closed_loop_norms(rp, K0) == expected
    assert np.array_equal(solved[0], lifted_closed_loop(rp, K0).A)
    assert 1 <= len(solved) <= 1 + len(rp.channel_indices())
    assert not any(a.shape == b.shape and np.array_equal(a, b)
                   for i, a in enumerate(solved) for b in solved[:i])

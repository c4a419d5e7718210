"""Acceptance suite: the end-to-end design and reproduction criteria.

Each test prints one PASS/FAIL line.  Criterion 1 is split into the
stability part and the tail-error bound so a failure pinpoints the exact
sub-claim.  The tail-error bound is the one that causality and the
certified gain give for a sample-aligned rect input; the README's Tests
section has the argument.
"""

import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from relaycancel import lti
from relaycancel.lti import StateSpace, is_stable, zoh_discretize
from relaycancel.relay import (
    CouplingChannel,
    CouplingPath,
    assemble_core_blocks,
    build_generalized_plant,
    rotation_matrix,
    scalar_block,
    uncertainty_weight,
)
from relaycancel.lifting import (
    fsfh_lift,
    lift_core,
    lifted_closed_loop,
    sampled_data_norm,
)
from relaycancel import cli, synthesis
from relaycancel.synthesis import (
    build_robust_plant,
    robust_stability_sweep,
    synthesize_nominal,
    synthesize_robust,
)
from relaycancel.sim import (
    InputSpec,
    SimConfig,
    generate_input,
    simulate_closed_loop,
)
from relaycancel.cli import cmd_reproduce_paper

from conftest import make_example_params
from oracles import error_system_response, passband_oracle
from test_sim import assert_matches_reference

RECT_INPUT = InputSpec(kind="random_rect", period=4.0, filter="through_P")
FIG_SEED = 20260809
PERTURBED = CouplingChannel(r=0.2, L=1.0, extra_paths=((0.07 * 0.2, 1.1),))


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# nominal_design, the bundled nominal_60db design, is shared from conftest


@pytest.fixture(scope="module")
def lowgain_design(nominal_design):
    # as in reproduce-paper: the transmit gain leaves Q* unchanged, so the
    # 60 dB design's Q* is reused (and checked to fit)
    params = make_example_params(a2=100.0)
    channel = CouplingChannel(r=0.2, L=1.0)
    spec = build_generalized_plant(params, channel)
    K = synthesize_nominal(fsfh_lift(spec, 16), tol=1e-3, n_q=8,
                           grid_size=256,
                           reuse=nominal_design["K"])
    return {"params": params, "channel": channel, "spec": spec, "K": K}


@pytest.fixture(scope="module")
def robust_design():
    t0 = time.perf_counter()
    params = make_example_params(a2=100.0)
    channel = CouplingChannel(r=0.2, L=1.0, extra_paths=((0.1 * 0.2, 1.25),))
    spec = build_generalized_plant(params, channel)
    W2 = uncertainty_weight(channel, epsilon=0.01)
    rp = build_robust_plant(spec, W2, 4)
    K = synthesize_robust(rp, n_q=8, grid_size=256, margin=0.05)
    elapsed = time.perf_counter() - t0
    return {"params": params, "channel": channel, "spec": spec, "W2": W2,
            "K": K, "design_time": elapsed}


# ---------------------------------------------------------------------------
# criterion 1: nominal reproduction


def test_criterion_1_nominal_design_and_simulation(nominal_design):
    d = nominal_design
    t0 = time.perf_counter()
    cl = lifted_closed_loop(d["lp"], d["K"].sys)
    stable = is_stable(cl)
    cfg = SimConfig(params=d["params"], channel=d["channel"], K=d["K"].sys,
                    duration=100.0, oversample=64, input=RECT_INPUT,
                    seed=FIG_SEED)
    trace = simulate_closed_loop(cfg)
    elapsed = d["design_time"] + time.perf_counter() - t0
    ok = (stable and not trace.diverged and np.isfinite(d["K"].gamma_achieved)
          and elapsed <= 300.0)
    report("1 (design, stability, no divergence, runtime)", ok,
           f"gamma={d['K'].gamma_achieved:.4f} stable={stable} "
           f"diverged={trace.diverged} runtime={elapsed:.0f}s")


def test_criterion_1_tail_error_bound(nominal_design):
    """The fig9 tail error stays within what causality and gamma allow.

    The rect levels flip at sampling instants, and the canceler cannot see
    a flip before the next sample (test_flip_is_invisible_for_one_period),
    so no bound below half the level jump holds in the period after a flip.
    With ||.|| the Euclidean I/Q norm, the certified gain gives instead:

    (a) on every tail period whose samples all lie more than one period
        after the last flip, the input is a constant level and the error
        RMS over the period is at most gamma times the input RMS (the
        theta = 0 case of the certified norm);
    (b) over the whole tail, the error is at most the largest level jump
        plus gamma times the largest input: an unseen flip on top of the
        settled error.
    """
    d = nominal_design
    gamma = d["K"].gamma_achieved
    N = 64
    cfg = SimConfig(params=d["params"], channel=d["channel"], K=d["K"].sys,
                    duration=100.0, oversample=N, input=RECT_INPUT,
                    seed=FIG_SEED)
    trace = simulate_closed_loop(cfg)
    levels = generate_input(replace(RECT_INPUT, filter="none"), d["params"],
                            cfg.duration, N, FIG_SEED)
    # the run starts from rest, so t = 0 counts as a jump from zero
    jumps = np.linalg.norm(np.diff(levels, axis=1, prepend=0.0), axis=0)
    step = np.arange(jumps.size)
    last_flip = np.maximum.accumulate(np.where(jumps > 0.0, step, 0))
    tail = trace.t >= trace.t[-1] / 2.0  # the window of max_abs_err_tail
    settled = (tail & (step - last_flip > N)).reshape(-1, N).all(axis=1)

    def period_rms(x):
        return np.sqrt(np.mean(x.reshape(-1, N)[settled] ** 2, axis=1))

    e_norm = np.linalg.norm(trace.err, axis=0)
    v_norm = np.linalg.norm(trace.v, axis=0)
    settled_ratio = float(np.max(period_rms(e_norm) / period_rms(v_norm)))
    jump_bound = float(jumps.max() + gamma * v_norm[tail].max())
    ok = settled_ratio <= gamma and trace.max_abs_err_tail <= jump_bound
    report("1 (tail error bound)", ok,
           f"max_abs_err_tail={trace.max_abs_err_tail:.3f} vs bound "
           f"{jump_bound:.3f} (largest jump {jumps.max():.3f} + gamma*max|v|);"
           f" settled error/input RMS {settled_ratio:.4f} vs gamma "
           f"{gamma:.4f} on {int(settled.sum())} tail periods (see the "
           f"README's Tests section)")


def test_flip_is_invisible_for_one_period(nominal_design):
    # Two inputs that agree until a sample-aligned flip give the same
    # canceler output over the period that follows it, so one of the two
    # runs errs by at least half the jump there.
    d = nominal_design
    N, duration, flip = 64, 20.0, 640
    calm = np.ones((2, int(duration) * N))
    flipped = calm.copy()
    flipped[:, flip:] = -1.0
    traces = [
        simulate_closed_loop(SimConfig(
            params=d["params"], channel=d["channel"], K=d["K"].sys,
            duration=duration, oversample=N,
            input=InputSpec(kind="custom_samples", filter="through_P",
                            samples=levels)))
        for levels in (calm, flipped)
    ]
    after = slice(flip, flip + N)
    assert np.array_equal(traces[0].u[:, after], traces[1].u[:, after])
    half_jump = np.linalg.norm(flipped[:, flip] - calm[:, flip]) / 2.0
    assert max(tr.max_abs_err_tail for tr in traces) >= half_jump


# ---------------------------------------------------------------------------
# criterion 2: induced-gain bound on shaped disturbances


def test_criterion_2_l2_bound(nominal_design):
    d = nominal_design
    gamma = d["K"].gamma_achieved
    worst = 0.0
    for seed in range(1, 21):
        cfg = SimConfig(params=d["params"], channel=d["channel"], K=d["K"].sys,
                        duration=50.0, oversample=256,
                        input=InputSpec(kind="unit_norm_l2",
                                        filter="through_W"), seed=seed)
        trace = simulate_closed_loop(cfg)
        worst = max(worst, trace.l2_err / gamma)
    ok = worst <= 1.05
    report("2 (energy bound over 20 seeded disturbances)", ok,
           f"max ||v-u||_2 / gamma = {worst:.4f} (limit 1.05)")


# ---------------------------------------------------------------------------
# criterion 3: instability under unmodeled detour


def test_criterion_3_instability_reproduction(lowgain_design):
    d = lowgain_design
    cfg = SimConfig(params=d["params"], channel=PERTURBED, K=d["K"].sys,
                    duration=100.0, oversample=80, input=RECT_INPUT,
                    seed=FIG_SEED)
    trace = simulate_closed_loop(cfg)
    ok = trace.diverged
    report("3 (perturbed nominal loop diverges)", ok,
           f"diverged={trace.diverged} within 100 periods "
           f"(r1=0.07r, L1=1.1L)")


# ---------------------------------------------------------------------------
# criterion 4: robust reproduction


def test_criterion_4_robust_reproduction(robust_design):
    d = robust_design
    t0 = time.perf_counter()
    gamma2 = d["K"].gamma_achieved["gamma2"]
    cfg = SimConfig(params=d["params"], channel=PERTURBED, K=d["K"].sys,
                    duration=100.0, oversample=80, input=RECT_INPUT,
                    seed=FIG_SEED)
    trace = simulate_closed_loop(cfg)
    sweep = robust_stability_sweep(d["spec"], d["K"], n_cases=50, seed=0,
                                   N=4)
    elapsed = d["design_time"] + time.perf_counter() - t0
    w2_gain = d["W2"].D[0, 0]
    ok = (not trace.diverged and gamma2 <= 1.0 and sweep["all_stable"]
          and abs(w2_gain - 0.11) < 1e-12 and elapsed <= 900.0)
    report("4 (robust design survives perturbations)", ok,
           f"diverged={trace.diverged} ||T_z2w2||={gamma2:.4f}<=1 "
           f"sweep 50/50 stable={sweep['all_stable']} W2={w2_gain:.3f} "
           f"runtime={elapsed:.0f}s")


@pytest.mark.parametrize("design, perturbed, oversample, diverges", [
    ("nominal_design", False, 64, False),
    ("lowgain_design", True, 80, True),  # criterion 3's run
    ("robust_design", True, 80, False),
], ids=["fig9", "fig10", "fig11"])
def test_figure_runs_match_fine_stepping(request, design, perturbed,
                                         oversample, diverges):
    d = request.getfixturevalue(design)
    cfg = SimConfig(params=d["params"],
                    channel=PERTURBED if perturbed else d["channel"],
                    K=d["K"].sys, duration=100.0, oversample=oversample,
                    input=RECT_INPUT, seed=FIG_SEED)
    trace = simulate_closed_loop(cfg)
    assert_matches_reference(trace, cfg)
    # a diverging run records when it left the bound, a stable one does not
    if diverges:
        assert 0.0 < trace.diverged_at_s < cfg.duration
    else:
        assert trace.diverged_at_s is None


# ---------------------------------------------------------------------------
# criterion 5: FSFH refinement convergence


def test_criterion_5_fsfh_convergence(nominal_design):
    d = nominal_design
    g16 = sampled_data_norm(d["spec"], d["K"].sys, 16)
    g32 = sampled_data_norm(d["spec"], d["K"].sys, 32)
    rel = abs(g32 - g16) / g16
    ok = rel < 0.02
    report("5 (norm change 16->32 below 2%)", ok,
           f"gamma_16={g16:.6f} gamma_32={g32:.6f} rel change={rel:.5f}")


def test_norm_of_the_truncated_loop(nominal_design, monkeypatch):
    # the N=16 closed loop has 30 states and 17 Hankel singular values
    # above 1e-12 of the largest; its norm moves by far less than 1e-9
    cl = lifted_closed_loop(nominal_design["lp"], nominal_design["K"].sys)
    reduced, tail, rho = lti._balanced_truncation(
        cl, lti._spectral_radius(cl.A))
    assert reduced.n_states == 17 < cl.n_states == 30
    assert 0.0 < tail < 1e-12
    gamma = lti.hinf_norm(cl, 1e-6)

    def failing(A, B):
        raise np.linalg.LinAlgError("no Gramian")

    monkeypatch.setattr(lti, "_gramian_factor", failing)
    full = lti.hinf_norm(cl, 1e-6)
    assert abs(gamma - full) <= 1e-9 * full
    # the pencil test misses crossings on the flat full loop but
    # resolves the peak of the truncation
    peak = lti._sigma_max_grid(reduced, 512, np.linalg.norm(reduced.D, 2),
                               rho)[0]
    assert not lti._has_unit_circle_crossing(cl, 0.999 * peak)
    assert lti._has_unit_circle_crossing(reduced, (1.0 - 1e-6) * peak)
    assert not lti._has_unit_circle_crossing(reduced, (1.0 + 1e-6) * peak)


def test_fsfh_monotone_refinement(nominal_design):
    # refinement differences shrink (supporting study for criterion 5)
    d = nominal_design
    gammas = {N: sampled_data_norm(d["spec"], d["K"].sys, N)
              for N in (2, 4, 8, 16, 32)}
    ns = [2, 4, 8, 16, 32]
    diffs = [abs(gammas[b] - gammas[a]) for a, b in zip(ns, ns[1:])]
    assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(diffs, diffs[1:])), diffs


# ---------------------------------------------------------------------------
# criterion 6: numerical oracles


def test_criterion_6_numerical_oracles(example_params):
    rng = np.random.default_rng(606)
    details = []

    # ZOH against the truncated series of the augmented matrix
    worst_zoh = 0.0
    for _ in range(5):
        A = rng.standard_normal((2, 2))
        A = A - (np.max(np.linalg.eigvals(A).real) + 0.3) * np.eye(2)
        B = rng.standard_normal((2, 1))
        sys = StateSpace(A, B, np.eye(2), np.zeros((2, 1)))
        T = 0.1
        M = np.zeros((3, 3))
        M[:2, :2] = A * T
        M[:2, 2:] = B * T
        E = np.eye(3)
        term = np.eye(3)
        for k in range(1, 41):
            term = term @ M / k
            E = E + term
        d = zoh_discretize(sys, T)
        worst_zoh = max(worst_zoh,
                        np.linalg.norm(np.hstack([d.A, d.B]) - E[:2, :]))
    details.append(f"zoh_vs_series={worst_zoh:.2e}")

    # lifted plant against a sequential fine-grid simulation
    W = scalar_block([0.8], [1.3, 1.0])
    F = scalar_block([1.0], [1.0])
    P = scalar_block([0.5], [0.2, 1.0])
    path = CouplingPath(alpha=1.5, L=0.5, rot=rotation_matrix(3.0, 0.5))
    core = assemble_core_blocks(W, F, P, (path,))
    N, periods = 4, 6
    lp = lift_core(core, N, 1.0)
    w_fine = rng.standard_normal((2, N * periods))
    u_slow = rng.standard_normal((2, periods))
    cd = zoh_discretize(core.sys, 1.0 / N)
    x = np.zeros(core.sys.n_states)
    hist = []
    dsteps = 2
    z_ref = np.zeros((2, N * periods))
    for j in range(N * periods):
        u = u_slow[:, j // N]
        dly = hist[j - dsteps] if j - dsteps >= 0 else np.zeros(2)
        vin = np.concatenate([w_fine[:, j], u, dly])
        z_ref[:, j] = (cd.C @ x + cd.D @ vin)[:2]
        x = cd.A @ x + cd.B @ vin
        hist.append(u)
    xl = np.zeros(lp.sys.n_states)
    z_lift = np.zeros((2, N * periods))
    for k in range(periods):
        vin = np.concatenate([w_fine[:, k * N:(k + 1) * N].T.reshape(-1),
                              u_slow[:, k]])
        out = lp.sys.C @ xl + lp.sys.D @ vin
        z_lift[:, k * N:(k + 1) * N] = out[:lp.n_z].reshape(N, 2).T
        xl = lp.sys.A @ xl + lp.sys.B @ vin
    lift_err = float(np.max(np.abs(z_ref - z_lift)))
    details.append(f"lift_vs_fine={lift_err:.2e}")

    # rotation orthogonality and composition
    worst_rot = 0.0
    for _ in range(50):
        f = rng.uniform(1.0, 100.0)
        L1, L2 = rng.uniform(0.01, 3.0, size=2)
        R1, R2 = rotation_matrix(f, L1), rotation_matrix(f, L2)
        worst_rot = max(
            worst_rot,
            np.linalg.norm(R1.T @ R1 - np.eye(2)),
            abs(np.linalg.det(R1) - 1.0),
            np.linalg.norm(R1.T @ R2 - rotation_matrix(f, L2 - L1)),
        )
    details.append(f"rotation={worst_rot:.2e}")

    # channel perturbation bound on a 1000-point grid
    channel = CouplingChannel(r=0.2, L=1.0,
                              extra_paths=((0.015, 1.3), (0.005, 2.1)))
    bound = (0.015 + 0.005) / 0.2
    worst_e = max(
        np.linalg.svd(error_system_response(channel, om, 1e4),
                      compute_uv=False)[0]
        for om in np.linspace(0.0, 100.0, 1000)
    )
    details.append(f"sigma_E={worst_e:.4f}<= {bound:.4f}")

    # passband round trip against the baseband formula
    params = example_params
    chan = CouplingChannel(r=0.2, L=1.000025)
    dt = 1.0 / 32
    T = int(4.0 / dt)
    u = generate_input(InputSpec(kind="custom_samples", filter="through_W",
                                 samples=3.0 * rng.standard_normal((2, T))),
                       params, 4.0, 32, seed=0)
    out = passband_oracle(u, params, chan, N_rf=1280000, dt=dt)
    R = rotation_matrix(params.f, chan.L)
    dsh = int(round(chan.L / dt))  # 25 us off-grid remainder is negligible
    expected = np.zeros_like(u)
    expected[:, dsh:] = 200.0 * (R @ u[:, :T - dsh])
    win = slice(int(1.5 / dt), T)
    rel = (np.linalg.norm(out[:, win] - expected[:, win])
           / np.linalg.norm(expected[:, win]))
    details.append(f"passband={rel:.2e}")

    ok = (worst_zoh < 1e-10 and lift_err < 1e-9 and worst_rot < 1e-12
          and worst_e <= bound + 1e-12 and rel < 1e-2)
    report("6 (numerical oracles)", ok, ", ".join(details))


# ---------------------------------------------------------------------------
# criterion 7: determinism of the reproduction pipeline


def test_criterion_7_reproduction_determinism(tmp_path, monkeypatch):
    # minimax solves per design: nominal_60db (fig9) one, nominal_40db
    # (fig10) none (it reuses fig9's Q*), robust_40db (fig11) two (the warm
    # start and one constrained attempt).  fig11 is designed on a worker
    # thread alongside the other two, so each design counts its own solves
    # in a thread-local counter and records them under its config.
    names = ("nominal_60db", "nominal_40db", "robust_40db")
    configs = {name: cli.load_config(name) for name in names}
    local = threading.local()
    per_design = {name: [] for name in names}
    controllers = {}

    def counted_minimax(*args, **kwargs):
        local.solves += 1
        return solve_minimax(*args, **kwargs)

    def counted_design(cfg, *args, **kwargs):
        local.solves = 0
        result = design(cfg, *args, **kwargs)
        [name] = [n for n, c in configs.items() if c == cfg]
        per_design[name].append(local.solves)
        controllers[name] = result[1]
        return result

    solve_minimax, design = synthesis._solve_minimax, cli._design
    monkeypatch.setattr(synthesis, "_solve_minimax", counted_minimax)
    monkeypatch.setattr(cli, "_design", counted_design)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    rc1 = cmd_reproduce_paper(str(out1))
    rc2 = cmd_reproduce_paper(str(out2))
    assert per_design == {"nominal_60db": [1, 1], "nominal_40db": [0, 0],
                          "robust_40db": [2, 2]}
    same = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in ("fig9.csv", "fig10.csv", "fig11.csv", "summary.json")
    )
    # fig10 and fig11 are `simulate --config nominal_40db` of the two
    # 40 dB controllers
    as_simulated = True
    for fig, name in (("fig10", "nominal_40db"), ("fig11", "robust_40db")):
        ctrl = tmp_path / f"{name}.controller.yaml"
        cli.write_controller(controllers[name], ctrl)
        assert cli.cmd_simulate("nominal_40db", str(ctrl),
                                str(tmp_path / fig)) == 0
        as_simulated &= ((tmp_path / f"{fig}.csv").read_bytes()
                         == (out1 / f"{fig}.csv").read_bytes())
    ok = rc1 == 0 and rc2 == 0 and same and as_simulated
    report("7 (byte-identical reproduction)", ok,
           f"exit codes {rc1},{rc2}; identical CSVs and summary={same}; "
           f"fig10/fig11 equal to simulate's={as_simulated}")


def test_nominal_40db_detour_is_the_paper_perturbation():
    # reproduce-paper's fig10 and fig11 run on nominal_40db as written, so
    # its one detour path must be the paper's: 0.07 r at 1.1 L
    ch = cli.load_config("nominal_40db")["channel"]
    [path] = ch["extra_paths"]
    assert path["r"] == pytest.approx(0.07 * ch["r"], rel=1e-15, abs=0.0)
    assert path["L"] == 1.1 * ch["L"]

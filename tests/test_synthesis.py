from dataclasses import replace

import numpy as np
import pytest

from relaycancel.cli import read_controller, write_controller
from relaycancel.lti import (
    StateSpace,
    frequency_response,
    hinf_norm,
    is_stable,
    subsystem,
)
from relaycancel.relay import (
    CouplingChannel,
    build_generalized_plant,
    scalar_block,
    uncertainty_weight,
)
from relaycancel.lifting import fsfh_lift, lifted_closed_loop
from relaycancel.synthesis import (
    Controller,
    QParam,
    build_robust_plant,
    controller_from_q,
    design_reconstruction,
    fir_system,
    robust_stability_sweep,
    synthesize_nominal,
    synthesize_robust,
    verify_design,
    youla_closed_loop_maps,
)

from conftest import make_example_params


@pytest.fixture(scope="module")
def small_lifted():
    spec = build_generalized_plant(make_example_params(), CouplingChannel(0.2, 1.0))
    return spec, fsfh_lift(spec, 4)


@pytest.fixture(scope="module")
def small_robust():
    channel = CouplingChannel(0.2, 1.0, extra_paths=((0.02, 1.25),))
    spec = build_generalized_plant(make_example_params(a2=100.0), channel)
    W2 = uncertainty_weight(channel, 0.01)
    return spec, build_robust_plant(spec, W2, 4)


# ---------------------------------------------------------------------------
# FIR realization and Youla controller


def test_fir_system_response():
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal((4, 2, 2))
    q = fir_system(coeffs, 1.0)
    for th in rng.uniform(0.0, np.pi, size=6):
        z = np.exp(1j * th)
        expected = sum(coeffs[m] * z ** (-m) for m in range(4))
        assert np.linalg.norm(frequency_response(q, th) - expected) < 1e-12


def test_controller_from_q_pointwise(small_lifted):
    spec, lp = small_lifted
    maps = youla_closed_loop_maps(lp)
    rng = np.random.default_rng(7)
    coeffs = 0.2 * rng.standard_normal((3, 2, 2))
    qp = QParam(n_q=3, coeffs=coeffs, base=maps["G22"])
    K = controller_from_q(qp, lp.h)
    qsys = fir_system(coeffs, lp.h)
    for om in rng.uniform(0.0, np.pi, size=8):
        Qf = frequency_response(qsys, om)
        Gf = frequency_response(maps["G22"], om)
        expected = Qf @ np.linalg.solve(np.eye(2) + Gf @ Qf, np.eye(2))
        assert np.linalg.norm(frequency_response(K, om) - expected) < 1e-9


# ---------------------------------------------------------------------------
# the robust lifted plant and youla_closed_loop_maps


def test_robust_plant_extends_the_nominal_plant(small_robust):
    # channel 0 (w1 stack, u -> z1 stack, y) of the robust plant is the
    # nominal lifted plant: this pins the pair-by-pair stacking
    spec, rp = small_robust
    N = rp.N
    assert rp.n_w == rp.n_z == 4 * N
    assert rp.W2 is not None
    lp = fsfh_lift(spec, N)
    idx = np.r_[0:2 * N, 4 * N:4 * N + 2]
    block = subsystem(rp.sys, idx, idx)
    for th in (0.0, 0.4, 1.3, 2.8, np.pi):
        diff = frequency_response(block, th) - frequency_response(lp.sys, th)
        assert np.max(np.abs(diff)) <= 1e-10


def test_nominal_design_rejects_two_channel_plant(small_robust):
    spec, rp = small_robust
    with pytest.raises(ValueError, match="one-channel"):
        synthesize_nominal(rp, n_q=2, grid_size=16)



def test_youla_maps_open_loop_at_zero_q(small_robust):
    spec, rp = small_robust
    maps = youla_closed_loop_maps(rp)
    K0 = StateSpace.static(np.zeros((2, 2)), dt=rp.h)
    n = 2 * rp.N
    cl = lifted_closed_loop(rp, K0)
    for om in (0.1, 1.0, 2.5):
        T11 = frequency_response(maps["channels"][0]["T1"], om)
        actual = frequency_response(cl, om)[:n, :n]
        assert np.linalg.norm(T11 - actual) < 1e-10


def test_youla_affine_matches_lft(small_robust):
    # affine formula vs direct LFT of K(Q) with the plant
    spec, rp = small_robust
    maps = youla_closed_loop_maps(rp)
    rng = np.random.default_rng(11)
    coeffs = 0.05 * rng.standard_normal((4, 2, 2))
    qp = QParam(n_q=4, coeffs=coeffs, base=maps["G22"])
    K = controller_from_q(qp, rp.h)
    qsys = fir_system(coeffs, rp.h)
    n = 2 * rp.N
    cl = lifted_closed_loop(rp, K)
    assert len(maps["channels"]) == 2
    for om in rng.uniform(0.0, np.pi, size=10):
        Qf = frequency_response(qsys, om)
        full = frequency_response(cl, om)
        for k, ch in enumerate(maps["channels"]):
            T1 = frequency_response(ch["T1"], om)
            T2 = frequency_response(ch["T2"], om)
            T3 = frequency_response(ch["T3"], om)
            affine = T1 + T2 @ Qf @ T3
            block = full[k * n:(k + 1) * n, k * n:(k + 1) * n]
            assert np.linalg.norm(affine - block) < 1e-8


def test_youla_maps_scale_linearly(small_robust):
    spec, rp = small_robust
    maps = youla_closed_loop_maps(rp)
    rng = np.random.default_rng(13)
    coeffs = 0.1 * rng.standard_normal((2, 2, 2))
    for om in (0.2, 0.9, 2.9):
        for ch in maps["channels"]:
            T2 = frequency_response(ch["T2"], om)
            T3 = frequency_response(ch["T3"], om)
            qf = sum(coeffs[m] * np.exp(-1j * om * rp.h * m) for m in range(2))
            once = T2 @ qf @ T3
            twice = T2 @ (2.0 * qf) @ T3
            assert np.linalg.norm(twice - 2.0 * once) < 1e-12


def test_youla_affinity_in_q(small_robust):
    spec, rp = small_robust
    maps = youla_closed_loop_maps(rp)
    rng = np.random.default_rng(17)
    Q1 = rng.standard_normal((3, 2, 2))
    Q2 = rng.standard_normal((3, 2, 2))
    lam = 0.3
    for om in (0.15, 1.2):
        T1 = frequency_response(maps["channels"][0]["T1"], om)
        T2 = frequency_response(maps["channels"][0]["T2"], om)
        T3 = frequency_response(maps["channels"][0]["T3"], om)

        def tmap(Q):
            qf = sum(Q[m] * np.exp(-1j * om * rp.h * m) for m in range(3))
            return T1 + T2 @ qf @ T3

        blend = tmap(lam * Q1 + (1 - lam) * Q2)
        combo = lam * tmap(Q1) + (1 - lam) * tmap(Q2)
        assert np.linalg.norm(blend - combo) < 1e-10


# ---------------------------------------------------------------------------
# synthesize_nominal


def test_nominal_no_coupling_beats_open_loop():
    spec = build_generalized_plant(make_example_params(a2=0.0),
                                   CouplingChannel(0.2, 1.0))
    lp = fsfh_lift(spec, 4)
    K = synthesize_nominal(lp, tol=1e-3, n_q=4, grid_size=64, max_iter=120)
    cl = lifted_closed_loop(lp, K.sys)
    assert is_stable(cl)
    K0 = StateSpace.static(np.zeros((2, 2)), dt=1.0)
    gamma_open = hinf_norm(lifted_closed_loop(lp, K0), 1e-6)
    assert K.gamma_achieved <= gamma_open + 1e-6


def test_nominal_small_design_properties(small_lifted):
    spec, lp = small_lifted
    K = synthesize_nominal(lp, tol=1e-3, n_q=4, grid_size=64, max_iter=120)
    cl = lifted_closed_loop(lp, K.sys)
    assert is_stable(cl)
    assert np.isfinite(K.gamma_achieved)
    assert K.gamma_achieved < 1.0  # strictly better than doing nothing
    # achieved gamma dominates a dense grid evaluation of the closed loop
    grid = np.linspace(0.0, np.pi, 1024)
    grid_max = max(
        np.linalg.svd(frequency_response(cl, th), compute_uv=False)[0]
        for th in grid
    )
    assert K.gamma_achieved >= grid_max - 1e-6
    assert K.meta["controller_stable"] == is_stable(K.sys)
    # never worse than the open loop (Q = 0, T = T1) on the design grid
    T1 = youla_closed_loop_maps(lp)["channels"][0]["T1"]
    open_gain = max(
        np.linalg.svd(frequency_response(T1, om), compute_uv=False)[0]
        for om in np.geomspace(1e-3 / lp.h, np.pi / lp.h, 64)
    )
    assert K.meta["grid_objective"] <= open_gain


# ---------------------------------------------------------------------------
# design_reconstruction and its reuse across plants


def _small_lp(a2=1000.0, channel=CouplingChannel(0.2, 1.0), N=4, W=None):
    params = make_example_params(a2=a2)
    if W is not None:
        params = replace(params, W=W)
    return fsfh_lift(build_generalized_plant(params, channel), N)


SMALL_DESIGN = dict(tol=1e-3, n_q=4, grid_size=64, max_iter=120)


@pytest.fixture(scope="module")
def reconstruction_a2_1000():
    return design_reconstruction(_small_lp(a2=1000.0), **SMALL_DESIGN)


def test_reconstruction_is_channel_independent(reconstruction_a2_1000):
    ref = reconstruction_a2_1000
    lp_far = _small_lp(channel=CouplingChannel(0.5, 2.0))
    for lp in (_small_lp(a2=100.0), lp_far):
        other = design_reconstruction(lp, **SMALL_DESIGN)
        assert other.fingerprint == ref.fingerprint
        assert other.coeffs.tobytes() == ref.coeffs.tobytes()
    assert lp_far.sys.n_states > _small_lp().sys.n_states


def test_reused_reconstruction_matches_cold_design(reconstruction_a2_1000):
    lp = _small_lp(a2=100.0)
    cold = synthesize_nominal(lp, **SMALL_DESIGN)
    warm = synthesize_nominal(lp, **SMALL_DESIGN,
                              reconstruction=reconstruction_a2_1000)
    for name in ("A", "B", "C", "D"):
        assert (getattr(warm.sys, name).tobytes()
                == getattr(cold.sys, name).tobytes())
    assert warm.gamma_achieved == cold.gamma_achieved
    assert not cold.meta["reconstruction_reused"]
    assert warm.meta["reconstruction_reused"]
    assert warm.meta["iterations"] == 0 and cold.meta["iterations"] > 0
    assert warm.meta["grid_objective"] == cold.meta["grid_objective"]


def test_reconstruction_rejects_other_plants(reconstruction_a2_1000):
    rec = reconstruction_a2_1000
    other_W = _small_lp(W=scalar_block([1.0], [1.0, 1.0]))
    with pytest.raises(ValueError, match="grid responses differ"):
        synthesize_nominal(other_W, **SMALL_DESIGN, reconstruction=rec)
    with pytest.raises(ValueError, match="N=8"):
        synthesize_nominal(_small_lp(N=8), **SMALL_DESIGN, reconstruction=rec)
    with pytest.raises(ValueError, match="n_q=3"):
        synthesize_nominal(_small_lp(), **{**SMALL_DESIGN, "n_q": 3},
                           reconstruction=rec)


# ---------------------------------------------------------------------------
# synthesize_robust


def test_robust_vanishing_uncertainty_matches_nominal(small_lifted):
    # with W2 ~ 0 the constraint is inactive and the designs coincide
    spec, lp = small_lifted
    channel = CouplingChannel(0.2, 1.0)
    W2 = uncertainty_weight(channel, epsilon=1e-8)
    rp = build_robust_plant(spec, W2, 4)
    K_rob = synthesize_robust(rp, n_q=4, grid_size=64, margin=0.05,
                              max_iter=120)
    K_nom = synthesize_nominal(lp, tol=1e-3, n_q=4, grid_size=64,
                               max_iter=120)
    g1 = K_rob.gamma_achieved["gamma1"]
    assert g1 >= K_nom.gamma_achieved - 1e-4
    assert g1 == pytest.approx(K_nom.gamma_achieved, rel=0.02)


def test_robust_design_certificates(small_robust):
    spec, rp = small_robust
    K = synthesize_robust(rp, n_q=4, grid_size=96, margin=0.05, max_iter=150)
    assert K.gamma_achieved["gamma2"] <= 1.0
    assert K.meta["grid_gamma2"] <= 1.0 - K.meta["margin"] + 1e-8
    assert K.meta["controller_stable"] == is_stable(K.sys)


def test_robust_objective_monotone_in_n_q(small_robust):
    spec, rp = small_robust
    vals = []
    for n_q in (2, 4, 8):
        K = synthesize_robust(rp, n_q=n_q, grid_size=96, margin=0.05,
                              max_iter=150)
        vals.append(K.meta["grid_objective"])
    assert vals[1] <= vals[0] * (1.0 + 2e-3)
    assert vals[2] <= vals[1] * (1.0 + 2e-3)


def test_robust_rejects_bad_margin(small_robust):
    spec, rp = small_robust
    with pytest.raises(ValueError, match="margin"):
        synthesize_robust(rp, n_q=4, margin=0.5)


# ---------------------------------------------------------------------------
# verify_design and the robustness sweep


def test_verify_design_zero_controller(small_lifted):
    spec, lp = small_lifted
    K0 = Controller(sys=StateSpace.static(np.zeros((2, 2)), dt=1.0),
                    gamma_achieved=1.0, method="nominal_hinf")
    report = verify_design(spec, K0, N_verify=8)
    assert report["closed_loop_stable"]
    # doing nothing leaves the full shaped disturbance in the error
    assert 0.9 < report["gamma_verify"] < 1.1
    assert "l2_bound_statement" in report


def test_verify_design_refinement(small_lifted):
    spec, lp = small_lifted
    K = synthesize_nominal(lp, tol=1e-3, n_q=4, grid_size=64, max_iter=120)
    report = verify_design(spec, K, N_verify=8)
    assert report["closed_loop_stable"]
    assert report["gamma_verify"] == pytest.approx(K.gamma_achieved, rel=0.08)


def test_verify_design_robust_small_gain(small_robust):
    # the certificate is re-checked exactly at the design rate; a finer
    # lifting has no finite uncertainty-channel norm when F is allpass
    spec, rp = small_robust
    K = synthesize_robust(rp, n_q=4, grid_size=96, margin=0.05, max_iter=150)
    report = verify_design(spec, K, N_verify=8)
    assert report["closed_loop_stable"]
    assert report["small_gain_certified"]
    assert report["small_gain_rate"] == 4
    assert report["gamma2_design_rate"] <= 1.0


def test_verify_design_uses_the_recorded_w2(small_robust, tmp_path):
    # a robust controller re-verifies against the W2 it was designed
    # with, also after the controller file round trip
    spec, _ = small_robust
    rp = build_robust_plant(spec, uncertainty_weight(spec.channel, 0.05), 4)
    K = synthesize_robust(rp, n_q=4, grid_size=96, margin=0.05, max_iter=150)
    report = verify_design(spec, K, N_verify=8)
    assert report["gamma2_design_rate"] == K.gamma_achieved["gamma2"]
    path = tmp_path / "K.yaml"
    write_controller(K, path)
    report = verify_design(spec, read_controller(path), N_verify=8)
    assert report["gamma2_design_rate"] == K.gamma_achieved["gamma2"]
    bare = Controller(sys=K.sys, gamma_achieved=K.gamma_achieved,
                      method=K.method, meta={"N": 4})
    with pytest.raises(ValueError, match="W2"):
        verify_design(spec, bare, N_verify=8)


def test_robust_sweep_flags_unstable_cases(small_robust):
    spec, rp = small_robust
    # an aggressive non-robust controller: high-gain passthrough
    K_bad = Controller(sys=StateSpace.static(0.9 * np.eye(2), dt=1.0),
                       gamma_achieved=0.0, method="nominal_hinf")
    sweep = robust_stability_sweep(spec, K_bad, n_cases=10, seed=3, N=4)
    assert not sweep["all_stable"]


def test_robust_sweep_passes_for_robust_controller(small_robust):
    spec, rp = small_robust
    K = synthesize_robust(rp, n_q=4, grid_size=96, margin=0.05, max_iter=150)
    sweep = robust_stability_sweep(spec, K, n_cases=20, seed=5, N=4)
    assert sweep["all_stable"], sweep["failures"]

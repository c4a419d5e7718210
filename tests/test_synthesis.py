import hashlib
import logging
import re
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaycancel.cli import (
    config_objects,
    load_config,
    read_controller,
    write_controller,
)
from relaycancel.lti import (
    StateSpace,
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
from relaycancel import synthesis
from relaycancel.lifting import fsfh_lift, lifted_closed_loop
from relaycancel.synthesis import (
    Controller,
    SynthesisError,
    build_robust_plant,
    controller_from_q,
    fir_system,
    robust_stability_sweep,
    synthesize_nominal,
    synthesize_robust,
    verify_design,
)

from conftest import make_example_params
from oracles import (
    frequency_response,
    materialized_grid_responses,
    reference_cut_rows,
    reference_linprog,
    reference_prepare_oracle,
    reference_stability_sweep,
)


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


def _g22(lp):
    """The u -> y block of a lifted plant."""
    return subsystem(lp.sys, np.arange(lp.n_z, lp.n_z + lp.n_ctrl),
                     np.arange(lp.n_w, lp.n_w + lp.n_ctrl))


def test_controller_from_q_pointwise(small_lifted):
    spec, lp = small_lifted
    G22 = _g22(lp)
    rng = np.random.default_rng(7)
    coeffs = 0.2 * rng.standard_normal((3, 2, 2))
    K = controller_from_q(coeffs, G22)
    qsys = fir_system(coeffs, lp.h)
    for om in rng.uniform(0.0, np.pi, size=8):
        Qf = frequency_response(qsys, om)
        Gf = frequency_response(G22, om)
        expected = Qf @ np.linalg.solve(np.eye(2) + Gf @ Qf, np.eye(2))
        assert np.linalg.norm(frequency_response(K, om) - expected) < 1e-9


def test_controller_from_q_rejects_a_singular_loop():
    # I + D_Q D_G22 = 0: K = Q (I + G22 Q)^{-1} does not exist
    G22 = StateSpace.static(np.eye(2), dt=1.0)
    with pytest.raises(np.linalg.LinAlgError, match="singular algebraic"):
        controller_from_q(-np.eye(2)[None], G22)


# ---------------------------------------------------------------------------
# the robust lifted plant and the affine grid responses of the minimax


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


def test_uncertainty_channel_reads_the_delayed_u():
    # z2 = W2 F P u(t - L) is the nominal path's own signal, so at the
    # first substep it is W2 (alpha R)^-1 times y's u-part; w2 enters y
    # as the static alpha R on its first sample and drives no state
    cfg = load_config("robust_40db")
    params, channel = config_objects(cfg)
    spec = build_generalized_plant(params, channel)
    W2 = uncertainty_weight(channel, cfg["design"]["epsilon"])
    rp = build_robust_plant(spec, W2, 4)
    N, (path,) = rp.N, spec.paths
    assert rp.sys.n_states == 8
    u_cols = np.arange(rp.n_w, rp.n_w + 2)
    z2_first = subsystem(rp.sys, np.arange(2 * N, 2 * N + 2), u_cols)
    gain = W2.D @ np.linalg.inv(path.alpha * path.rot)
    for th in (0.0, 0.4, 1.3, 2.8, np.pi):
        expected = gain @ frequency_response(_g22(rp), th)
        diff = frequency_response(z2_first, th) - expected
        assert np.max(np.abs(diff)) <= 1e-12
    w2_cols = np.arange(2 * N, 4 * N)
    D_yw2 = rp.sys.D[rp.n_z:, w2_cols]
    assert np.array_equal(D_yw2[:, :2], path.alpha * path.rot)
    assert not D_yw2[:, 2:].any()
    assert not rp.sys.B[:, w2_cols].any()


def test_nominal_design_rejects_two_channel_plant(small_robust):
    spec, rp = small_robust
    with pytest.raises(ValueError, match="one-channel"):
        synthesize_nominal(rp, n_q=2, grid_size=16)



@pytest.fixture(scope="module")
def both_plants(small_lifted, small_robust):
    """The nominal (one-channel) and robust (two-channel) lifted plants."""
    return small_lifted[1], small_robust[1]


def _q_at(coeffs, om, h):
    return sum(c * np.exp(-1j * om * h * m) for m, c in enumerate(coeffs))


def test_youla_maps_open_loop_at_zero_q(both_plants):
    # T1 of every channel is that channel of the loop closed by K = 0
    oms = np.array([0.1, 1.0, 2.5])
    for lp in both_plants:
        K0 = StateSpace.static(np.zeros((2, 2)), dt=lp.h)
        cl = lifted_closed_loop(lp, K0)
        chans = synthesis._affine_blocks(lp, oms)
        assert len(chans) == len(lp.channel_indices())
        for j, om in enumerate(oms):
            full = frequency_response(cl, om)
            for (T1, _, _), idx in zip(chans, lp.channel_indices()):
                block = full[np.ix_(idx, idx)]
                assert np.linalg.norm(T1[j] - block) < 1e-10


def test_youla_affine_matches_lft(both_plants):
    # affine formula vs direct LFT of K(Q) with the plant
    rng = np.random.default_rng(11)
    oms = rng.uniform(0.0, np.pi, size=10)
    for lp in both_plants:
        coeffs = 0.05 * rng.standard_normal((4, 2, 2))
        cl = lifted_closed_loop(lp, controller_from_q(coeffs, _g22(lp)))
        chans = synthesis._affine_blocks(lp, oms)
        for j, om in enumerate(oms):
            Qf = _q_at(coeffs, om, lp.h)
            full = frequency_response(cl, om)
            for (T1, T2, T3), idx in zip(chans, lp.channel_indices()):
                affine = T1[j] + T2[j] @ Qf @ T3[j]
                assert np.linalg.norm(affine - full[np.ix_(idx, idx)]) < 1e-8


def test_youla_maps_scale_linearly(both_plants):
    rng = np.random.default_rng(13)
    coeffs = 0.1 * rng.standard_normal((2, 2, 2))
    oms = np.array([0.2, 0.9, 2.9])
    for lp in both_plants:
        for _, T2, T3 in synthesis._affine_blocks(lp, oms):
            for j, om in enumerate(oms):
                qf = _q_at(coeffs, om, lp.h)
                once = T2[j] @ qf @ T3[j]
                twice = T2[j] @ (2.0 * qf) @ T3[j]
                assert np.linalg.norm(twice - 2.0 * once) < 1e-12


def test_youla_affinity_in_q(both_plants):
    rng = np.random.default_rng(17)
    Q1 = rng.standard_normal((3, 2, 2))
    Q2 = rng.standard_normal((3, 2, 2))
    lam = 0.3
    oms = np.array([0.15, 1.2])
    for lp in both_plants:
        blocks = synthesis._affine_blocks(lp, oms)[0]
        for j, om in enumerate(oms):
            T1, T2, T3 = (block[j] for block in blocks)

            def tmap(Q):
                return T1 + T2 @ _q_at(Q, om, lp.h) @ T3

            blend = tmap(lam * Q1 + (1 - lam) * Q2)
            combo = lam * tmap(Q1) + (1 - lam) * tmap(Q2)
            assert np.linalg.norm(blend - combo) < 1e-10


# ---------------------------------------------------------------------------
# synthesize_nominal


def test_nominal_no_coupling_beats_open_loop():
    spec = build_generalized_plant(make_example_params(a2=0.0),
                                   CouplingChannel(0.2, 1.0))
    lp = fsfh_lift(spec, 4)
    K = synthesize_nominal(lp, tol=1e-3, n_q=4, grid_size=64)
    cl = lifted_closed_loop(lp, K.sys)
    assert is_stable(cl)
    K0 = StateSpace.static(np.zeros((2, 2)), dt=1.0)
    gamma_open = hinf_norm(lifted_closed_loop(lp, K0), 1e-6)
    assert K.gamma_achieved <= gamma_open + 1e-6


def test_nominal_small_design_properties(small_lifted):
    spec, lp = small_lifted
    K = synthesize_nominal(lp, tol=1e-3, n_q=4, grid_size=64)
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
    [(T1, _, _)] = synthesis._affine_blocks(
        lp, np.geomspace(1e-3 / lp.h, np.pi / lp.h, 64))
    open_gain = np.linalg.svd(T1, compute_uv=False)[:, 0].max()
    assert K.meta["grid_objective"] <= open_gain


# ---------------------------------------------------------------------------
# the nominal Q* (meta["q"]) and its reuse across plants


def _small_lp(a2=1000.0, channel=CouplingChannel(0.2, 1.0), N=4, W=None):
    params = make_example_params(a2=a2)
    if W is not None:
        params = replace(params, W=W)
    return fsfh_lift(build_generalized_plant(params, channel), N)


SMALL_DESIGN = dict(tol=1e-3, n_q=4, grid_size=64)


def _q(K):
    return np.asarray(K.meta["q"])


@pytest.fixture(scope="module")
def nominal_a2_1000():
    return synthesize_nominal(_small_lp(a2=1000.0), **SMALL_DESIGN)


def test_reconstruction_is_channel_independent(nominal_a2_1000):
    ref = nominal_a2_1000
    lp_far = _small_lp(channel=CouplingChannel(0.5, 2.0))
    for lp in (_small_lp(a2=100.0), lp_far):
        other = synthesize_nominal(lp, **SMALL_DESIGN)
        assert other.meta["grid_fingerprint"] == ref.meta["grid_fingerprint"]
        assert _q(other).tobytes() == _q(ref).tobytes()
    assert lp_far.sys.n_states > _small_lp().sys.n_states


def test_reused_reconstruction_matches_cold_design(nominal_a2_1000,
                                                   monkeypatch):
    lp = _small_lp(a2=100.0)
    cold = synthesize_nominal(lp, **SMALL_DESIGN)

    def no_factoring(*args):
        raise AssertionError("the reuse path factored the oracle")

    # reuse only fingerprints the grid
    monkeypatch.setattr(synthesis, "_prepare_oracle", no_factoring)
    warm = synthesize_nominal(lp, **SMALL_DESIGN, reuse=nominal_a2_1000)
    for name in ("A", "B", "C", "D"):
        assert (getattr(warm.sys, name).tobytes()
                == getattr(cold.sys, name).tobytes())
    assert warm.gamma_achieved == cold.gamma_achieved
    assert not cold.meta["reconstruction_reused"]
    assert warm.meta["reconstruction_reused"]
    assert warm.meta["iterations"] == 0 and cold.meta["iterations"] > 0
    assert warm.meta["grid_objective"] == cold.meta["grid_objective"]


def test_reconstruction_rejects_other_plants(nominal_a2_1000, small_robust):
    rec = nominal_a2_1000
    other_W = _small_lp(W=scalar_block([1.0], [1.0, 1.0]))
    with pytest.raises(ValueError, match="grid responses differ"):
        synthesize_nominal(other_W, **SMALL_DESIGN, reuse=rec)
    with pytest.raises(ValueError, match="N=8"):
        synthesize_nominal(_small_lp(N=8), **SMALL_DESIGN, reuse=rec)
    with pytest.raises(ValueError, match="n_q=3"):
        synthesize_nominal(_small_lp(), **{**SMALL_DESIGN, "n_q": 3},
                           reuse=rec)
    # a robust design records no h or max_iter, so it never fits
    robust = synthesize_robust(small_robust[1], **SMALL_DESIGN)
    with pytest.raises(ValueError, match="h=1.0"):
        synthesize_nominal(_small_lp(), **SMALL_DESIGN, reuse=robust)


def test_reuse_survives_the_controller_file(nominal_a2_1000, tmp_path):
    # Q* and its fingerprint travel in the controller YAML
    path = tmp_path / "K.yaml"
    write_controller(nominal_a2_1000, path)
    lp = _small_lp(a2=100.0)
    from_file = synthesize_nominal(lp, **SMALL_DESIGN,
                                   reuse=read_controller(path))
    direct = synthesize_nominal(lp, **SMALL_DESIGN, reuse=nominal_a2_1000)
    for name in ("A", "B", "C", "D"):
        assert (getattr(from_file.sys, name).tobytes()
                == getattr(direct.sys, name).tobytes())
    assert from_file.meta == direct.meta


def _bundled_design_plant(name):
    """The lifted plant a bundled config designs on, and its settings."""
    cfg = load_config(name)
    d = cfg["design"]
    params, channel = config_objects(cfg)
    spec = build_generalized_plant(params, channel)
    if d["mode"] == "robust":
        W2 = uncertainty_weight(channel, d["epsilon"])
        return build_robust_plant(spec, W2, d["N"]), d
    return fsfh_lift(spec, d["N"]), d


def _design_omegas(lp, grid_size):
    return np.geomspace(1e-3 / lp.h, np.pi / lp.h, grid_size)


@pytest.mark.parametrize("name", ["nominal_60db", "robust_40db"])
def test_t1_per_point_is_bitwise_the_materialized_grid(name):
    # the evaluator on the whole grid, walked in blocks as the oracle
    # preparation and the fingerprint walk it, and at the scattered
    # points a cut asks for, is bitwise the per-point solve
    lp, d = _bundled_design_plant(name)
    omegas = _design_omegas(lp, d["grid_size"])
    refs = materialized_grid_responses(lp, omegas)
    whole = synthesis._affine_blocks(lp, omegas)
    step = synthesis._T1_BLOCK
    walked = [synthesis._affine_blocks(lp, omegas[k:k + step])
              for k in range(0, d["grid_size"], step)]
    ks = np.random.default_rng(5).permutation(d["grid_size"])[:12]
    cut = synthesis._affine_blocks(lp, omegas[ks])
    assert len(whole) == len(refs) == len(lp.channel_indices())
    for c, ref in enumerate(refs):
        assert whole[c][0].shape == ref["T1"].shape
        assert len(whole[c][0]) == d["grid_size"]
        for i, key in enumerate(("T1", "T2", "T3")):
            assert np.array_equal(whole[c][i], ref[key])
            assert np.array_equal(
                np.concatenate([w[c][i] for w in walked]), ref[key])
            assert np.array_equal(cut[c][i], ref[key][ks])


def test_fingerprint_is_the_digest_of_the_copied_bytes():
    # nominal_60db's grid responses, hashed a block at a time and as
    # tobytes() copies of the whole arrays, on the design grid and on
    # one whose last block is short
    lp, d = _bundled_design_plant("nominal_60db")
    for grid_size in (d["grid_size"], 100):
        omegas = _design_omegas(lp, grid_size)
        [arrays] = materialized_grid_responses(lp, omegas)
        [(T1, _, _)] = synthesis._affine_blocks(lp, omegas)
        assert T1.dtype == complex and T1.shape == (grid_size, 32, 32)
        assert (arrays["T1"].dtype == complex
                and arrays["T1"].shape == (grid_size, 32, 32))
        digest = hashlib.sha256()
        for key in ("T1", "T2", "T3"):
            arr = np.ascontiguousarray(arrays[key])
            digest.update(f"{key}{arr.shape}{arr.dtype}".encode())
            digest.update(arr.tobytes())
        assert synthesis._fingerprint(lp, omegas) == digest.hexdigest()


DESIGN_PEAK_BOUNDS = {
    # T1 of nominal_60db on the grid, 256 x 32 x 32 complex, would be
    # 4.19 MB by itself
    "nominal_60db": 4e6,
    # measured 2.04 MB; robust_40db's T2 and T3 grids (0.26 MB for both
    # channels) held as well made it 2.31 MB
    "robust_40db": 2.2e6,
}


@pytest.mark.parametrize("name", list(DESIGN_PEAK_BOUNDS))
def test_design_memory_holds_no_t1_grid(name, caplog):
    lp, d = _bundled_design_plant(name)
    settings = {k: d[k] for k in ("tol", "n_q", "grid_size")}
    if d["mode"] == "robust":
        design, settings["margin"] = synthesize_robust, d["margin"]
    else:
        design = synthesize_nominal
    # a design loads the HiGHS bindings at its first LP; that is not the
    # design's memory
    synthesis._scipy_extension(synthesis._HIGHS_CORE)
    tracemalloc.start()
    try:
        with caplog.at_level(logging.WARNING, logger="relaycancel.synthesis"):
            design(lp, **settings)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < DESIGN_PEAK_BOUNDS[name]
    # the certificate sits within tol of the grid objective (1.6e-6 and
    # 2.5e-6 relative above it), so the design logs no warning
    assert not caplog.records


@pytest.mark.parametrize("name", ["nominal_60db", "robust_40db"])
def test_stacked_oracle_factors_are_bitwise_the_per_point_loop(name):
    # every channel's factors, block by block as a design walks the grid,
    # on the design grid and on one whose last block is short (100 points)
    lp, d = _bundled_design_plant(name)
    for grid_size in (d["grid_size"], 100):
        omegas = _design_omegas(lp, grid_size)
        channels = synthesis._prepare_channels(lp, omegas)
        assert len(channels) == len(lp.channel_indices())
        for c, ch in enumerate(channels):
            step = synthesis._T1_BLOCK
            parts = [reference_prepare_oracle(
                *synthesis._affine_blocks(lp, omegas[k:k + step])[c])
                for k in range(0, grid_size, step)]
            for key in ("R2", "W0", "E", "lam_max", "gap"):
                ref = np.concatenate([p[key] for p in parts])
                assert ch[key].shape == ref.shape and len(ref) == grid_size
                assert np.array_equal(ch[key], ref)


@pytest.mark.parametrize("name", ["nominal_60db", "robust_40db"])
def test_stacked_cut_rows_are_bitwise_the_per_point_loop(name):
    lp, d = _bundled_design_plant(name)
    omegas = _design_omegas(lp, d["grid_size"])
    n_q = d["n_q"]
    zinv_pow = np.exp(-1j * np.outer(omegas * lp.h, np.arange(n_q)))
    rng = np.random.default_rng(8)
    for ch in synthesis._prepare_channels(lp, omegas):
        for n_cuts in (12, 32):
            Qz = synthesis._q_response(zinv_pow,
                                       rng.standard_normal((n_q, 2, 2)))
            ks = rng.permutation(d["grid_size"])[:n_cuts]
            coeffs, c0 = synthesis._cut_rows(ch, zinv_pow, ks, Qz)
            ref_coeffs, ref_c0 = reference_cut_rows(ch, zinv_pow, ks, Qz)
            assert coeffs.shape == ref_coeffs.shape == (n_cuts, 4 * n_q)
            assert np.array_equal(coeffs, ref_coeffs)
            assert np.array_equal(c0, ref_c0)


def _hashed_design(monkeypatch, design):
    """SHA-256 of every LP's inputs and solution over ``design()``, and
    its result."""
    digest = hashlib.sha256()
    real = synthesis.linprog

    def hashed(c, A_ub, b_ub, bounds):
        res = real(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds)
        for arr in (c, A_ub, b_ub, np.array(bounds, dtype=float), res.x):
            arr = np.ascontiguousarray(arr)
            digest.update(f"{arr.shape}{arr.dtype}".encode())
            digest.update(arr.tobytes())
        return res

    with monkeypatch.context() as m:
        m.setattr(synthesis, "linprog", hashed)
        K = design()
    return digest.hexdigest(), K


def _small_design(kind, small_robust):
    if kind == "nominal":
        return synthesize_nominal(_small_lp(), **SMALL_DESIGN)
    return synthesize_robust(small_robust[1], **SMALL_DESIGN)


def _assert_same_controller(K, K_ref):
    for name in "ABCD":
        assert (getattr(K.sys, name).tobytes()
                == getattr(K_ref.sys, name).tobytes())
    assert K.gamma_achieved == K_ref.gamma_achieved


@pytest.mark.parametrize("kind", ["nominal", "robust"])
def test_minimax_lps_are_bitwise_the_per_point_loops(monkeypatch, kind,
                                                     small_robust):
    # the same LPs, byte for byte, and the same controller whether the
    # minimax factors the grid and forms its cuts stacked or point by point
    def design():
        return _small_design(kind, small_robust)
    stacked, K = _hashed_design(monkeypatch, design)
    monkeypatch.setattr(synthesis, "_prepare_oracle",
                        reference_prepare_oracle)
    monkeypatch.setattr(synthesis, "_cut_rows", reference_cut_rows)
    looped, K_ref = _hashed_design(monkeypatch, design)
    assert stacked == looped
    _assert_same_controller(K, K_ref)


@pytest.mark.parametrize("kind", ["nominal", "robust"])
def test_minimax_lps_are_bitwise_scipy_linprog(monkeypatch, kind,
                                               small_robust):
    # every LP, its solution included, byte for byte, and the same
    # controller whether HiGHS is called directly or through
    # scipy.optimize.linprog
    def design():
        return _small_design(kind, small_robust)
    direct, K = _hashed_design(monkeypatch, design)
    monkeypatch.setattr(synthesis, "linprog", reference_linprog)
    via_scipy, K_ref = _hashed_design(monkeypatch, design)
    assert direct == via_scipy
    _assert_same_controller(K, K_ref)


@st.composite
def cut_lps(draw):
    """A small cutting-plane LP: min t over [x, t] with x in a box, t >= 0,
    objective cuts [a, -1] and constraint cuts [a, 0]; constraint cuts
    can leave it infeasible."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 10))
    entry = st.one_of(st.just(0.0), st.floats(-5.0, 5.0))
    a = np.array(draw(st.lists(entry, min_size=m * n, max_size=m * n)))
    t_coeffs = draw(st.lists(st.sampled_from((-1.0, 0.0)), min_size=m,
                             max_size=m))
    A_ub = np.column_stack([a.reshape(m, n), t_coeffs])
    b_ub = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=m,
                                  max_size=m)))
    box = draw(st.floats(0.1, 10.0))
    c = np.zeros(n + 1)
    c[-1] = 1.0
    return c, A_ub, b_ub, [(-box, box)] * n + [(0.0, None)]


@settings(max_examples=200)
@given(cut_lps())
def test_linprog_is_bitwise_scipy_linprog(lp):
    c, A_ub, b_ub, bounds = lp
    res = synthesis.linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds)
    ref = reference_linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds)
    assert res.success == ref.success
    if res.success:
        assert res.x.tobytes() == ref.x.tobytes()


@pytest.mark.parametrize("field", ["c", "A_ub", "b_ub"])
def test_linprog_rejects_non_finite_data(field):
    lp = dict(c=np.array([0.0, 1.0]), A_ub=np.array([[1.0, -1.0]]),
              b_ub=np.array([1.0]))
    lp[field] = np.where(lp[field] == 1.0, np.nan, lp[field])
    with pytest.raises(ValueError, match="finite"):
        synthesis.linprog(**lp, bounds=[(-1.0, 1.0), (0.0, None)])


def test_linprog_reports_an_infeasible_lp():
    from scipy.optimize._highspy._core import HighsModelStatus

    # x <= -1 and -x <= -1: constraint rows only, and no x meets both
    res = synthesis.linprog(np.array([1.0]), A_ub=np.array([[1.0], [-1.0]]),
                            b_ub=np.array([-1.0, -1.0]),
                            bounds=[(None, None)])
    assert res.success is False and res.x is None
    assert res.status == int(HighsModelStatus.kInfeasible)
    assert res.message == "Infeasible"


# ---------------------------------------------------------------------------
# the sigma_max oracle of the minimax


def reference_channel_gains(T1, T2, T3, Qz):
    """The batched-SVD oracle the secular equation replaced."""
    T = T1 + T2 @ (Qz @ T3)
    return np.linalg.svd(T, compute_uv=False)[:, 0]


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _unitary(rng, n):
    return np.linalg.qr(_cplx(rng, n, n))[0]


CHANNEL_KINDS = ("random", "open_loop_zero", "zero_column",
                 "parallel_columns", "repeated_lam", "zero_lam",
                 "orthogonal_top")


def _orthogonal_top_channel(rng, n, s, K=3):
    """Responses in which T2 and T3 act on the first two coordinates of
    a frame whose last coordinate is an isolated direction of T1 that no
    Q reaches: W has no component along it.  It is the top eigenvector
    of Lam when s > 1."""
    T1, T2, T3 = (np.empty((K, n, n), complex), np.empty((K, n, 2), complex),
                  np.empty((K, 2, n), complex))
    for k in range(K):
        Ul, Vr = _unitary(rng, n), _unitary(rng, n)
        M = _cplx(rng, n, n)
        M[:, -1] = 0.0
        M[-1, :] = 0.0
        M[-1, -1] = s * np.linalg.norm(M, 2)
        T1[k] = Ul @ M @ Vr.conj().T
        T2[k] = Ul[:, :2] @ _cplx(rng, 2, 2)
        T3[k] = _cplx(rng, 2, 2) @ Vr[:, :2].conj().T
    return {"T1": T1, "T2": T2, "T3": T3}


@st.composite
def affine_channels(draw):
    """(channel responses, Q(z)) on a 3-point grid, N = 1..16, with the
    degenerate structures the secular equation has to survive."""
    N = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(CHANNEL_KINDS))
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e3, 1e6]))
    q_scale = draw(st.sampled_from([0.1, 1.0, 10.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, K = 2 * N, 3
    T1, T2 = _cplx(rng, K, n, n), _cplx(rng, K, n, 2)
    T3, Qz = _cplx(rng, K, 2, n), q_scale * _cplx(rng, K, 2, 2)
    if kind == "open_loop_zero":      # W = 0: the answer is sqrt(Lam_max)
        T1[:] = 0.0
        Qz[:] = 0.0
    elif kind == "zero_column":       # rank-deficient T2 and T3
        T2[:, :, 1] = 0.0
        T3[:, 0, :] = 0.0
    elif kind == "parallel_columns":
        T2[:, :, 1] = (0.3 - 2j) * T2[:, :, 0]
        T3[:, 1, :] = -1.7 * T3[:, 0, :]
    elif kind == "repeated_lam":      # all singular values of T1 equal
        T1 = np.stack([2.5 * _unitary(rng, n) for _ in range(K)])
    elif kind == "zero_lam":
        T1[:] = 0.0
    elif kind == "orthogonal_top" and n >= 4:
        s = draw(st.sampled_from([0.5, 3.0]))
        T1, T2, T3 = _orthogonal_top_channel(rng, n, s).values()
    return {"T1": scale * T1, "T2": scale * T2, "T3": T3}, Qz


@settings(max_examples=150)
@given(affine_channels())
def test_secular_oracle_matches_the_svd(case):
    ch, Qz = case
    gains = synthesis._channel_gains(synthesis._prepare_oracle(**ch), Qz)
    expected = reference_channel_gains(**ch, Qz=Qz)
    assert np.all(np.isfinite(gains))
    assert np.all(np.abs(gains - expected)
                  <= 1e-13 * np.maximum(expected, 1.0))


def test_secular_oracle_zero_update_is_exact():
    # the uncertainty channel at Q = 0: T1 = 0 and W = 0, no NaN
    rng = np.random.default_rng(2)
    ch = {"T1": np.zeros((4, 6, 6), complex), "T2": _cplx(rng, 4, 6, 2),
          "T3": _cplx(rng, 4, 2, 6)}
    gains = synthesis._channel_gains(synthesis._prepare_oracle(**ch),
                                     np.zeros((4, 2, 2), complex))
    assert np.array_equal(gains, np.zeros(4))


def test_secular_oracle_root_above_an_unreached_top():
    # Lam_max belongs to a direction W does not touch (its component
    # there is rounding, below 1e-15 of ||W||); where the update pushes
    # sigma_max^2 above Lam_max, Newton must not stall at that pole
    rng = np.random.default_rng(4)
    ch = _orthogonal_top_channel(rng, 8, 3.0, K=64)
    Qz = _cplx(rng, 64, 2, 2)
    prepared = synthesis._prepare_oracle(**ch)
    expected = reference_channel_gains(**ch, Qz=Qz)
    assert np.count_nonzero(expected ** 2 > 1.001 * prepared["lam_max"]) >= 5
    gains = synthesis._channel_gains(prepared, Qz)
    assert np.all(np.abs(gains - expected) <= 1e-13 * expected)


def test_minimax_path_is_the_svd_oracle_path(monkeypatch):
    lp = _small_lp()
    fast = synthesize_nominal(lp, **SMALL_DESIGN)
    # the SVD of T(Q) on the whole grid, from the evaluator the cuts use
    monkeypatch.setattr(
        synthesis, "_channel_gains",
        lambda ch, Qz: reference_channel_gains(*ch["blocks"](slice(None)),
                                               Qz))
    slow = synthesize_nominal(lp, **SMALL_DESIGN)
    assert fast.meta["iterations"] == slow.meta["iterations"]
    assert fast.meta["n_cuts"] == slow.meta["n_cuts"]
    assert np.max(np.abs(_q(fast) - _q(slow))) <= 1e-12


def test_minimax_logs_one_debug_line(caplog, monkeypatch):
    lp = _small_lp()
    real, nits = synthesis.linprog, []

    def counted(*args, **kwargs):
        res = real(*args, **kwargs)
        nits.append(res.nit)
        return res

    monkeypatch.setattr(synthesis, "linprog", counted)
    with caplog.at_level(logging.DEBUG, logger="relaycancel.synthesis"):
        t0 = time.perf_counter()
        K = synthesize_nominal(lp, **SMALL_DESIGN)
        elapsed = time.perf_counter() - t0
    [record] = [r for r in caplog.records if r.name == synthesis.__name__]
    assert record.levelno == logging.DEBUG
    match = re.fullmatch(r"minimax: (\d+) iterations, (\d+) cuts, (\d+) "
                         r"oracle evaluations in (\d+\.\d{3}) s, (\d+) LPs "
                         r"\((\d+) simplex iterations\) in (\d+\.\d{3}) s, "
                         r"cut rows in (\d+\.\d{3}) s",
                         record.getMessage())
    assert match
    iterations, cuts, evaluations, lps, lp_nit = map(
        int, match.group(1, 2, 3, 5, 6))
    # the three stages are timed apart, so their seconds, each rounded to
    # the millisecond, add up to no more than the design's
    oracle_s, lp_s, cut_s = map(float, match.group(4, 7, 8))
    assert oracle_s + lp_s + cut_s <= elapsed + 1.5e-3
    assert iterations == lps == len(nits) == K.meta["iterations"]
    assert lp_nit == sum(nits) > 0
    assert cuts == K.meta["n_cuts"]
    assert evaluations == iterations + 1  # the Q = 0 seed, then one per LP


def test_solver_limits_travel_with_the_controller(small_lifted, tmp_path,
                                                  caplog, monkeypatch):
    spec, lp = small_lifted
    K = synthesize_nominal(lp, **SMALL_DESIGN)
    assert K.meta["converged"] is True
    assert 0.0 <= K.meta["gap"] <= SMALL_DESIGN["tol"]
    path = tmp_path / "K.yaml"
    write_controller(K, path)
    meta = read_controller(path).meta
    assert meta["converged"] is True and meta["gap"] == K.meta["gap"]
    monkeypatch.setattr(synthesis, "_MINIMAX_MAX_ITER", 2)
    with caplog.at_level(logging.WARNING, logger="relaycancel.synthesis"):
        capped = synthesize_nominal(lp, **SMALL_DESIGN)
    assert capped.meta["converged"] is False
    assert capped.meta["gap"] > SMALL_DESIGN["tol"]
    assert capped.meta["iterations"] == 2
    assert "iteration cap (2)" in caplog.text


def test_a_grid_that_misses_the_peak_is_logged(caplog):
    # on 8 grid points the minimax flattens the gain there and leaves the
    # certified norm at about 2.9 x the grid objective
    with caplog.at_level(logging.WARNING, logger="relaycancel.synthesis"):
        K = synthesize_nominal(_small_lp(), tol=1e-3, n_q=4, grid_size=8)
    gamma, grid_objective = K.gamma_achieved, K.meta["grid_objective"]
    assert gamma > 2.0 * grid_objective
    [record] = [r for r in caplog.records if r.name == synthesis.__name__]
    assert record.levelno == logging.WARNING
    assert record.getMessage().startswith(
        f"certified gamma {gamma:.10g} exceeds the grid objective "
        f"{grid_objective:.10g} by more than tol = 0.001 relative")


def _small_channels(small_robust):
    """Both channels of the small robust plant at n_q = 2 on 16 points."""
    _, omegas, zinv_pow = synthesis._design_grid(small_robust[1], 2, 16, 1e-3)
    return synthesis._prepare_channels(small_robust[1], omegas), zinv_pow


def test_minimax_names_the_failed_lp(small_robust, monkeypatch):
    (ch1, _), zinv_pow = _small_channels(small_robust)
    real, calls = synthesis.linprog, []

    def third_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) < 3:
            return real(*args, **kwargs)
        # HighsModelStatus.kSolveError, as linprog reports it
        return synthesis.LPResult(x=None, success=False, status=4,
                                  message="Solve error", nit=0)

    monkeypatch.setattr(synthesis, "linprog", third_fails)
    with pytest.raises(SynthesisError, match=re.escape(
            "LP relaxation failed at iteration 3 (HiGHS status 4): "
            "Solve error")):
        synthesis._solve_minimax(ch1, zinv_pow, 2)


def test_minimax_without_a_feasible_point_says_so(small_robust, caplog,
                                                  monkeypatch):
    # the performance channel as its own constraint, bounded below the LP
    # lower bound of its unconstrained minimax: no Q in the box meets the
    # bound, yet the first LP (its cuts are lower bounds) is solvable
    (ch1, _), zinv_pow = _small_channels(small_robust)
    _, info = synthesis._solve_minimax(ch1, zinv_pow, 2)
    bound = 0.99 * info["lp_lower_bound"]
    monkeypatch.setattr(synthesis, "_MINIMAX_MAX_ITER", 1)
    with warnings.catch_warnings(record=True) as caught, \
            caplog.at_level(logging.WARNING, logger="relaycancel.synthesis"):
        warnings.simplefilter("always")
        with pytest.raises(SynthesisError, match=re.escape(
                f"no FIR parameter satisfied the uncertainty-channel bound "
                f"{bound:.4f} on the grid")):
            synthesis._solve_minimax(ch1, zinv_pow, 2, constraint=ch1,
                                     bound=bound)
    # with no incumbent there is no gap to form or to report
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "relative gap" not in caplog.text


# ---------------------------------------------------------------------------
# synthesize_robust


def test_robust_vanishing_uncertainty_matches_nominal(small_lifted):
    # with W2 ~ 0 the constraint is inactive and the designs coincide
    spec, lp = small_lifted
    channel = CouplingChannel(0.2, 1.0)
    W2 = uncertainty_weight(channel, epsilon=1e-8)
    rp = build_robust_plant(spec, W2, 4)
    K_rob = synthesize_robust(rp, n_q=4, grid_size=64, margin=0.05)
    K_nom = synthesize_nominal(lp, tol=1e-3, n_q=4, grid_size=64)
    g1 = K_rob.gamma_achieved["gamma1"]
    assert g1 >= K_nom.gamma_achieved - 1e-4
    assert g1 == pytest.approx(K_nom.gamma_achieved, rel=0.02)


def test_robust_design_certificates(small_robust):
    spec, rp = small_robust
    K = synthesize_robust(rp, n_q=4, grid_size=96, margin=0.05)
    assert K.gamma_achieved["gamma2"] <= 1.0
    assert K.meta["grid_gamma2"] <= 1.0 - K.meta["margin"] + 1e-8
    assert K.meta["controller_stable"] == is_stable(K.sys)


def test_robust_design_records_its_warm_start(small_robust, caplog,
                                             tmp_path):
    spec, rp = small_robust
    with caplog.at_level(logging.DEBUG, logger="relaycancel.synthesis"):
        K = synthesize_robust(rp, n_q=4, grid_size=96, margin=0.05)
    warm = K.meta["warm_start"]
    assert set(warm) == {"iterations", "n_cuts", "converged", "gap",
                         "grid_objective"}
    # the first minimax line is the warm start's, the last the final solve's
    lines = [re.match(r"minimax: (\d+) iterations, (\d+) cuts, .* (\d+) LPs",
                      r.getMessage()) for r in caplog.records
             if r.name == synthesis.__name__]
    first, last = (tuple(map(int, m.groups())) for m in (lines[0], lines[-1]))
    assert first == (warm["iterations"], warm["n_cuts"], warm["iterations"])
    assert last[0] == K.meta["iterations"] and last[1] == K.meta["n_cuts"]
    assert warm["converged"] is True and 0.0 <= warm["gap"] <= 1e-3
    path = tmp_path / "K.yaml"
    write_controller(K, path)
    assert read_controller(path).meta["warm_start"] == warm


def test_robust_objective_monotone_in_n_q(small_robust):
    spec, rp = small_robust
    vals = []
    for n_q in (2, 4, 8):
        K = synthesize_robust(rp, n_q=n_q, grid_size=96, margin=0.05)
        vals.append(K.meta["grid_objective"])
    assert vals[1] <= vals[0] * (1.0 + 2e-3)
    assert vals[2] <= vals[1] * (1.0 + 2e-3)


def test_robust_margin_retry(small_robust, monkeypatch):
    # a certificate with gamma2 > 1 tightens the margin by 0.05 and
    # re-solves; the third failure gives up
    spec, rp = small_robust
    failures = []
    real_norms = synthesis.closed_loop_norms

    def norms(lp, K):
        margin, (gamma1, gamma2) = real_norms(lp, K)
        if failures:
            failures.pop()
            gamma2 = 1.5
        return margin, [gamma1, gamma2]

    monkeypatch.setattr(synthesis, "closed_loop_norms", norms)
    failures[:] = [True]
    K = synthesize_robust(rp, **SMALL_DESIGN)
    assert K.meta["attempts"] == 2 and K.meta["margin"] == 0.10
    assert K.gamma_achieved["gamma2"] <= 1.0
    failures[:] = [True] * 3
    with pytest.raises(SynthesisError, match="after 3 attempts"):
        synthesize_robust(rp, **SMALL_DESIGN)


def test_robust_rejects_bad_margin(small_robust):
    spec, rp = small_robust
    with pytest.raises(ValueError, match="margin"):
        synthesize_robust(rp, n_q=4, margin=0.5)


@pytest.mark.parametrize("setting, message", [
    ({"n_q": 0}, "n_q must be at least 1"),
    ({"grid_size": 0}, "grid_size must be at least 1"),
    ({"tol": 0.0}, "tol must be positive"),
])
def test_designs_reject_bad_settings_before_any_work(
        small_lifted, small_robust, monkeypatch, setting, message):
    def no_work(*args, **kwargs):
        raise AssertionError("design work started")

    monkeypatch.setattr(synthesis, "_affine_blocks", no_work)
    monkeypatch.setattr(synthesis, "_solve_minimax", no_work)
    kwargs = {"n_q": 2, "grid_size": 16, "tol": 1e-3, **setting}
    for design, plant in ((synthesize_nominal, small_lifted[1]),
                          (synthesize_robust, small_robust[1])):
        with pytest.raises(ValueError, match=message):
            design(plant, **kwargs)


def test_design_rejects_an_unstable_u_to_y_block(small_lifted):
    spec, lp = small_lifted
    A = lp.sys.A.copy()
    A[0, 0] = 1.5  # the first core state now diverges
    unstable = replace(lp, sys=replace(lp.sys, A=A))
    with pytest.raises(SynthesisError, match="u->y block"):
        synthesize_nominal(unstable, n_q=2, grid_size=16)


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
    K = synthesize_nominal(lp, tol=1e-3, n_q=4, grid_size=64)
    report = verify_design(spec, K, N_verify=8)
    assert report["closed_loop_stable"]
    assert report["gamma_verify"] == pytest.approx(K.gamma_achieved, rel=0.08)


def test_verify_design_robust_small_gain(small_robust):
    # the certificate is re-checked exactly at the design rate; a finer
    # lifting has no finite uncertainty-channel norm when F is allpass
    spec, rp = small_robust
    K = synthesize_robust(rp, n_q=4, grid_size=96, margin=0.05)
    report = verify_design(spec, K, N_verify=8)
    assert report["closed_loop_stable"]
    assert report["small_gain_certified"]
    assert report["small_gain_rate"] == 4
    assert report["gamma2_design_rate"] <= 1.0


def test_verify_design_uses_the_recorded_w2(small_robust, tmp_path):
    # a robust controller re-verifies against the W2 it was designed
    # with, also after the controller file round trip, and at its design
    # rate, never at N_verify in its place
    spec, _ = small_robust
    rp = build_robust_plant(spec, uncertainty_weight(spec.channel, 0.05), 4)
    K = synthesize_robust(rp, n_q=4, grid_size=96, margin=0.05)
    report = verify_design(spec, K, N_verify=8)
    assert report["gamma2_design_rate"] == K.gamma_achieved["gamma2"]
    path = tmp_path / "K.yaml"
    write_controller(K, path)
    report = verify_design(spec, read_controller(path), N_verify=8)
    assert report["gamma2_design_rate"] == K.gamma_achieved["gamma2"]
    for meta, key in (({"N": 4}, "W2"), ({"W2": K.meta["W2"]}, "N")):
        bare = Controller(sys=K.sys, gamma_achieved=K.gamma_achieved,
                          method=K.method, meta=meta)
        with pytest.raises(ValueError, match=rf"meta\['{key}'\]"):
            verify_design(spec, bare, N_verify=8)


# an aggressive non-robust controller: high-gain passthrough
K_BAD = Controller(sys=StateSpace.static(0.9 * np.eye(2), dt=1.0),
                   gamma_achieved=0.0, method="nominal_hinf")


def test_robust_sweep_flags_unstable_cases(small_robust):
    spec, rp = small_robust
    sweep = robust_stability_sweep(spec, K_BAD, n_cases=10, seed=3, N=4)
    assert not sweep["all_stable"]
    assert sweep["min_spectral_margin"] == min(
        f["spectral_margin"] for f in sweep["failures"])


def test_robust_sweep_passes_for_robust_controller(small_robust):
    spec, rp = small_robust
    K = synthesize_robust(rp, n_q=4, grid_size=96, margin=0.05)
    sweep = robust_stability_sweep(spec, K, n_cases=20, seed=5, N=4)
    assert sweep["all_stable"], sweep["failures"]
    assert 0.0 < sweep["min_spectral_margin"] < 1.0


def test_shared_lift_sweep_matches_the_per_case_lifts(small_robust,
                                                      robust_40db_design):
    # the shared lift sliced per case gives each case's own lifted loop
    # up to rounding: the same cases and verdicts, margins to 1e-12
    spec, rp = small_robust
    K = synthesize_robust(rp, n_q=4, grid_size=96, margin=0.05)
    spec_40, K_40 = robust_40db_design["spec"], robust_40db_design["K"]
    # a post filter with feedthrough 0.5: y also reads each detour's
    # delayed u directly, through the history holds the detours share
    P_ft = scalar_block([5e-4, 1.0], [1e-3, 1.0])
    spec_ft = build_generalized_plant(replace(spec.params, P=P_ft),
                                      spec.channel)
    runs = ([(spec_40, K_40, seed, 4) for seed in range(4)]
            + [(spec, K, 5, 8), (spec, K_BAD, 3, 4), (spec_ft, K_BAD, 3, 4)])
    n_failures = 0
    for spec, K, seed, N in runs:
        sweep = robust_stability_sweep(spec, K, n_cases=50, seed=seed, N=N)
        ref = reference_stability_sweep(spec, K, n_cases=50, seed=seed, N=N)
        for key in ("n_cases", "n_unstable", "all_stable"):
            assert sweep[key] == ref[key]
        assert ([(f["case"], f["extra_paths"]) for f in sweep["failures"]]
                == [(f["case"], f["extra_paths"]) for f in ref["failures"]])
        for f, g in zip(sweep["failures"], ref["failures"]):
            assert abs(f["spectral_margin"] - g["spectral_margin"]) <= 1e-12
        assert abs(sweep["min_spectral_margin"]
                   - ref["min_spectral_margin"]) <= 1e-12
        n_failures += ref["n_unstable"]
    # K_BAD fails cases, so failure entries were compared too
    assert n_failures > 0


def test_robust_sweep_rejects_negative_counts_and_rates(small_robust):
    spec, _ = small_robust
    with pytest.raises(ValueError, match="n_cases"):
        robust_stability_sweep(spec, K_BAD, n_cases=-1)
    with pytest.raises(ValueError, match="positive integer"):
        robust_stability_sweep(spec, K_BAD, N=0)


def test_robust_sweep_of_no_cases_lifts_nothing(small_robust, monkeypatch):
    spec, _ = small_robust

    def no_lift(*args, **kwargs):
        raise AssertionError("an empty sweep lifted a plant")

    monkeypatch.setattr(synthesis, "lift_core", no_lift)
    monkeypatch.setattr(synthesis, "build_perturbed_plant", no_lift)
    assert robust_stability_sweep(spec, K_BAD, n_cases=0) == {
        "n_cases": 0, "n_unstable": 0, "all_stable": True,
        "min_spectral_margin": np.inf, "failures": []}


def test_robust_sweep_logs_one_debug_line(small_robust, caplog):
    spec, _ = small_robust
    with caplog.at_level(logging.DEBUG, logger="relaycancel.synthesis"):
        robust_stability_sweep(spec, K_BAD, n_cases=10, seed=3, N=4)
    [record] = caplog.records
    assert record.levelno == logging.DEBUG
    # the cases draw 10 distinct steps of the 12; the core holds W and P u
    # (4 states) and x_Pd of every path (2 each, F is static), and the
    # deepest detour, 4 + 9 or more steps, reads 4 holds of u back:
    # 4 + 2 * 11 + 2 * 4 = 34
    assert re.fullmatch(
        r"robust_stability_sweep: 10 cases, 10 unstable, shared lift of 10 "
        r"delay steps, 34 states, [0-9.e-]+ s", record.getMessage())

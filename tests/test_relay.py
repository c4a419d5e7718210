import numpy as np
import pytest

from relaycancel.lti import StateSpace
from relaycancel.relay import (
    CouplingChannel,
    RelayParams,
    assemble_plant_core,
    build_generalized_plant,
    build_perturbed_plant,
    rotation_matrix,
    scalar_block,
    uncertainty_weight,
)

from conftest import make_example_params
from oracles import (
    error_system_response,
    frequency_response,
    plant_frequency_response,
)


# ---------------------------------------------------------------------------
# rotation_matrix


def test_rotation_integer_cycles_is_identity():
    assert np.allclose(rotation_matrix(10000.0, 1.0), np.eye(2), atol=1e-9)


def test_rotation_quarter_turn():
    # f*L = 0.25
    R = rotation_matrix(0.25, 1.0)
    assert np.allclose(R, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)


def test_rotation_orthogonal_and_composes():
    # f*L kept moderate: the group identity is a statement about real
    # angles and double precision loses it beyond ~1e3 carrier cycles
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = rng.uniform(1.0, 100.0)
        L1, L2 = rng.uniform(0.01, 3.0, size=2)
        R1 = rotation_matrix(f, L1)
        R2 = rotation_matrix(f, L2)
        assert np.linalg.norm(R1.T @ R1 - np.eye(2)) < 1e-12
        assert np.linalg.det(R1) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(R1.T @ R2 - rotation_matrix(f, L2 - L1)) < 1e-12


# ---------------------------------------------------------------------------
# parameter validation


def test_relay_params_validation():
    with pytest.raises(ValueError, match="h must be positive"):
        RelayParams(h=0.0, f=1.0, a1=1.0, a2=1.0,
                    W=scalar_block([1.0], [1.0, 1.0]),
                    F=scalar_block([1.0], [1.0]),
                    P=scalar_block([1.0], [1.0]))
    with pytest.raises(ValueError, match="strictly proper"):
        RelayParams(h=1.0, f=1.0, a1=1.0, a2=1.0,
                    W=scalar_block([1.0], [1.0]),  # static: not strictly proper
                    F=scalar_block([1.0], [1.0]),
                    P=scalar_block([1.0], [1.0]))
    with pytest.raises(ValueError, match="stable"):
        RelayParams(h=1.0, f=1.0, a1=1.0, a2=1.0,
                    W=scalar_block([1.0], [2.0, 1.0]),
                    F=scalar_block([1.0], [1.0]),
                    P=scalar_block([1.0], [1.0, -1.0]))  # pole at +1


def test_scalar_block_static_and_improper():
    F = scalar_block([1.0], [1.0])  # the bundled F
    ref = StateSpace.static(np.eye(2))
    for name in "ABCD":
        got, want = getattr(F, name), getattr(ref, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # 2s + 1 used to come back as the static gain 1
    with pytest.raises(ValueError, match="Improper"):
        scalar_block([2.0, 1.0], [1.0])


def test_channel_validation():
    with pytest.raises(ValueError, match="exceed"):
        CouplingChannel(r=0.2, L=1.0, extra_paths=((0.02, 0.5),))
    ch = CouplingChannel(r=0.2, L=1.0, extra_paths=((0.02, 1.1),))
    assert ch.extra_paths == ((0.02, 1.1),)


# ---------------------------------------------------------------------------
# build_generalized_plant


def test_plant_dc_value_matches_loop_gain(example_params, example_channel):
    spec = build_generalized_plant(example_params, example_channel)
    G = plant_frequency_response(spec, 0.0)
    # alpha = a1 a2 r = 200, rotation is identity, F(0) P(0) = I
    assert np.allclose(G[2:, 2:], 200.0 * np.eye(2), atol=1e-9)
    assert np.allclose(G[:2, :2], np.eye(2), atol=1e-12)  # W(0) = I


def test_plant_open_loop_when_no_transmit_gain(example_channel):
    spec = build_generalized_plant(make_example_params(a2=0.0), example_channel)
    for om in (0.0, 0.7, 3.0):
        G = plant_frequency_response(spec, om)
        assert np.allclose(G[2:, 2:], 0.0, atol=1e-14)


def test_plant_response_matches_blockwise_products(example_params, example_channel):
    spec = build_generalized_plant(example_params, example_channel)
    rng = np.random.default_rng(9)
    p = example_params
    for om in rng.uniform(0.01, 20.0, size=10):
        Wf = frequency_response(p.W, om)
        Ff = frequency_response(p.F, om)
        Pf = frequency_response(p.P, om)
        alpha = p.a1 * p.a2 * example_channel.r
        expected = np.block([
            [Wf, -Pf],
            [Ff @ Wf,
             alpha * np.exp(-1j * om * example_channel.L)
             * rotation_matrix(p.f, example_channel.L) @ Ff @ Pf],
        ])
        assert np.linalg.norm(plant_frequency_response(spec, om) - expected) < 1e-10


def test_core_assembly_matches_plant_response(example_params, example_channel):
    # folding the delayed-input columns with the delay phase must give the
    # factored plant response exactly
    spec = build_generalized_plant(example_params, example_channel)
    core = assemble_plant_core(spec)
    rng = np.random.default_rng(21)
    for om in rng.uniform(0.01, 30.0, size=10):
        G = frequency_response(core.sys, om)
        folded = G[:, :4].copy()
        folded[:, 2:4] += G[:, 4:6] * np.exp(-1j * om * example_channel.L)
        assert np.linalg.norm(folded - plant_frequency_response(spec, om)) < 1e-10


def test_perturbed_channel_identity(example_params):
    # nominal channel times (I + E) equals the sum of all path responses
    channel = CouplingChannel(r=0.2, L=1.0,
                              extra_paths=((0.014, 1.25), (0.006, 2.5)))
    p = example_params
    alpha = p.a1 * p.a2 * channel.r
    R = rotation_matrix(p.f, channel.L)
    rng = np.random.default_rng(31)
    for om in rng.uniform(0.0, 10.0, size=25):
        E = error_system_response(channel, om, p.f)
        lhs = alpha * np.exp(-1j * om * channel.L) * R @ (np.eye(2) + E)
        rhs = np.zeros((2, 2), dtype=complex)
        for ri, Li in ((channel.r, channel.L),) + channel.extra_paths:
            rhs += (p.a1 * p.a2 * ri) * np.exp(-1j * om * Li) \
                * rotation_matrix(p.f, Li)
        assert np.linalg.norm(lhs - rhs) < 1e-10


# ---------------------------------------------------------------------------
# error_system_response


def test_error_response_requires_extra_paths(example_channel):
    with pytest.raises(ValueError, match="extra path"):
        error_system_response(example_channel, 1.0, 1e4)


def test_error_response_single_path_dc():
    channel = CouplingChannel(r=0.2, L=1.0, extra_paths=((0.05, 1.4),))
    E0 = error_system_response(channel, 0.0, 123.0)
    assert np.allclose(E0, 0.25 * rotation_matrix(123.0, 0.4), atol=1e-12)


def test_error_response_single_path_constant_magnitude():
    # one detour with r1 = 0.1 r: scalar times orthogonal at every frequency
    channel = CouplingChannel(r=0.2, L=1.0, extra_paths=((0.02, 1.1),))
    for om in np.linspace(0.0, 50.0, 200):
        s = np.linalg.svd(error_system_response(channel, om, 1e4),
                          compute_uv=False)
        assert s[0] == pytest.approx(0.1, abs=1e-12)


def test_error_response_triangle_bound():
    rng = np.random.default_rng(41)
    for _ in range(5):
        extras = tuple((rng.uniform(0.0, 0.05), 1.0 + rng.uniform(0.05, 2.0))
                       for _ in range(2))
        channel = CouplingChannel(r=0.2, L=1.0, extra_paths=extras)
        bound = sum(ri for ri, _ in extras) / 0.2
        for om in rng.uniform(0.0, 100.0, size=100):
            s = np.linalg.svd(error_system_response(channel, om, 1e4),
                              compute_uv=False)
            assert s[0] <= bound + 1e-12


# ---------------------------------------------------------------------------
# uncertainty_weight


def test_uncertainty_weight_values():
    channel = CouplingChannel(r=0.2, L=1.0, extra_paths=((0.02, 1.1),))
    W2 = uncertainty_weight(channel, epsilon=0.01)
    assert np.allclose(W2.D, 0.11 * np.eye(2), atol=1e-14)
    bare = uncertainty_weight(CouplingChannel(r=0.2, L=1.0), epsilon=0.01)
    assert np.allclose(bare.D, 0.01 * np.eye(2), atol=1e-14)


def test_uncertainty_weight_dominates_error_on_grid():
    channel = CouplingChannel(r=0.2, L=1.0, extra_paths=((0.02, 1.1),))
    W2 = uncertainty_weight(channel, epsilon=0.01)
    w2val = np.linalg.svd(W2.D, compute_uv=False)[0]
    worst = max(
        np.linalg.svd(error_system_response(channel, om, 1e4),
                      compute_uv=False)[0]
        for om in np.linspace(0.0, 200.0, 1000)
    )
    assert worst < w2val
    assert worst == pytest.approx(0.1, abs=1e-12)


def test_uncertainty_weight_rejects_bad_epsilon(example_channel):
    with pytest.raises(ValueError, match="epsilon"):
        uncertainty_weight(example_channel, epsilon=0.0)


def test_core_rejects_a_dynamic_uncertainty_weight(example_params,
                                                   example_channel):
    # the uncertainty channel reads the nominal path's own states, so W2
    # must be a static gain, as uncertainty_weight returns
    spec = build_generalized_plant(example_params, example_channel)
    assert uncertainty_weight(example_channel).n_states == 0
    with pytest.raises(ValueError, match="static"):
        assemble_plant_core(spec, W2=scalar_block([0.3], [0.5, 1.0]))

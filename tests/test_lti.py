import numpy as np
import pytest

from relaycancel.lti import (
    StateSpace,
    frequency_response,
    from_tf,
    hinf_norm,
    interconnect,
    is_stable,
    subsystem,
    zoh_discretize,
)


def random_stable(rng, n, m, p, dt=None, margin=0.3):
    """Random stable system for property tests."""
    A = rng.standard_normal((n, n))
    if dt is None:
        lam = np.linalg.eigvals(A)
        A = A - (np.max(lam.real) + margin) * np.eye(n)
    else:
        rho = np.max(np.abs(np.linalg.eigvals(A)))
        A = A * ((1.0 - margin) / max(rho, 1e-12))
    return StateSpace(A, rng.standard_normal((n, m)),
                      rng.standard_normal((p, n)),
                      rng.standard_normal((p, m)), dt)


# ---------------------------------------------------------------------------
# zoh_discretize


def test_zoh_first_order_closed_form():
    # P(s) = 1/(0.001 s + 1) as A=-1000, B=1000, sampled at T = 0.0625
    sys = StateSpace([[-1000.0]], [[1000.0]], [[1.0]], [[0.0]])
    d = zoh_discretize(sys, 0.0625)
    assert d.A[0, 0] == pytest.approx(np.exp(-62.5), abs=1e-40)
    assert d.B[0, 0] == pytest.approx(1.0 - np.exp(-62.5), rel=1e-12)


def test_zoh_integrator():
    sys = StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]])
    for T in (0.1, 1.0, 2.5):
        d = zoh_discretize(sys, T)
        assert d.A[0, 0] == pytest.approx(1.0, rel=1e-14)
        assert d.B[0, 0] == pytest.approx(T, rel=1e-14)


def test_zoh_matches_series_oracle():
    # truncated series of the augmented matrix is the independent oracle
    rng = np.random.default_rng(7)
    for _ in range(5):
        sys = random_stable(rng, 2, 1, 1)
        T = 0.1
        M = np.zeros((3, 3))
        M[:2, :2] = sys.A * T
        M[:2, 2:] = sys.B * T
        E = np.eye(3)
        term = np.eye(3)
        for k in range(1, 41):
            term = term @ M / k
            E = E + term
        d = zoh_discretize(sys, T)
        diff = np.block([[d.A, d.B]]) - E[:2, :]
        assert np.linalg.norm(diff) < 1e-10


def test_zoh_reproduces_continuous_state_at_samples():
    # fine-step RK4 integrator oracle, piecewise-constant input
    rng = np.random.default_rng(3)
    sys = random_stable(rng, 3, 2, 2)
    T = 0.2
    u_seq = rng.standard_normal((10, 2))
    d = zoh_discretize(sys, T)

    x_d = np.zeros(3)
    x_c = np.zeros(3)
    n_fine = 2000
    h = T / n_fine
    for k in range(10):
        u = u_seq[k]

        def f(x):
            return sys.A @ x + sys.B @ u

        for _ in range(n_fine):
            k1 = f(x_c)
            k2 = f(x_c + 0.5 * h * k1)
            k3 = f(x_c + 0.5 * h * k2)
            k4 = f(x_c + h * k3)
            x_c = x_c + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        x_d = d.A @ x_d + d.B @ u
        assert np.linalg.norm(x_d - x_c) < 1e-9


def test_zoh_rejects_discrete_input():
    sys = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], dt=1.0)
    with pytest.raises(ValueError):
        zoh_discretize(sys, 0.1)


# ---------------------------------------------------------------------------
# interconnect


def test_lower_lft_zero_controller():
    rng = np.random.default_rng(11)
    plant = random_stable(rng, 4, 3, 3, dt=1.0)
    K = StateSpace.static(np.zeros((1, 1)), dt=1.0)
    closed = interconnect(plant, K, partition=(2, 2))
    open_zw = subsystem(plant, [0, 1], [0, 1])
    for om in (0.0, 0.3, 1.7):
        assert np.allclose(
            frequency_response(closed, om), frequency_response(open_zw, om),
            atol=1e-12,
        )


def test_lower_lft_matches_pointwise_oracle():
    rng = np.random.default_rng(13)
    plant = random_stable(rng, 5, 4, 4, dt=0.5)
    K = random_stable(rng, 2, 2, 2, dt=0.5)
    closed = interconnect(plant, K, partition=(2, 2))
    assert closed.n_states == 7
    for om in rng.uniform(0.0, 2 * np.pi, size=10):
        G = frequency_response(plant, om)
        Kf = frequency_response(K, om)
        G11, G12 = G[:2, :2], G[:2, 2:]
        G21, G22 = G[2:, :2], G[2:, 2:]
        T = G11 + G12 @ Kf @ np.linalg.solve(np.eye(2) - G22 @ Kf, G21)
        assert np.linalg.norm(frequency_response(closed, om) - T) < 1e-9


def test_lower_lft_singular_loop():
    plant = StateSpace.static(np.array([[0.0, 1.0], [1.0, 1.0]]), dt=1.0)
    K = StateSpace.static(np.array([[1.0]]), dt=1.0)
    with pytest.raises(ValueError, match="algebraic loop"):
        interconnect(plant, K, partition=(1, 1))


# ---------------------------------------------------------------------------
# is_stable


def test_is_stable_trivial():
    assert is_stable(StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]]))
    assert not is_stable(StateSpace([[1.001]], [[1.0]], [[1.0]], [[0.0]], dt=1.0))
    assert is_stable(StateSpace([[0.99]], [[1.0]], [[1.0]], [[0.0]], dt=1.0))
    assert not is_stable(StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]]))  # marginal


def test_is_stable_static():
    assert is_stable(StateSpace.static(np.eye(2)))


# ---------------------------------------------------------------------------
# frequency_response


def test_frequency_response_static():
    D = np.array([[1.0, 2.0], [3.0, 4.0]])
    sys = StateSpace.static(D)
    for om in (0.0, 1.0, 100.0):
        assert np.allclose(frequency_response(sys, om), D)


def test_frequency_response_first_order_points():
    W = from_tf([1.0], [2.0, 1.0])
    assert frequency_response(W, 0.0)[0, 0] == pytest.approx(1.0, abs=1e-14)
    P = from_tf([1.0], [0.001, 1.0])
    val = frequency_response(P, 1000.0)[0, 0]
    assert val == pytest.approx(1.0 / (1.0 + 1j), abs=1e-12)
    assert abs(val) == pytest.approx(1.0 / np.sqrt(2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# hinf_norm


def test_hinf_norm_static():
    D = np.array([[3.0, 0.0], [0.0, 1.0]])
    sys = StateSpace.static(D, dt=1.0)
    assert hinf_norm(sys, 1e-8) == pytest.approx(3.0, abs=1e-8)


def test_hinf_norm_one_step_delay():
    sys = StateSpace([[0.0]], [[1.0]], [[1.0]], [[0.0]], dt=1.0)
    assert hinf_norm(sys, 1e-8) == pytest.approx(1.0, abs=1e-6)


def test_hinf_norm_matches_dense_grid():
    W = zoh_discretize(from_tf([1.0], [2.0, 1.0]), 1.0)
    tol = 1e-8
    thetas = np.linspace(0.0, np.pi, 4096)
    grid_max = max(
        abs(frequency_response(W, th)[0, 0]) for th in thetas
    )
    val = hinf_norm(W, tol)
    assert val >= grid_max - 1e-12
    assert val == pytest.approx(grid_max, abs=tol + 1e-6)


def test_hinf_norm_similarity_invariant():
    rng = np.random.default_rng(23)
    sys = random_stable(rng, 4, 2, 2, dt=1.0)
    base = hinf_norm(sys, 1e-8)
    for _ in range(3):
        T = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        Ti = np.linalg.inv(T)
        sim = StateSpace(T @ sys.A @ Ti, T @ sys.B, sys.C @ Ti, sys.D, dt=1.0)
        assert hinf_norm(sim, 1e-8) == pytest.approx(base, abs=1e-6)


def test_hinf_norm_duality():
    rng = np.random.default_rng(29)
    sys = random_stable(rng, 5, 2, 3, dt=1.0)
    dual = StateSpace(sys.A.T, sys.C.T, sys.B.T, sys.D.T, dt=1.0)
    assert hinf_norm(dual, 1e-8) == pytest.approx(hinf_norm(sys, 1e-8), abs=1e-6)


def test_hinf_norm_rejects_unstable():
    sys = StateSpace([[1.1]], [[1.0]], [[1.0]], [[0.0]], dt=1.0)
    with pytest.raises(ValueError, match="stable"):
        hinf_norm(sys)


def test_hinf_norm_rejects_continuous():
    sys = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
    with pytest.raises(ValueError, match="discrete"):
        hinf_norm(sys)

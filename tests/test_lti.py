import logging
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from relaycancel import lti
from relaycancel.lifting import fsfh_lift, lifted_closed_loop
from relaycancel.lti import (
    StateSpace,
    _has_unit_circle_crossing,
    from_tf,
    hinf_norm,
    interconnect,
    is_stable,
    subsystem,
    zoh_discretize,
)
from relaycancel.relay import scalar_block

from oracles import frequency_response, reference_screen


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
# StateSpace and its record


@pytest.mark.parametrize("A, B, C, dt, message", [
    ([], [], [], None, r"A must be square, got \(1, 0\)"),
    (np.zeros((0, 0)), [], np.zeros((2, 0)), None,
     "B has 1 rows, expected 0"),
    ([[0.5]], np.zeros((1, 2)), [], None, "C has 0 columns, expected 1"),
    ([[0.5]], np.zeros((1, 0)), np.zeros((0, 1)), None,
     r"dimension mismatch: D is \(2, 2\), C has 0 rows, B has 0 columns"),
    (np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), np.inf,
     "dt must be finite"),
], ids=["ABC_empty_lists", "B_empty_list", "C_empty_list",
        "B_C_without_ports", "dt_inf"])
def test_state_space_takes_exact_shapes(A, B, C, dt, message):
    # no shape is repaired: a static system has a 0 x 0 A, a 0 x m B and
    # a p x 0 C, as StateSpace.static builds
    with pytest.raises(ValueError, match=message):
        StateSpace(A, B, C, np.eye(2), dt)


def test_state_space_rejects_a_third_axis():
    with pytest.raises(ValueError, match="A must be a matrix, got 3 axes"):
        StateSpace(np.zeros((2, 2, 2)), np.zeros((2, 1)), np.zeros((1, 2)),
                   np.zeros((1, 1)))


def test_state_space_copies_the_callers_matrices():
    A = 0.5 * np.eye(2)
    sys = StateSpace(A, np.ones((2, 1)), np.ones((1, 2)), np.zeros((1, 1)))
    assert A.flags.writeable and not sys.A.flags.writeable
    A[0, 0] = 7.0
    assert sys.A.tolist() == [[0.5, 0.0], [0.0, 0.5]]


@st.composite
def recorded_systems(draw):
    """Continuous or discrete systems with 0-4 states and 1-3 inputs and
    outputs, their entries any finite floats."""
    n = draw(st.integers(0, 4))
    m, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = st.floats(allow_nan=False, allow_infinity=False)

    def matrix(rows, cols):
        return np.array(draw(st.lists(entry, min_size=rows * cols,
                                      max_size=rows * cols)),
                        dtype=float).reshape(rows, cols)

    dt = draw(st.none() | st.floats(min_value=0.0, exclude_min=True,
                                    allow_infinity=False))
    return StateSpace(matrix(n, n), matrix(n, m), matrix(p, n),
                      matrix(p, m), dt)


@settings(max_examples=100)
@given(recorded_systems())
def test_record_round_trip_is_bitwise(sys):
    back = lti._from_record(lti._record(sys))
    for k in "ABCD":
        a, b = getattr(sys, k), getattr(back, k)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert back.dt == sys.dt and type(back.dt) is type(sys.dt)


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
    with pytest.raises(np.linalg.LinAlgError, match="algebraic loop"):
        interconnect(plant, K, partition=(1, 1))


@st.composite
def closed_loop_parts(draw, n_k):
    """(A, B2, C2, D22, K): a plant's state matrix, u columns, y rows and
    feedthrough from u to y, and a discrete controller of n_k states;
    entries spread over six decades, feedthroughs small enough for a
    regular algebraic loop."""
    n, n_u, n_y = (draw(st.integers(1, 5)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def mat(rows, cols):
        return rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-3, 3)

    K = StateSpace(mat(n_k, n_k), mat(n_k, n_y), mat(n_u, n_k),
                   0.3 * rng.standard_normal((n_u, n_y)), dt=1.0)
    return (mat(n, n), mat(n, n_u), mat(n_y, n),
            0.3 * rng.standard_normal((n_y, n_u)), K)


@pytest.mark.parametrize("n_k", [0, 1, 3])
@settings(max_examples=40)
@given(data=st.data())
def test_closed_loop_a_is_the_block_assembly(n_k, data):
    # the preallocated closed-loop A is bitwise np.block of the same four
    # blocks, also for a controller without states (n_k = 0)
    A, B2, C2, D22, K = data.draw(closed_loop_parts(n_k))
    side = lti._controller_side(K, D22)
    YDk, YCk, Bk, Ak_cl = side
    u_x = YDk @ C2
    expected = np.block([[A + B2 @ u_x, B2 @ YCk],
                         [Bk @ (C2 + D22 @ u_x), Ak_cl]])
    Acl, got_u_x = lti._closed_loop_a(A, B2, C2, D22, side)
    assert _same_bytes(Acl, expected) and _same_bytes(got_u_x, u_x)


@settings(max_examples=60)
@given(st.lists(st.integers(0, 6), max_size=12),
       st.integers(0, 2**32 - 1))
def test_stacked_spectral_margins_are_the_per_matrix_ones(orders, seed):
    # one stacked eigvals per order gives each matrix's margin bitwise,
    # in the order given; an order-0 matrix has an infinite margin
    rng = np.random.default_rng(seed)
    As = [rng.standard_normal((n, n)) * rng.uniform(0.1, 2.0)
          for n in orders]
    margins = lti._spectral_margins(As)
    assert _same_bytes(margins, [lti._spectral_margin(A) for A in As])


# ---------------------------------------------------------------------------
# from_tf

# zeros and coefficients at the 1e-14 trimming threshold next to O(1) ones
_tf_coef = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.sampled_from([1e-15, -1e-15, 1e-14, -1e-14, 2e-14]),
    st.floats(0.1, 10.0),
    st.floats(-10.0, -0.1),
)
_tf_poly = st.lists(_tf_coef, min_size=1, max_size=5)


@given(num=_tf_poly, den=_tf_poly)
@example(num=[0.0, 0.0, 1.0], den=[1.0, 2.0, 3.0])  # leading zeros in num
@example(num=[1e-14, 1.0], den=[1.0, 2.0])  # trimmed at the threshold
@example(num=[1.0], den=[0.0, 0.0, 2.0, 1.0])  # leading zeros in den
@example(num=[1.0, 3.0, 3.0], den=[1.0, 2.0, 1.0])  # same length
@example(num=[0.0, 0.0], den=[2.0, 1.0])  # all-zero num
@example(num=[1.0, 2.0, 3.0], den=[1.0, 1.0])  # improper
@example(num=[1.0], den=[0.0, 0.0])  # all-zero den
@example(num=[3.0], den=[2.0])  # static gain
@example(num=[2.0, 1.0], den=[1.0])  # improper over a constant den
def test_from_tf_is_tf2ss_bit_for_bit(num, den):
    from scipy.signal import BadCoefficients, tf2ss

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BadCoefficients)
        try:
            expected = tf2ss(num, den)
        except ValueError:
            expected = None
    if expected is None:
        with pytest.raises(ValueError):
            from_tf(num, den)
        return
    sys = from_tf(num, den)
    if len(np.trim_zeros(np.asarray(den), "f")) == 1:
        # a constant den is a static gain, not tf2ss's state with A = 0
        assert sys.n_states == 0 and is_stable(sys)
        expected = expected[3:]
        got = (sys.D,)
    else:
        got = (sys.A, sys.B, sys.C, sys.D)
    for M, E in zip(got, expected):
        assert M.shape == E.shape and M.dtype == E.dtype
        assert M.tobytes() == E.tobytes()


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


# ---------------------------------------------------------------------------
# hinf_norm against the plain bisection


def _sigma_D(sys):
    """sigma_max(D), which hinf_norm hands to the grid and its screen."""
    return np.linalg.norm(sys.D, 2)


def _rho(sys):
    """The spectral radius of sys.A, which hinf_norm hands on as well."""
    return lti._spectral_radius(sys.A)


def _reference_sigma_max_grid(sys, n_grid):
    """Largest singular value of the response over a [0, pi] theta grid
    and its first maximizer, by an SVD at every grid point.  The grid's
    geometric half starts at 1e-2 x the slowest pole's distance from the
    unit circle, but not below 1e-6."""
    rho = max(np.abs(np.linalg.eigvals(sys.A)), default=0.0)
    thetas = np.unique(np.concatenate([
        np.linspace(0.0, np.pi, n_grid // 2),
        np.geomspace(max(1e-6, 1e-2 * (1.0 - rho)), np.pi, n_grid // 2),
    ]))
    best, theta_best = 0.0, 0.0
    In = np.eye(sys.n_states)
    for th in thetas:
        z = np.exp(1j * th)
        G = sys.C @ np.linalg.solve(z * In - sys.A, sys.B) + sys.D
        s = np.linalg.svd(G, compute_uv=False)[0]
        if s > best:
            best, theta_best = float(s), float(th)
    return best, theta_best


def reference_hinf_norm(sys, tol=1e-6, n_grid=512, max_iter=200):
    """The bisection that probes every level, kept as the reference."""
    if not sys.is_discrete:
        raise ValueError("hinf_norm is implemented for discrete-time systems")
    if not is_stable(sys):
        raise ValueError("hinf_norm requires a stable system")
    if sys.n_inputs == 0 or sys.n_outputs == 0:
        return 0.0
    sv_D = np.linalg.svd(sys.D, compute_uv=False)[0] if sys.D.size else 0.0
    if sys.n_states == 0:
        return float(sv_D)
    if not (sys.B.any() and sys.C.any()):
        return float(sv_D)

    lo = max(_reference_sigma_max_grid(sys, n_grid)[0], sv_D * (1.0 + 1e-12))
    if lo == 0.0:
        return 0.0
    hi = lo * 10.0 + sv_D + 1.0
    # widen if the initial upper bracket is still attained somewhere
    grow = 0
    while _has_unit_circle_crossing(sys, hi) and grow < 40:
        hi *= 10.0
        grow += 1
    it = 0
    while hi - lo > tol:
        it += 1
        if it > max_iter:
            raise RuntimeError(
                f"hinf_norm bisection did not converge within {max_iter} iterations"
            )
        mid = 0.5 * (lo + hi)
        if _has_unit_circle_crossing(sys, mid):
            lo = mid
        else:
            hi = mid
    return float(max(0.5 * (lo + hi), lo))


@st.composite
def stable_discrete_systems(draw, kinds=("random", "d_dominated",
                                         "near_circle", "peak_zero",
                                         "peak_pi")):
    """Small stable discrete systems of one of five kinds.

    ``peak_zero``: positive diagonal A, entrywise non-negative B, C, D, so
    every entry of G is largest in modulus at theta = 0 and so is
    sigma_max.  ``peak_pi``: the mirror image with negative poles and
    D <= 0, peak at theta = pi.
    """
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 2))
    p = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    D = rng.standard_normal((p, m))
    if kind in ("peak_zero", "peak_pi"):
        sign = 1.0 if kind == "peak_zero" else -1.0
        A = sign * np.diag(rng.uniform(0.3, 0.95, n))
        B, C, D = np.abs(B), np.abs(C), sign * np.abs(D)
    else:
        radius = {"random": rng.uniform(0.1, 0.95),
                  "d_dominated": rng.uniform(0.1, 0.8),
                  "near_circle": rng.uniform(0.99, 0.999)}[kind]
        A = rng.standard_normal((n, n))
        A *= radius / np.max(np.abs(np.linalg.eigvals(A)))
        if kind == "d_dominated":
            D *= 30.0
    return StateSpace(A, B, C, D, dt=1.0)


def _count_probes(monkeypatch):
    calls = []

    def counting(sys, gamma):
        calls.append(gamma)
        return _has_unit_circle_crossing(sys, gamma)

    monkeypatch.setattr(lti, "_has_unit_circle_crossing", counting)
    return calls


def _responses(sys, thetas):
    In = np.eye(sys.n_states)
    return np.array([
        sys.C @ np.linalg.solve(np.exp(1j * th) * In - sys.A, sys.B) + sys.D
        for th in thetas
    ])


def _sigma_max(sys, thetas):
    return np.linalg.svd(_responses(sys, thetas), compute_uv=False)[:, 0]


@settings(max_examples=60)
@given(stable_discrete_systems())
def test_hinf_norm_equals_the_plain_bisection(sys):
    # these systems are minimal, so no state is cut and nothing moves
    reduced, tail, rho = lti._balanced_truncation(sys, _rho(sys))
    assert reduced is sys and tail == 0.0 and rho == _rho(sys)
    assert hinf_norm(sys) == reference_hinf_norm(sys)


@settings(max_examples=20)
@given(stable_discrete_systems(kinds=("peak_zero", "peak_pi")))
def test_hinf_norm_spends_one_eigensolve_when_the_grid_holds_the_peak(sys):
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_probes(mp)
        assert hinf_norm(sys) == reference_hinf_norm(sys)
    assert len(calls) == 1


def test_hinf_norm_falls_back_to_bisection_between_grid_points(monkeypatch):
    # a resonance of half-width ~1e-3 rad midway between two grid points
    # 0.0123 rad apart, so the grid maximum is far below the norm
    theta0 = 200.5 * np.pi / 255
    r = 0.999
    c, s = np.cos(theta0), np.sin(theta0)
    sys = StateSpace(r * np.array([[c, -s], [s, c]]), [[1.0], [0.0]],
                     [[1.0 - r, 0.0]], [[0.0]], dt=1.0)
    calls = _count_probes(monkeypatch)
    tol = 1e-6
    val = hinf_norm(sys, tol)
    assert len(calls) > 1
    assert val == reference_hinf_norm(sys, tol)

    thetas = np.linspace(theta0 - 1e-2, theta0 + 1e-2, 20001)
    coarse = _sigma_max(sys, thetas)
    th = thetas[np.argmax(coarse)]
    dense_max = _sigma_max(sys, np.linspace(th - 2e-6, th + 2e-6, 4001)).max()
    assert lti._sigma_max_grid(sys, 512, _sigma_D(sys), _rho(sys))[0] \
        < 0.9 * dense_max
    assert dense_max - tol / 2 <= val <= dense_max + tol


def test_hinf_norm_grows_its_upper_bracket():
    # a resonance of half-width ~1e-4 rad between grid points: the peak
    # 5000.25 lies far above 10 x the grid maximum 122.75 + 1, the first
    # upper bracket, so that bracket must grow before the bisection
    theta0 = 1.0 + np.pi / 510
    r = 1.0 - 1e-4
    c, s = np.cos(theta0), np.sin(theta0)
    sys = StateSpace(r * np.array([[c, -s], [s, c]]), [[1.0], [0.0]],
                     [[1.0, 0.0]], [[0.0]], dt=1.0)
    tol = 1e-6
    val = hinf_norm(sys, tol)

    thetas = np.linspace(theta0 - 1e-2, theta0 + 1e-2, 20001)
    th = thetas[np.argmax(_sigma_max(sys, thetas))]
    dense_max = _sigma_max(sys, np.linspace(th - 2e-6, th + 2e-6, 4001)).max()
    grid_max = lti._sigma_max_grid(sys, lti._HINF_GRID, _sigma_D(sys),
                                   _rho(sys))[0]
    assert 10.0 * grid_max + 1.0 < 0.99 * dense_max
    # the pencil test misses crossings just below so sharp a peak: the
    # norm comes out 0.3% low (4985.15), so only 1% is asked for here
    assert 0.99 * dense_max < val <= dense_max + tol


@st.composite
def slow_pole_systems(draw):
    """A real pole at 1 - delta, delta log-uniform in [1e-5, 1e-2], and a
    lightly damped pair at angle phi, log-uniform in [1e-4, 1e-2], and
    radius 1 - zeta phi.  Each mode's input column is scaled by its
    distance from the unit circle, so the peaks are of order one."""
    delta = 10.0 ** draw(st.floats(-5.0, -2.0))
    phi = 10.0 ** draw(st.floats(-4.0, -2.0))
    zeta = draw(st.floats(0.05, 0.5))
    m = draw(st.integers(1, 2))
    p = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    r = 1.0 - zeta * phi
    c, s = np.cos(phi), np.sin(phi)
    A = np.zeros((3, 3))
    A[0, 0] = 1.0 - delta
    A[1:, 1:] = r * np.array([[c, -s], [s, c]])
    B = rng.standard_normal((3, m)) * np.array([[delta], [1 - r], [1 - r]])
    return StateSpace(A, B, rng.standard_normal((p, 3)),
                      0.1 * rng.standard_normal((p, m)), dt=1.0)


def _dense_peak(sys):
    """Largest sigma_max over [0, pi]: 4001 evenly spaced and 20001
    geometrically spaced thetas from 1e-9, then a bounded maximization
    between the neighbours of each of the five largest points."""
    from scipy.optimize import minimize_scalar

    thetas = np.unique(np.concatenate([np.linspace(0.0, np.pi, 4001),
                                       np.geomspace(1e-9, np.pi, 20001)]))
    In = np.eye(sys.n_states)

    def sigma(th):
        z = np.exp(1j * np.atleast_1d(th))[:, None, None]
        G = sys.C @ np.linalg.solve(z * In - sys.A, sys.B) + sys.D
        return np.linalg.svd(G, compute_uv=False)[:, 0]

    values = sigma(thetas)
    peak = values.max()
    for i in np.argsort(values)[-5:]:
        lo, hi = thetas[max(i - 1, 0)], thetas[min(i + 1, thetas.size - 1)]
        res = minimize_scalar(lambda th: -sigma(th)[0], bounds=(lo, hi),
                              method="bounded", options={"xatol": 1e-14})
        peak = max(peak, -res.fun)
    return float(peak)


@settings(max_examples=25)
@given(slow_pole_systems())
def test_hinf_norm_resolves_peaks_near_slow_poles(sys):
    # the grid's geometric half starts at 1e-2 x the slowest pole's
    # distance from the circle, below every resonance drawn here, and
    # steps by at most (pi / 1e-6)^(1/255) - 1 = 6% there: some point lies
    # within 3% of phi, where a resonance of half-width zeta phi >= 5% of
    # phi stays above 0.85 of its peak
    tol = 1e-6
    peak = _dense_peak(sys)
    grid_max = lti._sigma_max_grid(sys, lti._HINF_GRID, _sigma_D(sys),
                                   _rho(sys))[0]
    assert grid_max >= 0.8 * peak
    val = hinf_norm(sys, tol)
    # the pencil test's 1e-8 window on the unit circle moves the upper end
    # of so sharp a peak by up to about 7e-6 relative, either way
    assert abs(val - peak) <= tol + 1e-5 * peak


def _check_hinf_norm_debug_line(caplog, d, screen):
    sys = StateSpace([[0.5]], [[1.0]], [[1.0]], [[d]], dt=1.0)
    with caplog.at_level(logging.DEBUG, logger="relaycancel.lti"):
        val = hinf_norm(sys)
    [record] = caplog.records
    assert record.levelno == logging.DEBUG
    # the pole at 0.5 starts the geometric half of the grid at
    # 1e-2 x (1 - 0.5); every 64th point and the last seed the maximum
    peak = f"{2.0 + d:g}"
    assert record.getMessage().startswith(
        "hinf_norm: 1 states -> 1 (tail 0), grid from theta 0.005, "
        f"grid max {peak} at theta 0, {screen}, bracket [{peak}, ")
    assert record.getMessage().endswith("], 1 pencil eigensolves")
    assert val == pytest.approx(2.0 + d, abs=1e-6)


def test_hinf_norm_logs_one_debug_line(caplog):
    # only the peak at theta = 0, a seed, lies within 1e-9 of the maximum
    _check_hinf_norm_debug_line(
        caplog, 0.0,
        "9 of 511 grid points by SVD (9 seeds, 0 failed the order-1 screen)")


def test_hinf_norm_logs_one_debug_line_unscreened(caplog):
    # sigma_max(D) = 1000 is above 0.99 x the peak 1002: no screen runs
    _check_hinf_norm_debug_line(
        caplog, 1000.0,
        "511 of 511 grid points by SVD (9 seeds, no screen passed a point)")


def test_hinf_norm_logs_the_screen_failures(caplog):
    # a resonance at theta = 1 between the seeds: the 37 points near it
    # lie above the seeds' maximum, fail the screen and take an SVD each
    c, s = 0.9 * np.cos(1.0), 0.9 * np.sin(1.0)
    sys = StateSpace([[c, -s], [s, c]], [[1.0], [0.0]], [[1.0, 0.0]],
                     [[0.0]], dt=1.0)
    with caplog.at_level(logging.DEBUG, logger="relaycancel.lti"):
        hinf_norm(sys)
    [record] = caplog.records
    assert ", 46 of 511 grid points by SVD (9 seeds, 37 failed the order-1 " \
        "screen), " in record.getMessage()
    # and the grid's maximum is still the per-point loop's, bit for bit
    value, theta, *_ = lti._sigma_max_grid(sys, lti._HINF_GRID, 0.0,
                                           _rho(sys))
    assert (value, theta) == _reference_sigma_max_grid(sys, lti._HINF_GRID)


@pytest.mark.parametrize("scale", [1e-15, 1e-12, 1e-9, 1e-6, 1.0, 1e6])
def test_hinf_norm_is_never_below_the_dense_grid(scale):
    # positive poles and B, C >= 0: the peak is at theta = 0, a grid point
    sys = StateSpace(np.diag([0.5, 0.8]), scale * np.array([[1.0], [0.5]]),
                     [[1.0, 2.0]], [[0.0]], dt=1.0)
    dense_max = _sigma_max(sys, np.linspace(0.0, np.pi, 4097)).max()
    assert dense_max == pytest.approx(7.0 * scale, rel=1e-12)
    # the upper end stays loose by the absolute tolerance
    assert dense_max <= hinf_norm(sys) <= dense_max + 1e-6


def test_hinf_norm_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(lti, "_HINF_MAX_ITER", 3)
    sys = StateSpace([[0.5]], [[1.0]], [[1.0]], [[0.0]], dt=1.0)
    with pytest.raises(RuntimeError, match="did not converge within 3"):
        hinf_norm(sys, tol=1e-12)


@settings(max_examples=40)
@given(stable_discrete_systems(kinds=("random",)))
def test_crossing_test_brackets_the_dense_grid_peak(sys):
    assume(np.max(np.abs(np.linalg.eigvals(sys.A))) < 0.8)
    sigma = _sigma_max(sys, np.linspace(0.0, np.pi, 2048))
    peak = sigma.max()
    # 0.99 x the peak is crossed only where sigma_max dips below it
    assume(sigma.min() < 0.98 * peak)
    assert _has_unit_circle_crossing(sys, 0.99 * peak)
    assert not _has_unit_circle_crossing(sys, 1.01 * peak)


# ---------------------------------------------------------------------------
# the screened grid against the per-point SVD loop


@st.composite
def grid_screen_systems(draw):
    """(kind, system): small stable discrete systems for the screened grid.

    ``random`` and ``near_circle`` draw the input and output counts
    independently, so G is square, tall or wide; ``zero_d`` has D = 0;
    ``zero_response`` has a driven part the output does not see and a
    seen part the input does not drive, so G is exactly 0 and no screen
    runs (beta = 0); ``peak_zero`` and ``peak_pi`` are those of
    ``stable_discrete_systems``; ``all_pass`` is a block diagonal of
    first-order all-pass sections, so sigma_max is 1 up to rounding at
    every theta; ``constant`` has dynamics 1e-20 x D, so every point
    ties with the peak.
    """
    kind = draw(st.sampled_from(("random", "near_circle", "zero_d",
                                 "zero_response", "peak_zero", "peak_pi",
                                 "all_pass", "constant")))
    if kind in ("peak_zero", "peak_pi"):
        return kind, draw(stable_discrete_systems(kinds=(kind,)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    p = draw(st.integers(1, 5))
    if kind == "all_pass":
        a = rng.uniform(-0.9, 0.9, n)
        return kind, StateSpace(np.diag(a), np.diag(1.0 - a**2), np.eye(n),
                                np.diag(-a), dt=1.0)
    if kind == "zero_response":
        k = draw(st.integers(1, n))
        a = rng.uniform(-0.9, 0.9, n + 1)
        B = np.zeros((n + 1, m))
        B[:k] = rng.standard_normal((k, m))
        C = np.zeros((p, n + 1))
        C[:, k:] = rng.standard_normal((p, n + 1 - k))
        return kind, StateSpace(np.diag(a), B, C, np.zeros((p, m)), dt=1.0)
    radius = rng.uniform(0.99, 0.999) if kind == "near_circle" \
        else rng.uniform(0.1, 0.95)
    A = rng.standard_normal((n, n))
    A *= radius / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    D = np.zeros((p, m)) if kind == "zero_d" else rng.standard_normal((p, m))
    if kind == "constant":
        B *= 1e-20
    return kind, StateSpace(A, B, C, D, dt=1.0)


@settings(max_examples=200)
@given(grid_screen_systems(), st.sampled_from((512, 100, 33, 2)))
def test_sigma_max_grid_equals_the_per_point_loop(case, n_grid):
    kind, sys = case
    value, theta, svds, points, *_ = lti._sigma_max_grid(
        sys, n_grid, _sigma_D(sys), _rho(sys))
    assert (value, theta) == _reference_sigma_max_grid(sys, n_grid)
    assert 0 < svds <= points
    if kind == "zero_response":
        assert value == 0.0 and theta == 0.0 and svds == points
    if kind == "constant":
        assert theta == 0.0 and svds == points


@st.composite
def screen_cases(draw):
    """(system, beta): a stable system with up to 4 states, inputs and
    outputs, so G is square, tall or wide, and a level to screen it at.

    ``near_circle`` has spectral radius in [0.99, 0.999]; ``d_dominated``
    sets beta = sigma_max(D) / ratio with ratio in [0.9, 1), on both
    sides of the screen's 0.99 margin; the others take beta between 0.3
    and 1.2 x the largest sigma_max on a 257-point grid.
    """
    kind = draw(st.sampled_from(("random", "near_circle", "d_dominated")))
    n, m, p = (draw(st.integers(1, 4)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radius = rng.uniform(0.99, 0.999) if kind == "near_circle" \
        else rng.uniform(0.1, 0.95)
    A = rng.standard_normal((n, n))
    A *= radius / np.max(np.abs(np.linalg.eigvals(A)))
    sys = StateSpace(A, rng.standard_normal((n, m)),
                     rng.standard_normal((p, n)),
                     rng.standard_normal((p, m)), dt=1.0)
    if kind == "d_dominated":
        ratio = draw(st.floats(0.9, 1.0, exclude_max=True))
        return sys, np.linalg.norm(sys.D, 2) / ratio
    peak = _sigma_max(sys, np.linspace(0.0, np.pi, 257)).max()
    return sys, draw(st.floats(0.3, 1.2)) * peak


@settings(max_examples=200)
@given(screen_cases())
def test_screen_passes_only_points_below_beta(case):
    sys, beta = case
    thetas = np.linspace(0.0, np.pi, 129)
    passed = lti._screen(sys, beta, thetas, _sigma_D(sys))
    # it runs only where sigma_max(D) <= 0.99 beta
    assert (passed is None) == (np.linalg.norm(sys.D, 2) > 0.99 * beta)
    assume(passed is not None)
    sigma = np.array([np.linalg.svd(G, compute_uv=False)[0]
                      for G in _responses(sys, thetas)])
    # below beta up to rounding, which must stay well inside the 1e-9
    # margin _sigma_max_grid leaves below its maximum (ties at beta pass)
    assert np.all(sigma[passed] < beta * (1.0 + 1e-10))
    # and it passes what lies clearly below beta
    assert np.all(passed[sigma < beta * (1.0 - 1e-6)])


@settings(max_examples=200)
@given(screen_cases(), st.sampled_from((1, 16, 17, 129)))
def test_screen_agrees_with_the_per_point_reference(case, n_thetas):
    # the Schur-form screen and the per-point solve differ only in
    # rounding: they pass the same points wherever sigma_max is not
    # within 1e-9 relative of beta, also in a partial chunk
    sys, beta = case
    thetas = np.linspace(0.0, np.pi, n_thetas)
    passed = lti._screen(sys, beta, thetas, _sigma_D(sys))
    reference = reference_screen(sys, beta, thetas, _sigma_D(sys))
    assert (passed is None) == (reference is None)
    assume(passed is not None)
    sigma = np.array([np.linalg.svd(G, compute_uv=False)[0]
                      for G in _responses(sys, thetas)])
    clear = np.abs(sigma - beta) > 1e-9 * beta
    assert np.array_equal(passed[clear], reference[clear])


@settings(max_examples=100)
@given(screen_cases(), st.floats(0.0, np.pi))
def test_loop_shift_is_a_congruence(case, theta):
    # I - M'M = E'(I - Gh'Gh) E for the loop-shifted M of _screen's
    # docstring, built here from both Cholesky factors
    sys, beta = case
    assume(np.linalg.norm(sys.D, 2) <= 0.99 * beta)
    C, D = sys.C / beta, sys.D / beta
    p, m = D.shape
    Phi = np.eye(m) - D.T @ D
    Lp = np.linalg.cholesky(Phi)
    Lq = np.linalg.cholesky(np.eye(p) - D @ D.T)
    K = np.linalg.solve(Phi, D.T @ C)
    zI = np.exp(1j * theta) * np.eye(sys.n_states)
    Y = np.linalg.solve(zI - sys.A - sys.B @ K, sys.B)
    M = np.linalg.solve(Lq, C @ Y) @ np.linalg.inv(Lp).T
    Gh = C @ np.linalg.solve(zI - sys.A, sys.B) + D
    E = (np.eye(m) + K @ Y) @ np.linalg.inv(Lp).T
    lhs = np.eye(m) - M.conj().T @ M
    rhs = E.conj().T @ (np.eye(m) - Gh.conj().T @ Gh) @ E
    assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(lhs)
    # and _screen passes theta exactly where M is a contraction
    s = np.linalg.norm(M, 2)
    if abs(s - 1.0) > 1e-6:
        passed = lti._screen(sys, beta, np.array([theta]), _sigma_D(sys))
        assert passed[0] == (s < 1.0)


@pytest.fixture(scope="module")
def nominal_loops(nominal_design):
    """The bundled nominal_60db design's loops at N = 16 (the design
    rate), 32 (``verify``'s 2N) and 64 (``lift-check``'s range), each
    balanced-truncated as hinf_norm does."""
    spec, K = nominal_design["spec"], nominal_design["K"]
    loops = {}
    for N in (16, 32, 64):
        lp = fsfh_lift(spec, N)
        (idx,) = lp.channel_indices()
        loop = subsystem(lifted_closed_loop(lp, K.sys), idx, idx)
        loops[N] = lti._balanced_truncation(loop, _rho(loop))[0]
    return loops


def test_sigma_max_grid_is_bitwise_on_the_nominal_loop(nominal_loops):
    _check_sigma_max_grid_on_the_nominal_loop(nominal_loops, 32)


@pytest.mark.parametrize("N", [16, 64])
def test_sigma_max_grid_is_bitwise_on_the_nominal_loop_at(nominal_loops, N):
    _check_sigma_max_grid_on_the_nominal_loop(nominal_loops, N)


def _check_sigma_max_grid_on_the_nominal_loop(nominal_loops, N):
    sys = nominal_loops[N]
    assert sys.n_inputs == sys.n_outputs == 2 * N
    value, theta, svds, points, theta_lo = lti._sigma_max_grid(
        sys, lti._HINF_GRID, _sigma_D(sys), _rho(sys))
    assert (value, theta) == _reference_sigma_max_grid(sys, lti._HINF_GRID)
    # only the 9 seeds: the screen passes every other point
    assert points == 511 and svds == 9
    # the slowest pole of the bundled loops is exp(-1/2) = 0.6065
    assert theta_lo == pytest.approx(1e-2 * (1.0 - np.exp(-0.5)), rel=1e-6)


@pytest.fixture(scope="module")
def robust_loops(robust_40db_design):
    """The bundled robust_40db design's performance and uncertainty
    channels at its design N = 4, each balanced-truncated as hinf_norm
    does."""
    rp, K = robust_40db_design["rp"], robust_40db_design["K"]
    cl = lifted_closed_loop(rp, K.sys)
    return [lti._balanced_truncation(subsystem(cl, idx, idx), _rho(cl))[0]
            for idx in rp.channel_indices()]


# the performance channel's peak is at theta = 0, a seed; the uncertainty
# channel's lies between seeds, and 6 points near it fail the screen
@pytest.mark.parametrize("channel, svds_expected", [(0, 9), (1, 15)])
def test_sigma_max_grid_is_bitwise_on_the_robust_loop(robust_loops, channel,
                                                      svds_expected):
    sys = robust_loops[channel]
    value, theta, svds, points, _ = lti._sigma_max_grid(
        sys, lti._HINF_GRID, _sigma_D(sys), _rho(sys))
    assert (value, theta) == _reference_sigma_max_grid(sys, lti._HINF_GRID)
    assert points == 511 and svds == svds_expected


@pytest.mark.parametrize("channel", [0, 1])
def test_screen_chunks_by_bytes_on_the_robust_loop(robust_loops, channel,
                                                   monkeypatch):
    # robust_40db's design-rate channels are order-8 screens of 18
    # states: 32 points fit the byte budget of 16 points at the nominal
    # N = 32 loop's order 17, and the grid's last chunk is partial
    sys = robust_loops[channel]
    calls = []
    real = lti._screen

    def recorded(*args):
        calls.append((*args, real(*args)))
        return calls[-1][-1]

    monkeypatch.setattr(lti, "_screen", recorded)
    lti._sigma_max_grid(sys, lti._HINF_GRID, _sigma_D(sys), _rho(sys))
    [(_, beta, thetas, sigma_D, passed)] = calls
    assert min(sys.n_states, sys.n_inputs, sys.n_outputs) == 8
    assert sys.n_states == 18 and thetas.size % 32
    assert lti._screen_chunk(18, 8) == 32
    assert lti._screen_chunk(17, 17) == 16
    assert np.array_equal(passed,
                          reference_screen(sys, beta, thetas, sigma_D))


@st.composite
def chunked_screen_cases(draw):
    """(sys, beta, thetas, sigma): a stable system of 10 to 20 states
    and 4 to 8 inputs and outputs, between two and three chunks of
    thetas, the last one partial, sigma_max at each theta, and a beta
    between sigma's extremes."""
    n, m, p = (draw(st.integers(*span)) for span in ((10, 20), (4, 8),
                                                     (4, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n))
    A *= rng.uniform(0.1, 0.95) / np.max(np.abs(np.linalg.eigvals(A)))
    sys = StateSpace(A, rng.standard_normal((n, m)),
                     rng.standard_normal((p, n)),
                     0.1 * rng.standard_normal((p, m)), dt=1.0)
    chunk = lti._screen_chunk(n, min(n, m, p))
    size = 2 * chunk + draw(st.integers(1, chunk - 1))
    thetas = np.linspace(0.0, np.pi, size)
    sigma = _sigma_max(sys, thetas)
    lo, hi = sigma.min(), sigma.max()
    return sys, lo + draw(st.floats(0.1, 0.9)) * (hi - lo), thetas, sigma


@settings(max_examples=25)
@given(chunked_screen_cases())
def test_screen_agrees_with_the_reference_over_a_partial_chunk(case):
    # chunks sized by bytes pass what the per-point reference passes,
    # wherever sigma_max is not within 1e-9 relative of beta
    sys, beta, thetas, sigma = case
    r = min(sys.n_states, sys.n_inputs, sys.n_outputs)
    chunk = lti._screen_chunk(sys.n_states, r)
    assert 2 * chunk < thetas.size < 3 * chunk
    passed = lti._screen(sys, beta, thetas, _sigma_D(sys))
    assume(passed is not None)
    reference = reference_screen(sys, beta, thetas, _sigma_D(sys))
    clear = np.abs(sigma - beta) > 1e-9 * beta
    assert np.array_equal(passed[clear], reference[clear])
    # beta lies inside sigma's range, so both verdicts occur
    assert passed.any() and not passed.all()


def test_sigma_max_grid_memory_stays_chunked(nominal_loops):
    # measured 0.35 MB at N=32, most of it the screen's three chunk
    # buffers; a chunk of sixteen 64 x 64 complex responses, as a screen
    # of the p x m response would stack, is 1.05 MB by itself
    tracemalloc.start()
    try:
        lti._sigma_max_grid(nominal_loops[32], lti._HINF_GRID,
                            _sigma_D(nominal_loops[32]),
                            _rho(nominal_loops[32]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.4e6


# ---------------------------------------------------------------------------
# balanced truncation ahead of the norm


def _hankel_singular_values(sys):
    """Independent oracle: Gramians by the Kronecker-product solve."""
    n = sys.n_states
    I = np.eye(n * n)
    P = np.linalg.solve(I - np.kron(sys.A, sys.A),
                        (sys.B @ sys.B.T).ravel()).reshape(n, n)
    Q = np.linalg.solve(I - np.kron(sys.A.T, sys.A.T),
                        (sys.C.T @ sys.C).ravel()).reshape(n, n)
    return np.sort(np.sqrt(np.abs(np.linalg.eigvals(P @ Q))))[::-1]


@st.composite
def padded_systems(draw, kinds=("random", "d_dominated", "near_circle")):
    """(minimal, padded): a minimal system and a non-minimal realization.

    The padding adds stable uncontrollable modes (which may be seen at
    the output and may drive the minimal part) and stable unobservable
    modes (which the other states may drive), then applies a random
    similarity of condition number at most 4.
    """
    minimal = draw(stable_discrete_systems(kinds=kinds))
    hsv = _hankel_singular_values(minimal)
    assume(hsv[-1] > 1e-8 * hsv[0])
    n_u = draw(st.integers(0, 2))
    n_o = draw(st.integers(0 if n_u else 1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m, p = minimal.n_states, minimal.n_inputs, minimal.n_outputs
    c, u, o = slice(0, n), slice(n, n + n_u), slice(n + n_u, n + n_u + n_o)
    N = n + n_u + n_o
    A = np.zeros((N, N))
    A[c, c] = minimal.A
    A[u, u] = np.diag(rng.uniform(-0.9, 0.9, n_u))
    A[o, o] = np.diag(rng.uniform(-0.9, 0.9, n_o))
    A[c, u] = rng.standard_normal((n, n_u))
    A[o, c] = rng.standard_normal((n_o, n))
    A[o, u] = rng.standard_normal((n_o, n_u))
    B = np.zeros((N, m))
    B[c] = minimal.B
    B[o] = rng.standard_normal((n_o, m))
    C = np.zeros((p, N))
    C[:, c] = minimal.C
    C[:, u] = rng.standard_normal((p, n_u))
    Qr, _ = np.linalg.qr(rng.standard_normal((N, N)))
    T = Qr * rng.uniform(0.5, 2.0, N)
    Ti = np.linalg.inv(T)
    padded = StateSpace(T @ A @ Ti, T @ B, C @ Ti, minimal.D, dt=1.0)
    return minimal, padded


@settings(max_examples=40)
@given(padded_systems())
def test_truncation_recovers_the_minimal_order(pair):
    minimal, padded = pair
    reduced, tail, _ = lti._balanced_truncation(padded, _rho(padded))
    assert reduced.n_states == minimal.n_states < padded.n_states
    assert 0.0 <= tail < 1e-9 * _hankel_singular_values(minimal)[0]
    # the truncation's contract: the responses differ by at most the tail
    thetas = np.linspace(0.0, np.pi, 257)
    G = _responses(minimal, thetas)
    err = np.linalg.svd(_responses(reduced, thetas) - G, compute_uv=False)
    scale = np.linalg.svd(G, compute_uv=False).max()
    assert err.max() <= tail + 1e-9 * scale


@settings(max_examples=40)
@given(padded_systems(kinds=("random", "d_dominated")))
def test_truncated_norm_matches_the_plain_bisection(pair):
    """Near-circle poles are left out: their peaks are sharper than the
    pencil test resolves, so the plain bisection itself returns different
    values on similar realizations of one minimal system (1.7e-5 relative
    on a norm of 333), with or without the truncation."""
    minimal, padded = pair
    tol = 1e-6
    ref = reference_hinf_norm(minimal, tol)
    assert abs(hinf_norm(padded, tol) - ref) <= tol + 1e-9 * ref


def test_truncation_fallback_is_the_plain_path(monkeypatch):
    minimal = random_stable(np.random.default_rng(31), 3, 2, 2, dt=1.0)
    A = np.zeros((5, 5))
    A[:3, :3] = minimal.A
    A[3:, 3:] = np.diag([0.5, -0.4])
    padded = StateSpace(A, np.vstack([minimal.B, np.zeros((2, 2))]),
                        np.hstack([minimal.C, np.zeros((2, 2))]), minimal.D,
                        dt=1.0)
    assert lti._balanced_truncation(padded, _rho(padded))[0].n_states == 3

    def failing(A, B):
        raise np.linalg.LinAlgError("no Gramian")

    monkeypatch.setattr(lti, "_gramian_factor", failing)
    reduced, tail, rho = lti._balanced_truncation(padded, _rho(padded))
    assert reduced is padded and tail == 0.0 and rho == _rho(padded)
    assert hinf_norm(padded) == reference_hinf_norm(padded)


def test_hinf_norm_adds_the_truncation_bound(monkeypatch):
    sys = random_stable(np.random.default_rng(37), 3, 2, 2, dt=1.0)
    monkeypatch.setattr(lti, "_balanced_truncation",
                        lambda s, rho: (s, 0.5, rho))
    assert hinf_norm(sys) == reference_hinf_norm(sys) + 0.5


def test_gramian_factor_failures_raise():
    with pytest.raises(np.linalg.LinAlgError, match="not finite"):
        lti._gramian_factor(np.array([[0.5, 1e300], [0.0, 0.5]]),
                            np.array([[0.0], [1e10]]))
    with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
        lti._gramian_factor(np.eye(1), np.ones((1, 1)))


# ---------------------------------------------------------------------------
# LAPACK and expm kernels, byte for byte against scipy.linalg


def _same_bytes(got, ref) -> bool:
    got, ref = np.asarray(got), np.asarray(ref)
    return (got.shape == ref.shape and got.dtype == ref.dtype
            and got.tobytes() == ref.tobytes())


@st.composite
def kernel_matrices(draw):
    """M = [[A, B], [0, 0]] T as ``zoh_discretize`` builds it, of order 2
    to 8 with B != 0 and norm from about 1e-3 to 500, so that expm scales
    and squares (s > 0) on the larger draws.  A general A makes M
    general, an upper-triangular or diagonal one makes it upper
    triangular; a paired diagonal, as a first-order ``scalar_block``
    has, takes ``_exp_sinch``'s equal-entry case."""
    kind = draw(st.sampled_from(["general", "upper", "paired_diagonal"]))
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 2))
    scale = 10.0 ** draw(st.floats(-3.0, 1.7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((n, n))
    if kind == "upper":
        A = np.triu(A)
    elif kind == "paired_diagonal":
        A = np.diag(np.repeat(A.diagonal()[::2], 2)[:n])
    M = np.zeros((n + m, n + m))
    M[:n, :n], M[:n, n:] = A, rng.standard_normal((n, m))
    return M * scale


def _squarings(A) -> int:
    from scipy.linalg._matfuncs_expm import pick_pade_structure

    Am = np.empty((5,) + A.shape)
    Am[0] = A
    return pick_pade_structure(Am)[1]


@settings(max_examples=200)
@given(kernel_matrices())
def test_expm_is_scipys_bit_for_bit(A):
    assert _same_bytes(lti._expm(A), scipy.linalg.expm(A))


@pytest.mark.parametrize("kind", ["general", "upper"])
def test_expm_is_scipys_bit_for_bit_when_it_squares(kind):
    A = np.random.default_rng(3).standard_normal((6, 6)) * 20.0
    A = {"general": A, "upper": np.triu(A)}[kind]
    assert _squarings(A) > 0
    assert _same_bytes(lti._expm(A), scipy.linalg.expm(A))


@pytest.mark.parametrize("kind", ["scalar", "diagonal", "lower"])
def test_expm_of_a_matrix_zoh_never_builds_stays_accurate(kind):
    # scipy's own cases for these are gone; the two paths left still
    # give its result to rounding
    A = np.random.default_rng(4).standard_normal((6, 6)) * 20.0
    A = {"scalar": A[:1, :1], "diagonal": np.diag(np.diag(A)),
         "lower": np.tril(A)}[kind]
    ref = scipy.linalg.expm(A)
    assert np.allclose(lti._expm(A), ref, rtol=1e-11,
                       atol=1e-11 * np.abs(ref).max())


def test_zoh_of_a_scalar_block_takes_the_triangular_squaring():
    # [[A, B], [0, 0]] T of P = 1/(0.001 s + 1) I: upper triangular, a
    # diagonal A with equal entries, and a norm that needs squaring
    P = scalar_block([1.0], [0.001, 1.0])
    M = np.zeros((4, 4))
    M[:2, :2], M[:2, 2:] = P.A, P.B
    M *= 0.25
    assert _squarings(M) > 0
    assert _same_bytes(lti._expm(M), scipy.linalg.expm(M))
    d = zoh_discretize(P, 0.25)
    assert _same_bytes(d.A, scipy.linalg.expm(M)[:2, :2])


@settings(max_examples=100)
@given(kernel_matrices())
def test_complex_schur_is_scipys_bit_for_bit(A):
    S, Q = lti._complex_schur(A)
    S_ref, Q_ref = scipy.linalg.schur(A, output="complex")
    assert _same_bytes(S, S_ref) and _same_bytes(Q, Q_ref)


@settings(max_examples=100)
@given(kernel_matrices(), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_pencil_eigenvalues_are_scipys_bit_for_bit(M, singular, seed):
    # the bounded-real pencil's L has zero rows, which gives beta = 0
    L = np.random.default_rng(seed).standard_normal(M.shape)
    L[L.shape[0] - singular:] = 0.0
    ref = scipy.linalg.eig(M, L, right=False, homogeneous_eigvals=True)
    assert _same_bytes(lti._pencil_eigenvalues(M, L), ref)


def _kernel_calls(bad: float):
    """(kernel, scipy's function, arguments) with ``bad`` in one input."""
    M = np.array([[2.0, 0.0, 0.0], [1.0, 3.0, 0.0], [0.5, -1.0, 4.0]])
    Mbad = M.copy()
    Mbad[1, 0] = bad
    Dbad = M.copy()
    Dbad[1, 1] = bad

    def schur(A):
        return scipy.linalg.schur(A, output="complex")

    def eig(M, L):
        return scipy.linalg.eig(M, L, right=False, homogeneous_eigvals=True)

    # the bad value on the diagonal first, then below it
    return [(lti._complex_schur, schur, (Dbad,)),
            (lti._pencil_eigenvalues, eig, (Dbad, Dbad)),
            (lti._complex_schur, schur, (Mbad,)),
            (lti._pencil_eigenvalues, eig, (Mbad, M)),
            (lti._pencil_eigenvalues, eig, (M, Mbad))]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("case", range(5))
def test_kernels_refuse_non_finite_inputs_as_scipy_does(bad, case):
    kernel, reference, args = _kernel_calls(bad)[case]
    with pytest.raises(ValueError) as ref:
        reference(*args)
    with pytest.raises(ValueError) as got:
        kernel(*args)
    assert type(got.value) is type(ref.value)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize("num, den", [
    ([3.0], [2.0]),                   # static gain: no states
    ([1.0], [0.001, 1.0]),            # first order
    ([-1.0, 0.5], [1.0, 0.2, 1.0]),   # second order, negative entries
])
def test_scalar_block_is_block_diag_bit_for_bit(num, den):
    siso, block = from_tf(num, den), scalar_block(num, den)
    for M, got in zip((siso.A, siso.B, siso.C, siso.D),
                      (block.A, block.B, block.C, block.D)):
        assert _same_bytes(got, scipy.linalg.block_diag(M, M))

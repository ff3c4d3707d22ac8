"""Systems: transition contracts, Jacobian correctness, trajectories."""

import numpy as np
import pytest

from conftest import AlternatingDimSystem, philox, regression_dataset, shipped_systems

from dynlearn.dynamics import (
    ConfigurationError,
    ContractViolation,
    InfluenceBalancing,
    LinearSystem,
    MomentumSystem,
    NonRecurrentRegression,
    NumericOverflow,
    ResetWrapper,
    RNNSystem,
    SquaredErrorLoss,
    System,
    check_jacobians,
    compound_loss,
    run_trajectory,
    step,
)
from dynlearn.schedules import sample_indices


def test_step_scalar_linear():
    sys1 = LinearSystem(A=[[0.5]], B=[[1.0]])
    out = step(sys1, 1, np.array([2.0]), np.array([1.0]))
    assert out[0] == 2.0


def test_step_nonrecurrent_ignores_state():
    # T_t(s, theta) = theta * x_t with x = 3, theta = 2 -> 6 regardless of s
    sysm = NonRecurrentRegression(np.array([[3.0]]), np.array([4.0]), lambda t: 0)
    for s in (np.array([0.0]), np.array([123.0])):
        assert step(sysm, 1, s, np.array([2.0]))[0] == 6.0


def test_step_rnn_sigmoid_zero():
    # W = 0, W' = 1, B = 0, x = 0 -> sigmoid(0) = 0.5 per coordinate
    rnn = RNNSystem(3, 1, inputs=lambda t: np.zeros(1))
    theta = RNNSystem.pack(np.zeros((3, 3)), np.ones((3, 1)), np.zeros(3))
    out = step(rnn, 1, np.zeros(3), theta)
    assert np.array_equal(out, 0.5 * np.ones(3))


def test_step_dimension_mismatch():
    sys1 = LinearSystem(A=[[0.5]], B=[[1.0]])
    with pytest.raises(ContractViolation):
        step(sys1, 1, np.array([1.0, 2.0]), np.array([1.0]))


def test_step_overflow_raises():
    sys1 = LinearSystem(A=[[2.0]], B=[[1.0]])
    with pytest.raises(NumericOverflow) as exc:
        step(sys1, 1, np.array([1e12]), np.array([0.0]))
    assert exc.value.stage == "transition"


def test_run_trajectory_geometric():
    # oracle: s_t = sum_{j<t} 0.5^j
    sys1 = LinearSystem(A=[[0.5]], B=[[1.0]])
    states = run_trajectory(sys1, np.zeros(1), np.array([1.0]), 3)
    expected = [sum(0.5**j for j in range(t)) for t in range(4)]
    assert [s[0] for s in states] == pytest.approx(expected, abs=0)
    assert expected == [0.0, 1.0, 1.5, 1.75]


def test_run_trajectory_empty():
    sys1 = LinearSystem(A=[[0.5]], B=[[1.0]])
    states = run_trajectory(sys1, np.array([7.0]), np.array([0.0]), 0)
    assert len(states) == 1 and states[0][0] == 7.0


def test_trajectory_determinism_and_semigroup():
    sysm, s0, theta = shipped_systems()[2][1:]  # the RNN
    full = run_trajectory(sysm, s0, theta, 20)
    again = run_trajectory(sysm, s0, theta, 20)
    for a, b in zip(full, again):
        assert np.array_equal(a, b)
    # restart at t1 = 8 and reproduce bit-exactly
    tail = [full[8]]
    for t in range(9, 21):
        tail.append(sysm.transition(t, tail[-1], theta))
    for a, b in zip(full[8:], tail):
        assert np.array_equal(a, b)


def test_compound_loss_values():
    sysm = NonRecurrentRegression(np.array([[3.0]]), np.array([4.0]), lambda t: 0)
    assert compound_loss(sysm, np.zeros(1), np.array([2.0]), 1) == 4.0  # (6-4)^2

    sys1 = LinearSystem(A=[[0.5]], B=[[1.0]])
    assert compound_loss(sys1, np.zeros(1), np.array([1.0]), 3) == 1.75

    zero_loss = LinearSystem(A=[[0.5]], B=[[1.0]], loss_weights=[0.0])
    assert compound_loss(zero_loss, np.zeros(1), np.array([3.0]), 5) == 0.0


@pytest.mark.parametrize("case", range(5))
def test_jacobians_match_finite_differences(case, rng):
    name, sysm, s0, theta = shipped_systems()[case]
    for trial in range(20):
        t = int(rng.integers(1, 6))
        s = s0 + 0.3 * rng.normal(size=len(s0))
        th = theta + 0.2 * rng.normal(size=len(theta))
        worst, ok = check_jacobians(sysm, t, s, th)
        assert ok, f"{name}: jacobian mismatch {worst:.2e} at trial {trial}"


def test_jacobians_alternating_dimension():
    sysm = AlternatingDimSystem()
    rng = philox(3)
    for t in (1, 2, 3, 4):
        s = 0.3 * rng.normal(size=sysm.state_dim(t - 1))
        th = 0.3 * rng.normal(size=2)
        worst, ok = check_jacobians(sysm, t, s, th)
        assert ok, f"t={t}: {worst:.2e}"
    states = run_trajectory(sysm, np.zeros(2), np.array([0.1, -0.2]), 6)
    assert [len(s) for s in states] == [2, 3, 2, 3, 2, 3, 2]


def test_nonrecurrent_state_jacobian_exactly_zero():
    xs, ys, _ = regression_dataset()
    sysm = NonRecurrentRegression(xs, ys, sample_indices("cycling", len(xs), 10))
    J = sysm.d_transition_ds(3, np.zeros(1), np.zeros(4))
    assert np.array_equal(J, np.zeros((1, 1)))


def test_make_example_momentum_beta_zero():
    xs, ys, theta_star = regression_dataset()
    loss = SquaredErrorLoss(xs, ys)
    idx = sample_indices("cycling", len(xs), 10)
    sysm = MomentumSystem(sample_loss=loss, indices=idx, beta=0.0)
    theta = theta_star + 0.3
    s1 = step(sysm, 1, np.array([99.0]), theta)
    assert s1[0] == pytest.approx(loss.value(idx[1], theta), abs=0)


def test_make_example_linear_trivial():
    sysm = LinearSystem(A=[[0.5]], B=[[1.0]])
    assert step(sysm, 1, np.array([2.0]), np.array([1.0]))[0] == 2.0


def test_influence_balancing_bounded():
    sysm = InfluenceBalancing(n=6, n_plus=2)
    theta = np.array([0.7])
    s = np.zeros(6)
    for t in range(1, 10_001):
        s = sysm.transition(t, s, theta)
    assert np.linalg.norm(s) < 50.0
    # the stationary state solves the fixed-point equation
    s_star = sysm.stationary_state(theta)
    assert np.allclose(sysm.transition(1, s_star, theta), s_star, atol=1e-10)


def test_influence_balancing_invalid_params():
    with pytest.raises(ConfigurationError):
        InfluenceBalancing(n=6, n_plus=3)  # needs n_plus < n/2


def test_reset_wrapper():
    base = LinearSystem(A=[[0.5]], B=[[1.0]])
    wrapped = ResetWrapper(base, reset_times=[3], s0_star=np.array([0.0]))
    states = run_trajectory(wrapped, np.zeros(1), np.array([1.0]), 4)
    assert states[2][0] == 1.5
    assert states[3][0] == 0.0  # reset fired
    assert states[4][0] == 1.0  # restarted from 0
    # losses at the reset step count normally
    assert wrapped.loss(3, states[3]) == base.loss(3, states[3])
    assert np.array_equal(wrapped.d_transition_ds(3, states[2], np.array([1.0])), np.zeros((1, 1)))


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_rnn_products_match_dense_parameter_jacobian(m):
    rng = philox(40 + m)
    n = 4
    xs = rng.normal(size=(10, m))
    rnn = RNNSystem(n, m, inputs=lambda t: xs[t])
    for t in range(1, 6):
        s = rng.uniform(0.0, 1.0, size=n)
        theta = 0.5 * rng.normal(size=rnn.param_dim)
        worst, ok = check_jacobians(rnn, t, s, theta)
        assert ok, f"m={m}, t={t}: {worst:.2e}"
        dense = rnn.d_transition_dtheta(t, s, theta)
        u = rng.normal(size=n)
        assert np.allclose(rnn.d_transition_dtheta_vjp(t, s, theta, u), u @ dense,
                           rtol=1e-14, atol=1e-15)
        assert np.allclose(rnn.d_transition_dtheta_row_norms(t, s, theta),
                           np.linalg.norm(dense, axis=1), rtol=1e-14, atol=0)


def test_influence_balancing_vjp_matches_the_dense_default():
    # InfluenceBalancing multiplies u by the dT/dtheta column built at
    # construction: the dense default's matmul, bit for bit.
    rng = philox(46)
    for sysm in (InfluenceBalancing(6, 2), InfluenceBalancing(9, 4, delta=0.3)):
        assert type(sysm).d_transition_dtheta_vjp is not System.d_transition_dtheta_vjp
        n, p = sysm.state_dim(1), sysm.param_dim
        for t in range(1, 21):
            s, theta, u = rng.normal(size=n), rng.normal(size=p), rng.normal(size=n)
            got = sysm.d_transition_dtheta_vjp(t, s, theta, u)
            assert np.array_equal(got, u @ np.atleast_2d(sysm.d_transition_dtheta(t, s, theta)))
            assert np.array_equal(got, System.d_transition_dtheta_vjp(sysm, t, s, theta, u))
        assert check_jacobians(sysm, 1, s, theta)[1]


def test_check_jacobians_catches_a_wrong_product():
    class BadVjp(RNNSystem):
        def d_transition_dtheta_vjp(self, t, s, theta, u):
            return 1.01 * super().d_transition_dtheta_vjp(t, s, theta, u)

    class BadNorms(RNNSystem):
        def d_transition_dtheta_row_norms(self, t, s, theta):
            return super().d_transition_dtheta_row_norms(t, s, theta)[::-1]

    rng = philox(44)
    s = rng.uniform(0.0, 1.0, size=3)
    theta = rng.normal(size=RNNSystem(3, 0).param_dim)
    assert check_jacobians(RNNSystem(3, 0), 1, s, theta)[1]
    for bad in (BadVjp(3, 0), BadNorms(3, 0)):
        assert not check_jacobians(bad, 1, s, theta)[1]


def test_check_jacobians_catches_a_wrong_add():
    class NoBias(RNNSystem):
        def d_transition_dtheta_add(self, t, s, theta, M):
            bias = M[:, -self.n:].copy()
            out = super().d_transition_dtheta_add(t, s, theta, M)
            out[:, -self.n:] = bias
            return out

    class DropsM(RNNSystem):
        def d_transition_dtheta_add(self, t, s, theta, M):
            return np.atleast_2d(self.d_transition_dtheta(t, s, theta))

    rng = philox(45)
    s = rng.uniform(0.0, 1.0, size=3)
    for m in (0, 2):
        theta = rng.normal(size=RNNSystem(3, m).param_dim)
        assert check_jacobians(RNNSystem(3, m), 1, s, theta)[1]
        for bad in (NoBias(3, m), DropsM(3, m)):
            assert not check_jacobians(bad, 1, s, theta)[1]


def test_reset_wrapper_products():
    base = RNNSystem(2, 0)
    wrapped = ResetWrapper(base, reset_times=[2], s0_star=np.zeros(2))
    s, theta, u = np.array([0.3, 0.6]), 0.4 * np.ones(base.param_dim), np.array([1.0, -2.0])
    for t in (1, 2):
        assert check_jacobians(wrapped, t, s, theta)[1]
    assert np.array_equal(wrapped.d_transition_dtheta_vjp(2, s, theta, u), np.zeros(base.param_dim))
    M = np.ones((2, base.param_dim))
    assert np.array_equal(wrapped.d_transition_dtheta_add(2, s, theta, M.copy()), M)
    assert np.array_equal(wrapped.d_transition_dtheta_add(1, s, theta, M.copy()),
                          M + base.d_transition_dtheta(1, s, theta))
    assert np.array_equal(wrapped.d_transition_dtheta_vjp(1, s, theta, u),
                          base.d_transition_dtheta_vjp(1, s, theta, u))

"""Learner steps, open-loop gradients, full runs, and the deviation probe."""

import numpy as np
import pytest

from conftest import philox, random_tanh, regression_dataset, shipped_systems

from dynlearn.dynamics import (
    LinearSystem,
    MomentumSystem,
    NonRecurrentRegression,
    ResetWrapper,
    RNNSystem,
    SquaredErrorLoss,
    make_example,
)
from dynlearn.rankone import RankOneInjector, ZeroInjector
from dynlearn.rtrl import (
    LearnerState,
    deviation,
    forward_step,
    open_loop_gradient,
    open_loop_updates,
    rtrl_step,
    run_learning,
)
from dynlearn.schedules import StepSchedule, sample_indices


def fd_gradient(sys, s0, theta, t, h=1e-6):
    """Independent oracle: central finite differences of the compound loss."""
    from dynlearn.dynamics import compound_loss

    g = np.zeros(len(theta))
    for j in range(len(theta)):
        e = np.zeros(len(theta))
        e[j] = h
        g[j] = (compound_loss(sys, s0, theta + e, t) - compound_loss(sys, s0, theta - e, t)) / (2 * h)
    return g


def test_rtrl_step_nonrecurrent_is_sgd():
    xs, ys, _ = regression_dataset()
    idx = sample_indices("cycling", len(xs), 10)
    sysm = NonRecurrentRegression(xs, ys, idx)
    loss = SquaredErrorLoss(xs, ys)
    theta = 0.3 * np.ones(4)
    ls = LearnerState(0, np.zeros(1), np.zeros((1, 4)), theta)
    eta = 0.05
    out = rtrl_step(sysm, ls, eta, None, None)
    expected = theta - eta * loss.grad(idx[1], theta)
    assert np.allclose(out.theta, expected, atol=1e-14)


def test_rtrl_step_frozen_parameter():
    sysm, s0, theta = random_tanh(1)
    ls = LearnerState(0, s0, np.zeros((3, 5)), theta)
    for _ in range(5):
        ls = rtrl_step(sysm, ls, 0.0)
    assert np.array_equal(ls.theta, theta)
    # frozen-theta J equals the open-loop Jacobian recursion
    J = np.zeros((3, 5))
    s = s0
    for t in range(1, 6):
        J = sysm.d_transition_ds(t, s, theta) @ J + sysm.d_transition_dtheta(t, s, theta)
        s = sysm.transition(t, s, theta)
    assert np.allclose(ls.J, J, atol=0)


def test_rtrl_step_geometric_jacobian():
    # s' = 0.5 s + theta from J0 = 0: J_t = (1 - 0.5^t) / 0.5
    sysm = make_example("linear", A=[[0.5]], B=[[1.0]])
    ls = LearnerState(0, np.zeros(1), np.zeros((1, 1)), np.array([1.0]))
    for t in range(1, 4):
        ls = rtrl_step(sysm, ls, 0.0)
        assert ls.J[0, 0] == pytest.approx((1 - 0.5**t) / 0.5, abs=1e-15)


def test_one_step_displacement_identity():
    sysm, s0, theta = random_tanh(2)
    ls = LearnerState(0, s0, np.zeros((3, 5)), theta)
    eta = 0.07
    out = rtrl_step(sysm, ls, eta, None, None)
    assert np.linalg.norm(out.theta - theta) == pytest.approx(
        eta * np.linalg.norm(out.v), rel=1e-12
    )


def test_open_loop_gradient_nonrecurrent_chain_rule():
    # s = theta x, l = (s - y)^2, x = 3, theta = 2, y = 4 -> 2*(6-4)*3 = 12
    sysm = NonRecurrentRegression(np.array([[3.0]]), np.array([4.0]), lambda t: 0)
    g = open_loop_gradient(sysm, np.zeros(1), np.array([2.0]), 1)
    assert g[0] == pytest.approx(12.0, abs=1e-12)


def test_open_loop_gradient_geometric():
    sysm = make_example("linear", A=[[0.5]], B=[[1.0]])
    for theta in (0.0, 1.0, -2.3):
        g = open_loop_gradient(sysm, np.zeros(1), np.array([theta]), 3)
        assert g[0] == pytest.approx(1.75, abs=1e-12)


def test_open_loop_gradient_matches_fd_random_rnn():
    sysm, s0, theta = random_tanh(3, state_dim=3, param_dim=5)
    g = open_loop_gradient(sysm, s0, theta, 20)
    fd = fd_gradient(sysm, s0, theta, 20)
    assert np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g)) < 1e-5


@pytest.mark.parametrize("case", range(5))
def test_open_loop_gradient_matches_fd_all_shipped(case):
    name, sysm, s0, theta = shipped_systems()[case]
    rng = philox(30 + case)
    for _ in range(10):
        t = int(rng.integers(1, 31))
        th = theta + 0.1 * rng.normal(size=len(theta))
        g = open_loop_gradient(sysm, s0, th, t)
        fd = fd_gradient(sysm, s0, th, t)
        assert np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g)) < 1e-5, (name, t)


def test_run_learning_converges_linear_regression():
    xs, ys, theta_star = regression_dataset()
    T = 30_000
    idx = sample_indices("cycling", len(xs), T)
    sysm = NonRecurrentRegression(xs, ys, idx)
    rec = run_learning(
        sysm, np.zeros(1), theta_star + 0.5, None, StepSchedule(0.1, 0.3),
        None, None, T=T, theta_star=theta_star, record_every=100,
    )
    assert rec.final_dist() <= 1e-2
    assert not rec.aborted


def test_run_learning_zero_rate_keeps_theta():
    sysm, s0, theta = random_tanh(4)
    rec = run_learning(sysm, s0, theta, None, StepSchedule(0.0, 0.5), T=50,
                       theta_star=theta)
    assert rec.final_dist() == 0.0
    assert np.array_equal(rec.final_theta, theta)


def test_run_learning_records_abort():
    sysm = make_example("linear", A=[[3.0]], B=[[1.0]])  # expansive: diverges
    rec = run_learning(sysm, np.ones(1), np.array([1.0]), None, StepSchedule(0.5, 0.5), T=500,
                       theta_star=np.zeros(1))
    assert rec.aborted and rec.abort_t is not None and rec.abort_t <= 500


def _rnn(seed, n, m, T):
    rng = philox(seed)
    xs = rng.normal(size=(T + 1, m))
    sysm = RNNSystem(n, m, inputs=lambda t: xs[t], targets=lambda t: 0.5 * np.ones(n))
    return sysm, rng.uniform(0.0, 1.0, size=n), rng.normal(size=sysm.param_dim) / np.sqrt(n)


def _forward_cases(T):
    for m in (0, 1, 2):
        yield f"rnn-m{m}", *_rnn(60 + m, 5, m, T)
    base, s0, theta = _rnn(63, 4, 1, T)
    yield "reset", ResetWrapper(base, range(7, T, 13), 0.5 * np.ones(4)), s0, theta
    yield "tanh", *random_tanh(64, state_dim=4, param_dim=6)


@pytest.mark.parametrize("case", list(_forward_cases(200)), ids=lambda c: c[0])
def test_forward_step_adds_dtheta_like_the_dense_recursion(case):
    # d_transition_dtheta_add (the RNN's scatter, the ResetWrapper's
    # forwarding, the dense default on TanhSystem) against the recursion
    # written out with the dense matrix: equal to the last bit.
    _, sysm, s0, theta = case
    s, J = s0, np.zeros((len(s0), sysm.param_dim))
    s_ref, J_ref = s.copy(), J.copy()
    for t in range(1, 201):
        s, J, g = forward_step(sysm, t, s, theta, J)
        J_ref = (sysm.d_transition_ds(t, s_ref, theta) @ J_ref
                 + sysm.d_transition_dtheta(t, s_ref, theta))
        s_ref = sysm.transition(t, s_ref, theta)
        g_ref = sysm.d_loss_ds(t, s_ref) @ J_ref
        assert np.array_equal(s, s_ref) and np.array_equal(J, J_ref) and np.array_equal(g, g_ref), t
    assert np.any(J)


def test_forward_step_rnn_allocates_about_one_jacobian():
    # Exact RTRL on an RNN allocates the product dT/ds . J and nothing
    # else of size n x p: no dense dT/dtheta and no |J| temporary.
    import tracemalloc

    sysm, s, theta = _rnn(65, 64, 1, 2)
    J = 1e-3 * np.ones((64, sysm.param_dim))
    forward_step(sysm, 1, s, theta, J)  # warm caches outside the measurement
    tracemalloc.start()
    try:
        out = forward_step(sysm, 2, s, theta, J)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out[1].shape == J.shape
    assert peak < 1.5 * J.nbytes, peak / J.nbytes


def test_zero_injector_bit_identical_to_exact():
    sysm, s0, theta = random_tanh(5)
    kw = dict(schedule=StepSchedule(0.05, 0.6), rule=None, phi=None,
              T=200, theta_star=theta)
    rec_plain = run_learning(sysm, s0, theta + 0.1, None, rng=None, **kw)
    rec_zero = run_learning(sysm, s0, theta + 0.1, None, injector=ZeroInjector(),
                            rng=philox(0), **kw)
    assert np.array_equal(rec_plain.final_theta, rec_zero.final_theta)
    assert np.array_equal(rec_plain.theta_dist, rec_zero.theta_dist)


def test_injector_arms_share_config_hash():
    sysm, s0, theta = random_tanh(6)
    meta = {"experiment": "demo", "seed": 3}
    kw = dict(schedule=StepSchedule(0.05, 0.6), T=100, theta_star=theta, config_meta=meta)
    rec_exact = run_learning(sysm, s0, theta + 0.1, None, injector=ZeroInjector(),
                             rng=philox(3), **kw)
    rec_uoro = run_learning(sysm, s0, theta + 0.1, None, injector=RankOneInjector("uoro"),
                            rng=philox(3), **kw)
    assert rec_exact.config_hash == rec_uoro.config_hash != ""
    assert not np.array_equal(rec_exact.final_theta, rec_uoro.final_theta)


def test_momentum_equivalence_stepwise():
    # forward propagation on the momentum system == classic momentum SGD
    xs, ys, theta_star = regression_dataset()
    T = 60
    idx = sample_indices("cycling", len(xs), T)
    loss = SquaredErrorLoss(xs, ys)
    beta = 0.8
    sysm = MomentumSystem(loss, idx, beta)
    sched = StepSchedule(0.05, 0.4)

    ls = LearnerState(0, np.zeros(1), np.zeros((1, 4)), theta_star + 0.3)
    J_ref = np.zeros(4)
    theta_ref = theta_star + 0.3
    for t in range(1, T + 1):
        J_ref = beta * J_ref + (1 - beta) * loss.grad(idx[t], theta_ref)
        theta_new = theta_ref - sched.eta(t) * J_ref
        ls = rtrl_step(sysm, ls, sched.eta(t), None, None)
        assert np.allclose(ls.J[0], J_ref, atol=1e-12)
        assert np.allclose(ls.theta, theta_new, atol=1e-12)
        theta_ref = theta_new


def test_open_loop_updates_matches_gradients():
    sysm, s0, theta = random_tanh(7)
    vs = open_loop_updates(sysm, None, s0, theta, 10)
    for t in (1, 4, 10):
        assert np.allclose(vs[t - 1], open_loop_gradient(sysm, s0, theta, t), atol=0)


# --- deviation ---------------------------------------------------------------

def collect_noisy_states(sysm, s0, theta0, schedule, T, injector=None, rng=None):
    """Run the learner and keep the maintained (s, J) pairs per step."""
    ls = LearnerState(0, s0, np.zeros((len(s0), len(theta0))), theta0)
    pairs = [(ls.s.copy(), ls.J.copy())]
    for t in range(1, T + 1):
        ls = rtrl_step(sysm, ls, schedule.eta(t), None, None,
                       injector=injector, rng=rng)
        pairs.append((ls.s.copy(), ls.J.copy()))
    return pairs, ls


def test_deviation_zero_for_exact_trajectory():
    sysm, s0, theta = random_tanh(8)
    sched = StepSchedule(0.05, 0.6)
    pairs, _ = collect_noisy_states(sysm, s0, theta + 0.1, sched, 40)
    dev = deviation(sysm, theta + 0.1, pairs, 0, 40, sched,
                    None, None)
    assert dev < 1e-12


def test_deviation_zero_when_parameter_frozen():
    sysm, s0, theta = random_tanh(9)
    sched = StepSchedule(0.0, 0.6)
    pairs, _ = collect_noisy_states(sysm, s0, theta, sched, 20)
    # corrupt one Jacobian: with eta = 0 the parameter never moves anyway
    s1, J1 = pairs[1]
    pairs[1] = (s1, J1 + 1.0)
    dev = deviation(sysm, theta, pairs, 0, 20, sched, None, None)
    assert dev == 0.0


def test_deviation_matches_direct_resimulation():
    # randomized run on the scalar system; oracle re-simulates the two
    # parameter sequences of the definition independently
    sysm = make_example("linear", A=[[0.5]], B=[[1.0]], loss_weights=[1.0])
    sched = StepSchedule(0.05, 0.6)
    theta0 = np.array([0.8])
    rng = philox(10)
    pairs, _ = collect_noisy_states(sysm, np.zeros(1), theta0, sched, 50,
                                    injector=RankOneInjector("uoro"), rng=rng)
    dev = deviation(sysm, theta0, pairs, 0, 50, sched, None, None)

    # oracle: theta sequence driven by noisy pairs
    theta = theta0.copy()
    thetas = [theta.copy()]
    for t in range(1, 51):
        s_t, J_t = pairs[t]
        v = sysm.d_loss_ds(t, s_t) @ J_t
        theta = theta - sched.eta(t) * v
        thetas.append(theta.copy())
    # oracle: regularized pairs consume the same theta sequence
    s_bar, J_bar = pairs[0]
    theta_bar = theta0.copy()
    for t in range(1, 51):
        jac_s = sysm.d_transition_ds(t, s_bar, thetas[t - 1])
        jac_th = sysm.d_transition_dtheta(t, s_bar, thetas[t - 1])
        s_bar = sysm.transition(t, s_bar, thetas[t - 1])
        J_bar = jac_s @ J_bar + jac_th
        v_bar = sysm.d_loss_ds(t, s_bar) @ J_bar
        theta_bar = theta_bar - sched.eta(t) * v_bar
    assert dev == pytest.approx(float(np.linalg.norm(thetas[-1] - theta_bar)), abs=1e-12)
    assert dev > 0.0


def test_deviation_accepts_rank_one_states():
    # States of the pair-only learner enter through matrix(pair).
    from dynlearn.rankone import RankOnePair

    sysm, s0, theta = random_tanh(11)
    sched = StepSchedule(0.05, 0.6)
    ls = LearnerState(0, s0, RankOnePair.zero(3, 5), theta)
    inj, rng = RankOneInjector("nbt"), philox(12)
    states = [ls]
    for t in range(1, 21):
        states.append(rtrl_step(sysm, states[-1], sched.eta(t), injector=inj, rng=rng))
    dev = deviation(sysm, theta, states, 0, 20, sched)
    dense = [(m.s, m.J.matrix()) for m in states]
    assert dev == deviation(sysm, theta, dense, 0, 20, sched)
    assert dev > 0.0

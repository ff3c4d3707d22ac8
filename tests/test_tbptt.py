"""Truncation schedules, interval gradients, and the two-regime behavior."""

import numpy as np
import pytest

from conftest import philox, random_tanh, regression_dataset

from dynlearn.dynamics import (
    ConfigurationError,
    InfluenceBalancing,
    LinearSystem,
    NonRecurrentRegression,
    NumericOverflow,
    RNNSystem,
    System,
    run_trajectory,
)
from dynlearn.rtrl import open_loop_updates
from dynlearn.schedules import StepSchedule, sample_indices
from dynlearn.tbptt import BpttCounters, TruncationSchedule, bptt_interval_gradient, run_tbptt


def test_truncation_schedule_construction():
    trunc = TruncationSchedule.growing(0.4)
    gen = trunc.boundaries()
    ts = [next(gen) for _ in range(6)]
    assert ts[0] == 0 and ts[1] == 1
    for k in range(1, 5):
        assert ts[k + 1] - ts[k] == int(np.ceil(ts[k] ** 0.4))
    with pytest.raises(ConfigurationError):
        TruncationSchedule(A=0.4, fixed_length=2)
    with pytest.raises(ConfigurationError):
        TruncationSchedule()


def test_truncation_schedule_fixed():
    trunc = TruncationSchedule.fixed(3)
    assert list(trunc.intervals(10)) == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert list(trunc.intervals(9)) == [(0, 3), (3, 6), (6, 9)]
    assert list(trunc.intervals(0)) == []


def test_truncation_schedule_asymptotics():
    # t_k^(1-A) is affine in k with slope (1-A) within 10% over k in [100, 1000]
    for A in (0.3, 0.4, 0.6):
        trunc = TruncationSchedule.growing(A)
        gen = trunc.boundaries()
        ts = np.array([next(gen) for _ in range(1002)], dtype=float)
        ks = np.arange(100, 1001)
        ys = ts[ks] ** (1.0 - A)
        slope = np.polyfit(ks, ys, 1)[0]
        assert abs(slope - (1.0 - A)) <= 0.1 * (1.0 - A), (A, slope)


def test_interval_gradient_single_step():
    # length-1 interval: plain chain rule through one transition
    sysm, s0, theta = random_tanh(1)
    g = bptt_interval_gradient(sysm, s0, theta, 0, 1)
    s1 = sysm.transition(1, s0, theta)
    expected = sysm.d_loss_ds(1, s1) @ sysm.d_transition_dtheta(1, s0, theta)
    assert np.allclose(g, expected, atol=1e-14)


def test_interval_gradient_geometric():
    # scalar s' = 0.5 s + theta, loss s: sum of (1 - 0.5^t)/0.5 over t = 1..3
    sysm = LinearSystem(A=[[0.5]], B=[[1.0]])
    for s_start in (0.0, 2.0, -1.3):
        g = bptt_interval_gradient(sysm, np.array([s_start]), np.array([0.7]), 0, 3)
        assert g[0] == pytest.approx(1.0 + 1.5 + 1.75, abs=1e-12)


def test_interval_gradient_equals_jacobian_reset_forward_sum():
    # oracle: open-loop forward propagation restarted at the interval start
    rng = philox(2)
    for trial in range(50):
        dim = int(rng.integers(1, 4))
        p = int(rng.integers(1, 5))
        sysm, _, _ = random_tanh(100 + trial, state_dim=dim, param_dim=p)
        length = int(rng.integers(1, 21))
        t_start = int(rng.integers(0, 30))
        s_start = 0.3 * rng.normal(size=dim)
        theta = 0.3 * rng.normal(size=p)

        g = bptt_interval_gradient(sysm, s_start, theta, t_start, t_start + length)

        class Shifted(System):
            """View of sysm with time origin moved to t_start."""
            param_dim = p

            def state_dim(self, t):
                return dim

            def transition(self, t, s, th):
                return sysm.transition(t + t_start, s, th)

            def d_transition_ds(self, t, s, th):
                return sysm.d_transition_ds(t + t_start, s, th)

            def d_transition_dtheta(self, t, s, th):
                return sysm.d_transition_dtheta(t + t_start, s, th)

            def loss(self, t, s):
                return sysm.loss(t + t_start, s)

            def d_loss_ds(self, t, s):
                return sysm.d_loss_ds(t + t_start, s)

        vs = open_loop_updates(Shifted(), None, s_start, theta, length)
        assert np.max(np.abs(g - vs.sum(axis=0))) < 1e-10


def test_interval_gradient_rnn_equals_dense_forward_sum():
    # Criterion 2 on the RNN, whose backward pass uses the structured
    # vector-Jacobian product instead of the dense dT/dtheta.
    rng = philox(50)
    worst = 0.0
    for trial in range(10):
        n, m = int(rng.integers(2, 6)), int(rng.integers(0, 3))
        xs = rng.normal(size=(60, m))
        ys = rng.uniform(0.0, 1.0, size=(60, n))
        sysm = RNNSystem(n, m, inputs=lambda t, xs=xs: xs[t], targets=lambda t, ys=ys: ys[t])
        theta = 0.5 * rng.normal(size=sysm.param_dim)
        s_start = rng.uniform(0.0, 1.0, size=n)
        t0, length = int(rng.integers(0, 20)), int(rng.integers(1, 21))
        g = bptt_interval_gradient(sysm, s_start, theta, t0, t0 + length)
        s, J, total = s_start, np.zeros((n, sysm.param_dim)), np.zeros(sysm.param_dim)
        for t in range(t0 + 1, t0 + length + 1):
            J = sysm.d_transition_ds(t, s, theta) @ J + sysm.d_transition_dtheta(t, s, theta)
            s = sysm.transition(t, s, theta)
            total += sysm.d_loss_ds(t, s) @ J
        worst = max(worst, float(np.max(np.abs(g - total))))
    assert worst <= 1e-10


def test_backward_pass_touches_each_state_once():
    sysm, s0, theta = random_tanh(3)
    counters = BpttCounters()
    bptt_interval_gradient(sysm, s0, theta, 5, 17, counters=counters)
    assert counters.backward_steps == 12
    assert counters.forward_steps == 12


def test_counters_add_up_to_the_horizon_over_a_growing_run():
    # Over the intervals of grow:0.4 the counters count exactly T steps
    # each way.
    sysm = InfluenceBalancing(6, 2)
    theta = np.array([0.5])
    s = sysm.stationary_state(theta)
    sched, T = StepSchedule(0.05, 0.7), 1000
    intervals = list(TruncationSchedule.growing(0.4).intervals(T))
    assert len(intervals) > 50 and intervals[-1][1] == T
    counters = BpttCounters()
    for t_lo, t_hi in intervals:
        theta = theta - sched.eta(t_hi) * bptt_interval_gradient(sysm, s, theta, t_lo, t_hi, counters)
        assert counters.forward_steps == counters.backward_steps == t_hi
    assert counters.forward_steps == counters.backward_steps == T


def test_counters_keep_the_steps_before_an_overflow():
    # A transition that overflows at t = 7 stops the forward pass of
    # (3, 10]; the three steps taken before it stay counted.
    class Blowup(InfluenceBalancing):
        def transition(self, t, s, theta):
            out = super().transition(t, s, theta)
            return out + 1e13 if t == 7 else out

    sysm = Blowup(6, 2)
    counters = BpttCounters()
    with pytest.raises(NumericOverflow):
        bptt_interval_gradient(sysm, np.zeros(6), np.array([0.5]), 3, 10, counters)
    assert (counters.forward_steps, counters.backward_steps) == (3, 0)


def test_run_tbptt_nonrecurrent_equals_accumulated_sgd():
    # no recurrence: interval gradients are plain per-sample gradient sums
    xs, ys, theta_star = regression_dataset()
    T = 40
    idx = sample_indices("cycling", len(xs), T)
    sysm = NonRecurrentRegression(xs, ys, idx)
    sched = StepSchedule(0.05, 0.5)
    trunc = TruncationSchedule.fixed(5)
    theta0 = theta_star + 0.4
    rec = run_tbptt(sysm, np.zeros(1), theta0, sched, trunc, T, theta_star=theta_star)

    from dynlearn.dynamics import SquaredErrorLoss

    loss = SquaredErrorLoss(xs, ys)
    theta = theta0.copy()
    for k in range(T // 5):
        t_hi = 5 * (k + 1)
        grad = sum(loss.grad(idx[t], theta) for t in range(5 * k + 1, t_hi + 1))
        theta = theta - sched.eta(t_hi) * grad
    assert np.allclose(rec.final_theta, theta, atol=1e-12)


def test_run_tbptt_interval_column_and_boundaries():
    sysm = InfluenceBalancing(6, 2)
    rec = run_tbptt(sysm, np.zeros(6), np.array([0.2]), StepSchedule(0.01, 0.7),
                    TruncationSchedule.growing(0.4), 30, theta_star=np.zeros(1))
    assert rec.interval_k is not None
    assert list(rec.interval_k) == list(range(len(rec.t)))
    intervals = list(TruncationSchedule.growing(0.4).intervals(30))
    assert list(rec.t) == [0] + [t_hi for _, t_hi in intervals]
    assert [t_lo for t_lo, _ in intervals] == list(rec.t[:-1])


def test_run_tbptt_reset_policy():
    sysm, s0, theta = random_tanh(4)
    kw = dict(schedule=StepSchedule(0.01, 0.7), trunc=TruncationSchedule.fixed(4), T=20)
    rec_carry = run_tbptt(sysm, s0, theta, **kw)
    rec_reset = run_tbptt(sysm, s0, theta, reset_state=s0, **kw)
    assert not np.array_equal(rec_carry.final_theta, rec_reset.final_theta)


def test_influence_balancing_sign_dichotomy():
    # short-horizon gradient points the wrong way at the relaxed state
    sysm = InfluenceBalancing(6, 2)
    theta0 = np.array([0.5])
    s_star = sysm.stationary_state(theta0)
    exact = bptt_interval_gradient(sysm, s_star, theta0, 0, 400)
    short = bptt_interval_gradient(sysm, s_star, theta0, 0, 1)
    assert exact[0] * short[0] < 0
    assert exact[0] > 0  # descent moves theta toward the optimum at 0


def test_influence_balancing_fixed_length_diverges_growing_converges():
    sysm = InfluenceBalancing(6, 2)
    theta0 = np.array([0.5])
    s_star = sysm.stationary_state(theta0)
    sched = StepSchedule(0.05, 0.7)
    rec_fixed = run_tbptt(sysm, s_star, theta0, sched, TruncationSchedule.fixed(1),
                          5_000, theta_star=np.zeros(1))
    assert rec_fixed.aborted or rec_fixed.final_dist() > 0.5
    # growing intervals first wander (short intervals still see the wrong
    # sign) and converge once the interval length beats the mixing time
    rec_grow = run_tbptt(sysm, s_star, theta0, sched, TruncationSchedule.growing(0.4),
                         20_000, theta_star=np.zeros(1))
    assert not rec_grow.aborted
    assert rec_grow.final_dist() < 0.1 * 0.5

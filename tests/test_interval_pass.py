"""The TBPTT interval pass against the pass it replaced, and the
influence-balancing chain's memo and cost model."""

from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RowRecord, philox, random_tanh

from dynlearn.dynamics import InfluenceBalancing, NumericOverflow, RNNSystem, System, guard
from dynlearn.harness import ExperimentConfig, run_trial
from dynlearn.schedules import StepSchedule
from dynlearn.tbptt import TruncationSchedule, bptt_interval_gradient, run_tbptt


# The oracle: the interval pass as it was before the methods were bound
# once per run and the adjoint's first step was peeled, kept verbatim.
def oracle_interval_pass(sys, s_start, theta, t_start, t_end):
    theta = np.asarray(theta, dtype=float)
    transition, d_loss_ds, known = sys.transition, sys.d_loss_ds, sys.known_transition
    d_transition_ds, vjp = sys.d_transition_ds, sys.d_transition_dtheta_vjp
    s = np.asarray(s_start, dtype=float)
    states = [s]
    for t in range(t_start + 1, t_end + 1):
        s = guard(transition(t, s, theta), "transition", t)
        states.append(s)

    grad = np.zeros(len(theta))
    lam = None  # adjoint row vector, not yet allocated
    for t in range(t_end, t_start, -1):
        s_t = states[t - t_start]
        s_prev = states[t - t_start - 1]
        if lam is None:
            lam = np.atleast_1d(d_loss_ds(t, s_t)).astype(float)
        else:
            lam = np.atleast_1d(d_loss_ds(t, s_t)) + lam @ np.atleast_2d(d_transition_ds(t + 1, s_t, theta))
        if known is not None:  # after step t + 1's last use of the memo
            known(t, s_prev, theta, s_t)
        grad += vjp(t, s_prev, theta, lam)
    return grad, states


def oracle_intervals(trunc, T):
    bounds = trunc.boundaries()
    t_lo = next(bounds)
    while t_lo < T:
        t_hi = min(next(bounds), T)
        yield t_lo, t_hi
        t_lo = t_hi


def oracle_run_tbptt(sys, s0, theta0, schedule, trunc, T, theta_star=None):
    """run_tbptt in "aggregate" mode, state carried, no phi, on the oracle."""
    theta = np.asarray(theta0, dtype=float)
    s = np.asarray(s0, dtype=float)
    ref = None if theta_star is None else np.asarray(theta_star, dtype=float)

    def dist(th):
        if ref is None:
            return np.nan
        d = th - ref
        return sqrt(d.dot(d))

    builder = RowRecord(with_intervals=True)
    builder.add(0, dist(theta), np.nan, np.nan, 0)
    try:
        for k, (t_lo, t_hi) in enumerate(oracle_intervals(trunc, T), start=1):
            eta = schedule.eta(t_hi)
            grad, states = oracle_interval_pass(sys, s, theta, t_lo, t_hi)
            s = states[-1]
            theta = guard(theta - eta * grad, "parameter", t_hi)
            builder.add(t_hi, dist(theta), sys.loss(t_hi, s), sqrt(grad.dot(grad)), k)
    except NumericOverflow as exc:
        builder.abort_t = exc.t
        builder.add(exc.t, dist(theta), np.nan, np.nan, k)
    return builder.build(final_theta=theta)


class ScalarChain(System):
    """s_t = a s_{t-1} + theta_0 - 0.5 theta_1 + c_t with dim S = 1, whose
    dl/ds comes back shaped as `loss_kind` and dT/ds as `jac_kind` says: a
    Python float, a numpy scalar, a 1-vector or a 1 x 1 matrix."""

    param_dim = 2

    def __init__(self, loss_kind, jac_kind, a=0.7):
        self.loss_kind, self.jac_kind, self.a = loss_kind, jac_kind, a

    @staticmethod
    def _shaped(kind, x):
        return {"float": float(x), "numpy": np.float64(x), "vector": np.array([x]),
                "matrix": np.array([[x]])}[kind]

    def state_dim(self, t):
        return 1

    def transition(self, t, s, theta):
        return self.a * s + (theta[0] - 0.5 * theta[1]) + 0.1 * np.sin(t)

    def d_transition_ds(self, t, s, theta):
        return self._shaped(self.jac_kind, self.a)

    def d_transition_dtheta(self, t, s, theta):
        return np.array([[1.0, -0.5]])

    def loss(self, t, s):
        return float((s[0] - 0.3) ** 2)

    def d_loss_ds(self, t, s):
        return self._shaped(self.loss_kind, 2.0 * (s[0] - 0.3))


def influence():
    sysm = InfluenceBalancing(6, 2)
    theta0 = np.array([0.5])
    return sysm, sysm.stationary_state(theta0), theta0


def rnn(n, m, seed=3):
    rng = philox(seed)
    xs = rng.normal(size=(400, m))
    ys = rng.uniform(0.0, 1.0, size=(400, n))
    sysm = RNNSystem(n, m, inputs=lambda t: xs[t], targets=lambda t: ys[t])
    return sysm, rng.uniform(0.0, 1.0, size=n), 0.5 * rng.normal(size=sysm.param_dim)


# (name, build, spec, T, schedule)
CASES = [
    ("influence-fixed:1", influence, "fixed:1", 3000, (0.05, 0.7)),
    ("influence-grow:0.2", influence, "grow:0.2", 20000, (0.05, 0.7)),
    ("influence-grow:0.4", influence, "grow:0.4", 5000, (0.05, 0.7)),
    ("rnn-m0", lambda: rnn(3, 0), "grow:0.4", 300, (0.05, 0.7)),
    ("rnn-m2", lambda: rnn(5, 2), "fixed:3", 300, (0.05, 0.7)),
    ("tanh", lambda: random_tanh(8, state_dim=4, param_dim=3), "grow:0.4", 300, (0.05, 0.7)),
] + [(f"scalar-{lk}-{jk}", lambda lk=lk, jk=jk: (ScalarChain(lk, jk), np.array([0.2]), np.array([0.1, -0.3])),
      "grow:0.4", 300, (0.02, 0.7))
     for lk, jk in [("float", "float"), ("numpy", "numpy"), ("vector", "vector"), ("float", "vector"),
                    ("numpy", "matrix"), ("vector", "matrix")]]


def parse_spec(spec):
    mode, _, val = spec.partition(":")
    return TruncationSchedule.fixed(int(val)) if mode == "fixed" else TruncationSchedule.growing(float(val))


@pytest.mark.parametrize("name, build, spec, T, sched", CASES, ids=[c[0] for c in CASES])
def test_run_tbptt_writes_the_oracle_bytes(name, build, spec, T, sched, tmp_path):
    sysm, s0, theta0 = build()
    args = (s0, theta0, StepSchedule(*sched), parse_spec(spec), T)
    theta_star = np.zeros(len(theta0))
    new = run_tbptt(sysm, *args, theta_star=theta_star)
    sysm, s0, theta0 = build()  # a fresh memo for the oracle
    old = oracle_run_tbptt(sysm, *args, theta_star=theta_star)
    assert (new.abort_t is not None) == (name == "influence-grow:0.2")
    new.to_csv(tmp_path / "new.csv")
    old.to_csv(tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert np.array_equal(new.final_theta, old.final_theta)


@pytest.mark.parametrize("name, build", [c[:2] for c in CASES], ids=[c[0] for c in CASES])
def test_interval_gradient_equals_the_oracle(name, build):
    rng = philox(17)
    for _ in range(12):
        sysm, s0, theta = build()
        t_start = int(rng.integers(0, 40))
        t_end = t_start + int(rng.integers(1, 25))
        theta = theta + 0.1 * rng.normal(size=theta.shape)
        new = bptt_interval_gradient(sysm, s0, theta, t_start, t_end)
        sysm, s0, _ = build()
        old, _ = oracle_interval_pass(sysm, s0, theta, t_start, t_end)
        assert new.shape == old.shape
        assert np.array_equal(new, old)


# The influence-balancing chain: the drive memo and the shared dT/ds.

METHODS = ("transition", "d_transition_ds", "d_transition_dtheta", "vjp", "loss", "d_loss_ds")


def call(sysm, method, t, s, theta):
    if method == "vjp":
        return sysm.d_transition_dtheta_vjp(t, s, theta, s + 0.25)
    if method in ("loss", "d_loss_ds"):
        return getattr(sysm, method)(t, s)
    return getattr(sysm, method)(t, s, theta)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=3),
       calls=st.lists(st.tuples(st.integers(0, 5), st.sampled_from(METHODS), st.integers(0, 2)),
                      min_size=1, max_size=40))
def test_influence_memo_is_bit_equal_to_a_fresh_instance(values, calls):
    # Each value appears as two theta objects, an original and an equal
    # copy; calls interleave them in any order.
    thetas = [np.array([v]) for v in values] + [np.array([v]) for v in values]
    states = [philox(i).normal(size=6) for i in range(3)]
    sysm = InfluenceBalancing(6, 2)
    for t, (which, method, k) in enumerate(calls, start=1):
        theta = thetas[which % len(thetas)]
        got = call(sysm, method, t, states[k], theta)
        want = call(InfluenceBalancing(6, 2), method, t, states[k], theta)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert np.shape(got) == np.shape(want)


def test_influence_state_jacobian_is_read_only():
    sysm = InfluenceBalancing(6, 2)
    jac = sysm.d_transition_ds(1, np.zeros(6), np.array([0.3]))
    with pytest.raises(ValueError):
        jac[0, 0] = 1.0
    with pytest.raises(ValueError):
        jac += 1.0


@pytest.mark.parametrize("algo", ["sgd", "rtrl", "uoro", "nobacktrack"])
def test_learners_never_write_into_the_influence_state_jacobian(algo):
    # A write into the shared, read-only dT/ds would raise ValueError; the
    # trial runs to its horizon.
    cfg = ExperimentConfig({
        "experiment.name": "readonly", "experiment.horizon": "300", "system.kind": "influence_balancing",
        "system.s0": "stationary", "algorithm.name": algo, "schedule.gamma": "0.02",
        "schedule.b": "0.7", "init.theta0": "0.3",
    })
    rec = run_trial(cfg, 0)
    assert len(rec.t) > 1
    assert rec.abort_t is None


def test_influence_calls_per_tbptt_step():
    # transition, d_loss_ds and the vjp once per step; dT/ds once per
    # step but the last of each interval (lam is zero beyond it).
    counts = dict.fromkeys(("transition", "d_loss_ds", "d_transition_dtheta_vjp", "d_transition_ds"), 0)

    class Counted(InfluenceBalancing):
        pass

    for name in counts:
        def wrapped(self, *args, _name=name, _fn=getattr(InfluenceBalancing, name)):
            counts[_name] += 1
            return _fn(self, *args)
        setattr(Counted, name, wrapped)

    sysm, theta0 = Counted(6, 2), np.array([0.5])
    T, trunc = 500, TruncationSchedule.growing(0.4)
    rec = run_tbptt(sysm, sysm.stationary_state(theta0), theta0, StepSchedule(0.05, 0.7), trunc, T,
                    theta_star=np.zeros(1))
    assert rec.abort_t is None
    intervals = list(trunc.intervals(T))
    assert counts["transition"] == counts["d_loss_ds"] == counts["d_transition_dtheta_vjp"] == T
    assert counts["d_transition_ds"] == sum(t_hi - t_lo - 1 for t_lo, t_hi in intervals)

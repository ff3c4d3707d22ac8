"""The dense learner step against the step it replaced, and the constant
Jacobians and dT/dtheta products of the one-dimensional systems."""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynlearn.rtrl as rtrl
from dynlearn.dynamics import (
    ContractViolation,
    LinearCoefficientLoss,
    MomentumSystem,
    NonRecurrentRegression,
    SquaredErrorLoss,
    System,
    guard,
)
from dynlearn.harness import ExperimentConfig, run_trials
from dynlearn.rtrl import LearnerState, run_learning
from dynlearn.schedules import StepSchedule
from dynlearn.updates import AdaptiveRule, PreconditionedRule, ProjectedUpdate

# The oracle: forward_step and rtrl_step as they were before the dense step
# was split out, kept verbatim apart from the names of what they call. The
# systems whose dT/dtheta products are new go through the System default,
# and the rule and update operator through their former `apply`.


def oracle_dtheta_add(sys, t, s, theta, M):
    if isinstance(sys, (NonRecurrentRegression, MomentumSystem)):
        M += np.atleast_2d(sys.d_transition_dtheta(t, s, theta))
        return M
    return sys.d_transition_dtheta_add(t, s, theta, M)


def oracle_forward_step(sys, t, s, theta, J):
    batched = J.ndim == 3
    jac_s = np.atleast_2d(sys.d_transition_ds(t, s, theta))
    s_new = guard(np.asarray(sys.transition(t, s, theta), dtype=float), "transition", t, batched)
    J_new = oracle_dtheta_add(sys, t, s, theta, jac_s @ J)
    guard(J_new, "jacobian", t, batched)
    dl = np.atleast_1d(sys.d_loss_ds(t, s_new))
    g = np.matmul(dl[:, None, :], J_new)[:, 0] if batched else dl @ J_new
    return s_new, J_new, g


def oracle_rtrl_step(sys, ls, eta_t, rule=None, phi=None):
    if eta_t < 0:
        raise ContractViolation("step size must be >= 0")
    t = ls.t + 1
    batched = ls.theta.ndim == 2
    s_new, J_new, v = oracle_forward_step(sys, t, ls.s, ls.theta, ls.J)
    if rule is not None:
        v = rule.apply(t, v, s_new, ls.theta)
    guard(v, "update-direction", t, batched)
    w = eta_t * v
    theta_new = phi.apply(t, ls.theta, w) if phi is not None else ls.theta - w
    guard(theta_new, "parameter", t, batched)
    out = LearnerState.__new__(LearnerState)
    out.t, out.s, out.J, out.theta, out.v = t, s_new, J_new, np.asarray(theta_new, dtype=float), v
    return out


class OracleAdaptiveRule(AdaptiveRule):
    def apply(self, t, v, s, theta):
        theta = np.asarray(theta, dtype=float)
        v = np.asarray(v, dtype=float)
        core = theta[..., : self.theta_dim]
        psi = theta[..., self.theta_dim :]
        stat = self.stat_fn(t, core)
        stat = np.reshape(stat, psi.shape) if theta.ndim == 2 else np.ravel(stat)
        c_t = self.coupling(t)
        psi_dir = c_t * (psi - stat)
        psi_used = psi
        if self.timing == "psi_first":
            psi_used = psi - self.schedule.eta(t) * psi_dir
        P = self.precond(core, psi_used)
        v_core = v[..., : self.theta_dim]
        core_dir = P * v_core if np.shape(P) == v_core.shape else np.atleast_2d(P) @ v_core
        return np.concatenate([core_dir, psi_dir], axis=-1)


class OracleProjectedUpdate(ProjectedUpdate):
    def apply(self, t, theta, w):
        out = np.asarray(theta, dtype=float) - np.asarray(w, dtype=float)
        if self.block is None:
            return np.clip(out, self.lo, self.hi)
        out[..., : self.block] = np.clip(out[..., : self.block], self.lo, self.hi)
        return out


ORACLE_CLASSES = {AdaptiveRule: OracleAdaptiveRule, ProjectedUpdate: OracleProjectedUpdate}


def as_oracle(part):
    cls = ORACLE_CLASSES.get(type(part))
    if cls is None:
        return part
    out = copy.copy(part)
    out.__class__ = cls
    return out


def oracle_dense_step(sys, t, s, theta, J, eta, rule, phi):
    ls = LearnerState.__new__(LearnerState)
    ls.t, ls.s, ls.J, ls.theta, ls.v = t - 1, s, J, theta, None
    out = oracle_rtrl_step(sys, ls, eta, as_oracle(rule), as_oracle(phi))
    return out.s, out.J, out.theta, out.v


def with_oracle(monkeypatch, run):
    """(run() on the dense step, run() on the oracle step)."""
    new = run()
    with monkeypatch.context() as m:
        m.setattr(rtrl, "dense_step", oracle_dense_step)
        old = run()
    return new, old


def assert_same_records(new, old, tmp_path):
    assert len(new) == len(old)
    for a, b in zip(new, old):
        a.to_csv(str(tmp_path / "new.csv"))
        b.to_csv(str(tmp_path / "old.csv"))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert a.abort_t == b.abort_t
        assert a.final_theta.tobytes() == b.final_theta.tobytes()


BASE = {
    "experiment.name": "dense",
    "experiment.horizon": "301",
    "experiment.record_every": "7",
    "system.kind": "linear_regression",
    "system.n_samples": "16",
    "system.dim": "4",
    "system.noise": "0.1",
    "system.data_seed": "1234",
    "schedule.gamma": "0.1",
    "schedule.b": "0.5",
    "sampling.scheme": "iid",
    "init.theta0": "near_optimum",
    "init.radius": "0.5",
}
PERIOD3 = {"system.kind": "period3", "schedule.gamma": 0.5, "schedule.b": 0.7, "init.radius": 1.0}

ARMS = {
    "sgd-regression": {"algorithm.name": "sgd"},
    "rtrl-regression": {"algorithm.name": "rtrl"},
    "sgd-momentum": {"algorithm.name": "sgd", "system.kind": "momentum", "system.beta": 0.6},
    "rtrl-momentum": {"algorithm.name": "rtrl", "system.kind": "momentum", "system.beta": 0.0},
    "adam-regression": {"algorithm.name": "adam"},
    "adam-regression-fixed": {"algorithm.name": "adam", "algorithm.fixed_beta2": 0.99},
    "rmsprop-regression": {"algorithm.name": "rmsprop", "algorithm.c": 0.5, "algorithm.eps": 1e-3},
    "rmsprop-regression-fixed": {"algorithm.name": "rmsprop", "algorithm.fixed_beta2": 0.9},
    "adam-period3": {"algorithm.name": "adam", **PERIOD3},
    "adam-period3-fixed": {"algorithm.name": "adam", "algorithm.fixed_beta2": 0.99, **PERIOD3},
    "rmsprop-period3": {"algorithm.name": "rmsprop", **PERIOD3},
    "rmsprop-period3-fixed": {"algorithm.name": "rmsprop", "algorithm.fixed_beta2": 0.99, **PERIOD3},
    # Rows that abort at different steps, so the batch shrinks (take_seeds).
    "sgd-aborting": {"algorithm.name": "sgd", "schedule.gamma": 0.25, "schedule.b": 0.05,
                     "experiment.horizon": 400},
    "sgd-momentum-aborting": {"algorithm.name": "sgd", "system.kind": "momentum",
                              "schedule.gamma": 0.3, "schedule.b": 0.05, "experiment.horizon": 400},
    "adam-aborting": {"algorithm.name": "adam", "schedule.gamma": 1.0, "schedule.b": 0.05,
                      "algorithm.fixed_beta2": 0.5},
}
LOOPED = {
    "rtrl-rnn-m0": {"algorithm.name": "rtrl", "system.kind": "rnn", "system.n": 3, "system.m": 0},
    "rtrl-rnn-m1": {"algorithm.name": "rtrl", "system.kind": "rnn", "system.n": 3, "system.m": 1},
    "ong": {"algorithm.name": "ong"},
    "sgd-precond": {"algorithm.name": "sgd", "algorithm.rule": "precond:diag:1,0.5,0.25,2"},
}


def config(extra):
    return ExperimentConfig({**BASE, **{k: str(v) for k, v in extra.items()}})


@pytest.mark.parametrize("seeds", [[3], [0, 5], list(range(8))], ids=["S1", "S2", "S8"])
@pytest.mark.parametrize("arm", list(ARMS))
def test_seed_batched_arms_equal_the_oracle(arm, seeds, monkeypatch, tmp_path):
    cfg = config(ARMS[arm])
    new, old = with_oracle(monkeypatch, lambda: list(run_trials(cfg, seeds).values()))
    assert_same_records(new, old, tmp_path)
    if arm.endswith("aborting") and len(seeds) == 8:
        assert len({r.abort_t for r in new if r.abort_t is not None}) >= 2


@pytest.mark.parametrize("arm", list(LOOPED))
def test_looped_arms_equal_the_oracle(arm, monkeypatch, tmp_path):
    cfg = config({"experiment.horizon": 120, **LOOPED[arm]})
    new, old = with_oracle(monkeypatch, lambda: list(run_trials(cfg, [0, 4]).values()))
    assert_same_records(new, old, tmp_path)


class ScalarSystem(System):
    """A state of dimension 1 whose methods return Python scalars and lists."""

    param_dim = 2

    def state_dim(self, t):
        return 1

    def transition(self, t, s, theta):
        return 0.5 * s.item() + theta[0] * math.sin(t) + theta[1]

    def d_transition_ds(self, t, s, theta):
        return 0.5

    def d_transition_dtheta(self, t, s, theta):
        return [math.sin(t), 1.0]

    def loss(self, t, s):
        return (s.item() - 1.0) ** 2

    def d_loss_ds(self, t, s):
        return 2.0 * (s.item() - 1.0)


@pytest.mark.parametrize("rule, phi", [
    (None, None),
    (PreconditionedRule(lambda theta: np.diag([0.5, 2.0])), None),
    (None, ProjectedUpdate(-0.3, 0.3)),
], ids=["plain", "precond", "projected"])
def test_scalar_system_equals_the_oracle(rule, phi, monkeypatch, tmp_path):
    def run():
        return [run_learning(ScalarSystem(), np.zeros(1), np.array([0.2, -0.1]), None,
                             StepSchedule(0.2, 0.6), rule=rule, phi=phi, T=150,
                             theta_star=np.array([0.0, 0.5]))]

    new, old = with_oracle(monkeypatch, run)
    assert_same_records(new, old, tmp_path)


# Entries that make x + 0.0 differ from x (-0.0) or are otherwise special.
ENTRIES = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -1.0]),
                    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


def _one_dim_system(kind, xs, ys, idx, extra):
    core = xs.shape[1]
    if kind == "nonrecurrent":
        return NonRecurrentRegression(xs, ys, idx, param_dim=core + extra)
    if kind == "momentum-squared":
        return MomentumSystem(SquaredErrorLoss(xs, ys), idx, 0.3, param_dim=core + extra)
    return MomentumSystem(LinearCoefficientLoss(xs[:, 0]), idx, 0.0, param_dim=1 + extra, core_dim=1)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["nonrecurrent", "momentum-squared", "momentum-coef"]),
       batch=st.sampled_from([None, 1, 3]), extra=st.integers(0, 2))
def test_dtheta_add_overrides_equal_the_default_bytes(data, kind, batch, extra):
    xs = np.array(data.draw(st.lists(st.lists(ENTRIES, min_size=2, max_size=2), min_size=3, max_size=3)))
    ys = np.array(data.draw(st.lists(ENTRIES, min_size=3, max_size=3)))
    T = 4
    rows = 1 if batch is None else batch
    idx = np.array(data.draw(st.lists(st.lists(st.integers(0, 2), min_size=T + 1, max_size=T + 1),
                                      min_size=rows, max_size=rows)))
    sys = _one_dim_system(kind, xs, ys, idx[0] if batch is None else idx, extra)
    lead = () if batch is None else (batch,)
    p = sys.param_dim
    theta = np.array(data.draw(st.lists(ENTRIES, min_size=rows * p, max_size=rows * p))).reshape(lead + (p,))
    s = np.zeros(lead + (1,))
    M = np.array(data.draw(st.lists(ENTRIES, min_size=rows * p, max_size=rows * p))).reshape(lead + (1, p))
    t = data.draw(st.integers(1, T))
    want = System.d_transition_dtheta_add(sys, t, s, theta, M.copy())
    got = sys.d_transition_dtheta_add(t, s, theta, M.copy())
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_dtheta_add_keeps_the_default_signed_zero():
    # -0.0 + 0.0 is 0.0: the columns outside core_dim are added to as well.
    sys = NonRecurrentRegression(np.array([[-0.0, 2.0]]), np.zeros(1), np.zeros(3, dtype=int), param_dim=3)
    M = np.array([[-0.0, -0.0, -0.0]])
    out = sys.d_transition_dtheta_add(1, np.zeros(1), np.zeros(3), M)
    assert np.signbit(out).tolist() == [[True, False, False]]


def test_constant_jacobians_are_read_only_and_per_shape():
    xs, ys = np.eye(2), np.ones(2)
    idx = np.zeros((3, 5), dtype=int)
    regression = NonRecurrentRegression(xs, ys, idx)
    momentum = MomentumSystem(SquaredErrorLoss(xs, ys), idx, 0.7)
    s, theta = np.zeros((3, 1)), np.zeros((3, 2))
    constants = [
        (regression.d_transition_ds, np.zeros((3, 1, 1))),
        (momentum.d_transition_ds, np.full((3, 1, 1), 0.7)),
        (lambda t, s, theta: momentum.d_loss_ds(t, s), np.ones((3, 1))),
    ]
    for method, want in constants:
        got = method(1, s, theta)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes() and got.shape == want.shape
        assert method(2, s, theta) is got  # held, not rebuilt
        with pytest.raises(ValueError):
            got[...] = 1.0
        with pytest.raises(ValueError):
            got += 1.0
        alone = method(1, s[0], theta[0])
        assert alone.shape == want.shape[1:] and not alone.flags.writeable
    # take_seeds shrinks the batch: the constants follow the new shape.
    for part in (regression.take_seeds([0, 2]), momentum.take_seeds([0, 2])):
        assert part.d_transition_ds(1, s[[0, 2]], theta[[0, 2]]).shape == (2, 1, 1)
    assert momentum.take_seeds([1]).d_loss_ds(1, s[[1]]).shape == (1, 1)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), lo=st.sampled_from([-1.0, -0.0, 0.0, 0.5]), width=st.sampled_from([0.0, 1.0, 2.0]),
       block=st.sampled_from([None, 1, 2]), batch=st.sampled_from([None, 2]))
def test_projected_update_has_the_bits_of_np_clip(data, lo, width, block, batch):
    lead = () if batch is None else (batch,)
    size = (batch or 1) * 3
    pool = st.one_of(ENTRIES, st.sampled_from([np.nan, np.inf, -np.inf]))
    theta = np.array(data.draw(st.lists(pool, min_size=size, max_size=size))).reshape(lead + (3,))
    w = np.array(data.draw(st.lists(pool, min_size=size, max_size=size))).reshape(lead + (3,))
    hi = lo + width
    with np.errstate(invalid="ignore"):
        got = ProjectedUpdate(lo, hi, block).apply(1, theta, w)
        want = OracleProjectedUpdate(lo, hi, block).apply(1, theta, w)
    assert got.tobytes() == want.tobytes()

"""One sample lookup and one per-sample value and gradient per learner step:
the memos of the seed-batchable systems, the adaptive statistic that
shares them, and `value_and_grad` against `value` and `grad`."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlearn import dynamics
from dynlearn.dynamics import LinearCoefficientLoss, MomentumSystem, NonRecurrentRegression, SquaredErrorLoss
from dynlearn.harness import ExperimentConfig, run_trials
from dynlearn.updates import rule_adam, squared_grad_statistic

BASE = {
    "experiment.name": "memo",
    "experiment.horizon": "120",
    "experiment.record_every": "7",
    "system.n_samples": "16",
    "system.dim": "4",
    "system.data_seed": "1234",
    "schedule.gamma": "0.1",
    "schedule.b": "0.5",
    "sampling.scheme": "iid",
}
T = int(BASE["experiment.horizon"])


class Counts:
    """Counts calls of the patched methods, by name."""

    def __init__(self, monkeypatch, *targets):
        self.n = {}
        for owner, name in targets:
            self.n[name] = 0
            monkeypatch.setattr(owner, name, self.counting(name, getattr(owner, name)))

    def counting(self, name, method):
        def counted(*args, **kwargs):
            self.n[name] += 1
            return method(*args, **kwargs)

        return counted


LOSSES = (SquaredErrorLoss, LinearCoefficientLoss)


def count_sample_work(monkeypatch):
    return Counts(monkeypatch, (dynamics._SeedIndices, "__call__"),
                  *((cls, name) for cls in LOSSES for name in ("value_and_grad", "value", "grad")))


@pytest.mark.parametrize("algo, kind, sample_calls", [
    ("sgd", "linear_regression", 0),
    ("sgd", "momentum", T),
    ("adam", "linear_regression", T + 1),
    ("adam", "period3", T + 1),
    ("rmsprop", "period3", T + 1),
])
def test_one_lookup_and_one_value_and_grad_per_batch_step(algo, kind, sample_calls, monkeypatch):
    # An adaptive arm also draws its first statistic, psi_0, before step 1.
    extra = {"schedule.gamma": "0.5", "schedule.b": "0.7"} if kind == "period3" else {}
    cfg = ExperimentConfig({**BASE, **extra, "algorithm.name": algo, "system.kind": kind})
    counts = count_sample_work(monkeypatch)
    records = run_trials(cfg, range(4))
    assert not any(r.aborted for r in records.values())
    assert counts.n.pop("__call__") == T + (algo != "sgd")
    assert counts.n.pop("value_and_grad") == sample_calls
    assert not any(counts.n.values()), counts.n  # no separate value or grad


def batched_systems():
    xs = np.array([[1.0, 2.0], [-3.0, 0.5], [0.25, -1.0]])
    ys = np.array([0.5, -1.0, 2.0])
    idx = np.array([[0, 1, 2, 0], [2, 2, 1, 0], [1, 0, 0, 2]])
    return {
        "nonrecurrent": NonRecurrentRegression(xs, ys, idx),
        "momentum": MomentumSystem(SquaredErrorLoss(xs, ys), idx, 0.4),
        "momentum-coef": MomentumSystem(LinearCoefficientLoss([3.0, -1.0, -1.0]), idx, 0.0),
    }


@pytest.mark.parametrize("kind", ["nonrecurrent", "momentum", "momentum-coef"])
def test_memo_not_served_for_another_theta_or_after_take_seeds(kind, monkeypatch):
    sys = batched_systems()[kind]
    s = np.array([[0.5], [-1.0], [2.0]])
    theta = np.array([[0.5, -1.0], [2.0, 0.25], [-0.75, 1.5]])[:, : sys.param_dim]

    def step(part, s, theta):
        return [part.transition(2, s, theta), part.d_transition_dtheta(2, s, theta),
                part.d_loss_ds(2, s), part.loss(2, s)]

    counts = count_sample_work(monkeypatch)
    first = step(sys, s, theta)
    assert counts.n["__call__"] == 1
    assert [a.tobytes() for a in step(sys, s, theta)] == [a.tobytes() for a in first]
    assert counts.n["__call__"] == 1
    # Equal values in another theta object: looked up again for a theta
    # dependent system, and the same bits either way.
    again = step(sys, s, theta.copy())
    assert counts.n["__call__"] == (1 if kind == "nonrecurrent" else 2)
    assert [a.tobytes() for a in again] == [a.tobytes() for a in first]
    # A trimmed copy never reads the full batch's memo; the rows it keeps
    # are those of the full batch.
    calls = counts.n["__call__"]
    trimmed = sys.take_seeds([2, 0])
    kept = step(trimmed, s[[2, 0]], theta[[2, 0]])
    assert counts.n["__call__"] == calls + 1
    assert [a.tobytes() for a in kept] == [a[[2, 0]].tobytes() for a in first]
    # The full batch keeps its own memo.
    assert [a.tobytes() for a in step(sys, s, theta)] == [a.tobytes() for a in first]


def test_adaptive_statistic_shares_the_system_memo_and_trims_its_own():
    loss = LinearCoefficientLoss([3.0, -1.0, -1.0])
    idx = np.array([[0, 1, 2, 0], [2, 2, 1, 0], [1, 0, 0, 2]])
    setup = rule_adam(loss, idx, beta1=0.5, c=1.0)
    oracle = squared_grad_statistic(loss, idx)
    theta = np.array([[0.5, 1.0], [-0.25, 2.0], [1.0, 0.5]])
    stat = setup.rule.stat_fn
    # The statistic reads the gradient the system's dT/dtheta took.
    setup.system.d_transition_dtheta(3, np.zeros((3, 1)), theta)
    last = setup.system._last
    assert stat(3, theta).tobytes() == oracle(3, theta).tobytes()
    assert setup.system._last is last
    # Trimmed, it holds a trimmed copy of the system with a memo of its own:
    # the untrimmed memo for the same t and theta object is never read.
    trimmed = stat.take_seeds([1, 2])
    assert trimmed.system is not setup.system and trimmed.system._last is None
    assert trimmed(3, theta[[1, 2]]).tobytes() == oracle.take_seeds([1, 2])(3, theta[[1, 2]]).tobytes()
    assert setup.system._last is last


ENTRIES = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -1.0]),
                    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["squared", "coef"]), batch=st.sampled_from([None, 1, 3]))
def test_value_and_grad_has_the_bits_of_value_and_grad(data, kind, batch):
    xs = np.array(data.draw(st.lists(st.lists(ENTRIES, min_size=2, max_size=2), min_size=3, max_size=3)))
    ys = np.array(data.draw(st.lists(ENTRIES, min_size=3, max_size=3)))
    loss = SquaredErrorLoss(xs, ys) if kind == "squared" else LinearCoefficientLoss(xs[:, 0])
    rows = batch or 1
    i = np.array(data.draw(st.lists(st.integers(0, 2), min_size=rows, max_size=rows)))
    theta = np.array(data.draw(st.lists(ENTRIES, min_size=rows * loss.dim, max_size=rows * loss.dim)))
    if batch is None:
        i = int(i[0])
    else:
        theta = theta.reshape(batch, loss.dim)
    value, grad = loss.value_and_grad(i, theta)
    for got, want in ((value, loss.value(i, theta)), (grad, loss.grad(i, theta))):
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

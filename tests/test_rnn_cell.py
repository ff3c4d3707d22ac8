"""The RNN's one-entry cell memo against the obvious path that evaluates
the cell anew on every call."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynlearn.harness as harness
from dynlearn.dynamics import RNNSystem
from dynlearn.harness import ExperimentConfig, run_trial

from conftest import philox

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


class FreshCell(RNNSystem):
    """The oracle: the memo is cleared before every evaluation, so each
    method computes the cell from (t, s, theta) alone."""

    def _cell(self, t, s, theta):
        self._last = None
        return super()._cell(t, s, theta)


@pytest.mark.parametrize("algo", ["rtrl", "uoro", "nobacktrack", "tbptt"])
@pytest.mark.parametrize("n", [3, 8, 32])
@pytest.mark.parametrize("m", [0, 2])
def test_trial_csvs_equal_the_fresh_cell_oracle(algo, n, m, tmp_path, monkeypatch):
    cfg = ExperimentConfig.load(os.path.join(CONFIG_DIR, "rnn_stability.ini")).with_overrides({
        "algorithm.name": algo, "system.n": n, "system.m": m, "experiment.horizon": 300,
        "experiment.record_every": 1, "truncation.spec": "grow:0.4",
    })
    memo, fresh = tmp_path / "memo.csv", tmp_path / "fresh.csv"
    run_trial(cfg, 0).to_csv(str(memo))
    monkeypatch.setattr(harness, "RNNSystem", FreshCell)
    run_trial(cfg, 0).to_csv(str(fresh))
    assert memo.read_bytes() == fresh.read_bytes()


METHODS = ("transition", "d_transition_ds", "d_transition_dtheta", "d_transition_dtheta_add",
           "d_transition_dtheta_vjp", "d_transition_dtheta_row_norms")


def _call(sys, method, t, s, theta):
    n = sys.state_dim(t)
    if method == "d_transition_dtheta_add":
        M = np.sin(np.arange(1.0, n * sys.param_dim + 1.0)).reshape(n, sys.param_dim)
        return sys.d_transition_dtheta_add(t, s, theta, M)
    if method == "d_transition_dtheta_vjp":
        return sys.d_transition_dtheta_vjp(t, s, theta, np.cos(np.arange(1.0, n + 1.0)))
    return getattr(sys, method)(t, s, theta)


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(1, 5), m=st.integers(0, 2),
       calls=st.lists(st.tuples(st.sampled_from(METHODS), st.integers(1, 3),
                                st.integers(0, 2), st.integers(0, 1)), min_size=1, max_size=25))
def test_interleaved_calls_equal_a_fresh_instance(n, m, calls):
    # States: s, an equal-valued copy of s, and another state; parameters:
    # theta and the theta of another step. Every result is bit-equal to
    # that of an instance that has seen no call, and writing into a
    # result changes no later one.
    rng = philox(7 * n + m)
    xs = rng.normal(size=(5, m))
    sys = RNNSystem(n, m, inputs=lambda t: xs[t])
    s = rng.uniform(size=n)
    states = [s, s.copy(), rng.uniform(size=n)]
    theta = 0.5 * rng.normal(size=sys.param_dim)
    thetas = [theta, theta - 0.01 * rng.normal(size=sys.param_dim)]
    for method, t, i, j in calls:
        want = _call(RNNSystem(n, m, inputs=lambda t: xs[t]), method, t, states[i], thetas[j])
        for _ in range(2):  # the second call is a memo hit
            got = _call(sys, method, t, states[i], thetas[j])
            assert got.shape == want.shape and np.array_equal(got, want), (method, t, i, j)
            got[...] = np.nan


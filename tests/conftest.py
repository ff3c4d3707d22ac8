"""Shared builders for randomized system tests."""

import numpy as np
import pytest

from dynlearn.dynamics import (
    InfluenceBalancing,
    LinearSystem,
    MomentumSystem,
    NonRecurrentRegression,
    RNNSystem,
    SquaredErrorLoss,
    System,
    TanhSystem,
)
from dynlearn.schedules import sample_indices


def philox(seed):
    return np.random.default_rng(np.random.Philox(key=seed))


def regression_dataset(seed=1234, n=16, p=4, noise=0.1):
    rng = philox(seed)
    xs = rng.normal(size=(n, p))
    theta_true = rng.normal(size=p)
    ys = xs @ theta_true + noise * rng.normal(size=n)
    theta_star, *_ = np.linalg.lstsq(xs, ys, rcond=None)
    return xs, ys, theta_star


def shipped_systems(T=200, seed=7):
    """One instance of each example system class, with a natural (s0, theta) pair.

    Dimensions respect the randomized-gradient test budget (state dim <= 4,
    parameter dim <= 6).
    """
    rng = philox(seed)
    xs, ys, theta_star = regression_dataset(seed=seed, n=8, p=4)
    idx = sample_indices("cycling", 8, T)
    out = []
    out.append((
        "linear",
        LinearSystem(A=[[0.6, 0.2], [0.0, 0.5]], B=rng.normal(size=(2, 3)),
                     C=np.eye(2), inputs=lambda t: np.array([np.sin(0.3 * t), np.cos(0.2 * t)])),
        np.zeros(2), 0.3 * rng.normal(size=3),
    ))
    out.append(("nonrecurrent", NonRecurrentRegression(xs, ys, idx), np.zeros(1), theta_star + 0.2))
    rnn = RNNSystem(2, 0)
    out.append(("rnn", rnn, 0.5 * np.ones(2), 0.4 * rng.normal(size=rnn.param_dim)))
    out.append((
        "momentum",
        MomentumSystem(SquaredErrorLoss(xs, ys), idx, beta=0.6),
        np.zeros(1), theta_star + 0.1,
    ))
    out.append(("influence_balancing", InfluenceBalancing(4, 1, 0.05), np.zeros(4), np.array([0.4])))
    return out


def random_tanh(seed, state_dim=3, param_dim=5):
    rng = philox(seed)
    return TanhSystem.random(rng, state_dim, param_dim), 0.2 * rng.normal(size=state_dim), \
        0.3 * rng.normal(size=param_dim)


class AlternatingDimSystem(System):
    """Synthetic system whose state dimension alternates 2 / 3 with t."""

    def __init__(self):
        self.param_dim = 2
        self.M23 = np.array([[0.4, 0.1], [0.0, 0.3], [0.2, 0.2]])
        self.M32 = np.array([[0.3, 0.1, 0.0], [0.1, 0.2, 0.3]])
        self.B2 = np.array([[1.0, 0.0], [0.0, 1.0]])
        self.B3 = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])

    def state_dim(self, t):
        return 2 if t % 2 == 0 else 3

    def transition(self, t, s, theta):
        if t % 2 == 1:  # 2 -> 3
            return np.tanh(self.M23 @ s) + self.B3 @ theta
        return np.tanh(self.M32 @ s) + self.B2 @ theta

    def d_transition_ds(self, t, s, theta):
        M = self.M23 if t % 2 == 1 else self.M32
        return (1.0 - np.tanh(M @ s) ** 2)[:, None] * M

    def d_transition_dtheta(self, t, s, theta):
        return (self.B3 if t % 2 == 1 else self.B2).copy()

    def loss(self, t, s):
        return 0.5 * float(s @ s)

    def d_loss_ds(self, t, s):
        return s.copy()


@pytest.fixture
def rng():
    return philox(42)

"""Forward-mode gradients on running dynamical systems.

A system s_t = T_t(s_{t-1}, theta) is learned online by carrying the
Jacobian J_t = ds_t/dtheta alongside the state. This demo builds a few
example systems, checks the propagated gradient against finite
differences, and shows the momentum-as-recurrence equivalence.
"""

import numpy as np

from dynlearn import (
    LinearSystem,
    MomentumSystem,
    RNNSystem,
    SquaredErrorLoss,
    compound_loss,
    dense_step,
    open_loop_gradient,
    run_trajectory,
)
from dynlearn.schedules import StepSchedule, sample_indices

rng = np.random.default_rng(np.random.Philox(key=0))

print("=== scalar chain s' = 0.5 s + theta ===")
sys1 = LinearSystem(A=[[0.5]], B=[[1.0]])
states = run_trajectory(sys1, np.zeros(1), np.array([1.0]), 3)
print("trajectory:", [float(s[0]) for s in states], "(geometric partial sums)")
g = open_loop_gradient(sys1, np.zeros(1), np.array([1.0]), 3)
print(f"d loss_3 / d theta = {g[0]} (= (1 - 0.5^3)/0.5, the training signal after 3 steps)")

print("\n=== random recurrent cell: propagated gradient vs finite differences ===")
sysm = RNNSystem(n=3, m=2, inputs=lambda t: np.array([np.sin(0.3 * t), np.cos(0.5 * t)]))
theta = 0.3 * rng.normal(size=sysm.param_dim)
s0 = 0.5 * np.ones(3)
t = 25
exact = open_loop_gradient(sysm, s0, theta, t)
h = 1e-6
fd = np.array([
    (compound_loss(sysm, s0, theta + h * e, t) - compound_loss(sysm, s0, theta - h * e, t)) / (2 * h)
    for e in np.eye(sysm.param_dim)
])
rel = np.linalg.norm(exact - fd) / np.linalg.norm(exact)
print(f"p = {sysm.param_dim} parameters, t = {t}: relative error vs central differences = {rel:.2e}")

print("\n=== momentum is forward propagation on a one-dimensional system ===")
xs = rng.normal(size=(8, 4))
ys = xs @ rng.normal(size=4) + 0.05 * rng.normal(size=8)
loss = SquaredErrorLoss(xs, ys)
idx = sample_indices("cycling", 8, 50)
beta = 0.8
sysm = MomentumSystem(loss, idx, beta)
sched = StepSchedule(0.02, 0.5)

# One learner step carries (s, J, theta); rule and update operator None are
# the identity rule and plain descent.
s, J, theta = np.zeros(1), np.zeros((1, 4)), np.zeros(4)
J_hand, theta_hand = np.zeros(4), np.zeros(4)
for t in range(1, 51):
    J_hand = beta * J_hand + (1 - beta) * loss.grad(idx[t], theta_hand)
    theta_hand = theta_hand - sched.eta(t) * J_hand
    s, J, theta, _ = dense_step(sysm, t, s, theta, J, sched.eta(t), None, None)
print("carried Jacobian == momentum buffer:", np.allclose(J[0], J_hand, atol=1e-12))
print("parameters identical:", np.allclose(theta, theta_hand, atol=1e-12))

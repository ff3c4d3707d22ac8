"""Runtime checkers for the hypotheses behind local convergence.

Every assumption of the convergence guarantees has an executable probe:
contraction of the linearized dynamics over some horizon, decay of the
averaged updates with a positive-stable averaged update Jacobian, the
Lyapunov certificate, and the deviation of a noisy run from its exact
counterpart.
"""

import numpy as np

from dynlearn import (
    RankOnePair,
    StepSchedule,
    check_stability,
    deviation,
    local_optimum_report,
    solve_lyapunov,
    spectral_radius_horizon,
)
from dynlearn.dynamics import LinearSystem, NonRecurrentRegression, RNNSystem
from dynlearn.rankone import SignStream, pair_step
from dynlearn.schedules import sample_indices

rng = np.random.default_rng(np.random.Philox(key=4))

print("=== contraction certificates ===")
A = np.array([[0.0, 2.0], [0.0, 0.0]])
cert = spectral_radius_horizon([A] * 20, k_max=10)
print(f"  nilpotent with norm 2: certified at horizon k={cert.k} (alpha={cert.alpha})")

n, m = 3, 2
W = rng.normal(size=(n, n)); W *= 2.0 / np.linalg.norm(W, 2)
theta = RNNSystem.pack(W, 0.5 * rng.normal(size=(n, m)), 0.1 * rng.normal(size=n))
inputs = rng.normal(size=(300, m))
rnn = RNNSystem(n, m, inputs=lambda t: inputs[t])
cert = check_stability(rnn, theta, 0.5 * np.ones(n), T=200)
print(f"  sigmoid cell with ||W|| = 2: k={cert.k}, alpha={cert.alpha:.3f} "
      "(slope of the sigmoid is at most 1/4)")

print("\n=== local-optimum evidence ===")
xs = rng.normal(size=(16, 4))
ys = xs @ rng.normal(size=4) + 0.1 * rng.normal(size=16)
theta_star = np.linalg.lstsq(xs, ys, rcond=None)[0]
T = 16 * 30
sysm = NonRecurrentRegression(xs, ys, sample_indices("cycling", 16, T))
for label, candidate in (("at the optimum", theta_star), ("perturbed", theta_star + 0.1)):
    rep = local_optimum_report(sysm, None, candidate, T, np.zeros(1))
    print(f"  {label:>14}: avg update {rep.avg_update_norms[-1]:.2e}, "
          f"positive-stable={rep.positive_stable}, verdict={'pass' if rep.passed else 'fail'}")

print("\n=== Lyapunov certificate for a non-symmetric stable update ===")
lam = np.array([[1.0, 4.0], [-1.0, 2.0]])  # eigenvalues 1.5 +- 1.94i
B = solve_lyapunov(lam)
resid = np.linalg.norm(B @ lam + lam.T @ B - np.eye(2))
print(f"  B = {np.round(B, 4).tolist()}, residual of the defining identity {resid:.1e}")
print(f"  B positive definite: {bool(np.min(np.linalg.eigvalsh(B)) > 0)}")

print("\n=== deviation of a randomized run from the exact algorithm ===")
sysm = LinearSystem(A=[[0.5]], B=[[1.0]], loss_weights=[1.0])
sched = StepSchedule(0.05, 0.6)
theta0 = np.array([0.8])
# The UORO learner (nbt=False) carries a pair; deviation reads matrix(pair).
s, pair, theta = np.zeros(1), RankOnePair.zero(1, 1), theta0
states, signs = [(s, pair)], SignStream(rng, 50)
for t in range(1, 51):
    s, pair, theta, _ = pair_step(sysm, t, s, theta, pair, sched.eta(t), None, None, False, signs)
    states.append((s, pair))
dev = deviation(sysm, theta0, states, 0, 50, sched)
print(f"  randomized rank-one run, 50 steps: parameter deviation {dev:.3e}")
print("  (zero when the maintained pairs already follow the exact recursion)")

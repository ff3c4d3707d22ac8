"""Update rules, parameter-update operators, Lambda machinery, Lyapunov."""

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import philox, regression_dataset

from dynlearn.dynamics import (
    ConfigurationError,
    LinearCoefficientLoss,
    NonRecurrentRegression,
    SquaredErrorLoss,
)
from dynlearn.rtrl import run_learning
from dynlearn.schedules import StepSchedule, sample_indices
from dynlearn.updates import (
    AdaptiveRule,
    ClippedUpdate,
    PreconditionedRule,
    ProjectedUpdate,
    estimate_lambda,
    extended_hessian_fd,
    is_positive_stable,
    rmsprop_preconditioner,
    rule_adam,
    rule_ong,
    squared_grad_statistic,
    solve_lyapunov,
)


def random_spd(rng, n, scale=1.0):
    M = rng.normal(size=(n, n))
    return scale * (M @ M.T + n * np.eye(n) * 0.1)


def random_positive_stable(rng, n):
    """A H with A + A^T positive definite and H SPD."""
    S = random_spd(rng, n, 0.5)
    K = rng.normal(size=(n, n))
    K = 0.5 * (K - K.T)
    A = S + K
    H = random_spd(rng, n)
    return A @ H


# --- rules -------------------------------------------------------------------

def test_rule_identity_and_preconditioned():
    rng = philox(1)
    v = rng.normal(size=4)
    rule = PreconditionedRule(lambda theta: 2.0 * np.eye(4))
    assert np.allclose(rule.apply(1, v, None, np.zeros(4), 0.1), 2.0 * v, atol=0)


def test_rule_affine_combination_identity():
    # affine rules: apply(a v + b v') = a apply(v) + b apply(v') + (1-a-b) apply(0)
    xs, ys, _ = regression_dataset()
    loss = SquaredErrorLoss(xs, ys)
    idx = sample_indices("cycling", len(xs), 50)
    rule = AdaptiveRule(squared_grad_statistic(loss, idx), rmsprop_preconditioner(1e-8),
                        c=0.5, theta_dim=4, psi_dim=4)
    rng = philox(2)
    theta = np.concatenate([rng.normal(size=4), np.abs(rng.normal(size=4)) + 0.5])
    v1, v2 = rng.normal(size=8), rng.normal(size=8)
    for a, b in [(0.0, 1.0), (1.0, 0.0), (2.0, -0.5)]:
        lhs = rule.apply(3, a * v1 + b * v2, None, theta, 0.1)
        rhs = (a * rule.apply(3, v1, None, theta, 0.1) + b * rule.apply(3, v2, None, theta, 0.1)
               + (1 - a - b) * rule.apply(3, np.zeros(8), None, theta, 0.1))
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_rmsprop_diagonal_equals_the_matrix_product():
    # Scaling by the diagonal gives the bits of diag(1/(psi+eps)) @ v.
    xs, ys, _ = regression_dataset()
    loss = SquaredErrorLoss(xs, ys)
    idx = sample_indices("cycling", len(xs), 50)
    diag = AdaptiveRule(squared_grad_statistic(loss, idx), rmsprop_preconditioner(1e-8),
                        c=0.5, theta_dim=4, psi_dim=4)
    matrix = AdaptiveRule(squared_grad_statistic(loss, idx),
                          lambda theta, psi: np.diag(1.0 / (psi + 1e-8)),
                          c=0.5, theta_dim=4, psi_dim=4)
    rng = philox(12)
    for t in range(1, 50):
        theta = np.concatenate([rng.normal(size=4), np.abs(rng.normal(size=4)) * 10.0 ** rng.integers(-9, 3)])
        v = rng.normal(size=8) * 10.0 ** rng.integers(-6, 6)
        assert np.array_equal(diag.apply(t, v, None, theta, 0.1), matrix.apply(t, v, None, theta, 0.1))


def test_preconditioned_lambda_positive_stable():
    rng = philox(3)
    n = 5
    P = random_spd(rng, n)  # P + P^T positive definite
    H = random_spd(rng, n)
    stable, min_real = is_positive_stable(P @ H)
    assert stable and min_real > 0


def test_adaptive_statistic_fixed_point():
    # constant statistic: psi converges geometrically with ratio 1 - c*eta
    target = np.array([2.0, 3.0])
    rule = AdaptiveRule(lambda t, th: target, rmsprop_preconditioner(), c=1.0,
                        theta_dim=2, psi_dim=2)
    eta = 0.1
    theta = np.concatenate([np.zeros(2), np.array([10.0, -4.0])])
    gap0 = theta[2:] - target
    for k in range(1, 40):
        direction = rule.apply(k, np.zeros(4), None, theta, eta)
        theta = theta - eta * direction
        assert np.allclose(theta[2:] - target, gap0 * (1 - eta) ** k, atol=1e-12)


def test_rule_adam_beta_zero_reduces_to_adaptive():
    xs, ys, theta_star = regression_dataset()
    T = 200
    idx = sample_indices("cycling", len(xs), T)
    loss = SquaredErrorLoss(xs, ys)
    system, rule = rule_adam(loss, idx, beta1=0.0, c=1.0)
    sched = StepSchedule(0.05, 0.6)
    theta0 = rule.initial_theta(theta_star + 0.2)

    rec = run_learning(system, np.zeros(1), theta0, sched,
                       rule=rule, phi=None, T=T,
                       theta_star=theta_star, dist_dims=4)

    # reference: memoryless adaptive recursion written out directly
    theta = (theta_star + 0.2).copy()
    psi = loss.grad(idx[1], theta) ** 2
    for t in range(1, T + 1):
        g = loss.grad(idx[t], theta)
        eta = sched.eta(t)
        new_theta = theta - eta * (g / (psi + 1e-8))
        psi = (1 - eta * 1.0) * psi + eta * 1.0 * loss.grad(idx[t], theta) ** 2
        theta = new_theta
    assert np.allclose(rec.final_theta[:4], theta, atol=1e-10)


@pytest.mark.parametrize("build, knobs, message", [
    (rule_adam, {"beta1": 1.0}, "beta1 must lie in [0, 1), got 1.0"),
    (rule_ong, {"beta1": -0.5}, "beta1 must lie in [0, 1), got -0.5"),
    (rule_adam, {"c": 0.0}, "c must be > 0, got 0.0"),
    (rule_ong, {"c": np.nan}, "c must be > 0, got nan"),
    (rule_adam, {"eps": -1.0}, "eps must be >= 0, got -1.0"),
    (rule_ong, {"eps": -1e-8}, "eps must be >= 0, got -1e-08"),
    (rule_adam, {"fixed_beta2": 1.5}, "fixed_beta2 must lie in [0, 1), got 1.5"),
    (rule_adam, {"timing": "late"}, "timing must be 'simultaneous' or 'psi_first', got 'late'"),
])
def test_adaptive_builders_refuse_a_knob_by_its_name(build, knobs, message):
    # The message begins with the parameter name, which the harness
    # prefixes with its config section.
    loss = LinearCoefficientLoss([3.0, -1.0, -1.0])
    with pytest.raises(ConfigurationError) as exc:
        build(loss, np.zeros(4, dtype=int), **{"beta1": 0.0, "c": 1.0, **knobs})
    assert str(exc.value) == message


def test_zero_eps_builds_and_a_zero_statistic_aborts_as_data():
    # eps = 0 is accepted; with psi + eps = 0 the direction is not finite,
    # which ends the trial at t = 1 (an abort, not an error).
    rule_ong(LinearCoefficientLoss([0.0]), np.zeros(4, dtype=int), beta1=0.0, c=1.0, eps=0.0)
    system, rule = rule_adam(LinearCoefficientLoss([0.0]), np.zeros(4, dtype=int), beta1=0.0, c=1.0, eps=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        record = run_learning(system, np.zeros(1), rule.initial_theta(np.array([0.5])), StepSchedule(0.1, 0.7),
                              rule=rule, T=3)
    assert record.abort_t == 1


def test_rule_adam_momentum_jacobian():
    # the learner's Jacobian实 follows the momentum recursion
    xs, ys, theta_star = regression_dataset()
    T = 30
    idx = sample_indices("cycling", len(xs), T)
    loss = SquaredErrorLoss(xs, ys)
    system, rule = rule_adam(loss, idx, beta1=0.7, c=1.0)
    sched = StepSchedule(0.02, 0.6)
    from dynlearn.rtrl import dense_step

    theta = rule.initial_theta(theta_star + 0.2)
    s, J = np.zeros(1), np.zeros((1, len(theta)))
    J_ref = np.zeros(4)
    for t in range(1, T + 1):
        g = loss.grad(idx[t], theta[:4])
        J_ref = 0.7 * J_ref + 0.3 * g
        s, J, theta, _ = dense_step(system, t, s, theta, J, sched.eta(t), rule, None)
        assert np.allclose(J[0, :4], J_ref, atol=1e-12)


def test_fixed_beta2_two_arm_dichotomy():
    # the cited divergence: small fixed inertia with the statistic updated
    # first sends theta to the wrong corner; the 1 - c*eta coupling converges
    loss = LinearCoefficientLoss([3.0, -1.0, -1.0])
    sched = StepSchedule(0.5, 0.7)
    T = 30_000

    def run_arm(fixed_beta2, seed):
        idx = sample_indices("cycling", 3, T)
        system, rule = rule_adam(loss, idx, beta1=0.0, c=1.0, timing="psi_first", fixed_beta2=fixed_beta2)
        rng = philox(seed)
        theta0 = rule.initial_theta(np.array([rng.uniform(-1.0, 1.0)]))
        phi = ProjectedUpdate(-1.0, 1.0, block=1)
        rec = run_learning(system, np.zeros(1), theta0, sched,
                           rule=rule, phi=phi, T=T,
                           theta_star=np.array([-1.0]), dist_dims=1, record_every=1000)
        return rec.final_dist()

    for seed in (0, 1):
        adaptive = run_arm(None, seed)
        fixed = run_arm(0.1, seed)
        assert fixed >= 10.0 * max(adaptive, 1e-6), (adaptive, fixed)


# --- parameter update operators ----------------------------------------------

def test_phi_plain_and_clipped_basics():
    theta = np.array([1.0, -2.0])
    assert np.array_equal(ClippedUpdate().apply(1, theta, np.zeros(2)), theta)
    rng = philox(4)
    for _ in range(20):
        w = rng.normal(size=2) * rng.uniform(0.1, 30)
        step = theta - ClippedUpdate().apply(1, theta, w)
        assert np.linalg.norm(step) < 1.0


def test_phi_clipped_second_order_remainder():
    # phi(theta, w) - (theta - w) has norm exactly ||w||^2 / (1 + ||w||)
    rng = philox(5)
    theta = rng.normal(size=3)
    for _ in range(20):
        w = rng.normal(size=3) * rng.uniform(0.01, 5)
        diff = ClippedUpdate().apply(1, theta, w) - (theta - w)
        n = np.linalg.norm(w)
        assert np.linalg.norm(diff) == pytest.approx(n * n / (1 + n), rel=1e-12)


def test_phi_first_order_law():
    # ||phi(theta, w) - (theta - w)|| <= C ||w||^2 on ||w|| <= 0.5 (C = 1 here)
    rng = philox(6)
    theta = rng.normal(size=4)
    for _ in range(50):
        w = rng.normal(size=4)
        w *= rng.uniform(0, 0.5) / np.linalg.norm(w)
        for phi in (ClippedUpdate(), ProjectedUpdate(-10.0, 10.0)):
            diff = phi.apply(1, theta, w) - (theta - w)
            assert np.linalg.norm(diff) <= 1.0 * np.linalg.norm(w) ** 2 + 1e-15


def test_phi_projected():
    phi = ProjectedUpdate(-1.0, 1.0)
    assert phi.apply(1, np.array([0.5]), np.array([2.0]))[0] == -1.0
    assert phi.apply(1, np.array([0.5]), np.array([-2.0]))[0] == 1.0


def test_phi_projected_leading_block():
    # block=d clips theta[..., :d] only, with the same subtract and clip as
    # a projection of the whole vector; batched rows are clipped alike.
    rng = philox(8)
    theta = 3.0 * rng.normal(size=(4, 5))
    w = 3.0 * rng.normal(size=(4, 5))
    for block in (1, 3, 5):
        out = ProjectedUpdate(-1.0, 1.0, block=block).apply(1, theta, w)
        whole = ProjectedUpdate(-1.0, 1.0).apply(1, theta, w)
        assert np.array_equal(out[:, :block], whole[:, :block])
        assert np.array_equal(out[:, block:], theta[:, block:] - w[:, block:])
        assert np.array_equal(ProjectedUpdate(-1.0, 1.0, block=block).apply(1, theta[2], w[2]), out[2])
    assert not np.array_equal(out, theta - w)  # some entry was clipped


# --- extended Hessians and Lambda ---------------------------------------------

def test_extended_hessian_identity_rule_quadratic():
    # l = (theta x - y)^2 with x scalar: Hessian is 2 x^2
    sysm = NonRecurrentRegression(np.array([[3.0]]), np.array([4.0]), lambda t: 0)
    H = extended_hessian_fd(sysm, None, np.array([2.0]), 1, np.zeros(1))
    assert H[0, 0] == pytest.approx(2 * 9.0, rel=1e-7)


def test_extended_hessian_symmetry_identity_rule():
    from conftest import random_tanh

    sysm, s0, theta = random_tanh(7, state_dim=3, param_dim=4)
    H = extended_hessian_fd(sysm, None, theta, 8, s0)
    assert np.max(np.abs(H - H.T)) < 1e-4


def test_extended_hessian_adaptive_bottom_right_block():
    xs, ys, theta_star = regression_dataset()
    idx = sample_indices("cycling", len(xs), 50)
    loss = SquaredErrorLoss(xs, ys)
    c = 0.7
    system, rule = rule_adam(loss, idx, beta1=0.0, c=c)
    theta_plus = rule.initial_theta(theta_star)
    H = extended_hessian_fd(system, rule, theta_plus, 3, np.zeros(1))
    assert np.allclose(H[4:, 4:], c * np.eye(4), atol=1e-9)


@pytest.mark.parametrize("h", [0.0, -1e-5, np.nan, np.inf])
def test_finite_difference_step_must_be_finite_and_positive(h):
    xs, ys, theta_star = regression_dataset()
    sysm = NonRecurrentRegression(xs, ys, sample_indices("cycling", len(xs), 200))
    with pytest.raises(ConfigurationError, match="finite-difference step"):
        estimate_lambda(sysm, None, theta_star, 100, np.zeros(1), h=h)
    with pytest.raises(ConfigurationError, match="finite-difference step"):
        extended_hessian_fd(sysm, None, theta_star, 3, np.zeros(1), h=h)


def test_nan_preconditioner_is_an_abort_not_an_error():
    # The rule does not test P itself: its non-finite direction reaches the
    # learner's update-direction guard, which records the abort time.
    xs, ys, theta_star = regression_dataset()
    sysm = NonRecurrentRegression(xs, ys, sample_indices("cycling", len(xs), 50))
    rule = PreconditionedRule(lambda theta: np.full((4, 4), np.nan))
    record = run_learning(sysm, np.zeros(1), theta_star + 0.1, StepSchedule(0.1, 0.5),
                          rule=rule, T=50, theta_star=theta_star)
    assert record.abort_t == 1


def test_estimate_lambda_cycling_identity_rule():
    # cycling over a finite dataset: at epoch multiples the average update
    # Jacobian is exactly the dataset-average Hessian
    xs, ys, theta_star = regression_dataset()
    N = len(xs)
    T = N * 25  # multiple of the epoch
    idx = sample_indices("cycling", N, T)
    sysm = NonRecurrentRegression(xs, ys, idx)
    lam, report = estimate_lambda(sysm, None, theta_star, T, np.zeros(1))
    H_data = np.mean([2.0 * np.outer(x, x) for x in xs], axis=0)
    assert np.allclose(lam, H_data, atol=1e-8)
    assert report.converged


def test_estimate_lambda_preconditioned():
    rng = philox(8)
    xs, ys, theta_star = regression_dataset()
    N = len(xs)
    T = N * 25
    idx = sample_indices("cycling", N, T)
    sysm = NonRecurrentRegression(xs, ys, idx)
    P = random_spd(rng, 4, 0.3)
    rule = PreconditionedRule(lambda th: P)
    lam, _ = estimate_lambda(sysm, rule, theta_star, T, np.zeros(1))
    H_data = np.mean([2.0 * np.outer(x, x) for x in xs], axis=0)
    assert np.allclose(lam, P @ H_data, atol=1e-6)


def test_estimate_lambda_iid_rate():
    # i.i.d. sampling: partial averages drift at the statistical sqrt rate.
    # Single-path slope fits are noisy, so check the median over seeds.
    xs, ys, theta_star = regression_dataset(n=32, p=3)
    T = 6400
    sysm_for = lambda seed: NonRecurrentRegression(
        xs, ys, sample_indices("iid", len(xs), T, philox(seed)))
    a_hats = [estimate_lambda(sysm_for(seed), None, theta_star, T, np.zeros(1))[1].a_hat
              for seed in range(8)]
    assert 0.4 <= float(np.median(a_hats)) <= 0.7


def test_adaptive_lambda_block_structure():
    # estimated Lambda at (theta*, psi*): top-right block vanishes and the
    # spectrum is eig(P H) together with c
    xs, ys, theta_star = regression_dataset()
    N = len(xs)
    T = N * 25
    idx = sample_indices("cycling", N, T)
    loss = SquaredErrorLoss(xs, ys)
    c = 0.9
    system, rule = rule_adam(loss, idx, beta1=0.0, c=c, eps=1e-3)
    psi_star = np.mean([loss.grad(i, theta_star) ** 2 for i in range(N)], axis=0)
    theta_plus = np.concatenate([theta_star, psi_star])
    lam, _ = estimate_lambda(system, rule, theta_plus, T, np.zeros(1))

    assert np.linalg.norm(lam[:4, 4:]) <= 1e-4 * np.linalg.norm(lam)
    H_data = np.mean([2.0 * np.outer(x, x) for x in xs], axis=0)
    P = np.diag(1.0 / (psi_star + 1e-3))
    expected = np.sort_complex(np.concatenate([np.linalg.eigvals(P @ H_data), c * np.ones(4)]))
    got = np.sort_complex(np.linalg.eigvals(lam))
    assert np.max(np.abs(got - expected)) < 1e-6


# --- positive stability and Lyapunov ------------------------------------------

def test_is_positive_stable_basics():
    ok, mr = is_positive_stable(np.eye(3))
    assert ok and mr == pytest.approx(1.0, abs=0)
    ok, mr = is_positive_stable(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert not ok and mr == pytest.approx(0.0, abs=1e-12)


def test_is_positive_stable_product_criterion():
    rng = philox(10)
    for n in (2, 4, 8):
        for _ in range(10):
            ok, _ = is_positive_stable(random_positive_stable(rng, n))
            assert ok


def test_solve_lyapunov_identity_and_diag():
    assert np.allclose(solve_lyapunov(np.eye(3)), 0.5 * np.eye(3), atol=0)
    B = solve_lyapunov(np.diag([1.0, 2.0]))
    assert np.allclose(B, np.diag([0.5, 0.25]), atol=0)


def test_solve_lyapunov_residual_and_spd():
    rng = philox(11)
    for n in (2, 5, 8):
        for _ in range(10):
            lam = random_positive_stable(rng, n)
            B = solve_lyapunov(lam)
            resid = B @ lam + lam.T @ B - np.eye(n)
            assert np.linalg.norm(resid) <= 1e-8
            assert np.min(np.linalg.eigvalsh(B)) > 0
            # quadratic-form view of the residual identity
            for _ in range(20):
                x = rng.normal(size=n)
                q = x @ (B @ lam + lam.T @ B) @ x / (x @ x)
                assert 1 - 1e-6 <= q <= 1 + 1e-6


def test_solve_lyapunov_rejects_unstable():
    with pytest.raises(ConfigurationError):
        solve_lyapunov(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_solve_lyapunov_against_quadrature_oracle():
    # independent oracle: B = int_0^inf expm(-t M^T) expm(-t M) dt via
    # Gauss-Legendre on t = u/(1-u)
    rng = philox(12)
    M = random_positive_stable(rng, 4)
    nodes, weights = np.polynomial.legendre.leggauss(120)
    u = 0.5 * (nodes + 1.0)
    wu = 0.5 * weights
    B_quad = np.zeros((4, 4))
    for ui, wi in zip(u, wu):
        t = ui / (1.0 - ui)
        jac = 1.0 / (1.0 - ui) ** 2
        E = expm(-t * M)
        B_quad += wi * jac * (E.T @ E)
    B = solve_lyapunov(M)
    assert np.allclose(B, B_quad, atol=1e-6)


def test_lyapunov_flow_decrease():
    # d/dt (theta^T B theta) along theta' = -M theta equals -||theta||^2
    rng = philox(13)
    M = random_positive_stable(rng, 5)
    B = solve_lyapunov(M)
    for _ in range(20):
        x = rng.normal(size=5)
        derivative = -x @ (B @ M + M.T @ B) @ x
        assert derivative == pytest.approx(-x @ x, rel=1e-7)

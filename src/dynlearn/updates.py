"""Update rules, parameter-update operators, and stability algebra.

An update rule U_t turns the raw gradient row v = dl/ds . J into an
update direction (preconditioned, or adaptive with online statistics
folded into an augmented parameter). A parameter-update operator Phi_t
applies the scaled direction (clipping, projection). The identity rule
and the plain update theta - w are spelled None wherever a rule or an
operator is taken. A rule does not test its own output: a non-finite
preconditioner or statistic reaches the direction, which every caller
guards as stage "update-direction" (`dynamics.guard`). The local
behavior of the combined update around a candidate optimum is summarized
by the averaged update Jacobian Lambda; descent contracts locally when
Lambda is positive-stable (all eigenvalues in the right half-plane),
certified here through the Lyapunov equation B Lambda + Lambda^T B = I.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .dynamics import ConfigurationError, MomentumSystem, System, _index_lookup
from .records import write_csv
from .rtrl import open_loop_updates
from .schedules import StepSchedule

__all__ = [
    "PreconditionedRule",
    "AdaptiveRule",
    "rule_adam",
    "AdamSetup",
    "squared_grad_statistic",
    "outer_grad_statistic",
    "rmsprop_preconditioner",
    "inverse_matrix_preconditioner",
    "ClippedUpdate",
    "ProjectedUpdate",
    "extended_hessian_fd",
    "estimate_lambda",
    "LambdaReport",
    "is_positive_stable",
    "solve_lyapunov",
]


class PreconditionedRule:
    """direction = P(theta) v for a known matrix-valued P."""

    def __init__(self, precond):
        self.precond = precond

    def apply(self, t, v, s, theta):
        P = np.atleast_2d(self.precond(np.asarray(theta, dtype=float)))
        return P @ np.asarray(v, dtype=float)


class AdaptiveRule:
    """Online-statistics preconditioning on an augmented parameter.

    theta = (theta_core, psi) with psi of length psi_dim. The direction is

        ( P(theta_core, psi_used) . v_core,  c * (psi - Psi_t(theta_core)) )

    so that a plain step theta <- theta - eta * direction realizes the
    moving average psi <- (1 - c*eta) psi + c*eta * Psi_t alongside the
    preconditioned parameter step. timing "simultaneous" feeds P the
    current psi; "psi_first" feeds it the post-update psi (needs the step
    schedule to know eta_t). A fixed inertia beta2 can override the
    c*eta_t coupling (also schedule-dependent: c_t = (1-beta2)/eta_t),
    which deliberately leaves the regime covered by the local convergence
    guarantees; it exists for the divergence experiments.

    `apply` takes v and theta as float arrays. The statistic is called as
    stat_fn(t, theta) with the whole augmented theta, and reads theta_core,
    its leading theta_dim entries; so it may share a memo keyed by the
    theta object with the system (see `rule_adam`). A preconditioner may
    return the diagonal of P, shaped as v_core, which then scales v_core
    elementwise. Seed-batched: with theta and v of shape (S, p), a statistic
    built on per-seed index rows and a diagonal preconditioner, each row is
    updated as it would be alone.
    """

    def __init__(self, stat_fn, precond, c, theta_dim, psi_dim,
                 timing="simultaneous", schedule: StepSchedule | None = None,
                 fixed_beta2: float | None = None):
        if c <= 0:
            raise ConfigurationError("statistic coupling c must be > 0")
        if timing not in ("simultaneous", "psi_first"):
            raise ConfigurationError(f"unknown timing {timing!r}")
        if (timing == "psi_first" or fixed_beta2 is not None) and schedule is None:
            raise ConfigurationError("psi_first timing and fixed beta2 need the step schedule")
        if fixed_beta2 is not None and not 0.0 <= fixed_beta2 < 1.0:
            raise ConfigurationError("fixed beta2 must lie in [0, 1)")
        self.stat_fn = stat_fn
        self.precond = precond
        self.c = c
        self.theta_dim = theta_dim
        self.psi_dim = psi_dim
        self.timing = timing
        self.schedule = schedule
        self.fixed_beta2 = fixed_beta2

    def coupling(self, t):
        if self.fixed_beta2 is None:
            return self.c
        return (1.0 - self.fixed_beta2) / self.schedule.eta(t)

    def apply(self, t, v, s, theta):
        psi = theta[..., self.theta_dim :]
        stat = self.stat_fn(t, theta)
        if getattr(stat, "shape", None) != psi.shape:
            stat = np.reshape(stat, psi.shape)
        c_t = self.coupling(t)
        psi_dir = c_t * (psi - stat)
        psi_used = psi
        if self.timing == "psi_first":
            psi_used = psi - self.schedule.eta(t) * psi_dir
        core = theta[..., : self.theta_dim]
        P = self.precond(core, psi_used)
        v_core = v[..., : self.theta_dim]
        # Off the diagonal P @ v adds only exact zeros, so scaling by the
        # diagonal gives the same bits without building the p x p matrix.
        core_dir = P * v_core if P.shape == v_core.shape else np.atleast_2d(P) @ v_core
        return np.concatenate([core_dir, psi_dir], axis=-1)

    def take_seeds(self, rows):
        """The same rule restricted to the seed rows `rows` of a
        seed-batched statistic."""
        out = copy.copy(self)
        out.stat_fn = self.stat_fn.take_seeds(rows)
        return out


def squared_grad_statistic(sample_loss, indices):
    """Psi_t(theta) = elementwise square of the per-sample gradient at the
    leading sample_loss.dim entries of theta.

    On 2-D indices (one row per seed) it is seed-batched, and its
    `take_seeds(rows)` keeps the given rows. `rule_adam` reads the same
    values from its system's memo (`_SampleSquaredGrad`); this is their
    oracle.
    """
    idx = _index_lookup(indices)

    def stat(t, theta):
        return sample_loss.grad(idx(t), theta[..., : sample_loss.dim]) ** 2

    stat.take_seeds = lambda rows: squared_grad_statistic(sample_loss, idx.take(rows))
    return stat


def outer_grad_statistic(sample_loss, indices):
    """Psi_t(theta) = flattened outer square of the per-sample gradient."""
    idx = _index_lookup(indices)

    def stat(t, theta):
        g = sample_loss.grad(idx(t), theta[..., : sample_loss.dim])
        return np.outer(g, g).ravel()

    return stat


class _SampleSquaredGrad:
    """squared_grad_statistic of a MomentumSystem's sample loss and index
    rows, read from the system's per-step memo (`MomentumSystem.sample`):
    the gradient the system's dT/dtheta takes, not a second one.
    `take_seeds` gives the statistic a trimmed copy of the system, with a
    memo of its own, never the untrimmed system's."""

    def __init__(self, system: MomentumSystem):
        self.system = system

    def __call__(self, t, theta):
        return self.system.sample(t, theta)[1] ** 2

    def take_seeds(self, rows):
        return _SampleSquaredGrad(self.system.take_seeds(rows))


def rmsprop_preconditioner(eps=1e-8):
    """P(theta, psi) = diag(psi + eps)^(-1), returned as its diagonal
    1 / (psi + eps)."""

    def precond(theta, psi):
        return 1.0 / (psi + eps)

    return precond


def inverse_matrix_preconditioner(eps=1e-8):
    """P(theta, psi) = (mat(psi) + eps I)^(-1) for matrix-valued psi."""

    def precond(theta, psi):
        p = len(theta)
        M = psi.reshape(p, p) + eps * np.eye(p)
        return np.linalg.inv(M)

    return precond


@dataclass
class AdamSetup:
    """Momentum system plus adaptive rule, wired to share the parameter.

    Learning runs on the augmented theta+ = (theta, psi): the forward
    Jacobian of the momentum system is exactly the momentum variable
    J_t = beta1 J_{t-1} + (1 - beta1) grad l_t, and the rule applies the
    psi-preconditioner to it. psi0 defaults to the first observed
    statistic. Bias-correction factors are not applied. Seed-batched
    (2-D indices), theta0 has one row per seed.
    """

    system: System
    rule: AdaptiveRule
    theta_dim: int
    psi_dim: int

    def initial_theta(self, theta0, psi0=None):
        theta0 = np.asarray(theta0, dtype=float)
        if psi0 is None:
            psi0 = np.reshape(self.rule.stat_fn(1, theta0), theta0.shape[:-1] + (-1,))
        return np.concatenate([theta0, np.asarray(psi0, dtype=float)], axis=-1)


def rule_adam(sample_loss, indices, beta1, c, eps=1e-8, timing="simultaneous",
              schedule=None, fixed_beta2=None) -> AdamSetup:
    """Adaptive preconditioning with momentum (squared-gradient flavor).

    beta1 = 0 degenerates to the memoryless adaptive rule. The default
    beta2 coupling is 1 - c*eta_t; pass fixed_beta2 (with the schedule)
    to reproduce the fixed-inertia divergence behavior. The statistic
    shares the system's per-step sample gradient.
    """
    if not 0.0 <= beta1 < 1.0:
        raise ConfigurationError("beta1 must lie in [0, 1)")
    p = sample_loss.dim
    system = MomentumSystem(sample_loss, indices, beta1, param_dim=2 * p, core_dim=p)
    rule = AdaptiveRule(
        _SampleSquaredGrad(system),
        rmsprop_preconditioner(eps),
        c, theta_dim=p, psi_dim=p,
        timing=timing, schedule=schedule, fixed_beta2=fixed_beta2,
    )
    return AdamSetup(system=system, rule=rule, theta_dim=p, psi_dim=p)


class ClippedUpdate:
    """theta - w / (1 + ||w||): step norm below 1, first order unchanged."""

    def apply(self, t, theta, w):
        w = np.asarray(w, dtype=float)
        return np.asarray(theta, dtype=float) - w / (1.0 + np.linalg.norm(w))


class ProjectedUpdate:
    """Plain step followed by a box projection (per-coordinate clamp).

    With block=d only the leading block theta[..., :d] is projected (the
    parameter of an adaptive rule, whose statistics follow it unclamped).
    """

    def __init__(self, lo, hi, block=None):
        self.lo = lo
        self.hi = hi
        self.block = block

    def apply(self, t, theta, w):
        """theta - w, clamped; theta and w are float arrays."""
        # np.clip's bits (NaN, and signed zeros: a tie keeps the second
        # argument, so the bound goes first) minus np.clip's Python calls.
        out = theta - w
        out[..., : self.block] = np.minimum(self.hi, np.maximum(self.lo, out[..., : self.block]))
        return out


def _update_jacobians(sys: System, rule, theta, T: int, s0, h) -> np.ndarray:
    """H[t-1] = Jacobian of theta -> U_t(open-loop gradient at theta) at
    theta, for t = 1..T: central finite differences, one open-loop pass per
    probe, which gives the column of every H_t at once."""
    if not 0 < h < np.inf:
        raise ConfigurationError("finite-difference step must be finite and > 0")
    theta = np.asarray(theta, dtype=float)
    probes = h * np.eye(len(theta))  # row j: h at entry j, exact zeros elsewhere
    up = np.array([open_loop_updates(sys, rule, s0, theta + e, T) for e in probes])
    dn = np.array([open_loop_updates(sys, rule, s0, theta - e, T) for e in probes])
    # H[t-1][i, j] = d u_t_i / d theta_j
    return (up - dn).transpose(1, 2, 0) / (2.0 * h)


def extended_hessian_fd(sys: System, rule, theta_star, t: int, s0, h=1e-5) -> np.ndarray:
    """Jacobian of theta -> U_t(open-loop gradient at theta) at theta_star.

    Central finite differences (`_update_jacobians`). With rule None (the
    identity rule) this is the Hessian of the compound loss at time t and
    comes out symmetric up to FD error.
    """
    return _update_jacobians(sys, rule, theta_star, t, s0, h)[t - 1]


@dataclass
class LambdaReport:
    """Tail-rate fit of the averaged update Jacobian."""

    a_hat: float
    r_squared: float
    converged: bool
    probes: np.ndarray
    errors: np.ndarray


def estimate_lambda(sys: System, rule, theta_star, T: int, s0, h=1e-5):
    """Average the update Jacobians H_t(theta*) over t = 1..T.

    Returns (Lambda, LambdaReport). The report fits
    ||partial average - Lambda|| ~ T'^(a_hat - 1) on log-spaced probes in
    [T/10, T]; a slope >= 0 in the partial-average error (a_hat >= 1)
    flags a non-convergent average instead of raising.
    """
    if T < 100:
        raise ConfigurationError("estimate_lambda needs T >= 100")
    H_all = _update_jacobians(sys, rule, theta_star, T, s0, h)
    partial = np.cumsum(H_all, axis=0) / np.arange(1, T + 1)[:, None, None]
    lam = partial[-1]

    # Fit on [T/10, T/2]: probes too close to T are correlated with the
    # reference average itself and bias the slope down.
    probe_ts = np.unique(np.round(np.logspace(
        np.log10(max(2, T // 10)), np.log10(max(3, T // 2)), 20)).astype(int))
    errs = np.array([np.linalg.norm(partial[tt - 1] - lam) for tt in probe_ts])
    mask = errs > 1e-300
    if mask.sum() < 2:
        report = LambdaReport(0.0, 1.0, True, probe_ts, errs)
    else:
        x = np.log(probe_ts[mask].astype(float))
        y = np.log(errs[mask])
        slope, intercept = np.polyfit(x, y, 1)
        fitted = slope * x + intercept
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 - float(np.sum((y - fitted) ** 2)) / ss_tot if ss_tot > 0 else 1.0
        a_hat = slope + 1.0
        report = LambdaReport(float(a_hat), r2, a_hat < 1.0, probe_ts, errs)
    return lam, report


def export_matrix_csv(path, M, label="m"):
    """Write a dense matrix as CSV (one row per matrix row) for inspection."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    write_csv(path, [f"{label}{j}" for j in range(M.shape[1])], list(M.T))


def is_positive_stable(M, tol=1e-10):
    """(all eigenvalues have real part > tol, min real part)."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape[0] != M.shape[1]:
        raise ConfigurationError("positive stability is defined for square matrices")
    eigs = np.linalg.eigvals(M)
    min_real = float(np.min(eigs.real))
    return min_real > tol, min_real


def solve_lyapunov(M) -> np.ndarray:
    """Solve B M + M^T B = I for symmetric positive definite B.

    Dense vec-trick solve, intended for desk-scale matrices. Requires M
    positive-stable (otherwise no SPD solution exists and a domain error
    is raised). B is the Gram matrix of the flow exp(-t M): the quadratic
    form theta^T B theta decreases along theta' = -M theta at exact rate
    ||theta||^2.
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    stable, min_real = is_positive_stable(M)
    if not stable:
        raise ConfigurationError(f"matrix is not positive-stable (min real part {min_real:g})")
    n = M.shape[0]
    eye = np.eye(n)
    # vec(B M) = (M^T (x) I) vec(B); vec(M^T B) = (I (x) M^T) vec(B)
    coeff = np.kron(M.T, eye) + np.kron(eye, M.T)
    vec_b = np.linalg.solve(coeff, eye.ravel())
    B = vec_b.reshape(n, n)
    return 0.5 * (B + B.T)

"""Executable checkers for the hypotheses behind local convergence.

These turn the convergence theorem's assumptions into runnable probes:
joint contraction of the linearized dynamics over some horizon (stability
of the target trajectory), vanishing averaged updates with a
positive-stable averaged update Jacobian (the candidate parameter is a
local optimum of the algorithm), and a heuristic continuity probe of the
update Jacobians. Certificates here are sampled over finite windows;
they are evidence, not proofs. Whether a recorded trial converged is
`TrialRecord.converged(tol)`, which `summary.csv` and `sweep.csv` report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import ContractViolation, System, run_trajectory
from .rtrl import open_loop_updates
from .schedules import ergodic_exponent_estimate
from .updates import estimate_lambda, is_positive_stable

__all__ = [
    "HorizonCertificate",
    "spectral_radius_horizon",
    "check_stability",
    "OptimumReport",
    "local_optimum_report",
    "hessian_continuity_probe",
]


@dataclass(frozen=True)
class HorizonCertificate:
    """Witness that every k-fold product of consecutive linearizations is
    a contraction: max_t ||A_{t+k-1} ... A_t||_op = 1 - alpha < 1."""

    k: int
    alpha: float
    max_product_norm: float

    def to_text(self):
        return (
            f"horizon: {self.k}\n"
            f"alpha: {self.alpha!r}\n"
            f"max_product_norm: {self.max_product_norm!r}\n"
        )


def sliding_product_norms(ops, k: int) -> np.ndarray:
    """Operator norms (largest singular value) of all k-long products."""
    ops = [np.atleast_2d(np.asarray(A, dtype=float)) for A in ops]
    if len(ops) < k:
        raise ContractViolation(f"need at least k={k} operators, got {len(ops)}")
    norms = np.zeros(len(ops) - k + 1)
    for start in range(len(ops) - k + 1):
        prod = ops[start]
        for A in ops[start + 1 : start + k]:
            prod = A @ prod
        norms[start] = np.linalg.norm(prod, 2)
    return norms


def spectral_radius_horizon(ops, k_max: int = 50) -> HorizonCertificate | None:
    """Smallest horizon k <= k_max certifying contraction, or None.

    For each k in increasing order, computes max over start times of the
    operator norm of the k-fold product and stops at the first k whose
    maximum is below 1.
    """
    for k in range(1, min(k_max, len(ops)) + 1):
        worst = float(np.max(sliding_product_norms(ops, k)))
        if worst < 1.0:
            return HorizonCertificate(k=k, alpha=1.0 - worst, max_product_norm=worst)
    return None


def check_stability(sys: System, theta_star, s0_star, T: int, k_max: int = 50
                    ) -> HorizonCertificate | None:
    """Certify contraction of the state linearization along the target
    trajectory (the trajectory run at theta_star from s0_star).

    Non-recurrent systems certify trivially at k=1 with alpha=1. The
    check samples the window [1, T] only.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    states = run_trajectory(sys, s0_star, theta_star, T)
    ops = [sys.d_transition_ds(t, states[t - 1], theta_star) for t in range(1, T + 1)]
    return spectral_radius_horizon(ops, k_max)


@dataclass
class OptimumReport:
    """Runtime evidence that a candidate parameter is a local optimum of
    the (extended) algorithm: averaged updates decay and the averaged
    update Jacobian is positive-stable."""

    avg_update_norms: np.ndarray
    probe_ts: np.ndarray
    lambda_matrix: np.ndarray
    positive_stable: bool
    min_real_part: float
    a_hat: float
    rate_r_squared: float
    passed: bool

    def to_text(self):
        lines = [
            f"avg_update_final: {float(self.avg_update_norms[-1])!r}",
            f"avg_update_trend: {' '.join(repr(float(x)) for x in self.avg_update_norms)}",
            f"a_hat: {float(self.a_hat)!r}",
            f"rate_r_squared: {float(self.rate_r_squared)!r}",
            f"lambda_min_real_part: {float(self.min_real_part)!r}",
            f"positive_stable: {self.positive_stable}",
            f"verdict: {'pass' if self.passed else 'fail'}",
        ]
        return "\n".join(lines) + "\n"


def local_optimum_report(sys: System, rule, theta_candidate, T: int, s0,
                         lambda_T: int | None = None, h=1e-5) -> OptimumReport:
    """Probe the two optimality conditions at a candidate parameter.

    Averaged open-loop updates at the candidate must tend to zero (their
    running-average norm is reported on log-spaced probes, with the
    ergodic-rate fit a_hat); the averaged update Jacobian must be
    positive-stable. Both are computed open loop (frozen parameter).
    """
    theta_candidate = np.asarray(theta_candidate, dtype=float)
    updates = open_loop_updates(sys, rule, s0, theta_candidate, T)
    cum = np.cumsum(updates, axis=0)
    probe_ts = np.unique(np.round(np.logspace(0, np.log10(T), 12)).astype(int))
    avg_norms = np.array([np.linalg.norm(cum[tt - 1] / tt) for tt in probe_ts])

    erg = ergodic_exponent_estimate(updates, T)
    lam, lam_report = estimate_lambda(
        sys, rule, theta_candidate, lambda_T or max(100, min(T, 400)), s0, h=h
    )
    stable, min_real = is_positive_stable(lam)

    # Updates average to zero when the final averaged norm is a small
    # fraction of the typical update magnitude.
    scale = float(np.mean(np.linalg.norm(updates, axis=1))) or 1.0
    decays = avg_norms[-1] <= 0.05 * scale
    return OptimumReport(
        avg_update_norms=avg_norms,
        probe_ts=probe_ts,
        lambda_matrix=lam,
        positive_stable=stable,
        min_real_part=min_real,
        a_hat=erg.a_hat,
        rate_r_squared=erg.r_squared,
        passed=bool(decays and stable),
    )


def hessian_continuity_probe(sys: System, rule, theta_star, T: int, s0,
                             radius=0.1, n_probes=8, h=1e-5, rng=None):
    """Heuristic modulus-of-continuity probe for the update Jacobians.

    Samples parameters in a ball around the candidate and reports
    max ||H_bar(theta) - H_bar(theta*)|| per radius shell. This is NOT a
    certificate (no finite procedure certifies equicontinuity); it only
    surfaces gross violations.
    """
    rng = rng or np.random.default_rng(0)
    theta_star = np.asarray(theta_star, dtype=float)
    lam_star, _ = estimate_lambda(sys, rule, theta_star, T, s0, h=h)
    rows = []
    for _ in range(n_probes):
        direction = rng.normal(size=len(theta_star))
        direction /= np.linalg.norm(direction)
        r = radius * rng.uniform(0.1, 1.0)
        lam, _ = estimate_lambda(sys, rule, theta_star + r * direction, T, s0, h=h)
        rows.append((r, float(np.linalg.norm(lam - lam_star))))
    rows.sort()
    return rows

"""Truncated backpropagation through time with growing intervals.

The horizon is split into intervals (t_k, t_{k+1}]. Within an interval
the parameter is frozen; at the interval end one backward (adjoint) pass
produces the summed gradient of all interval losses with respect to the
frozen parameter, and the parameter takes a single step with stepsize
eta_{t_{k+1}}. Fixed-length intervals bias the gradient (long-range
influence is cut); letting the length grow like t^A removes the bias
while keeping the per-interval step small enough, provided
max(a, gamma_loss) < A < b - 2*gamma_loss.

On any interval the backward pass computes exactly what forward-mode
Jacobian propagation restarted at (t_k, s_{t_k}) with J reset to zero
computes; the equivalence is exercised directly by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, count, pairwise, repeat, takewhile
from math import ceil, sqrt

import numpy as np

from .dynamics import ConfigurationError, ContractViolation, NumericOverflow, System, guard
from .records import RecordBuilder, TrialRecord
from .rtrl import forward_step
from .schedules import StepSchedule

__all__ = ["TruncationSchedule", "BpttCounters", "bptt_interval_gradient", "run_tbptt"]


@dataclass
class TruncationSchedule:
    """Interval boundaries t_0=0, t_1=1, t_{k+1} = t_k + ceil(t_k^A).

    ceil keeps the boundaries integral and strictly increasing; the
    asymptotics t_k^(1-A) ~ (1-A) k are unaffected. A fixed-length
    override exists for the divergence experiments (biased on purpose).
    """

    A: float | None = None
    fixed_length: int | None = None

    def __post_init__(self):
        if (self.A is None) == (self.fixed_length is None):
            raise ConfigurationError("specify exactly one of A or fixed_length")
        if self.A is not None and not 0.0 < self.A < 1.0:
            raise ConfigurationError("truncation exponent A must lie in (0, 1)")
        if self.fixed_length is not None and self.fixed_length < 1:
            raise ConfigurationError("fixed interval length must be >= 1")

    @classmethod
    def growing(cls, A: float) -> "TruncationSchedule":
        return cls(A=A)

    @classmethod
    def fixed(cls, L: int) -> "TruncationSchedule":
        return cls(fixed_length=L)

    def boundaries(self):
        """t_0, t_1, t_2, ... lazily."""
        if self.fixed_length is not None:
            return count(0, self.fixed_length)
        return chain((0,), accumulate(repeat(self.A), lambda t, A: t + ceil(t**A), initial=1))

    def intervals(self, T: int):
        """The intervals (t_lo, t_hi] that cover (0, T], lazily, the last
        one clipped at T; fixed lengths without a Python frame per interval."""
        return pairwise(chain(takewhile(T.__gt__, self.boundaries()), (T,)))


@dataclass
class BpttCounters:
    """Instrumentation for the backward pass cost contract."""

    forward_steps: int = 0
    backward_steps: int = 0


def _bind(sys):
    """The system methods an interval pass calls, bound once per run."""
    return (sys.transition, sys.d_loss_ds, sys.d_transition_ds,
            sys.d_transition_dtheta_vjp, sys.known_transition)


def _interval_pass(methods, s, theta, t_start, t_end, counters=None):
    """Forward pass storing states, then one adjoint sweep that hands them
    to `known_transition`, if any. s and theta are float arrays, methods
    is `_bind(sys)`. Returns (summed gradient, states)."""
    transition, d_loss_ds, d_transition_ds, vjp, known = methods
    states = [s]
    for t in range(t_start + 1, t_end + 1):
        s = guard(transition(t, s, theta), "transition", t)
        states.append(s)
        if counters is not None:
            counters.forward_steps += 1

    # The last step starts the adjoint (lam is zero beyond t_end). A
    # dimension-1 system may return scalars, so a lam that is not a vector
    # is made one; lam.dot(M) runs the BLAS call of lam @ M, bit for bit.
    s_prev = states[-2]
    lam = d_loss_ds(t_end, s)
    if getattr(lam, "ndim", 0) != 1:
        lam = np.atleast_1d(lam)
    if known is not None:  # after step t + 1's last use of the memo
        known(t_end, s_prev, theta, s)
    grad = vjp(t_end, s_prev, theta, lam) + 0.0  # a fresh array, rounded as 0 + g
    for i in range(t_end - t_start - 1, 0, -1):
        t, s_t, s_prev = t_start + i, s_prev, states[i - 1]
        lam = d_loss_ds(t, s_t) + lam.dot(d_transition_ds(t + 1, s_t, theta))
        if lam.ndim != 1:
            lam = lam.reshape(1)
        if known is not None:
            known(t, s_prev, theta, s_t)
        grad += vjp(t, s_prev, theta, lam)
    if counters is not None:
        counters.backward_steps += t_end - t_start
    return grad, states


def bptt_interval_gradient(sys: System, s_start, theta, t_start: int, t_end: int,
                           counters: BpttCounters | None = None) -> np.ndarray:
    """Summed gradient over (t_start, t_end] at frozen theta.

    One forward pass stores the interval states; one backward pass
    accumulates the adjoint

        lam_t = dl_t/ds(s_t) + lam_{t+1} . dT_{t+1}/ds(s_t, theta)

    (lam zero beyond t_end) and returns sum_t lam_t . dT_t/dtheta, each
    term a vector-Jacobian product of the system, so dT/dtheta is never
    formed where the system provides a structured product. Each stored
    state is touched exactly once backward.
    """
    if t_end <= t_start:
        raise ContractViolation("interval must satisfy t_end > t_start")
    grad, _ = _interval_pass(_bind(sys), np.asarray(s_start, dtype=float),
                             np.asarray(theta, dtype=float), t_start, t_end, counters)
    return grad


def run_tbptt(sys: System, s0, theta0, schedule: StepSchedule,
              trunc: TruncationSchedule, T: int, reset_state=None, phi=None,
              update_mode: str = "aggregate", theta_star=None, dist_dims=None,
              config_meta=None) -> TrialRecord:
    """Interval-wise learning; records one row per interval boundary.

    reset_state=None carries the state across boundaries; otherwise the
    state is reset to the given value at the start of every interval (the
    Jacobian information is implicitly reset by construction).
    update_mode "aggregate" applies one subtraction with the summed
    gradient (through phi when given); "per_step" applies phi once per
    interval step with the individual gradient pieces, which differs at
    second order only. The (A, b) relation of the exponents is checked by
    the experiment harness, not here.
    """
    if update_mode not in ("aggregate", "per_step"):
        raise ConfigurationError(f"unknown update mode {update_mode!r}")

    theta = np.asarray(theta0, dtype=float)
    s = np.asarray(s0, dtype=float)
    ref = None if theta_star is None else np.asarray(theta_star, dtype=float)[:dist_dims]

    def dist(th):
        if ref is None:
            return np.nan
        d = th[:dist_dims] - ref
        return sqrt(d.dot(d))  # np.linalg.norm's formula

    eta_at, loss, methods = schedule.eta, sys.loss, _bind(sys)
    builder = RecordBuilder(config_meta, with_intervals=True)
    add = builder.add
    add(0, dist(theta), np.nan, np.nan, 0)
    try:
        for k, (t_lo, t_hi) in enumerate(trunc.intervals(T), start=1):
            if reset_state is not None:
                s = np.asarray(reset_state, dtype=float)
            eta = eta_at(t_hi)
            if update_mode == "aggregate":
                grad, states = _interval_pass(methods, s, theta, t_lo, t_hi)
                s = states[-1]
                w = eta * grad
                theta_new = phi.apply(t_hi, theta, w) if phi is not None else theta - w
            else:
                theta_new, grad, s = _per_step_update(sys, s, theta, t_lo, t_hi, eta, phi)
            theta = guard(theta_new, "parameter", t_hi)
            add(t_hi, dist(theta), loss(t_hi, s), sqrt(grad.dot(grad)), k)
    except NumericOverflow as exc:
        builder.abort_t = exc.t
        add(exc.t, dist(theta), np.nan, np.nan, k)
    return builder.build(final_theta=theta)


def _per_step_update(sys, s_start, theta, t_lo, t_hi, eta, phi):
    """Apply phi per interval step using forward-propagated gradients."""
    p = len(theta)
    s = np.asarray(s_start, dtype=float)
    J = np.zeros((len(s), p))
    theta_new = theta.copy()
    total = np.zeros(p)
    for t in range(t_lo + 1, t_hi + 1):
        s, J, v = forward_step(sys, t, s, theta, J)
        total += v
        w = eta * v
        theta_new = phi.apply(t, theta_new, w) if phi is not None else theta_new - w
    return theta_new, total, s

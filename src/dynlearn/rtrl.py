"""Forward-mode online learning of dynamical systems.

The learner carries (s_t, J_t, theta_t) and advances all three each step:

    s_t     = T_t(s_{t-1}, theta_{t-1})
    J_t     = dT_t/ds . J_{t-1} + dT_t/dtheta
    v_t     = U_t(dl_t/ds . J_t, s_t, theta_{t-1})
    theta_t = Phi_t(theta_{t-1}, eta_t * v_t)

with the Jacobians of T_t evaluated at (s_{t-1}, theta_{t-1}). The update
ordering matters: the state and Jacobian both use theta_{t-1}, and only
then is the parameter moved. With eta_t = 0 the parameter stays frozen
and J_t is the exact Jacobian of the state with respect to the parameter,
which is what the open-loop helpers below compute.

`forward_step` is the one place where the first two lines are written:
the dense learner step `dense_step`, the open-loop helpers and the
regularized pair of `deviation` all advance (s, J) through it. A rule or
update operator of None is the identity rule U_t(g) = g and the plain
update Phi_t(theta, w) = theta - w.

J_t is either a dense matrix or, for the rank-one algorithms (UORO,
NoBackTrack), a `RankOnePair` (v_state, v_param) standing for
v_state (x) v_param. A pair advances through `rankone.pair_step`: an
unbiased reduction replaces the J recursion (imperfect RTRL), dT/dtheta
is used only through the system's products, and the gradient is
(dl_t/ds . v_state) v_param, so no dense J is ever formed. A
`RankOneInjector` names the reducer and the start pair. `run_learning`
calls either step directly and updates one `LearnerState` in place;
`rtrl_step` advances a LearnerState by one step of either kind.

The dense learner also runs seed-batched: s (S, n), J (S, n, p) and
theta (S, p) hold S seeds of one arm, on a system, rule and update
operator that act row by row (see `dynamics._SeedBatchable`). Every row
is bit-identical to its seed run alone: the row products are stacked
matmuls (or `dynamics.row_dot`), which run the same kernels as the 2-D
ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import ContractViolation, NumericOverflow, System, guard, row_dot
from .rankone import RankOneInjector, RankOnePair, SignStream, pair_step
from .records import RecordBuilder, TrialRecord
from .schedules import StepSchedule

_FLOAT = np.dtype(float)

__all__ = [
    "LearnerState",
    "forward_step",
    "dense_step", "rtrl_step",
    "open_loop_gradient",
    "open_loop_updates",
    "run_learning",
    "deviation",
]


@dataclass
class LearnerState:
    """Everything the learner maintains: time, state, Jacobian, parameter.

    J is a dense (dim S_t) x p matrix or a RankOnePair standing for one.
    v is the update direction v_t of the step that produced this state
    (None before the first step). Seed-batched, s, J, theta and v carry a
    leading seed axis.
    """

    t: int
    s: np.ndarray
    J: np.ndarray
    theta: np.ndarray
    v: np.ndarray | None = None

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        if isinstance(self.J, RankOnePair):
            shape = (len(self.J.v_state), len(self.J.v_param))
        else:
            self.J = np.atleast_2d(np.asarray(self.J, dtype=float))
            shape = self.J.shape
        dims = self.s.shape + self.theta.shape[-1:]
        if shape != dims or self.s.shape[:-1] != self.theta.shape[:-1]:
            raise ContractViolation(
                f"Jacobian shape {shape} inconsistent with dims {dims}"
            )


def forward_step(sys: System, t: int, s, theta, J):
    """(s_t, J_t, g_t) from (s_{t-1}, J_{t-1}) at the parameter theta.

    s_t = T_t(s, theta), J_t = dT_t/ds . J + dT_t/dtheta, with dT_t/dtheta
    added by the system's `d_transition_dtheta_add` into the fresh product
    (a structured dT_t/dtheta is never built dense), and the gradient row
    g_t = dl_t/ds(s_t) . J_t. s_t is guarded as stage "transition", then
    J_t as stage "jacobian". A J of shape (S, n, p) advances S seeds.
    """
    batched = J.ndim == 3
    jac_s = sys.d_transition_ds(t, s, theta)
    if getattr(jac_s, "ndim", 0) < 2:  # a scalar or vector of a system of dimension 1
        jac_s = np.atleast_2d(jac_s)
    s_new = sys.transition(t, s, theta)
    if type(s_new) is not np.ndarray or s_new.dtype is not _FLOAT:
        s_new = np.asarray(s_new, dtype=float)
    guard(s_new, "transition", t, batched)
    J_new = guard(sys.d_transition_dtheta_add(t, s, theta, jac_s @ J), "jacobian", t, batched)
    dl = sys.d_loss_ds(t, s_new)
    if getattr(dl, "ndim", 0) < 1:
        dl = np.atleast_1d(dl)
    g = np.matmul(dl[:, None, :], J_new)[:, 0] if batched else dl @ J_new
    return s_new, J_new, g


def dense_step(sys: System, t: int, s, theta, J, eta: float, rule, phi):
    """(s_t, J_t, theta_t, v_t): one learner step with a dense J, (S, n, p)
    seed-batched. `forward_step` guards the stages transition and jacobian,
    then the rule and operator move theta: update-direction, parameter.
    Like a rule, phi returns a float array."""
    batched = J.ndim == 3
    s_new, J_new, v = forward_step(sys, t, s, theta, J)
    if rule is not None:
        v = rule.apply(t, v, s_new, theta)
    guard(v, "update-direction", t, batched)
    w = eta * v
    theta_new = theta - w if phi is None else phi.apply(t, theta, w)
    return s_new, J_new, guard(theta_new, "parameter", t, batched), v


def rtrl_step(sys: System, ls: LearnerState, eta_t: float, rule=None, phi=None,
              injector=None, rng=None) -> LearnerState:
    """Advance the learner by one step (see module docstring for order).

    A dense J advances through `dense_step` and takes no injector. A
    RankOnePair J advances through `rankone.pair_step` with this step's
    signs drawn from rng, and needs a RankOneInjector. Both are checked
    before any system call.
    """
    if eta_t < 0:
        raise ContractViolation("step size must be >= 0")
    t = ls.t + 1
    if isinstance(ls.J, RankOnePair):
        if not isinstance(injector, RankOneInjector):
            raise ContractViolation("a rank-one Jacobian is advanced by a RankOneInjector")
        step = pair_step(sys, t, ls.s, ls.theta, ls.J, eta_t, rule, phi, injector.nbt, SignStream(rng, 1))
    elif injector is not None:
        raise ContractViolation("a dense Jacobian takes no injector")
    else:
        step = dense_step(sys, t, ls.s, ls.theta, ls.J, eta_t, rule, phi)
    out = LearnerState.__new__(LearnerState)  # the step's arrays satisfy the contract
    out.t = t
    out.s, out.J, out.theta, out.v = step
    return out


def open_loop_updates(sys: System, rule, s0, theta, T: int) -> np.ndarray:
    """Update directions v_1..v_T at frozen theta, one forward pass.

    Row t-1 holds U_t(dl_t/ds . J_t, s_t, theta) with J_t propagated from
    J_0 = 0, which equals the rule applied to the exact gradient of the
    compound loss at time t. A rule's output is guarded as stage
    "update-direction", as in the learner.
    """
    theta = np.asarray(theta, dtype=float)
    s = np.asarray(s0, dtype=float)
    J = np.zeros((len(s), len(theta)))
    out = np.zeros((T, len(theta)))
    for t in range(1, T + 1):
        s, J, v = forward_step(sys, t, s, theta, J)
        out[t - 1] = v if rule is None else guard(rule.apply(t, v, s, theta), "update-direction", t)
    return out


def open_loop_gradient(sys: System, s0, theta, t: int) -> np.ndarray:
    """Exact d/dtheta of the compound loss at time t (frozen parameter)."""
    if t < 1:
        raise ContractViolation("open-loop gradient needs t >= 1")
    return open_loop_updates(sys, None, s0, theta, t)[t - 1]


def run_learning(sys: System, s0, theta0, J0, schedule: StepSchedule, rule=None,
                 phi=None, injector=None, T: int = 1, rng=None, theta_star=None,
                 dist_dims=None, record_every: int = 1,
                 config_meta=None) -> TrialRecord | list[TrialRecord]:
    """Run T learning steps and record the trial.

    An overflow anywhere aborts the trial and records the abort time;
    divergence experiments treat that as a measurement, not a failure.
    theta_star (optional) is the reference for the recorded distances;
    dist_dims restricts the distance to the leading coordinates (useful
    when theta is augmented with preconditioner statistics). injector is
    None or a RankOneInjector; with one, the learner carries a pair that
    starts from the injector's initial_pair at every run, instead of a
    dense J; J0 must then be None or zero, and the signs are drawn in
    blocks (`rankone.SignStream`).

    Seed-batched: theta0 of shape (S, p) and s0 of shape (S, n) run S seeds
    through one learner (dense J, no injector), config_meta is a list of S
    dicts and the result a list of S TrialRecords, each identical to the
    record of its seed run alone. A row that overflows at step t ends
    there as it would alone; it is dropped (`take_seeds` of the system,
    rule and operator, where they have one) and step t is redone for the
    other rows from the same state.
    """
    if T < 1:
        raise ContractViolation("horizon T must be >= 1")
    theta0 = np.asarray(theta0, dtype=float)
    batched = theta0.ndim == 2
    step, step_args = dense_step, ()
    if injector is not None:
        if batched or not isinstance(injector, RankOneInjector):
            raise ContractViolation("an injector is a RankOneInjector, and seed-batched learning takes none")
        # The learner carries a pair in place of a dense J.
        if J0 is not None and np.any(J0):
            raise ContractViolation(
                "a rank-one injector starts from its initial_pair; J0 must be None or zero")
        J0 = injector.initial_pair
        if J0 is None:
            J0 = RankOnePair.zero(len(np.atleast_1d(s0)), len(theta0))
        step, step_args = pair_step, (injector.nbt, SignStream(rng, T))
    elif J0 is None:
        J0 = np.zeros(np.atleast_1d(s0).shape + theta0.shape[-1:])
    ls = LearnerState(t=0, s=s0, J=J0, theta=theta0)
    ref = None if theta_star is None else np.asarray(theta_star, dtype=float)[:dist_dims]

    def dists(theta):
        if ref is None:
            return [np.nan] * (len(theta) if theta.ndim == 2 else 1)
        return _norms(theta[..., :dist_dims] - ref)

    # One builder per row of the learner state, in row order.
    live = [RecordBuilder(meta) for meta in (config_meta if batched else [config_meta])]
    builders = list(live)
    final_theta = {}
    for builder, dist in zip(live, dists(theta0)):
        builder.add(0, dist, np.nan, np.nan)
    t = 1
    while t <= T:
        try:  # one LearnerState, updated in place
            ls.s, ls.J, ls.theta, ls.v = step(sys, t, ls.s, ls.theta, ls.J, schedule.eta(t), rule, phi,
                                              *step_args)
            ls.t = t
        except NumericOverflow as exc:
            failed = range(len(live)) if exc.rows is None else exc.rows
            for r in failed:
                theta = ls.theta[r] if batched else ls.theta
                live[r].abort_t = exc.t
                live[r].add(exc.t, dists(theta)[0], np.nan, np.nan)
                final_theta[live[r]] = theta
            keep = np.setdiff1d(np.arange(len(live)), failed)
            if not len(keep):
                break
            # Drop the failed rows and redo step t for the others.
            live = [live[r] for r in keep]
            ls = LearnerState(t=ls.t, s=ls.s[keep], J=ls.J[keep], theta=ls.theta[keep])
            # A part without per-seed data (no take_seeds) serves every row.
            sys, rule, phi = (part.take_seeds(keep) if hasattr(part, "take_seeds") else part
                              for part in (sys, rule, phi))
            continue
        if t % record_every == 0 or t == T:
            losses = np.atleast_1d(sys.loss(t, ls.s))
            for builder, dist, loss, gnorm in zip(live, dists(ls.theta), losses, _norms(ls.v)):
                builder.add(t, dist, loss, gnorm)
        t += 1
    for r, builder in enumerate(live):
        final_theta[builder] = ls.theta[r] if batched else ls.theta
    records = [builder.build(final_theta=final_theta[builder]) for builder in builders]
    return records if batched else records[0]


def _norms(x):
    """[||x||] for a vector, or the norms of the rows of a seed-batched x."""
    if x.ndim == 1:
        # np.linalg.norm's own formula, minus its call overhead.
        return [math.sqrt(x.dot(x))]
    return np.sqrt(row_dot(x, x))


def deviation(sys: System, theta_anchor, states, t0: int, t1: int,
              schedule: StepSchedule, rule=None, phi=None) -> float:
    """Parameter-space deviation of a noisy run from the exact algorithm.

    `states` holds the noisy trajectory's maintained pairs (s_t, J_t) for
    t in [t0, t1] (states[k] belongs to time t0+k; LearnerState instances
    or (s, J) tuples both work). Two parameter sequences are rebuilt from
    theta_anchor at t0: one driven by the noisy pairs, and a regularized
    one whose pairs follow the exact recursion but consume the *noisy*
    sequence's parameters. The deviation is the distance between the two
    parameters at t1; it is zero iff the noise had no effect on the
    parameter by then. An overflow of the regularized pair or of a rule's
    output raises NumericOverflow, as in the learner.
    """
    if t1 < t0:
        raise ContractViolation("need t1 >= t0")
    if len(states) < t1 - t0 + 1:
        raise ContractViolation(f"states must cover [{t0}, {t1}] ({t1 - t0 + 1} entries)")

    def unpack(m):
        if isinstance(m, LearnerState):
            return m.s, m.J.matrix() if isinstance(m.J, RankOnePair) else m.J
        s, J = m
        return np.asarray(s, dtype=float), np.atleast_2d(np.asarray(J, dtype=float))

    theta = np.asarray(theta_anchor, dtype=float)
    theta_bar = theta.copy()
    s_bar, J_bar = unpack(states[0])

    for t in range(t0 + 1, t1 + 1):
        eta = schedule.eta(t)
        s_noisy, J_noisy = unpack(states[t - t0])
        # Regularized pair: exact recursion driven by the noisy parameters.
        s_bar, J_bar, v_bar = forward_step(sys, t, s_bar, theta, J_bar)
        v = np.atleast_1d(sys.d_loss_ds(t, s_noisy)) @ J_noisy
        if rule is not None:
            v = guard(rule.apply(t, v, s_noisy, theta), "update-direction", t)
            v_bar = guard(rule.apply(t, v_bar, s_bar, theta), "update-direction", t)
        theta_new = phi.apply(t, theta, eta * v) if phi is not None else theta - eta * v
        theta_bar = phi.apply(t, theta_bar, eta * v_bar) if phi is not None else theta_bar - eta * v_bar
        theta = theta_new

    return float(np.linalg.norm(theta - theta_bar))

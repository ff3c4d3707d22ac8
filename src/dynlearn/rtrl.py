"""Forward-mode online learning of dynamical systems.

The learner carries (s_t, J_t, theta_t) and advances all three each step:

    s_t     = T_t(s_{t-1}, theta_{t-1})
    J_t     = dT_t/ds . J_{t-1} + dT_t/dtheta
    v_t     = U_t(dl_t/ds . J_t, s_t, theta_{t-1}, eta_t)
    theta_t = Phi_t(theta_{t-1}, eta_t * v_t)

with the Jacobians of T_t evaluated at (s_{t-1}, theta_{t-1}). The update
ordering matters: the state and Jacobian both use theta_{t-1}, and only
then is the parameter moved. The learner evaluates eta_t once per step
and hands it to the rule, which may read it (an adaptive rule's
statistic coupling). With eta_t = 0 the parameter stays frozen and J_t
is the exact Jacobian of the state with respect to the parameter, which
is what the open-loop helpers below compute: they hand the rule 0.0.

`forward_step` is the one place where the first two lines are written:
the dense learner step `dense_step`, the open-loop helpers and the
regularized pair of `deviation` all advance (s, J) through it. A rule or
update operator of None is the identity rule U_t(g) = g and the plain
update Phi_t(theta, w) = theta - w.

On a system that is not `recurrent` (T_t does not read s, so dT_t/ds = 0)
the recursion has no memory, J_t = dT_t/dtheta, and exact RTRL is SGD on
the per-step loss: the step costs O(np), with neither dT/ds nor the
product dT/ds . J_{t-1}, whose result is known to be zero.

J_t is either a dense matrix or, for the rank-one algorithms (UORO,
NoBackTrack), a `RankOnePair` (v_state, v_param) standing for
v_state (x) v_param. A pair advances through `rankone.pair_step`: an
unbiased reduction replaces the J recursion (imperfect RTRL), dT/dtheta
is used only through the system's products, and the gradient is
(dl_t/ds . v_state) v_param, so no dense J is ever formed. A
`RankOneInjector` names the reducer. `dense_step` and `pair_step` are
the one-step API; `run_learning` is the one driver: it starts from
J_0 = 0 (the zero pair) and carries (s, J, theta) from step to step.

The dense learner also runs seed-batched: s (S, n), J (S, n, p) and
theta (S, p) hold S seeds of one arm, on a system, rule and update
operator that act row by row (see `dynamics._SeedBatchable`). Every row
is bit-identical to its seed run alone: the row products are stacked
matmuls, `np.vecdot` and `np.vecmat`, which run the one-seed products'
kernels (einsum and (a * b).sum(1) may round otherwise).
"""

from __future__ import annotations

import numpy as np

from .dynamics import ContractViolation, NumericOverflow, System, guard
from .rankone import RankOneInjector, RankOnePair, SignStream, pair_step
from .records import RecordBuilder, TrialRecord
from .schedules import StepSchedule

_FLOAT = np.dtype(float)

__all__ = [
    "forward_step",
    "dense_step",
    "open_loop_gradient",
    "open_loop_updates",
    "run_learning",
    "deviation",
]


def forward_step(sys: System, t: int, s, theta, J):
    """(s_t, J_t, g_t) from (s_{t-1}, J_{t-1}) at the parameter theta.

    s_t = T_t(s, theta), J_t = dT_t/ds . J + dT_t/dtheta, with dT_t/dtheta
    added by the system's `d_transition_dtheta_add` into the fresh product
    (a structured dT_t/dtheta is never built dense), and the gradient row
    g_t = dl_t/ds(s_t) . J_t. s_t is guarded as stage "transition", then
    J_t as stage "jacobian". A J of shape (S, n, p) advances S seeds.

    On a system that is not `recurrent` J is not read: J_t is a fresh
    0 + dT_t/dtheta, the bits of the product path, whose product is exact
    zeros (+ 0.0 makes -0.0 0.0).
    """
    batched = J.ndim == 3
    recurrent = sys.recurrent
    if recurrent:
        jac_s = sys.d_transition_ds(t, s, theta)
        if getattr(jac_s, "ndim", 0) < 2:  # a scalar or vector of a system of dimension 1
            jac_s = np.atleast_2d(jac_s)
    s_new = sys.transition(t, s, theta)
    if type(s_new) is not np.ndarray or s_new.dtype is not _FLOAT:
        s_new = np.asarray(s_new, dtype=float)
    guard(s_new, "transition", t, batched)
    if recurrent:
        J_new = sys.d_transition_dtheta_add(t, s, theta, jac_s @ J)
    else:
        J_new = sys.d_transition_dtheta(t, s, theta)
        if getattr(J_new, "ndim", 0) < 2:
            J_new = np.atleast_2d(J_new)
        J_new = J_new + 0.0
    J_new = guard(J_new, "jacobian", t, batched)
    dl = sys.d_loss_ds(t, s_new)
    if getattr(dl, "ndim", 0) < 1:
        dl = np.atleast_1d(dl)
    return s_new, J_new, np.vecmat(dl, J_new)


def dense_step(sys: System, t: int, s, theta, J, eta: float, rule, phi):
    """(s_t, J_t, theta_t, v_t): one learner step with a dense J, (S, n, p)
    seed-batched. `forward_step` guards the stages transition and jacobian,
    then the rule and operator move theta: update-direction, parameter.
    Like a rule, phi returns a float array."""
    batched = J.ndim == 3
    s_new, J_new, v = forward_step(sys, t, s, theta, J)
    if rule is not None:
        v = rule.apply(t, v, s_new, theta, eta)
    guard(v, "update-direction", t, batched)
    w = eta * v
    theta_new = theta - w if phi is None else phi.apply(t, theta, w)
    return s_new, J_new, guard(theta_new, "parameter", t, batched), v


def open_loop_updates(sys: System, rule, s0, theta, T: int) -> np.ndarray:
    """Update directions v_1..v_T at frozen theta, one forward pass.

    Row t-1 holds U_t(dl_t/ds . J_t, s_t, theta, 0.0) with J_t propagated
    from J_0 = 0, which equals the rule applied to the exact gradient of
    the compound loss at time t, at the frozen parameter's step size 0.0.
    A rule's output is guarded as stage "update-direction", as in the
    learner.
    """
    theta = np.asarray(theta, dtype=float)
    s = np.asarray(s0, dtype=float)
    J = np.zeros((len(s), len(theta)))
    out = np.zeros((T, len(theta)))
    for t in range(1, T + 1):
        s, J, v = forward_step(sys, t, s, theta, J)
        out[t - 1] = v if rule is None else guard(rule.apply(t, v, s, theta, 0.0), "update-direction", t)
    return out


def open_loop_gradient(sys: System, s0, theta, t: int) -> np.ndarray:
    """Exact d/dtheta of the compound loss at time t (frozen parameter)."""
    if t < 1:
        raise ContractViolation("open-loop gradient needs t >= 1")
    return open_loop_updates(sys, None, s0, theta, t)[t - 1]


def run_learning(sys: System, s0, theta0, schedule: StepSchedule, rule=None, phi=None,
                 injector=None, T: int = 1, rng=None, theta_star=None, dist_dims=None,
                 record_every: int = 1) -> TrialRecord | list[TrialRecord]:
    """Run T learning steps from J_0 = 0 and record the trial.

    An overflow anywhere aborts the trial and records the abort time;
    divergence experiments treat that as a measurement, not a failure.
    theta_star (optional) is the reference for the recorded distances;
    dist_dims restricts the distance to the leading coordinates (useful
    when theta is augmented with preconditioner statistics). injector is
    None (exact RTRL on a dense J, through `dense_step`) or a
    RankOneInjector: the learner then carries a pair from the zero pair
    through `pair_step`, with the signs drawn from rng in blocks
    (`rankone.SignStream`).

    Seed-batched: theta0 of shape (S, p) and s0 of shape (S, n) run S seeds
    through one learner (dense J, no injector), every other argument as for
    one seed; the result is a list of S TrialRecords, each identical to the
    record of its seed run alone. A row that overflows at step t ends there
    as it would alone; it is dropped (`take_seeds` of the system, rule and
    operator, where they have one) and step t is redone for the other rows
    from the same state.

    Each recorded theta_t and v_t is kept until its block of rows ends
    (`records.RecordBuilder`), so a rule and an update operator return an
    array that nobody writes into afterwards, as the library's do.
    """
    if T < 1:
        raise ContractViolation("horizon T must be >= 1")
    s = np.asarray(s0, dtype=float)
    theta = np.asarray(theta0, dtype=float)
    if (s.ndim not in (1, 2) or theta.ndim != s.ndim or theta.shape[:-1] != s.shape[:-1]
            or 0 in (s.shape[-1], theta.shape[-1])):
        raise ContractViolation(f"s0 {s.shape} and theta0 {theta.shape} must be (n,) and (p,), "
                                "or (S, n) and (S, p), with n, p >= 1")
    batched = theta.ndim == 2
    step, step_args = dense_step, ()
    if injector is None:
        J = np.zeros(s.shape + theta.shape[-1:])
    elif batched or not isinstance(injector, RankOneInjector):
        raise ContractViolation("an injector is a RankOneInjector, and seed-batched learning takes none")
    else:
        J = RankOnePair.zero(len(s), len(theta))
        step, step_args = pair_step, (injector.nbt, SignStream(rng, T))
    # rows(x) are the per-seed rows of x (views, batched); one builder per
    # row of the learner state, in row order.
    def rows(x):
        return x if batched else (x,)

    live = [RecordBuilder(theta_star=theta_star, dist_dims=dist_dims) for _ in rows(theta)]
    builders = list(live)

    final_theta = {}
    for builder, row_theta in zip(live, rows(theta)):
        builder.add(0, row_theta, None, np.nan)
    t = 1
    while t <= T:
        try:  # (s, J, theta) are rebound only when the step succeeds
            s, J, theta, v = step(sys, t, s, theta, J, schedule.eta(t), rule, phi, *step_args)
        except NumericOverflow as exc:
            failed = range(len(live)) if exc.rows is None else exc.rows
            for r in failed:
                row_theta = theta[r] if batched else theta
                live[r].abort_t = exc.t
                live[r].add(exc.t, row_theta, None, np.nan)
                final_theta[live[r]] = row_theta
            keep = np.setdiff1d(np.arange(len(live)), failed)
            if not len(keep):
                break
            # Drop the failed rows and redo step t for the others.
            live = [live[r] for r in keep]
            s, J, theta = s[keep], J[keep], theta[keep]
            # A part without per-seed data (no take_seeds) serves every row.
            sys, rule, phi = (part.take_seeds(keep) if hasattr(part, "take_seeds") else part
                              for part in (sys, rule, phi))
            continue
        if t % record_every == 0 or t == T:
            losses = np.atleast_1d(sys.loss(t, s))
            for builder, row_theta, row_v, loss in zip(live, rows(theta), rows(v), losses):
                builder.add(t, row_theta, row_v, loss)
        t += 1
    for r, builder in enumerate(live):
        final_theta[builder] = theta[r] if batched else theta
    records = [builder.build(final_theta=final_theta[builder]) for builder in builders]
    return records if batched else records[0]


def deviation(sys: System, theta_anchor, states, t0: int, t1: int,
              schedule: StepSchedule, rule=None, phi=None) -> float:
    """Parameter-space deviation of a noisy run from the exact algorithm.

    `states` holds the noisy trajectory's maintained pairs (s_t, J_t) for
    t in [t0, t1] (states[k] belongs to time t0+k); J_t is a dense matrix
    or a RankOnePair, read through `matrix()`. Two parameter sequences are rebuilt from
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
        s, J = m
        J = J.matrix() if isinstance(J, RankOnePair) else np.atleast_2d(np.asarray(J, dtype=float))
        return np.asarray(s, dtype=float), J

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
            v = guard(rule.apply(t, v, s_noisy, theta, eta), "update-direction", t)
            v_bar = guard(rule.apply(t, v_bar, s_bar, theta, eta), "update-direction", t)
        theta_new = phi.apply(t, theta, eta * v) if phi is not None else theta - eta * v
        theta_bar = phi.apply(t, theta_bar, eta * v_bar) if phi is not None else theta_bar - eta * v_bar
        theta = theta_new

    return float(np.linalg.norm(theta - theta_bar))

"""The one overflow guard, and the forward paths that stop on it."""

import numpy as np
import pytest

from dynlearn.dynamics import LinearSystem, NumericOverflow, guard
from dynlearn.rtrl import deviation, open_loop_updates, run_learning
from dynlearn.schedules import StepSchedule
from dynlearn.tbptt import TruncationSchedule, run_tbptt


@pytest.mark.parametrize("value, passes", [
    (np.nan, False),
    (np.inf, False),
    (-np.inf, False),
    (1e12, True),
    (-1e12, True),
    (np.nextafter(1e12, np.inf), False),
    (-np.nextafter(1e12, np.inf), False),
])
def test_guard_threshold(value, passes):
    x = np.array([0.5, value, -2.0])
    if passes:
        assert guard(x, "stage", 7) is x
    else:
        with pytest.raises(NumericOverflow) as exc:
            guard(x, "stage", 7)
        assert (exc.value.stage, exc.value.t) == ("stage", 7)


# s_t = 3 s_{t-1} + theta with theta = 0 and s_0 = 0: the state stays 0
# while J_t = (3^t - 1) / 2 first exceeds 1e12 at t = 26.
GROWING_J = dict(A=[[3.0]], B=[[1.0]])
J_OVERFLOW_T = 26


def test_jacobian_overflow_stops_every_forward_path():
    sysm = LinearSystem(**GROWING_J)
    s0, theta0, T = np.zeros(1), np.zeros(1), 40
    frozen = StepSchedule(0.0, 0.5)

    with pytest.raises(NumericOverflow) as exc:
        open_loop_updates(sysm, None, s0, theta0, T)
    assert (exc.value.stage, exc.value.t) == ("jacobian", J_OVERFLOW_T)

    states = [(s0, np.zeros((1, 1)))] * (T + 1)
    with pytest.raises(NumericOverflow) as exc:
        deviation(sysm, theta0, states, 0, T, frozen)
    assert (exc.value.stage, exc.value.t) == ("jacobian", J_OVERFLOW_T)

    rec = run_tbptt(sysm, s0, theta0, frozen, TruncationSchedule.fixed(T), T,
                    update_mode="per_step")
    assert rec.abort_t == J_OVERFLOW_T
    # The aggregate mode never forms J, and the state never overflows.
    rec = run_tbptt(sysm, s0, theta0, frozen, TruncationSchedule.fixed(T), T)
    assert rec.abort_t is None

    rec = run_learning(sysm, s0, theta0, None, frozen, T=T)
    assert rec.abort_t == J_OVERFLOW_T

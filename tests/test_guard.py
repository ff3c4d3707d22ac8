"""The one overflow guard, and the forward paths that stop on it."""

import numpy as np
import pytest

from dynlearn.dynamics import GUARD_NO_TEMP_SIZE, LinearSystem, NumericOverflow, guard
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
    # Both sides of the size gate (an |x| reduction below it, max and min
    # above it), with the tested entry first, in the middle and last.
    for size in (3, GUARD_NO_TEMP_SIZE + 1):
        for where in (0, size // 2, -1):
            x = np.linspace(-2.0, 0.5, size).reshape(1, -1)
            x[0, where] = value
            if passes:
                assert guard(x, "stage", 7) is x
            else:
                with pytest.raises(NumericOverflow) as exc:
                    guard(x, "stage", 7)
                assert (exc.value.stage, exc.value.t) == ("stage", 7), (size, where)


def test_guard_on_a_dense_jacobian_allocates_nothing_of_its_size():
    import tracemalloc

    J = np.linspace(-1.0, 1.0, 64 * 4224).reshape(64, 4224)
    guard(J, "jacobian", 1)
    tracemalloc.start()
    try:
        guard(J, "jacobian", 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak


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

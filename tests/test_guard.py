"""The one overflow guard, and the forward paths that stop on it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynlearn.dynamics import (
    GUARD_NO_TEMP_SIZE,
    GUARD_SCALAR_SIZE,
    OVERFLOW_LIMIT,
    LinearSystem,
    NumericOverflow,
    guard,
)
from dynlearn.rtrl import deviation, open_loop_updates, run_learning
from dynlearn.schedules import StepSchedule
from dynlearn.tbptt import TruncationSchedule, run_tbptt


THRESHOLD_CASES = [
    (np.nan, False),
    (np.inf, False),
    (-np.inf, False),
    (1e12, True),
    (-1e12, True),
    (np.nextafter(1e12, np.inf), False),
    (-np.nextafter(1e12, np.inf), False),
]

# One size in each of the three tiers (a loop over Python floats, one |x|
# reduction, max and min), and both sides of the first cut-off.
TIER_SIZES = (3, GUARD_SCALAR_SIZE, GUARD_SCALAR_SIZE + 1, GUARD_NO_TEMP_SIZE + 1)


def assert_verdict(x, passes, **kwargs):
    if passes:
        assert guard(x, "stage", 7, **kwargs) is x
        return None
    with pytest.raises(NumericOverflow) as exc:
        guard(x, "stage", 7, **kwargs)
    assert (exc.value.stage, exc.value.t) == ("stage", 7)
    return exc.value


@pytest.mark.parametrize("value, passes", THRESHOLD_CASES)
def test_guard_threshold(value, passes):
    # Every tier, with the tested entry first, in the middle and last.
    assert GUARD_SCALAR_SIZE + 1 < GUARD_NO_TEMP_SIZE
    for size in TIER_SIZES:
        for where in (0, size // 2, -1):
            x = np.linspace(-2.0, 0.5, size).reshape(1, -1)
            x[0, where] = value
            exc = assert_verdict(x, passes)
            assert exc is None or exc.rows is None, (size, where)


@pytest.mark.parametrize("value, passes", THRESHOLD_CASES)
def test_guard_threshold_on_scalars(value, passes):
    # A 0-d array, a numpy scalar and a Python float.
    for x in (np.array(value), np.float64(value), float(value)):
        assert_verdict(x, passes)


@pytest.mark.parametrize("value, passes", THRESHOLD_CASES)
def test_guard_batched_names_the_failing_rows(value, passes):
    # (S, k) arrays in every tier; rows 1 and 3 of 5 hold the tested value.
    for k in (2, GUARD_SCALAR_SIZE // 5 + 1, GUARD_NO_TEMP_SIZE // 5 + 1):
        x = np.linspace(-2.0, 0.5, 5 * k).reshape(5, k)
        x[1, 0] = value
        x[3, -1] = value
        exc = assert_verdict(x, passes, batched=True)
        if exc is not None:
            assert exc.rows.tolist() == [1, 3], k


SPECIALS = [np.nan, np.inf, -np.inf, 1e12, -1e12,
            np.nextafter(1e12, np.inf), -np.nextafter(1e12, np.inf)]


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data(), size=st.integers(1, 64))
def test_guard_matches_the_abs_max_oracle(data, size):
    x = np.array(data.draw(st.lists(
        st.floats(-1e12, 1e12), min_size=size, max_size=size)))
    for where in data.draw(st.lists(st.integers(0, size - 1), max_size=3)):
        x[where] = data.draw(st.sampled_from(SPECIALS))
    oracle = bool(np.abs(x).max() <= OVERFLOW_LIMIT)
    if oracle:
        assert guard(x, "stage", 7) is x
    else:
        with pytest.raises(NumericOverflow):
            guard(x, "stage", 7)


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

    # TBPTT never forms J, and the state never overflows.
    rec = run_tbptt(sysm, s0, theta0, frozen, TruncationSchedule.fixed(T), T)
    assert rec.abort_t is None

    rec = run_learning(sysm, s0, theta0, None, frozen, T=T)
    assert rec.abort_t == J_OVERFLOW_T


# Rows (None: not batched) and columns that put the array in every tier:
# the Python-float loop, and the one-BLAS-call pre-test in front of each
# exact test (|x| max, and max/min without a temporary).
ROWS = st.sampled_from([None, 1, 3, 5])
COLS = st.sampled_from([1, 4, 25, 300, 1100])
PASSING_EDGES = [1e12, -1e12, np.nextafter(1e12, 0), 0.0, -0.0, 5e-324]


def oracle_rows(x):
    """The rows of a batched x with an entry that is non-finite or above
    the limit in magnitude."""
    return np.flatnonzero(~(np.abs(x.reshape(len(x), -1)).max(axis=1) <= OVERFLOW_LIMIT)).tolist()


def laid_out(values, layout):
    """values (rows, cols) as a C-contiguous, transposed or strided array."""
    if layout == "contiguous":
        return values.copy()
    if layout == "transposed":
        return values.T.copy().T
    wide = np.zeros((len(values), 2 * values.shape[1]))
    wide[:, ::2] = values
    return wide[:, ::2]


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data(), rows=ROWS, cols=COLS,
       layout=st.sampled_from(["contiguous", "transposed", "strided"]))
def test_guard_verdict_stage_and_rows_on_every_tier_and_layout(data, rows, cols, layout):
    # Mixed magnitudes up to the limit (whose sum of squares often exceeds
    # L^2, so the exact test runs on passing arrays too), with entries at
    # +-nextafter(L), NaN and +-inf placed anywhere.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    shape = (rows or 1, cols)
    top = data.draw(st.sampled_from([1.0, 1e6, 1e12]))
    values = rng.uniform(-1.0, 1.0, shape) * top ** rng.uniform(0.0, 1.0, shape)
    for _ in range(data.draw(st.integers(0, 3))):
        where = (data.draw(st.integers(0, shape[0] - 1)), data.draw(st.integers(0, cols - 1)))
        values[where] = data.draw(st.sampled_from(SPECIALS + PASSING_EDGES))
    x = laid_out(values, layout)
    if rows is None:
        x = x[0]
    assert np.array_equal(x, values if rows else values[0], equal_nan=True)
    passes = bool(np.abs(x).max() <= OVERFLOW_LIMIT)
    exc = assert_verdict(x, passes, batched=rows is not None)
    if exc is not None:
        assert exc.rows is None if rows is None else exc.rows.tolist() == oracle_rows(x)


@pytest.mark.parametrize("dtype", [np.int64, np.float32])
def test_guard_exact_on_arrays_that_are_not_float64(dtype):
    # 2**40 > L, but its square wraps to 0 in int64: the one-call pre-test
    # is for float64 arrays only.
    for size in (3, GUARD_SCALAR_SIZE + 1, GUARD_NO_TEMP_SIZE + 1):
        x = np.zeros(size, dtype=dtype)
        assert guard(x, "stage", 7) is x
        x[-1] = 2**40
        assert_verdict(x, False)

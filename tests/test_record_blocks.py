"""The recorder's block-derived norm columns against the per-row formula.

`RecordBuilder` derives theta_dist and grad_norm once per block of rows
with one `np.vecdot` of the stacked rows and one `np.sqrt`; the oracle
is the formula the learners applied to each row before,
math.sqrt(x.dot(x)).
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import RowRecord, philox

from dynlearn.dynamics import NonRecurrentRegression, NumericOverflow
from dynlearn.records import CSV_BLOCK_ROWS, RECORD_BLOCK_ENTRIES, RecordBuilder
from dynlearn.rtrl import dense_step, run_learning
from dynlearn.schedules import StepSchedule

DIMS = st.one_of(st.sampled_from([1, 2, 3, 4, 7, 8, 16, 33, 1088, 4224]), st.integers(1, 4224))


def norm(x):
    return math.sqrt(x.dot(x))


def same_bits(a, b):
    """a and b hold the same floats, bit for bit, NaN at the same places."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


def block_rows(kept):
    """Rows per block after the first row, for rows that keep kept floats."""
    return max(1, min(CSV_BLOCK_ROWS, RECORD_BLOCK_ENTRIES // kept))


@settings(max_examples=60, deadline=None)
@given(p=DIMS, seeds=st.sampled_from([0, 1, 3]), size=st.sampled_from(["1", "2", "before", "at", "after", "2 blocks"]),
       cut=st.one_of(st.none(), st.integers(1, 4224)), with_star=st.booleans(),
       none_rows=st.lists(st.integers(0, 4000), max_size=3))
@example(p=1, seeds=0, size="after", cut=None, with_star=True, none_rows=[1024])
@example(p=4224, seeds=3, size="2 blocks", cut=100, with_star=True, none_rows=[])
def test_builder_norms_equal_the_per_row_formula(p, seeds, size, cut, with_star, none_rows):
    # seeds = 0: each row is its own array; else row views of (seeds, p)
    # arrays, which keep the whole batch alive and so shorten the blocks.
    # The first row is a block of its own, so the next block ends at row
    # `block` (0-based): the last row comes before, at or after that end.
    rng = philox(p + 7 * seeds)
    block = block_rows(p * max(seeds, 1))
    n = {"1": 1, "2": 2, "before": block, "at": block + 1, "after": block + 2, "2 blocks": 2 * block + 1}[size]
    dist_dims = None if cut is None else min(cut, p)
    star = rng.normal(size=p) if with_star else None
    scale = np.exp(rng.uniform(-20.0, 20.0, size=(n, 1)))
    thetas, directions = rng.normal(size=(n, p)) * scale, rng.normal(size=(n, p)) / scale
    none_rows = {i % n for i in none_rows} | {0}
    builder = RecordBuilder(with_intervals=True, theta_star=star, dist_dims=dist_dims)
    for i in range(n):
        if seeds:
            theta = np.tile(thetas[i], (seeds, 1))[seeds - 1]
            v = np.tile(directions[i], (seeds, 1))[0]
        else:
            theta, v = thetas[i], directions[i]
        builder.add(i, theta, None if i in none_rows else v, float(i), i % 5)
    record = builder.build()
    ref = None if star is None else star[:dist_dims]
    want_dist = [np.nan if ref is None else norm(th[:dist_dims] - ref) for th in thetas]
    want_norm = [np.nan if i in none_rows else norm(v) for i, v in enumerate(directions)]
    assert same_bits(record.theta_dist, want_dist)
    assert same_bits(record.grad_norm, want_norm)
    assert record.t.tolist() == list(range(n)) and record.loss.tolist() == [float(i) for i in range(n)]
    assert record.interval_k.tolist() == [i % 5 for i in range(n)]


def test_block_sizes():
    assert block_rows(1) == CSV_BLOCK_ROWS
    assert block_rows(1088) == 14 and block_rows(4224) == 3
    # A stacked block of parameters stays below 128 KiB.
    assert RECORD_BLOCK_ENTRIES * 8 < 128 * 1024


# --- the learner's rows -------------------------------------------------------

def regression(p, horizon, seeds, abort_at, rng):
    """(xs, ys, indices) of a regression whose seed r draws the sample with
    a NaN target at abort_at[r] (None: never), so its update direction is
    NaN there and the row aborts."""
    n = 6
    xs = rng.normal(size=(n + 1, p)) / math.sqrt(p)
    ys = np.append(rng.normal(size=n), np.nan)
    indices = rng.integers(0, n, size=(seeds, horizon + 1))
    for r, t in enumerate(abort_at):
        if t is not None:
            indices[r, t] = n
    return xs, ys, indices


def oracle_run(xs, ys, indices, theta0, schedule, T, theta_star, dist_dims, every):
    """One seed's record from `dense_step` and the per-row formula."""
    sys = NonRecurrentRegression(xs, ys, indices)
    s, theta, J = np.zeros(1), theta0, np.zeros((1, len(theta0)))
    ref = None if theta_star is None else theta_star[:dist_dims]

    def dist(th):
        return np.nan if ref is None else norm(th[:dist_dims] - ref)

    record = RowRecord()
    record.add(0, dist(theta), np.nan, np.nan)
    for t in range(1, T + 1):
        try:
            s, J, theta, v = dense_step(sys, t, s, theta, J, schedule.eta(t), None, None)
        except NumericOverflow as exc:
            record.abort_t = exc.t
            record.add(exc.t, dist(theta), np.nan, np.nan)
            break
        if t % every == 0 or t == T:
            record.add(t, dist(theta), sys.loss(t, s), norm(v))
    return record.build(final_theta=theta)


def assert_same_record(got, want):
    assert got.abort_t == want.abort_t
    assert np.array_equal(got.t, want.t)
    for name in ("theta_dist", "loss", "grad_norm"):
        assert same_bits(getattr(got, name), getattr(want, name)), name


@settings(max_examples=25, deadline=None)
@given(data=st.data(), p=DIMS, seeds=st.sampled_from([1, 2, 3]), every=st.sampled_from([1, 2, 3]),
       with_star=st.booleans())
def test_learner_rows_equal_the_per_row_formula(data, p, seeds, every, with_star):
    # Unbatched (one seed) and seed-batched, with rows that abort before,
    # at and after a block boundary and rows that are dropped there.
    batched = seeds > 1 or data.draw(st.booleans(), label="batched")
    block = block_rows(p * seeds if batched else p)
    T = every * (2 * block + 2)
    near_edges = sorted({every * (m * block + d) + e for m in (1, 2) for d in (-1, 0, 1) for e in (-1, 0)
                         if 1 <= every * (m * block + d) + e <= T})
    abort_at = [data.draw(st.one_of(st.none(), st.sampled_from(near_edges)), label=f"abort row {r}")
                for r in range(seeds)]
    dist_dims = data.draw(st.one_of(st.none(), st.integers(1, p)), label="dist_dims")
    rng = philox(p * 31 + seeds)
    xs, ys, indices = regression(p, T, seeds, abort_at, rng)
    theta0 = rng.normal(size=(seeds, p))
    star = rng.normal(size=p) if with_star else None
    schedule = StepSchedule(0.05, 0.6)
    want = [oracle_run(xs, ys, indices[r], theta0[r], schedule, T, star, dist_dims, every)
            for r in range(seeds)]
    if batched:
        got = run_learning(NonRecurrentRegression(xs, ys, indices), np.zeros((seeds, 1)), theta0, schedule,
                           T=T, theta_star=star, dist_dims=dist_dims, record_every=every)
    else:
        got = [run_learning(NonRecurrentRegression(xs, ys, indices[0]), np.zeros(1), theta0[0], schedule,
                            T=T, theta_star=star, dist_dims=dist_dims, record_every=every)]
    for got_r, want_r, t in zip(got, want, abort_at):
        assert got_r.abort_t == t
        assert_same_record(got_r, want_r)

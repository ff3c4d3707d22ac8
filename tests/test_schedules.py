"""Step schedules, sample indices, exponent constraints, ergodic estimation."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import philox

from dynlearn.dynamics import ConfigurationError
from dynlearn.schedules import (
    ExponentProfile,
    StepSchedule,
    ergodic_exponent_estimate,
    moment_rate_range,
    sample_indices,
    validate_exponents,
)


def test_schedule_values_and_monotonicity():
    sched = StepSchedule(0.1, 0.3)
    etas = sched.etas(1000)
    assert etas[0] == 0.1
    assert np.all(np.diff(etas) <= 0)
    assert sched.eta(8) == pytest.approx(0.1 * 8 ** (-0.3), rel=1e-15)


def test_schedule_partial_sums_diverge():
    # b <= 1 gives a divergent series; compare against the integral lower
    # bound sum_{t<=T} t^-b >= int_1^{T+1} x^-b dx
    for b in (0.3, 0.7, 1.0):
        sched = StepSchedule(1.0, b)
        total = float(np.sum(sched.etas(1_000_000)))
        if b < 1:
            integral = ((1_000_001.0) ** (1 - b) - 1.0) / (1 - b)
        else:
            integral = np.log(1_000_001.0)
        assert total >= integral > 10.0


def test_schedule_homogeneity_over_growing_windows():
    # sup/inf of eta over (T, T + T^A] tends to 1
    sched = StepSchedule(0.5, 0.7)
    A = 0.4
    for T in (10**3, 10**4, 10**5, 10**6):
        L = int(np.ceil(T**A))
        ratio = sched.eta(T + 1) / sched.eta(T + L)
        assert 1.0 <= ratio <= 1.0 + 5 * T ** (-(1 - A)) * 0.7 * 2


def test_etas_have_the_bits_of_eta_on_the_shipped_schedules():
    # etas(T) is [eta(1), ..., eta(T)] bit for bit: numpy's vectorised
    # power differs from the scalar pow in the last bit at about 5% of t.
    import glob
    import os

    from dynlearn.harness import ExperimentConfig, _step_schedule

    configs = glob.glob(os.path.join(os.path.dirname(__file__), "..", "configs", "*.ini"))
    pairs = {(s.gamma, s.b) for s in (_step_schedule(arm) for path in configs
                                      for _, arm in ExperimentConfig.load(path).arms())}
    assert {(0.05, 0.7), (0.1, 0.3), (0.1, 0.7), (0.5, 0.7)} <= pairs
    T = 100_000
    for gamma, b in sorted(pairs):
        sched = StepSchedule(gamma, b)
        want = np.array([sched.eta(t) for t in range(1, T + 1)])
        assert np.array_equal(sched.etas(T).view(np.int64), want.view(np.int64)), (gamma, b)
    assert StepSchedule(0.1, 0.7).etas(0).shape == (0,)


def test_one_eta_evaluation_per_step(monkeypatch):
    # The adam-fixed arm: the learner evaluates eta_t once per batch step
    # and hands it to the rule's fixed-beta2 coupling.
    from dynlearn.harness import ExperimentConfig, run_trials

    calls = []
    eta = StepSchedule.eta
    monkeypatch.setattr(StepSchedule, "eta", lambda self, t: calls.append(t) or eta(self, t))
    T = 300
    cfg = ExperimentConfig({"experiment.name": "eta", "experiment.horizon": str(T),
                            "system.kind": "period3", "algorithm.name": "adam", "algorithm.beta1": "0.0",
                            "algorithm.fixed_beta2": "0.99", "schedule.gamma": "0.5",
                            "schedule.b": "0.7", "init.radius": "1.0"})
    records = run_trials(cfg, range(4))
    assert not any(r.aborted for r in records.values())
    assert calls == list(range(1, T + 1))


def test_schedule_invalid():
    with pytest.raises(ConfigurationError):
        StepSchedule(0.1, 0.0)
    with pytest.raises(ConfigurationError):
        StepSchedule(0.1, 1.2)
    with pytest.raises(ConfigurationError):
        StepSchedule(-0.1, 0.5)


def test_validate_exponents_spec_cases():
    ok, _ = validate_exponents(ExponentProfile(0.1, 0.0, "exact_rtrl"), 0.3)
    assert ok
    ok, _ = validate_exponents(ExponentProfile(0.55, 0.0, "imperfect_rtrl"), 0.6)
    assert ok
    ok, violations = validate_exponents(ExponentProfile(0.55, 0.0, "imperfect_rtrl"), 0.5)
    assert not ok and violations
    ok, _ = validate_exponents(ExponentProfile(0.2, 0.1, "tbptt", A=0.4), 0.7)
    assert ok
    ok, _ = validate_exponents(ExponentProfile(0.2, 0.1, "tbptt", A=0.55), 0.7)
    assert not ok


def test_sample_indices_cycling():
    assert sample_indices("cycling", 3, 7).tolist() == [0, 0, 1, 2, 0, 1, 2, 0]


def test_sample_indices_reshuffle_epochs_are_permutations():
    idx = sample_indices("reshuffle", 5, 50, philox(0))
    for epoch in idx[1:].reshape(10, 5):
        assert sorted(epoch) == [0, 1, 2, 3, 4]


def test_sample_indices_iid_frequencies():
    draws = sample_indices("iid", 3, 100_000, philox(1))[1:]
    for i in range(3):
        freq = np.mean(draws == i)
        assert 0.32 <= freq <= 0.35


def test_sample_indices_determinism():
    a = sample_indices("iid", 7, 50, philox(9))
    b = sample_indices("iid", 7, 50, philox(9))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("scheme, N, rng, message", [
    ("cycling", 0, None, "dataset size N must be >= 1"),
    ("iid", 0, philox(0), "dataset size N must be >= 1"),
    ("sobol", 4, philox(0), "unknown sampling scheme 'sobol'"),
    ("reshuffle", 4, None, "reshuffle sampling needs an rng"),
    ("iid", 4, None, "iid sampling needs an rng"),
])
def test_sample_indices_refusals(scheme, N, rng, message):
    with pytest.raises(ConfigurationError, match=message):
        sample_indices(scheme, N, 10, rng)


def per_step_indices(scheme, N, T, rng=None):
    """The oracle: one Python generator step per index, as sample_indices
    drew them before it filled blocks."""
    def gen():
        t = 0
        while True:
            if scheme == "cycling":
                yield t % N
                t += 1
            elif scheme == "reshuffle":
                yield from rng.permutation(N)
            else:
                yield int(rng.integers(N))

    stream = gen()
    out = np.empty(T + 1, dtype=int)
    out[0] = 0
    for t in range(1, T + 1):
        out[t] = next(stream)
    return out


# T at and around the block edges (4,096 steps per block) is drawn often.
HORIZONS = st.one_of(st.sampled_from([0, 1, 4095, 4096, 4097, 8191, 8192, 8193]),
                     st.integers(0, 10_000))


@settings(max_examples=80, deadline=None, database=None)
@given(scheme=st.sampled_from(["cycling", "reshuffle", "iid"]),
       N=st.one_of(st.integers(1, 5000), st.sampled_from([1, 2, 16, 4096, 2**33 + 7])),
       T=HORIZONS, seed=st.integers(0, 2**32 - 1))
@example(scheme="iid", N=2**33 + 7, T=4097, seed=3)
@example(scheme="reshuffle", N=1, T=4097, seed=4)
@example(scheme="reshuffle", N=4097, T=8193, seed=5)
def test_sample_indices_match_per_step_draws(scheme, N, T, seed):
    # The same indices, dtype and final generator state as the per-step
    # loop, so trials stay byte-identical and later draws do not shift.
    # 2**33 + 7 takes numpy's 64-bit integers path; it is an iid case only.
    assume(N <= 5000 or scheme == "iid")
    rng, ref_rng = philox(seed), philox(seed)
    got = sample_indices(scheme, N, T, rng)
    want = per_step_indices(scheme, N, T, ref_rng)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert repr(rng.bit_generator.state) == repr(ref_rng.bit_generator.state)


def test_ergodic_estimate_cycling_cancellation():
    rng = philox(2)
    vals = rng.normal(size=(8, 3))
    vals -= vals.mean(axis=0)
    T = 8 * 500
    stream = np.tile(vals, (500, 1))
    report = ergodic_exponent_estimate(stream, T)
    assert report.a_hat <= 0.1


def test_ergodic_estimate_iid_clt_rate():
    # ||S_T|| of a high-dimensional +-1 walk concentrates around sqrt(d T),
    # making the fitted exponent land tightly on 1/2.
    rng = philox(3)
    stream = rng.choice([-1.0, 1.0], size=(50_000, 100))
    report = ergodic_exponent_estimate(stream, 50_000)
    assert 0.4 <= report.a_hat <= 0.65


def test_ergodic_estimate_flags_uncentered():
    stream = np.ones((10_000, 1))
    report = ergodic_exponent_estimate(stream, 10_000)
    assert report.flagged and report.a_hat == pytest.approx(1.0, abs=0.01)


def test_ergodic_estimate_degenerate_zero():
    report = ergodic_exponent_estimate(np.zeros((1000, 2)), 1000)
    assert report.flagged and report.a_hat == 0.0


def test_ergodic_estimate_one_row_is_flagged():
    # One row leaves one probe: no rate can be fitted, and the report says so.
    for row in (np.ones((1, 2)), np.zeros((1, 2))):
        report = ergodic_exponent_estimate(row, 1)
        assert report.flagged and report.a_hat == 0.0 and list(report.probes) == [1]


@pytest.mark.parametrize("T", [2, 3, 9, 25, 1000])
def test_ergodic_estimate_probes_unchanged_from_two_rows(T):
    want = np.unique(np.round(np.logspace(np.log10(max(2, T // 10)), np.log10(T), 20)).astype(int))
    stream = philox(5).normal(size=(T, 2))
    report = ergodic_exponent_estimate(stream, T)
    assert np.array_equal(report.probes, want)
    assert np.array_equal(report.partial_norms, np.linalg.norm(np.cumsum(stream, axis=0), axis=1)[want - 1])


def test_cycling_epoch_sums_cancel_exactly():
    rng = philox(4)
    vals = rng.normal(size=(16, 5))
    centered = vals - vals.mean(axis=0)
    idx = sample_indices("cycling", 16, 16 * 20)
    acc = np.zeros(5)
    for t in range(1, 16 * 20 + 1):
        acc += centered[idx[t]]
        if t % 16 == 0:
            assert np.max(np.abs(acc)) < 1e-12
            acc[:] = 0.0


def test_moment_rate_range():
    assert moment_rate_range(8.0).b_min == pytest.approx(0.75, abs=0)
    r4 = moment_rate_range(4.0)
    assert r4.b_min == pytest.approx(1.0, abs=0) and r4.empty
    assert moment_rate_range(1e9).b_min == pytest.approx(0.5, abs=1e-6)
    with pytest.raises(ConfigurationError):
        moment_rate_range(1.5)


def test_moment_rate_contains():
    r = moment_rate_range(8.0)
    assert r.contains(0.8) and not r.contains(0.75) and not r.contains(1.01)

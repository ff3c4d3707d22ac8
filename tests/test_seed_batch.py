"""Seed-batched learner: every seed of an arm in one pass, byte-identical
to running the seeds one by one."""

import numpy as np
import pytest

import dynlearn.harness as harness
import dynlearn.rtrl as rtrl
from dynlearn.dynamics import ContractViolation, NumericOverflow, guard
from dynlearn.harness import SEED_BATCHED, ExperimentConfig, run_trial, run_trials
from dynlearn.rankone import RankOneInjector
from dynlearn.rtrl import LearnerState, run_learning
from dynlearn.schedules import StepSchedule

BASE = {
    "experiment.name": "batch",
    "experiment.horizon": "301",
    "experiment.record_every": "7",  # does not divide the horizon
    "system.kind": "linear_regression",
    "system.n_samples": "16",
    "system.dim": "4",
    "system.noise": "0.1",
    "system.data_seed": "1234",
    "schedule.gamma": "0.1",
    "schedule.b": "0.5",
    "sampling.scheme": "iid",
    "init.theta0": "near_optimum",
    "init.radius": "0.5",
}

PAIRS = sorted(SEED_BATCHED)


def config(**extra):
    return ExperimentConfig({**BASE, **{k: str(v) for k, v in extra.items()}})


def pair_config(algo, kind, **extra):
    extra = {"algorithm.name": algo, "system.kind": kind, **extra}
    if kind == "period3":
        extra.update({"schedule.gamma": 0.5, "schedule.b": 0.7, "init.radius": 1.0})
    return config(**extra)


def csv_bytes(record, path):
    record.to_csv(str(path))
    return path.read_bytes()


def assert_same_as_loop(cfg, seeds, tmp_path):
    # run_trials batches two or more seeds; _run takes the batch path for
    # a single seed too.
    if len(seeds) > 1:
        batched = run_trials(cfg, seeds)
    else:
        batched = dict(zip(seeds, harness._run(cfg, list(seeds))))
    assert list(batched) == list(seeds)
    for seed in seeds:
        alone = run_trial(cfg, seed)
        got = batched[seed]
        assert csv_bytes(got, tmp_path / "batch.csv") == csv_bytes(alone, tmp_path / "loop.csv")
        assert got.abort_t == alone.abort_t
        assert got.config_hash == alone.config_hash
        assert np.array_equal(got.final_theta, alone.final_theta)
    return batched


@pytest.mark.parametrize("seeds", [[3], list(range(8))], ids=["S1", "S8"])
@pytest.mark.parametrize("algo, kind", PAIRS)
def test_batched_csv_bytes_equal_the_loop(algo, kind, seeds, tmp_path):
    assert_same_as_loop(pair_config(algo, kind), seeds, tmp_path)


@pytest.mark.parametrize("extra", [
    {"algorithm.name": "adam", "system.kind": "period3", "algorithm.fixed_beta2": 0.99,
     "schedule.gamma": 0.5, "schedule.b": 0.7},
    {"algorithm.name": "rmsprop", "algorithm.c": 0.5, "algorithm.eps": 1e-3},
    {"algorithm.name": "sgd", "system.kind": "momentum", "system.beta": 0.6,
     "sampling.scheme": "reshuffle"},
    {"algorithm.name": "sgd", "init.theta0": "0.1,0.2,0.3,0.4", "experiment.record_every": 1},
], ids=["adam-fixed-beta2", "rmsprop-c", "momentum-reshuffle", "sgd-explicit-theta0"])
def test_batched_variants_equal_the_loop(extra, tmp_path):
    assert_same_as_loop(config(**extra), list(range(5)), tmp_path)


@pytest.mark.parametrize("extra", [
    # sgd: seven seeds diverge at six different steps, one finishes.
    {"algorithm.name": "sgd", "schedule.gamma": 0.25, "schedule.b": 0.05,
     "experiment.horizon": 400},
    # adam: three seeds fail together at one step and a fourth later, so
    # the rule's statistic drops rows too.
    {"algorithm.name": "adam", "schedule.gamma": 1.0, "schedule.b": 0.05,
     "algorithm.fixed_beta2": 0.5},
], ids=["sgd", "adam"])
def test_rows_abort_at_their_own_step(extra, tmp_path):
    records = assert_same_as_loop(config(**extra), list(range(8)), tmp_path)
    aborts = [records[s].abort_t for s in range(8)]
    assert None in aborts
    assert len({t for t in aborts if t is not None}) >= 2


def test_all_rows_aborting_ends_the_run(tmp_path):
    all_abort = config(**{"algorithm.name": "sgd", "system.kind": "momentum",
                          "schedule.gamma": 0.3, "schedule.b": 0.05, "experiment.horizon": 400})
    records = assert_same_as_loop(all_abort, list(range(8)), tmp_path)
    assert all(r.aborted for r in records.values())


def test_one_call_makes_T_steps_not_S_times_T(monkeypatch):
    calls = {"dense_step": 0}
    step = rtrl.dense_step

    def counting(*args, **kwargs):
        calls["dense_step"] += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(rtrl, "dense_step", counting)
    T = 50
    for algo, kind in PAIRS:
        calls["dense_step"] = 0
        records = run_trials(pair_config(algo, kind, **{"experiment.horizon": T}), range(8))
        assert len(records) == 8 and not any(r.aborted for r in records.values())
        assert calls["dense_step"] == T, (algo, kind)


@pytest.mark.parametrize("extra, seeds", [
    ({"algorithm.name": "uoro"}, [2, 0, 5]),
    ({"algorithm.name": "ong"}, [2, 0, 5]),
    ({"algorithm.name": "sgd", "algorithm.rule": "precond:scale:0.5"}, [2, 0, 5]),
    ({"algorithm.name": "rtrl", "system.kind": "rnn", "system.n": 2, "system.m": 1}, [2, 0, 5]),
    ({"algorithm.name": "adam"}, [4]),  # a single seed of a batchable arm
])
def test_other_arms_loop_run_trial(extra, seeds, monkeypatch):
    seen = []
    trial = harness.run_trial

    def recording(cfg, seed):
        seen.append(seed)
        return trial(cfg, seed)

    monkeypatch.setattr(harness, "run_trial", recording)
    records = run_trials(config(**{"experiment.horizon": 40, **extra}), seeds)
    assert seen == seeds and list(records) == seeds


def test_guard_names_failing_rows():
    x = np.array([[1.0, 2.0], [np.nan, 0.0], [0.0, -2e12], [1e12, -1e12]])
    with pytest.raises(NumericOverflow) as info:
        guard(x, "parameter", 7, batched=True)
    assert info.value.stage == "parameter" and info.value.t == 7
    assert info.value.rows.tolist() == [1, 2]
    with pytest.raises(NumericOverflow) as info:
        guard(x, "parameter", 7)
    assert info.value.rows is None
    assert guard(x[[0, 3]], "parameter", 7, batched=True) is not None


def test_batched_learner_contracts():
    from dynlearn.dynamics import NonRecurrentRegression

    xs = np.eye(2)
    sys = NonRecurrentRegression(xs, np.ones(2), np.zeros((3, 5), dtype=int))
    with pytest.raises(ContractViolation):
        run_learning(sys, np.zeros((3, 1)), np.zeros((3, 2)), None, StepSchedule(0.1, 0.5),
                     injector=RankOneInjector("uoro"), T=2, config_meta=[{}] * 3)
    with pytest.raises(ContractViolation):
        LearnerState(t=0, s=np.zeros((3, 1)), J=np.zeros((3, 1, 2)), theta=np.zeros((2, 2)))
    records = run_learning(sys, np.zeros((3, 1)), np.zeros((3, 2)), None, StepSchedule(0.1, 0.5),
                           T=4, theta_star=np.ones(2), config_meta=[{}] * 3)
    assert len(records) == 3 and all(len(r.t) == 5 for r in records)


def test_batched_losses_round_as_scalars():
    # Row r of a seed-batched loss equals the scalar computation bit for
    # bit; an array ** 2 (x * x) would differ from the scalar's pow in the
    # last bit for about one value in a thousand.
    from dynlearn.dynamics import LinearCoefficientLoss, SquaredErrorLoss

    rng = np.random.default_rng(np.random.Philox(key=5))
    xs, ys = rng.normal(size=(16, 4)), rng.normal(size=16)
    loss = SquaredErrorLoss(xs, ys)
    idx = rng.integers(16, size=20000)
    theta = rng.normal(size=(20000, 4)) * 10.0 ** rng.uniform(-3, 3, size=(20000, 1))
    for method in ("predict", "value", "grad"):
        got = getattr(loss, method)(idx, theta)
        want = np.array([getattr(loss, method)(int(i), th) for i, th in zip(idx, theta)])
        assert np.array_equal(got, want), method
    coef = LinearCoefficientLoss([3.0, -1.0, -1.0])
    idx3 = idx % 3
    assert np.array_equal(coef.value(idx3, theta[:, :1]),
                          [coef.value(int(i), th) for i, th in zip(idx3, theta[:, :1])])
    assert np.array_equal(coef.grad(idx3, theta[:, :1]),
                          [coef.grad(int(i), th) for i, th in zip(idx3, theta[:, :1])])
